"""One round of each benchmark workload, checked by the benchmark's own oracles.

``perfbench/run.py --seconds 0`` runs exactly one round of the workload's
operations in a fresh process and judges every report, so a change that would
make the benchmark report ``"correct": false`` fails here first.  A traced
round (``--trace 1``) runs the round twice in one process, once under the
tracer, and requires the same bytes from both passes, so it also catches
state kept from one call to the next.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sharp's two auto-routed Monte Carlo operations run without a seed and are
# expected to fail; every other operation must succeed
EXPECTED_FAILED = {"sharp": 2, "weak-null": 0, "planning": 0}


def _one_round(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    return result, proc.stdout


@pytest.mark.parametrize("workload", sorted(EXPECTED_FAILED))
def test_one_benchmark_round_is_correct(workload):
    result, stdout = _one_round(workload, trace=0)
    assert result["failed"] == EXPECTED_FAILED[workload], stdout
    if workload == "sharp":
        assert result["attempted"] == 24


@pytest.mark.parametrize(
    "workload,attempted", [("sharp", 48), ("weak-null", 14), ("planning", 18)]
)
def test_one_traced_round_is_correct(workload, attempted):
    # a traced round runs every operation twice, so the counts double
    result, stdout = _one_round(workload, trace=1)
    assert result["attempted"] == attempted, stdout
    assert result["failed"] == 2 * EXPECTED_FAILED[workload], stdout
