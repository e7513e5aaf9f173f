"""One round of each benchmark workload, checked by the benchmark's own oracles.

``perfbench/run.py --seconds 0`` runs exactly one round of the workload's
operations in a fresh process and judges every report, so a change that would
make the benchmark report ``"correct": false`` fails here first.
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


@pytest.mark.parametrize("workload", sorted(EXPECTED_FAILED))
def test_one_benchmark_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == EXPECTED_FAILED[workload], proc.stdout
    if workload == "sharp":
        assert result["attempted"] == 24
