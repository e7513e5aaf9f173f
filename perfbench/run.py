"""Benchmark of the dosesens command line: one workload per invocation.

    python3 perfbench/run.py --workload sharp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end:

* ``setup_s``: median of several cold starts of ``dosesens --version``;
* ``wall_s``: median time of one round, the workload's whole list of
  operations, tracing off;
* ``op_p50_s``: median time of one operation that did not fail;
* ``peak_rss_mb``: peak resident memory of the workload's process.

With ``--trace 1`` they are the per-layer metrics of ``tracer.py``, plus the
import cost of ``dosesens.cli`` and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

COLD_STARTS = 5
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
# the console-script entry point of dosesens, spelled out so that no
# installed copy of the package is needed
ENTRY = "import sys; from dosesens.cli import main; sys.exit(main())"


def bench_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("DOSESENS_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _timed(cmd, env) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(env) -> float:
    """Median cold start of a CLI call: a fresh interpreter running --version."""
    return statistics.median(
        _timed([sys.executable, "-c", ENTRY, "--version"], env) for _ in range(COLD_STARTS)
    )


def import_seconds(env) -> float:
    """Fresh-interpreter import of dosesens.cli, minus a bare interpreter start."""
    imports, bare = [], []
    for _ in range(IMPORT_SAMPLES):
        imports.append(_timed([sys.executable, "-c", "import dosesens.cli"], env))
        bare.append(_timed([sys.executable, "-c", "pass"], env))
    return statistics.median(imports) - statistics.median(bare)


def run_child(args, env, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    # run() kills the child on timeout and waits for it
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    with open(out / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(result, setup) -> dict:
    walls = [p["wall_s"] for r in result["rounds"] for p in r["passes"]]
    ops = [op["seconds"] for r in result["rounds"] for p in r["passes"]
           for op in p["ops"] if op["rc"] == 0]
    return {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result, out: Path, import_s) -> dict:
    import tracer

    with open(out / "spans.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    summaries, overhead = [], []
    for r in result["rounds"]:
        walls = {}
        for p in r["passes"]:
            walls[p["traced"]] = p["wall_s"]
            if p["traced"]:
                lo, hi = p["span_range"]
                summaries.append(tracer.summarize(spans[lo:hi], p["counts"]))
        overhead.append(walls[True] - walls[False])
    metrics = {"cli.import_s": (import_s, "s")}
    medians = tracer.median_summary(summaries)
    for key, unit in tracer.PER_PASS:
        metrics[key] = (medians[key], unit)
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dosesens CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import checks
    import plan

    if args.workload not in plan.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(plan.WORKLOADS)}")
    if not (ROOT / "src" / "dosesens" / "cli.py").is_file():
        sys.stderr.write(f"no dosesens sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    env = bench_env()
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        if args.trace:
            import_s = import_seconds(env)
        else:
            setup = setup_seconds(env)
        result = run_child(args, env, out)

        attempted, failed, problems = 0, 0, []
        for r in result["rounds"]:
            first = r["passes"][0]["ops"]
            for p in r["passes"]:
                attempted += len(p["ops"])
                if p is r["passes"][0]:
                    f, found = checks.check_pass(p["ops"])
                    failed += f
                    problems += [f"round {r['round']}: {msg}" for msg in found]
                    continue
                # the other pass ran the same inputs; tracing must not change output
                failed += sum(op["rc"] != 0 for op in p["ops"])
                for a, b in zip(first, p["ops"]):
                    if (a["rc"], a["stdout"]) != (b["rc"], b["stdout"]):
                        problems.append(f"round {r['round']}: {a['name']} output "
                                        "differs between traced and untraced passes")
        metrics = per_layer(result, out, import_s) if args.trace else end_to_end(result, setup)
        if args.trace:
            # keep the spans; drop the fixtures and captured reports
            shutil.move(str(out / "spans.json"),
                        str(WORK / f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for msg in problems:
        sys.stderr.write(f"CHECK FAILED {msg}\n")
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"{args.workload:>9} {name:<36} {value:>14.6g} {unit}\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
