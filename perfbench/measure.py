"""Run one workload's rounds in this process and time each CLI call.

Started by ``run.py`` as a fresh interpreter per workload.  Every operation
is a call of ``dosesens.cli.main(argv)`` with stdout and stderr captured in
memory; only that call is timed.  Rounds repeat, each with its own
fixtures, until ``--seconds`` have passed, and always run whole.

With ``--trace 1`` every round runs twice on the same inputs, once with the
tracer installed and once without, alternating which goes first; the exact
tail cache is cleared before each pass, so neither pass reads results the
other computed.  The difference of the two pass times is the tracing
overhead.

Writes ``result.json`` (and ``spans.json`` when traced) to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects an argument list
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - an uncaught error is a failed operation
        rc = "exception"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue()


def _run_pass(main, ops, tracer, round_index, pass_index):
    records, reports = [], {}
    start = time.perf_counter()
    for i, op in enumerate(ops):
        rec = op.record()
        argv = op.argv
        if op.derive is not None:
            try:
                argv = op.derive(reports)
            except (KeyError, TypeError) as exc:
                rec.update(argv=None, rc="dependency", seconds=0.0, stdout="",
                           stderr=f"input from an earlier operation missing: {exc}")
                records.append(rec)
                continue
        if tracer is not None:
            tracer.op = (round_index, pass_index, i)
        rc, seconds, stdout, stderr = _call(main, argv)
        rec.update(argv=argv, rc=rc, seconds=seconds, stdout=stdout, stderr=stderr)
        records.append(rec)
        if rc == 0:
            # parsed outside the timed call, for operations that build on it
            reports[op.name] = json.loads(stdout)
    return time.perf_counter() - start, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/dosesens")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.root) / "src"))
    import dosesens.cli as cli  # noqa: E402

    import plan  # noqa: E402

    out = Path(args.out)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer({name: sys.modules[name] for name in (
            "dosesens.cli", "dosesens.sharp", "dosesens.gammas", "dosesens.tails",
            "dosesens.weaknull", "dosesens.qclp", "dosesens.dgps",
        )})
    tail_cache = getattr(sys.modules["dosesens.tails"], "_convolved_distribution", None)

    rounds, spans = [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < args.seconds:
        ops = plan.build_round(args.workload, args.seed, k, out / f"round{k}")
        order = [False] if tracer is None else ([True, False] if k % 2 == 0 else [False, True])
        passes = []
        for p, traced in enumerate(order):
            if tail_cache is not None and len(order) > 1:
                tail_cache.cache_clear()
            main_fn = cli.main
            if traced:
                tracer.install()
                main_fn = tracer.wrap("cli.main", cli.main)
            try:
                wall, records = _run_pass(main_fn, ops, tracer if traced else None, k, p)
            finally:
                if traced:
                    tracer.uninstall()
            entry = {"traced": traced, "wall_s": wall, "ops": records}
            if traced:
                pass_spans, counts = tracer.take()
                entry["counts"] = counts
                entry["span_range"] = [len(spans), len(spans) + len(pass_spans)]
                spans.extend(pass_spans)
            passes.append(entry)
        rounds.append({"round": k, "passes": passes})
        k += 1

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        with open(out / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds, "peak_rss_mb": peak_kib / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
