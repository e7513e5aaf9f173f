"""Spans around the calls into each dosesens layer, for the traced run only.

The tracer replaces public functions in the namespace where their caller
looks them up (``dosesens.cli.read_csv``, ``dosesens.sharp.score``,
``dosesens.tails.exact_upper_tail`` ...), so nothing under ``src/`` changes
and untraced passes run the untouched program.  Spans stay in memory as
``[id, parent, op, name, start, end, attrs]`` lists; ``summarize`` turns one
pass's spans into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import statistics
import time


def _zscore_attrs(args, kwargs, out):
    return {"nodes": out.node_count, "status": out.status,
            "gap": out.gap if out.gap is not None else 0.0}


def _curve_attrs(args, kwargs, out):
    return {"evals": len(out.estimates) * out.estimates[0].reps if out.estimates else 0}


# (module, attribute, span name, attrs) -- every place a layer is entered
BOUNDARIES = (
    ("dosesens.cli", "read_csv", "pairs.read_csv", None),
    ("dosesens.cli", "build_schedule", "gammas.build_schedule", None),
    ("dosesens.gammas", "build_schedule", "gammas.build_schedule", None),
    ("dosesens.cli", "score", "scores.score", None),
    ("dosesens.sharp", "score", "scores.score", None),
    ("dosesens.sharp", "adjust_outcomes", "pairs.adjust_outcomes", None),
    ("dosesens.cli", "worst_case_pvalue", "sharp.worst_case_pvalue", None),
    ("dosesens.sharp", "worst_case_pvalue", "sharp.worst_case_pvalue", None),
    ("dosesens.cli", "confidence_region", "sharp.confidence_region", None),
    ("dosesens.tails", "exact_upper_tail", "tails.exact", None),
    ("dosesens.tails", "exact_lower_tail", "tails.exact", None),
    ("dosesens.tails", "mc_tails", "tails.mc", None),
    ("dosesens.cli", "weak_null_ci", "weaknull.weak_null_ci", None),
    ("dosesens.cli", "worst_case_zscore", "weaknull.worst_case_zscore", _zscore_attrs),
    ("dosesens.weaknull", "worst_case_zscore", "weaknull.worst_case_zscore",
     _zscore_attrs),
    ("dosesens.qclp", "minimize_linear", "qclp.minimize_linear", None),
    ("dosesens.cli", "design_sensitivity", "asymptotics.design_sensitivity", None),
    ("dosesens.cli", "bahadur_slope", "asymptotics.bahadur_slope", None),
    ("dosesens.cli", "power_curve", "simulate.power_curve", _curve_attrs),
)
# hot leaf calls: counted, no span
COUNTED = (("dosesens.tails", "normal_sf", "tails.normal_calls"),)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.counts: dict = {}
        self.op = None
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.op, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[6] = attrs(args, kwargs, out)
            return out

        return traced

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for module, attr, name, attrs in BOUNDARIES:
            owner = self.modules[module]
            if hasattr(owner, attr):
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr), attrs))
        for module, attr, key in COUNTED:
            owner = self.modules[module]
            if hasattr(owner, attr):
                self._patch(owner, attr, self._count(key, getattr(owner, attr)))
        spec = getattr(self.modules["dosesens.dgps"], "DgpSpec", None)
        if spec is not None and hasattr(spec, "draw"):
            self._patch(spec, "draw", self.wrap("dgps.draw", spec.draw))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


# ------------------------------------------------------------ summaries --

PER_PASS = (
    ("cli.self_s", "s"),
    ("pairs.read_csv_s", "s"), ("pairs.read_csv_calls", "count"),
    ("pairs.adjust_outcomes_s", "s"), ("pairs.adjust_outcomes_calls", "count"),
    ("scores.score_s", "s"),
    ("gammas.build_schedule_s", "s"),
    ("tails.exact_s", "s"), ("tails.exact_calls", "count"),
    ("tails.mc_s", "s"), ("tails.mc_calls", "count"),
    ("tails.normal_calls", "count"),
    ("sharp.pvalue_evals", "count"),
    ("qclp.solves", "count"), ("qclp.solve_s", "s"), ("qclp.us_per_solve", "us"),
    ("weaknull.nodes", "count"), ("weaknull.self_s", "s"),
    ("weaknull.certified", "count"), ("weaknull.bounded_gap", "z"),
    ("dgps.draw_s", "s"),
    ("asymptotics.design_sensitivity_s", "s"), ("asymptotics.bahadur_slope_s", "s"),
    ("simulate.power_curve_s", "s"), ("simulate.reps_per_s", "1/s"),
)
# layer metric -> span whose self time it sums, or whose calls it counts
_SELF = {
    "cli.self_s": "cli.main",
    "pairs.read_csv_s": "pairs.read_csv",
    "pairs.adjust_outcomes_s": "pairs.adjust_outcomes",
    "scores.score_s": "scores.score",
    "gammas.build_schedule_s": "gammas.build_schedule",
    "tails.exact_s": "tails.exact",
    "tails.mc_s": "tails.mc",
    "qclp.solve_s": "qclp.minimize_linear",
    "weaknull.self_s": "weaknull.worst_case_zscore",
    "dgps.draw_s": "dgps.draw",
    "asymptotics.design_sensitivity_s": "asymptotics.design_sensitivity",
    "asymptotics.bahadur_slope_s": "asymptotics.bahadur_slope",
    "simulate.power_curve_s": "simulate.power_curve",
}
_CALLS = {
    "pairs.read_csv_calls": "pairs.read_csv",
    "pairs.adjust_outcomes_calls": "pairs.adjust_outcomes",
    "tails.exact_calls": "tails.exact",
    "tails.mc_calls": "tails.mc",
    "qclp.solves": "qclp.minimize_linear",
}


def summarize(spans, counts) -> dict:
    """Per-layer metrics of one pass over a workload's operations.

    A span's self time is its duration minus that of its direct children;
    calls run one at a time, so children never overlap.
    """
    self_time = {}
    for sid, parent, _op, _name, start, end, _attrs in spans:
        self_time[sid] = self_time.get(sid, 0.0) + (end - start)
        if parent is not None:
            self_time[parent] = self_time.get(parent, 0.0) - (end - start)
    by_name: dict = {}
    for rec in spans:
        by_name.setdefault(rec[3], []).append(rec)

    out = {}
    for metric, name in _SELF.items():
        out[metric] = sum(self_time[r[0]] for r in by_name.get(name, ()))
    for metric, name in _CALLS.items():
        out[metric] = len(by_name.get(name, ()))
    out["tails.normal_calls"] = counts.get("tails.normal_calls", 0)

    solves = out["qclp.solves"]
    out["qclp.us_per_solve"] = 1e6 * out["qclp.solve_s"] / solves if solves else 0.0

    zscores = [r[6] for r in by_name.get("weaknull.worst_case_zscore", ())]
    out["weaknull.nodes"] = sum(a["nodes"] for a in zscores)
    out["weaknull.certified"] = sum(a["status"] == "optimal" for a in zscores)
    out["weaknull.bounded_gap"] = sum(a["gap"] for a in zscores if a["status"] == "bounded")

    # worst_case_pvalue calls per confidence interval
    regions = {r[0] for r in by_name.get("sharp.confidence_region", ())}
    evals = sum(1 for r in by_name.get("sharp.worst_case_pvalue", ()) if r[1] in regions)
    out["sharp.pvalue_evals"] = evals / len(regions) if regions else 0.0

    curves = by_name.get("simulate.power_curve", ())
    busy = sum(r[5] - r[4] for r in curves)
    out["simulate.reps_per_s"] = (
        sum(r[6]["evals"] for r in curves if r[6]) / busy if busy else 0.0
    )
    return out


def median_summary(per_pass: list) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key, _ in PER_PASS}
