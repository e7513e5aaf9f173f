"""Operation lists of the three workloads, rebuilt for every round.

A round is one pass over a workload's whole list of operations.  Round ``k``
of a run with seed ``s`` writes its fixture CSVs from generators keyed by
``(s, k, workload)``, so the same seed gives the same inputs, and no two
rounds of a run share an input: the exact tail route caches distributions
in-process, and a CLI user never hits that cache across calls.

Every operation is a ``dosesens`` argument list run in-process through
``dosesens.cli.main``; ``check`` names the independent check in
``checks.py`` that judges its output, and ``meta`` holds what that check
needs (fixture path, score kind, bias level, ...).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("sharp", "weak-null", "planning")
_STREAM = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# Outcome jitter of the weak-null fixtures around their fixed base designs.
# Branch-and-bound cost swings several-fold between unrelated 8-pair data
# sets, so each fixture keeps one base design and the seed perturbs it; node
# counts then stay within a few percent across seeds.
WEAK_JITTER = 0.03


@dataclass
class Op:
    name: str
    argv: list | None
    check: str
    meta: dict = field(default_factory=dict)
    group: str | None = None
    # The operation fails today because of a named fault (see README).
    expect_fault: bool = False
    # Builds argv from the parsed reports of earlier operations of the round.
    derive: Callable | None = None

    def record(self) -> dict:
        return {
            "name": self.name,
            "argv": self.argv,
            "check": self.check,
            "meta": self.meta,
            "group": self.group,
            "expect_fault": self.expect_fault,
        }


def power_workers() -> int:
    """Pool size for power-sim: two workers, capped at the usable CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def write_pairs(path, z_lo, z_hi, y_lo, y_hi, rng) -> str:
    """Write the ingestion CSV; which label gets the higher dose is random."""
    hi_first = rng.random(len(z_lo)) < 0.5
    lines = ["pair_id,unit_id,z,y"]
    for i in range(len(z_lo)):
        hi = (float(z_hi[i]), float(y_hi[i]))
        lo = (float(z_lo[i]), float(y_lo[i]))
        a, b = (hi, lo) if hi_first[i] else (lo, hi)
        lines.append(f"{i + 1},a,{a[0]!r},{a[1]!r}")
        lines.append(f"{i + 1},b,{b[0]!r},{b[1]!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


def _continuous(rng, n, effect):
    z_lo = rng.uniform(0.0, 3.0, n)
    z_hi = z_lo + rng.uniform(0.25, 2.0, n)
    y_lo = effect * z_lo + rng.normal(0.0, 1.0, n)
    y_hi = effect * z_hi + rng.normal(0.0, 1.0, n)
    return z_lo, z_hi, y_lo, y_hi


def _equal_gaps(rng, n, effect):
    # doses on a quarter grid, so every gap is exactly 1.0 in binary
    z_lo = rng.integers(0, 13, n) / 4.0
    z_hi = z_lo + 1.0
    y_lo = effect * z_lo + rng.normal(0.0, 1.0, n)
    y_hi = effect * z_hi + rng.normal(0.0, 1.0, n)
    return z_lo, z_hi, y_lo, y_hi


# ----------------------------------------------------------------- sharp --

LADDER = ("1", "1.25", "1.5", "2")


def sharp_round(rng, seed, k, workdir) -> list:
    def fixture(name, n, effect=0.3, maker=_continuous):
        return write_pairs(workdir / f"{name}.csv", *maker(rng, n, effect), rng)

    ops = []

    def analyze(name, path, n, test, gamma_bar, oracle, extra=(), group=None):
        ops.append(Op(
            name,
            ["analyze", path, "--test", test, "--gamma-bar", gamma_bar, *extra],
            "pvalue",
            {"csv": path, "n": n, "test": test, "gamma_bar": float(gamma_bar),
             "oracle": oracle},
            group=group,
        ))

    # exact route: binomial tails (equal gaps, McNemar), sign-pattern
    # enumeration at no bias, and a Wilcoxon lattice at a few hundred pairs
    eq20 = fixture("eq20", 20, maker=_equal_gaps)
    analyze("eq20-mcnemar", eq20, 20, "mcnemar", "1.5", "binomial")
    eq40 = fixture("eq40", 40, maker=_equal_gaps)
    for gb in LADDER:
        analyze(f"eq40-mcnemar-{gb}", eq40, 40, "mcnemar", gb, "binomial",
                ("--method", "exact"), group="ladder-eq40")
    w16 = fixture("w16", 16)
    analyze("w16-enumerate", w16, 16, "wilcoxon", "1", "enumeration")
    w250 = fixture("w250", 250, effect=0.2)
    analyze("w250-exact", w250, 250, "wilcoxon", "1.5", "lattice",
            ("--method", "exact"))

    # Monte Carlo route (26-99 pairs), with a seed
    w60 = fixture("w60", 60, effect=0.2)
    mc_seed = str(int(np.random.SeedSequence([seed, k]).generate_state(1)[0] % 100_000))
    analyze("w60-monte-carlo", w60, 60, "wilcoxon", "1.25", "lattice",
            ("--seed", mc_seed))

    # normal route over every score kind, and a bias ladder; these nine
    # calls of one size are the middle of the round's operation times, so
    # op_p50_s reads a dense cluster rather than a gap between sizes
    n1000 = fixture("n1000", 1000, effect=0.1)
    for test in ("mcnemar", "wilcoxon", "double-rank", "dose-weighted", "sqrt(r_z * r_y)"):
        analyze(f"n1000-{test}", n1000, 1000, test, "1.5", "normal")
    m1000 = fixture("m1000", 1000, effect=0.1)
    for gb in LADDER:
        analyze(f"m1000-wilcoxon-{gb}", m1000, 1000, "wilcoxon", gb, "normal",
                group="ladder-m1000")

    def ci(name, path, n, gamma_bar, oracle, extra=(), group=None):
        ops.append(Op(
            name,
            ["ci", path, "--test", "wilcoxon", "--gamma-bar", gamma_bar, *extra],
            "interval",
            {"csv": path, "n": n, "test": "wilcoxon", "gamma_bar": float(gamma_bar),
             "oracle": oracle, "alpha": 0.05},
            group=group,
        ))

    # confidence intervals: exact near 100 pairs, bisection at 2,000 pairs,
    # and a bias ladder whose intervals must nest
    c80 = fixture("c80", 80, effect=0.5)
    ci("c80-exact", c80, 80, "1.25", "lattice", ("--method", "exact"))
    c2000 = fixture("c2000", 2000, effect=0.5)
    ci("c2000-bisect", c2000, 2000, "1.5", "normal")
    c200 = fixture("c200", 200, effect=0.5)
    for gb in ("1", "1.5", "2"):
        ci(f"c200-{gb}", c200, 200, gb, "normal", group="nested-c200")

    # the README's seedless usage on a 26-99 pair file; auto picks Monte
    # Carlo there and exits with config-error (see README, "Known fault")
    f60 = fixture("f60", 60, effect=0.3)
    ops.append(Op(
        "f60-analyze-seedless", ["analyze", f60, "--gamma-bar", "1.5"], "pvalue",
        {"csv": f60, "n": 60, "test": "wilcoxon", "gamma_bar": 1.5, "oracle": "lattice"},
        expect_fault=True,
    ))
    ops.append(Op(
        "f60-ci-seedless",
        ["ci", f60, "--gamma-bar", "1.5", "--beta-grid", "0:2:0.05"], "grid",
        {"csv": f60, "n": 60, "gamma_bar": 1.5, "alpha": 0.05},
        expect_fault=True,
    ))
    return ops


# ------------------------------------------------------------- weak-null --

# (name, pairs, base design seed, objective, gamma_bar, extra flags)
_WEAK_SOLVES = (
    ("wn6-expectation", 6, 1, "expectation", "1.5", ()),
    ("wn6-printed", 6, 9, "printed", "1.25", ()),
    ("wn7-printed", 7, 2, "printed", "2", ()),
    ("wn8-expectation", 8, 4, "expectation", "2", ()),
    ("wn8-expectation-g1.5", 8, 3, "expectation", "1.5", ()),
    ("wn15-bounded", 15, 6, "expectation", "1.5", ("--node-limit", "250")),
)
WEAK_LAMBDA0 = "0.5"


def _jittered(n, design_seed, rng, effect=0.5):
    base = np.random.default_rng([design_seed, 7919])
    z_lo = base.uniform(0.0, 3.0, n)
    gap = base.uniform(0.25, 2.0, n)
    y_lo = effect * z_lo + base.normal(0.0, 1.0, n)
    y_hi = effect * (z_lo + gap) + base.normal(0.0, 1.0, n)
    gap = gap * np.exp(WEAK_JITTER * rng.normal(0.0, 1.0, n))
    y_lo = y_lo + WEAK_JITTER * rng.normal(0.0, 1.0, n)
    y_hi = y_hi + WEAK_JITTER * rng.normal(0.0, 1.0, n)
    return z_lo, z_lo + gap, y_lo, y_hi


def weak_round(rng, seed, k, workdir) -> list:
    ops = []
    smallest = min(n for _, n, *_ in _WEAK_SOLVES)
    for name, n, design, objective, gamma_bar, extra in _WEAK_SOLVES:
        path = write_pairs(workdir / f"{name}.csv", *_jittered(n, design, rng), rng)
        meta = {"csv": path, "n": n, "objective": objective,
                "gamma_bar": float(gamma_bar), "lambda0": float(WEAK_LAMBDA0),
                "enumerate": n == smallest}
        if "--node-limit" in extra:
            meta["node_limit"] = int(extra[extra.index("--node-limit") + 1])
        ops.append(Op(
            name,
            ["weak-null", path, "--gamma-bar", gamma_bar, "--lambda0", WEAK_LAMBDA0,
             "--objective", objective, *extra],
            "weak",
            meta,
        ))
    path = write_pairs(workdir / "wn5-ci.csv", *_jittered(5, 5, rng), rng)
    ops.append(Op(
        "wn5-ci",
        ["weak-null", path, "--gamma-bar", "1.5", "--ci", "--grid=0:1:0.5"],
        "weak_grid",
        {"csv": path, "n": 5, "grid": [0.0, 0.5, 1.0], "alpha": 0.05},
    ))
    return ops


# -------------------------------------------------------------- planning --


def planning_round(rng, seed, k, workdir) -> list:
    seeds = [str(int(v % 1_000_000)) for v in
             np.random.SeedSequence([seed, k, 3]).generate_state(6)]
    ops = []
    # constant gap with McNemar: gamma_bar_star = theta / (1 - theta)
    ops.append(Op(
        "ds-constant-gap",
        ["design-sens", "--dgp", "constant-gap", "--param", "effect=0.5",
         "--param", "gap=1.0", "--param", "noise_sd=1.0", "--phi", "mcnemar",
         "--seed", seeds[0]],
        "design_closed",
        {"effect": 0.5, "gap": 1.0, "noise_sd": 1.0, "draws": 1_000_000},
    ))
    # design sensitivity, then the Bahadur slope at and below it on the
    # same frozen draws
    pn = ["--dgp", "paired-normal", "--param", "effect=0.5", "--phi", "wilcoxon",
          "--draws", "400000", "--seed", seeds[1]]
    ops.append(Op("ds-paired-normal", ["design-sens", *pn], "design", {}))

    def at_star(outputs, frac):
        star = outputs["ds-paired-normal"]["report"]["gamma_bar_star"]
        return ["bahadur", *pn, "--gamma-bar", repr(1.0 + frac * (star - 1.0))]

    ops.append(Op("bahadur-at-star", None, "bahadur_zero", {"design": "ds-paired-normal"},
                  derive=lambda out: at_star(out, 1.0)))
    ops.append(Op("bahadur-below-star", None, "bahadur_positive",
                  derive=lambda out: at_star(out, 0.5)))
    ops.append(Op(
        "ds-fixed-concordance",
        ["design-sens", "--dgp", "fixed-concordance", "--param", "theta=0.7",
         "--phi", "double-rank", "--draws", "400000", "--seed", seeds[5]],
        "design",
        {},
    ))
    # fixed concordance at no bias: closed-form slope
    ops.append(Op(
        "bahadur-fixed-concordance",
        ["bahadur", "--dgp", "fixed-concordance", "--param", "theta=0.7",
         "--phi", "mcnemar", "--gamma-bar", "1", "--seed", seeds[2]],
        "bahadur_closed",
        {"theta": 0.7, "draws": 100_000},
    ))
    ops.append(Op(
        "power-grid",
        ["power-sim", "--dgp", "paired-normal", "--param", "effect=0.5",
         "--test", "wilcoxon", "--n-pairs", "200", "--gamma-bar-grid",
         "1.0:2.0:0.25", "--reps", "200", "--workers", str(power_workers()),
         "--seed", seeds[3]],
        "power",
        {"grid": [1.0, 1.25, 1.5, 1.75, 2.0], "reps": 200},
    ))
    small = ["power-sim", "--dgp", "constant-gap", "--param", "effect=0.5",
             "--test", "double-rank", "--n-pairs", "30", "--gamma-bar-grid",
             "1.0,1.5", "--reps", "200", "--seed", seeds[4]]
    for workers in ("1", "2"):
        ops.append(Op(
            f"power-small-w{workers}", [*small, "--workers", workers], "power",
            {"grid": [1.0, 1.5], "reps": 200}, group="power-small",
        ))
    return ops


_BUILDERS = {"sharp": sharp_round, "weak-null": weak_round, "planning": planning_round}


def build_round(workload: str, seed: int, k: int, workdir) -> list:
    """Write round ``k``'s fixtures under ``workdir`` and return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, k, _STREAM[workload]])
    return _BUILDERS[workload](rng, seed, k, workdir)
