"""Simulation harness: power curves, empirical slopes, and coverage checks.

Every replicate runs the real analysis pipeline (score, calibrate the bias
schedule, worst-case p-value); nothing is stubbed.  Replicate r draws its
generator from ``(seed, stream, r)`` only, so results are reproducible and
independent of chunking and worker count.

Power curves and slopes work on chunks of ``CHUNK_REPS`` replicates.  A
chunk stacks its replicates' pair differences and ranks them row-wise in one
pass, and calibrates every (replicate, gamma_bar) schedule in one row-wise
bisection; the tests then run replicate by replicate, on the normal route
from ``p_plus`` built for a block of grid points at once.  Replicates, rows
and grid points are taken in blocks, so that no temporary holds more than
``gammas.ROW_BLOCK`` floats, whatever the replicate count, pair count and
grid length (one replicate of more pairs than that is one block).  Each step
reproduces the arithmetic of scoring, calibrating and testing one replicate
at a time bit for bit, so curves and errors are those of the one-at-a-time
loop kept in the tests.

Chunks go to a process pool when more than one worker is asked for, except
that a normal-route power curve whose estimated work (``_power_work``) is
below ``POOL_MIN_WORK`` runs in one process whatever the worker count: on 2
vCPUs, a fresh ``dosesens power-sim`` of 200 pairs, 600 replicates and 5
grid points, about at that work, took 492 ms with one worker and 457 ms with
two, and one of 30 pairs, 200 replicates and 2 points 362 and 505 ms.  A
pool never has more processes than chunks or than the CPUs the process may
use.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .dgps import DgpSpec
from .errors import ConfigError, DoseSensError
from .gammas import ROW_BLOCK, mean_bound_rows, schedule_from_gamma_bar_gaps
from .pairs import sample_from_arrays
from .rngs import STREAM_COVERAGE, STREAM_POWER, child_rng, child_seed_sequence
from .scores import ScoreSpec, score_from_arrays, score_rows
from .sharp import (
    BoundingDistribution,
    _resolve_method,
    normal_p_greater,
    worst_case_pvalue,
)
from .tails import binomial_se
from .weaknull import SolverConfig, WeakNullProblem, two_sided_pvalue

CHUNK_REPS = 32


def _mc_seed(seed: int, rep: int) -> int:
    # a per-replicate integer seed for the inner tail Monte Carlo, derived
    # from the master seed so reruns match bit for bit
    return int(child_seed_sequence(seed, STREAM_POWER, rep, 1).generate_state(1)[0])


# In-process work of a normal-route power curve, in units of one pair at one
# grid point (about 85 ns on 2 vCPUs): drawing, ranking and scoring a
# replicate cost about 2,800 units, and each grid point 80 besides its pairs.
# The other routes run a full tail computation per replicate and grid point,
# so they pool whenever asked.
def _power_work(reps: int, n_pairs: int, points: int) -> int:
    return reps * (2800 + points * (n_pairs + 80))


# Work below which a pool costs more than it saves.  Fresh-process
# ``dosesens power-sim`` wall times, --workers 1 against 2 with the pool
# forced open, medians of nine alternating runs (seven where marked *) on 2
# vCPUs, paired normal, Wilcoxon, pairs x replicates x points (work):
#   30 x 200 x 2 (0.6e6)*:    362 against 505 ms;
#   30 x 700 x 2 (2.1e6):     534 against 533 ms;
#   500 x 400 x 5 (2.3e6):    491 against 452 ms;
#   200 x 600 x 5 (2.5e6):    492 against 457 ms;
#   750 x 400 x 5 (2.8e6):    532 against 502 ms;
#   30 x 1,000 x 2 (3.0e6):   523 against 543 ms;
#   1,500 x 300 x 5 (3.2e6):  592 against 604 ms;
#   1,000 x 400 x 5 (3.3e6):  616 against 534 ms;
#   30 x 1,000 x 10 (3.9e6):  618 against 524 ms;
#   100 x 1,000 x 10 (4.6e6)*: 669 against 547 ms;
#   100 x 1,500 x 2 (4.7e6):  577 against 498 ms;
#   2,000 x 400 x 5 (5.3e6)*: 701 against 661 ms;
#   30 x 2,000 x 10 (7.8e6)*: 943 against 716 ms.
# Replicates x pairs x grid points does not decide it: 30 x 2,000 x 10 is
# 0.6 million of those and gains most from the pool.
POOL_MIN_WORK = 2_500_000


def _pool_size(workers: int, n_chunks: int) -> int:
    """Processes worth opening: no more than requested, than chunks, or than
    the CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return max(1, min(workers, n_chunks, cpus))


def _map_chunks(fn, chunks, workers: int) -> list:
    """``[fn(c) for c in chunks]``, across a pool of ``_pool_size`` processes
    when that is more than one.

    The pool module is imported here, the one place that opens a pool, so
    importing the package does not load ``multiprocessing``.
    """
    size = _pool_size(workers, len(chunks))
    if size <= 1:
        return [fn(c) for c in chunks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, chunks))


def _replicate_blocks(dgp, n_pairs, spec, seed, start, count):
    """Draw, score and link replicates ``start .. start + count - 1`` in
    order, in blocks of at most ``ROW_BLOCK / 16`` pairs in all: about
    sixteen arrays of a block's shape are alive at once (draws, differences,
    ranks and their sort order, scores), so all of them together stay
    within ``ROW_BLOCK`` floats.

    Yields ``(replicates, failure)`` per block: ``(rep, scored, gaps)`` for
    each replicate of the block before the first one that raises a package
    error, and that error (None when none does).  The caller tests those
    replicates before it raises the error, so a chunk fails with the error
    that testing one replicate at a time would meet first.
    """
    step = max(1, ROW_BLOCK // (16 * max(n_pairs, 1)))
    for first in range(start, start + count, step):
        drawn, replicates, failure = [], [], None
        try:
            for rep in range(first, min(first + step, start + count)):
                z1, z2, y1, y2 = (
                    np.asarray(v, dtype=float)
                    for v in dgp.sample_pairs(child_rng(seed, STREAM_POWER, rep), n_pairs)
                )
                drawn.append((rep, z1, z2, z1 - z2, y1 - y2))
        except DoseSensError as exc:
            failure = exc
        if drawn:
            rows = score_rows(
                np.stack([d[3] for d in drawn]), np.stack([d[4] for d in drawn]), spec
            )
            try:
                for (rep, z1, z2, _, _), scored in zip(drawn, rows):
                    gaps = np.abs(dgp.link.apply(z1) - dgp.link.apply(z2))
                    replicates.append((rep, scored, gaps))
            except DoseSensError as exc:
                failure = exc
        yield replicates, failure


def _calibrated(replicates, grid):
    """Every replicate's gamma at every grid point, by one row-wise bisection."""
    if not replicates:
        return None
    return mean_bound_rows(grid, np.stack([gaps for _, _, gaps in replicates]))


def _power_chunk(payload) -> list:
    """Rejections at each grid point over one chunk of replicates.

    Each block of replicates is drawn and ranked at once and calibrated by
    one row-wise bisection.  Each replicate then builds ``p_plus`` for a
    block of grid points at once and tests them in order: the normal route
    computes only the greater-side p-value, the one a rejection reads, and
    the exact and Monte Carlo routes run :func:`worst_case_pvalue`.
    """
    dgp, n_pairs, grid, spec, alpha, method, mc_reps, seed, start, count = payload
    hits = [0] * len(grid)
    for replicates, failure in _replicate_blocks(dgp, n_pairs, spec, seed, start, count):
        bounds = _calibrated(replicates, grid)
        for r, (rep, scored, _) in enumerate(replicates):
            step = max(1, ROW_BLOCK // max(scored.n_pairs, 1))
            mc_seed = None
            for j0 in range(0, len(grid), step):
                p_plus, clean = bounds.p_plus(r, slice(j0, j0 + step))
                normal = None
                for k, j in enumerate(range(j0, j0 + len(clean))):
                    if not clean[k]:
                        bounds.schedule(r, j)  # raises what building it raises
                    route = _resolve_method(method, scored)
                    if route == "normal":
                        if normal is None:
                            normal = normal_p_greater(scored, p_plus)
                        p_greater = normal[k]
                        if isinstance(p_greater, Exception):
                            raise p_greater
                    else:
                        # 'auto' falls back from exact to Monte Carlo on a
                        # large support, so it may need the seed too
                        if mc_seed is None and (route == "monte-carlo" or method == "auto"):
                            mc_seed = _mc_seed(seed, rep)
                        p_greater = worst_case_pvalue(
                            scored, bounds.schedule(r, j), method=method, reps=mc_reps,
                            seed=mc_seed,
                        ).p_one_sided_greater
                    hits[j] += p_greater < alpha
        if failure is not None:
            raise failure
    return hits


@dataclass(frozen=True)
class PowerEstimate:
    gamma_bar: float
    n_pairs: int
    alpha: float
    reps: int
    rejections: int
    power: float
    std_err: float
    method: str
    score_kind: str
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def estimate_power(
    dgp: DgpSpec,
    n_pairs: int,
    gamma_bar: float,
    spec: ScoreSpec,
    alpha: float = 0.05,
    reps: int = 1000,
    seed: int | None = None,
    method: str = "normal",
    mc_reps: int = 10_000,
    workers: int = 1,
) -> PowerEstimate:
    """Rejection rate of the one-sided worst-case test at level alpha.

    The bias schedule is recalibrated to ``gamma_bar`` on every replicate's
    own dose gaps, exactly as an analyst would do.
    """
    curve = power_curve(
        dgp, n_pairs, [gamma_bar], spec,
        alpha=alpha, reps=reps, seed=seed, method=method,
        mc_reps=mc_reps, workers=workers,
    )
    return curve.estimates[0]


@dataclass(frozen=True)
class PowerCurve:
    estimates: tuple
    dgp: dict

    @property
    def gamma_bars(self) -> tuple:
        return tuple(e.gamma_bar for e in self.estimates)

    @property
    def powers(self) -> tuple:
        return tuple(e.power for e in self.estimates)

    def crossing(self, level: float = 0.5):
        """Linearly interpolated gamma_bar where power crosses ``level``.

        Returns ``(value, reason)``; value is None when the curve stays on
        one side (reason ``"all-above"`` / ``"all-below"``).
        """
        g = self.gamma_bars
        p = self.powers
        for i in range(len(p) - 1):
            lo, hi = p[i], p[i + 1]
            if (lo - level) * (hi - level) <= 0.0:
                if hi == lo:
                    return g[i], "crossed"
                frac = (level - lo) / (hi - lo)
                return g[i] + frac * (g[i + 1] - g[i]), "crossed"
        if min(p) > level:
            return None, "all-above"
        return None, "all-below"

    def to_json_dict(self) -> dict:
        return {
            "dgp": self.dgp,
            "estimates": [e.to_json_dict() for e in self.estimates],
        }


def power_curve(
    dgp: DgpSpec,
    n_pairs: int,
    gamma_bar_grid,
    spec: ScoreSpec,
    alpha: float = 0.05,
    reps: int = 1000,
    seed: int | None = None,
    method: str = "normal",
    mc_reps: int = 10_000,
    workers: int = 1,
) -> PowerCurve:
    """Power of the worst-case test across a grid of mean sensitivity bounds.

    Each replicate is drawn and scored once, then tested at every grid point.
    """
    if seed is None:
        raise ConfigError("estimate_power needs a seed")
    if not 0 < alpha < 1:
        raise ConfigError("alpha must be in (0, 1)")
    reps = int(reps)
    if reps < 200:
        raise ConfigError("power estimation needs at least 200 replicates")
    grid = [float(g) for g in gamma_bar_grid]
    chunks = [
        (dgp, n_pairs, grid, spec, alpha, method, mc_reps, seed, start,
         min(CHUNK_REPS, reps - start))
        for start in range(0, reps, CHUNK_REPS)
    ]
    if method == "normal" and _power_work(reps, n_pairs, len(grid)) < POOL_MIN_WORK:
        workers = 1  # a pool costs more than it saves
    parts = _map_chunks(_power_chunk, chunks, workers)
    hits = np.sum(parts, axis=0, dtype=int)
    estimates = []
    for gamma_bar, rejections in zip(grid, hits):
        power = int(rejections) / reps
        estimates.append(
            PowerEstimate(
                gamma_bar=gamma_bar,
                n_pairs=int(n_pairs),
                alpha=float(alpha),
                reps=reps,
                rejections=int(rejections),
                power=power,
                std_err=binomial_se(power, reps),
                method=method,
                score_kind=spec.kind,
                seed=int(seed),
            )
        )
    # each replicate draws n_pairs and is scored with ``spec``, so the spec's
    # population score and draw count play no part in the curve
    sampling = {k: v for k, v in dgp.to_json_dict().items() if k not in ("phi", "mc_draws")}
    return PowerCurve(estimates=tuple(estimates), dgp=sampling)


# -------------------------------------------------------- empirical slope --


def _slope_chunk(payload):
    dgp, n_pairs, gamma_bar, spec, seed, start, count = payload
    out = []
    for replicates, failure in _replicate_blocks(dgp, n_pairs, spec, seed, start, count):
        bounds = _calibrated(replicates, [gamma_bar])
        for r, (_, scored, _) in enumerate(replicates):
            p_plus = bounds.schedule(r, 0).p_plus
            upper = BoundingDistribution(q=scored.q, p_success=p_plus)
            # log tail directly: at thousands of pairs the p-value itself
            # underflows double precision long before the rate stabilises
            log_p = upper.normal_log_upper_tail(scored.t_obs)
            out.append(-log_p / scored.n_pairs)
        if failure is not None:
            raise failure
    return out


@dataclass(frozen=True)
class SlopeEstimate:
    gamma_bar: float
    n_pairs: int
    reps: int
    rate: float
    std_err: float
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def empirical_slope(
    dgp: DgpSpec,
    n_pairs: int,
    gamma_bar: float,
    spec: ScoreSpec,
    reps: int = 200,
    seed: int | None = None,
    workers: int = 1,
) -> SlopeEstimate:
    """Average per-pair decay rate -log(p)/I of the worst-case normal p-value."""
    if seed is None:
        raise ConfigError("empirical_slope needs a seed")
    reps = int(reps)
    if reps < 2:
        raise ConfigError("need at least two replicates")
    chunks = [
        (dgp, n_pairs, gamma_bar, spec, seed, start, min(CHUNK_REPS, reps - start))
        for start in range(0, reps, CHUNK_REPS)
    ]
    parts = _map_chunks(_slope_chunk, chunks, workers)
    rates = np.concatenate([np.asarray(p) for p in parts])
    return SlopeEstimate(
        gamma_bar=float(gamma_bar),
        n_pairs=int(n_pairs),
        reps=reps,
        rate=float(rates.mean()),
        std_err=float(rates.std(ddof=1) / math.sqrt(reps)),
        seed=int(seed),
    )


# --------------------------------------------------------------- coverage --


@dataclass(frozen=True)
class CoverageResult:
    target: str
    truth: float
    n_pairs: int
    reps: int
    covered: int
    coverage: float
    std_err: float
    alpha: float
    gamma_bar: float
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _coverage_result(target, truth, n_pairs, reps, covered, alpha, gamma_bar, seed):
    coverage = covered / reps
    return CoverageResult(
        target=target,
        truth=float(truth),
        n_pairs=int(n_pairs),
        reps=int(reps),
        covered=int(covered),
        coverage=coverage,
        std_err=binomial_se(coverage, reps),
        alpha=float(alpha),
        gamma_bar=float(gamma_bar),
        seed=int(seed),
    )


def _distinct_dose_pairs(rng, n):
    z_lo = rng.uniform(1.0, 2.0, n)
    return z_lo, z_lo + rng.uniform(0.25, 1.0, n)


def sharp_coverage(
    beta_true: float,
    n_pairs: int,
    reps: int = 1000,
    seed: int | None = None,
    alpha: float = 0.05,
    gamma_bar: float = 1.0,
    noise_sd: float = 1.0,
    spec: ScoreSpec | None = None,
    method: str = "exact",
) -> CoverageResult:
    """Coverage of the inverted sharp test for a constant dose effect.

    The confidence set is the acceptance set of the two-sided test, so
    covering the true effect is exactly accepting it; each replicate tests
    at ``beta_true`` directly, avoiding grid-endpoint discretisation.
    """
    if seed is None:
        raise ConfigError("sharp_coverage needs a seed")
    spec = spec or ScoreSpec(kind="wilcoxon")
    covered = 0
    for rep in range(int(reps)):
        rng = child_rng(seed, STREAM_COVERAGE, 0, rep)
        z_lo, z_hi = _distinct_dose_pairs(rng, n_pairs)
        y_hi = beta_true * z_hi + rng.normal(0.0, noise_sd, n_pairs)
        y_lo = beta_true * z_lo + rng.normal(0.0, noise_sd, n_pairs)
        # testing at the truth: subtract the hypothesised effect first
        scored = score_from_arrays(
            z_hi, z_lo, y_hi - beta_true * z_hi, y_lo - beta_true * z_lo, spec
        )
        schedule = schedule_from_gamma_bar_gaps(gamma_bar, z_hi - z_lo)
        report = worst_case_pvalue(
            scored, schedule, method=method, seed=_mc_seed(seed, rep)
        )
        covered += report.p_two_sided > alpha
    return _coverage_result(
        "sharp-beta", beta_true, n_pairs, reps, covered, alpha, gamma_bar, seed
    )


def weak_coverage(
    slope_mean: float,
    n_pairs: int,
    reps: int = 1000,
    seed: int | None = None,
    alpha: float = 0.05,
    gamma_bar: float = 1.0,
    slope_sd: float = 0.5,
    intercept_sd: float = 1.0,
    objective: str = "expectation",
) -> CoverageResult:
    """Coverage of the inverted weak-null test for the average dose slope.

    Each unit u carries its own linear response y_u(z) = a_u + s_u z with
    heterogeneous slopes, so no sharp model holds.  Fair-coin assignment
    picks which unit of a pair gets the higher dose.  The estimand is the
    replicate's dose-gap-weighted average slope

        lambda* = sum_i (s_i,hi + s_i,lo) (z_hi - z_lo) / (2 sum_i (z_hi - z_lo)),

    the unique lambda0 at which the weak null holds exactly; the replicate
    is covered when the two-sided test accepts lambda*.
    """
    if seed is None:
        raise ConfigError("weak_coverage needs a seed")
    config = SolverConfig(objective=objective)
    covered = 0
    for rep in range(int(reps)):
        rng = child_rng(seed, STREAM_COVERAGE, 1, rep)
        z_lo, z_hi = _distinct_dose_pairs(rng, n_pairs)
        gap = z_hi - z_lo
        slopes = rng.normal(slope_mean, slope_sd, (2, n_pairs))
        icepts = rng.normal(0.0, intercept_sd, (2, n_pairs))
        coin = rng.random(n_pairs) < 0.5
        s_hi = np.where(coin, slopes[0], slopes[1])
        s_lo = np.where(coin, slopes[1], slopes[0])
        a_hi = np.where(coin, icepts[0], icepts[1])
        a_lo = np.where(coin, icepts[1], icepts[0])
        lam_star = float(np.sum((slopes[0] + slopes[1]) * gap) / (2.0 * gap.sum()))
        sample = sample_from_arrays(
            z_hi, z_lo, a_hi + s_hi * z_hi, a_lo + s_lo * z_lo
        )
        schedule = schedule_from_gamma_bar_gaps(gamma_bar, gap)
        prob = WeakNullProblem.from_sample(sample, schedule, lam_star)
        p_two, _ = two_sided_pvalue(prob, config)
        covered += p_two > alpha
    return _coverage_result(
        "weak-lambda", slope_mean, n_pairs, reps, covered, alpha, gamma_bar, seed
    )


# ---------------------------------------------------------------- writers --


def json_text(report: dict) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_json(report: dict, path) -> None:
    """Write :func:`json_text` of the report to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(report))


def write_power_csv(curve: PowerCurve, path) -> None:
    """Tidy per-grid-point rows for plotting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["gamma_bar", "power", "std_err", "rejections", "reps", "n_pairs",
             "alpha", "method", "score_kind"]
        )
        for e in curve.estimates:
            writer.writerow(
                [repr(e.gamma_bar), repr(e.power), repr(e.std_err),
                 e.rejections, e.reps, e.n_pairs, repr(e.alpha),
                 e.method, e.score_kind]
            )
