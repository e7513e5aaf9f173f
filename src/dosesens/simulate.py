"""Simulation harness: power curves, empirical slopes, and coverage checks.

Every replicate runs the real analysis pipeline (score, calibrate the bias
schedule, worst-case p-value); nothing is stubbed.  Replicate r draws its
generator from ``(seed, stream, r)`` only, so results are reproducible and
independent of chunking and worker count.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .dgps import DgpSpec
from .errors import ConfigError
from .gammas import schedule_from_gamma_bar_gaps
from .pairs import sample_from_arrays
from .rngs import STREAM_COVERAGE, STREAM_POWER, child_rng, child_seed_sequence
from .scores import ScoreSpec, score_from_arrays
from .sharp import BoundingDistribution, worst_case_pvalue
from .tails import binomial_se
from .weaknull import SolverConfig, WeakNullProblem, two_sided_pvalue

CHUNK_REPS = 32


def _mc_seed(seed: int, rep: int) -> int:
    # a per-replicate integer seed for the inner tail Monte Carlo, derived
    # from the master seed so reruns match bit for bit
    return int(child_seed_sequence(seed, STREAM_POWER, rep, 1).generate_state(1)[0])


def _scored_rep(dgp, n_pairs, spec, seed, rep):
    """Replicate ``rep``'s draw, scored, and its transformed dose gaps."""
    z1, z2, y1, y2 = dgp.sample_pairs(child_rng(seed, STREAM_POWER, rep), n_pairs)
    scored = score_from_arrays(z1, z2, y1, y2, spec)
    return scored, np.abs(dgp.link.apply(z1) - dgp.link.apply(z2))


def _power_chunk(payload) -> list:
    """Rejections at each grid point over one chunk of replicates."""
    dgp, n_pairs, grid, spec, alpha, method, mc_reps, seed, start, count = payload
    hits = [0] * len(grid)
    for rep in range(start, start + count):
        scored, gaps = _scored_rep(dgp, n_pairs, spec, seed, rep)
        for j, gamma_bar in enumerate(grid):
            schedule = schedule_from_gamma_bar_gaps(gamma_bar, gaps)
            report = worst_case_pvalue(
                scored, schedule, method=method, reps=mc_reps, seed=_mc_seed(seed, rep)
            )
            hits[j] += report.p_one_sided_greater < alpha
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
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_power_chunk, chunks))
    else:
        parts = [_power_chunk(c) for c in chunks]
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
    for rep in range(start, start + count):
        scored, gaps = _scored_rep(dgp, n_pairs, spec, seed, rep)
        schedule = schedule_from_gamma_bar_gaps(gamma_bar, gaps)
        upper = BoundingDistribution(q=scored.q, p_success=schedule.p_plus)
        # log tail directly: at thousands of pairs the p-value itself
        # underflows double precision long before the rate stabilises
        log_p = upper.normal_log_upper_tail(scored.t_obs)
        out.append(-log_p / scored.n_pairs)
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
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_slope_chunk, chunks))
    else:
        parts = [_slope_chunk(c) for c in chunks]
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
