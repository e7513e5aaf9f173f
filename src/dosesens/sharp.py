"""Worst-case inference for sharp dose-effect hypotheses.

Under a sharp hypothesis the adjusted outcomes are fixed, and the only
randomness is which unit of each pair got the higher dose.  Bias of strength
Gamma_i tilts that assignment, so the signed-score statistic is stochastically
bounded by T_plus = sum_i q_i * B_i with independent
B_i ~ Bernoulli(Gamma_i / (1 + Gamma_i)); the worst-case greater-side p-value
is the upper tail of T_plus at the observed statistic.  The less side uses the
mirrored bound (success probabilities 1/(1+Gamma_i)), and the two-sided value
doubles the smaller side, capped at 1.

Confidence regions invert these tests over a family of hypothesised effect
models, adjusting outcomes and re-scoring at every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tails
from .errors import ConfigError, DataError, SolverError
from .gammas import GammaSchedule, build_schedule
from .pairs import DoseLink, EffectModel, MatchedSample, adjust_outcomes
from .scores import ScoredSample, ScoreSpec, score

METHODS = ("auto", "exact", "monte-carlo", "normal")
_METHOD_ALIASES = {"mc": "monte-carlo"}
DEFAULT_MC_REPS = 100_000
EXACT_PAIR_LIMIT = 25


def _check_bound(q, p) -> None:
    if np.any(q < 0):
        raise DataError("bounding weights must be nonnegative")
    if np.any((p <= 0) | (p >= 1)):
        raise DataError("success probabilities must lie strictly in (0, 1)")


def _normal_zscore(q, p, t: float) -> float:
    """(t - mean) / sd of T_plus = sum_i q_i * B_i, B_i ~ Bernoulli(p_i)."""
    var = float((q**2) @ (p * (1.0 - p)))
    if var == 0.0:
        raise DataError("bounding distribution is degenerate (zero variance)")
    return (t - float(q @ p)) / math.sqrt(var)


@dataclass(frozen=True)
class BoundingDistribution:
    """The stochastic bound T_plus: weights q and success probabilities."""

    q: np.ndarray
    p_success: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p_success, dtype=float)
        if q.shape != p.shape or q.ndim != 1:
            raise ConfigError("q and p_success must be aligned 1-d vectors")
        _check_bound(q, p)
        for name, arr in (("q", q), ("p_success", p)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def normal_upper_tail(self, t: float) -> float:
        return float(tails.normal_sf(_normal_zscore(self.q, self.p_success, t)))

    def normal_log_upper_tail(self, t: float) -> float:
        """log of the upper tail; safe far out in the tail."""
        return float(tails.normal_logsf(_normal_zscore(self.q, self.p_success, t)))

    def normal_lower_tail(self, t: float) -> float:
        return float(tails.normal_sf(-_normal_zscore(self.q, self.p_success, t)))


def normal_p_greater(scored: ScoredSample, p_plus) -> list:
    """Greater-side p-values of the normal route of :func:`worst_case_pvalue`,
    one per row of ``p_plus`` (each row a schedule's ``p_plus``).

    The arithmetic and checks are those of :class:`BoundingDistribution`,
    without building one per row.  A row on which that route raises holds
    the error instead, for the caller to raise when it reaches the row.
    """
    q, t = scored.q, scored.t_obs
    if not np.any(q > 0):
        return [1.0] * len(p_plus)
    suspect = np.any((p_plus <= 0) | (p_plus >= 1), axis=1) | np.any(q < 0)
    out = []
    for p, check in zip(p_plus, suspect.tolist()):
        try:
            if check:
                _check_bound(q, p)
            out.append(float(tails.normal_sf(_normal_zscore(q, p, t))))
        except DataError as exc:
            out.append(exc)
    return out


def _check_alignment(scored: ScoredSample, schedule: GammaSchedule) -> None:
    if scored.n_pairs != schedule.n_pairs:
        raise DataError(
            f"scored sample has {scored.n_pairs} pairs but schedule has "
            f"{schedule.n_pairs}"
        )
    if scored.pair_ids is not None and schedule.pair_ids is not None:
        if tuple(scored.pair_ids) != tuple(schedule.pair_ids):
            raise DataError("scored sample and schedule disagree on pair ids")


@dataclass(frozen=True)
class WorstCaseReport:
    """Worst-case p-values at a fixed bias schedule."""

    gamma_bar: float
    t_obs: float
    p_one_sided_greater: float
    p_one_sided_less: float
    p_two_sided: float
    method: str
    n_pairs: int
    score_kind: str
    mc_reps: int | None = None
    mc_std_err: float | None = None
    seed: int | None = None
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "gamma_bar": self.gamma_bar,
            "t_obs": self.t_obs,
            "p_greater": self.p_one_sided_greater,
            "p_less": self.p_one_sided_less,
            "p_two_sided": self.p_two_sided,
            "method": self.method,
            "n_pairs": self.n_pairs,
            "score_kind": self.score_kind,
            "mc_reps": self.mc_reps,
            "mc_std_err": self.mc_std_err,
            "seed": self.seed,
            "degenerate": self.degenerate,
        }


def _resolve_method(method: str, scored: ScoredSample) -> str:
    method = _METHOD_ALIASES.get(method, method)
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if method != "auto":
        return method
    if scored.n_pairs <= EXACT_PAIR_LIMIT:
        return "exact"
    if scored.n_pairs < 100:
        return "monte-carlo"
    return "normal"


def worst_case_pvalue(
    scored: ScoredSample,
    schedule: GammaSchedule,
    method: str = "auto",
    reps: int = DEFAULT_MC_REPS,
    seed: int | None = None,
) -> WorstCaseReport:
    """Worst-case one- and two-sided p-values under the bias schedule.

    ``method='auto'`` picks the exact convolution for small samples, Monte
    Carlo below 100 pairs, and the normal approximation from 100 pairs up.
    Monte Carlo requires a seed and at least 1000 replicates.
    """
    _check_alignment(scored, schedule)
    resolved = _resolve_method(method, scored)
    t = scored.t_obs
    q = scored.q
    if not np.any(q > 0):
        return WorstCaseReport(
            gamma_bar=schedule.gamma_bar,
            t_obs=t,
            p_one_sided_greater=1.0,
            p_one_sided_less=1.0,
            p_two_sided=1.0,
            method=resolved,
            n_pairs=scored.n_pairs,
            score_kind=scored.kind,
            degenerate=True,
        )

    p_plus = schedule.p_plus
    p_minus = schedule.p_minus
    mc_reps = None
    mc_std_err = None
    used_seed = None

    if resolved == "exact":
        try:
            p_greater = tails.exact_upper_tail(q, p_plus, t)
            p_less = tails.exact_lower_tail(q, p_minus, t)
        except DataError:
            if method != "auto":
                raise
            resolved = "monte-carlo"
    if resolved == "normal":
        upper = BoundingDistribution(q=q, p_success=p_plus)
        lower = BoundingDistribution(q=q, p_success=p_minus)
        p_greater = upper.normal_upper_tail(t)
        p_less = lower.normal_lower_tail(t)
    if resolved == "monte-carlo":
        if seed is None:
            raise ConfigError("Monte Carlo method needs a seed")
        used_seed = int(seed)
        p_greater, p_less, se_g, se_l = tails.mc_tails(
            q, p_plus, p_minus, t, reps=reps, seed=used_seed
        )
        mc_reps = int(reps)
        mc_std_err = se_g if p_greater <= p_less else se_l

    p_two = min(1.0, 2.0 * min(p_greater, p_less))
    return WorstCaseReport(
        gamma_bar=schedule.gamma_bar,
        t_obs=t,
        p_one_sided_greater=float(p_greater),
        p_one_sided_less=float(p_less),
        p_two_sided=float(p_two),
        method=resolved,
        n_pairs=scored.n_pairs,
        score_kind=scored.kind,
        mc_reps=mc_reps,
        mc_std_err=mc_std_err,
        seed=used_seed,
    )


# ------------------------------------------------------ confidence region --


@dataclass(frozen=True)
class ConfidenceRegion:
    """Acceptance region of the inverted worst-case test."""

    alpha: float
    model_kind: str
    gamma_bar: float
    beta_grid: tuple
    accepted: tuple
    p_values: tuple
    interval: tuple | None
    non_contiguous: bool
    search: str
    method: str

    def to_json_dict(self) -> dict:
        grid = [list(b) for b in self.beta_grid]
        return {
            "alpha": self.alpha,
            "model": self.model_kind,
            "gamma_bar": self.gamma_bar,
            "beta_grid": grid,
            "accepted": [bool(a) for a in self.accepted],
            "p_values": [float(p) for p in self.p_values],
            "interval": None if self.interval is None else list(self.interval),
            "non_contiguous": self.non_contiguous,
            "search": self.search,
            "method": self.method,
        }


def _as_beta_tuple(beta) -> tuple:
    return tuple(float(b) for b in np.atleast_1d(beta))


def _runs(mask) -> list:
    """Index runs of True in a boolean sequence."""
    runs = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        if not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(mask) - 1))
    return runs


def confidence_region(
    sample: MatchedSample,
    spec: ScoreSpec,
    alpha: float = 0.05,
    model_kind: str = "constant",
    gamma_bar: float | None = None,
    gamma: float | None = None,
    gamma_i=None,
    link: DoseLink = DoseLink(),
    grid=None,
    modifier_index: int | None = None,
    z0: float | None = None,
    method: str = "auto",
    reps: int = DEFAULT_MC_REPS,
    seed: int | None = None,
    endpoint_tol: float | None = None,
) -> ConfidenceRegion:
    """Invert the two-sided worst-case test over hypothesised effect values.

    The bias schedule is built once (dose gaps do not depend on the
    hypothesised effect); outcomes are re-adjusted and re-scored per
    candidate.  For the one-parameter constant model with no grid an
    automatic bracket-and-bisect endpoint search is run, probing a coarse
    grid first; if the accepted set looks non-contiguous the grid scan is
    returned as-is and flagged.  Multi-parameter models require an explicit
    grid of coefficient tuples.
    """
    if not 0 < alpha < 1:
        raise ConfigError("alpha must be in (0, 1)")
    schedule = build_schedule(
        sample, link=link, gamma=gamma, gamma_bar=gamma_bar, gamma_i=gamma_i
    )

    def p_of(beta) -> float:
        model = EffectModel(
            kind=model_kind,
            beta=_as_beta_tuple(beta),
            modifier_index=modifier_index,
            z0=z0,
        )
        adjusted = adjust_outcomes(sample, model)
        scored = score(adjusted, spec)
        report = worst_case_pvalue(
            scored, schedule, method=method, reps=reps, seed=seed
        )
        return report.p_two_sided

    if grid is not None:
        beta_grid = [_as_beta_tuple(b) for b in grid]
        p_values = [p_of(b) for b in beta_grid]
        accepted = [p > alpha for p in p_values]
        runs = _runs(accepted)
        non_contiguous = len(runs) > 1
        interval = None
        if len(beta_grid[0]) == 1 and len(runs) == 1:
            span = beta_grid[-1][0] - beta_grid[0][0]
            tol = endpoint_tol if endpoint_tol is not None else 1e-6 * max(span, 1.0)

            def refine(i, step):
                # bisect towards the rejected neighbour; at the grid edge
                # the region keeps the grid point
                if not 0 <= i + step < len(beta_grid):
                    return beta_grid[i][0]
                return _bisect(p_of, alpha, beta_grid[i][0], beta_grid[i + step][0], tol)

            interval = (refine(runs[0][0], -1), refine(runs[0][1], +1))
        return ConfidenceRegion(
            alpha=alpha,
            model_kind=model_kind,
            gamma_bar=schedule.gamma_bar,
            beta_grid=tuple(beta_grid),
            accepted=tuple(accepted),
            p_values=tuple(p_values),
            interval=interval,
            non_contiguous=non_contiguous,
            search="grid",
            method=method,
        )

    if model_kind != "constant":
        raise ConfigError("automatic endpoint search supports only the constant model")
    return _bisect_interval(sample, p_of, alpha, schedule, method, endpoint_tol)


def _bisect(p_of, alpha, acc, rej, tol):
    """Bisect between an accepted and a rejected effect value."""
    while abs(rej - acc) > tol:
        mid = 0.5 * (acc + rej)
        if p_of((mid,)) > alpha:
            acc = mid
        else:
            rej = mid
    return acc


def _bisect_interval(sample, p_of, alpha, schedule, method, endpoint_tol):
    """Bracket-and-bisect both endpoints of a 1-d acceptance interval."""
    region = partial(
        ConfidenceRegion, alpha=alpha, model_kind="constant",
        gamma_bar=schedule.gamma_bar, search="bisect", method=method,
    )
    dose_diff = sample.dose_diff()
    outcome_diff = sample.outcome_diff()
    center = float((outcome_diff @ dose_diff) / (dose_diff @ dose_diff))
    spread = float(np.abs(outcome_diff).max() / dose_diff.min())
    step = max(spread, 1e-8 * (1.0 + abs(center)))

    if p_of((center,)) <= alpha:
        # walk outward for any accepted point before giving up
        candidates = [center + k * step * s for k in (0.25, 0.5, 1, 2, 4) for s in (-1, 1)]
        accepted_at = next((b for b in candidates if p_of((b,)) > alpha), None)
        if accepted_at is None:
            return region(
                beta_grid=((center,),), accepted=(False,), p_values=(p_of((center,)),),
                interval=None, non_contiguous=False,
            )
        center = accepted_at

    def outward(direction):
        width = step
        inner = center
        for _ in range(60):
            probe = center + direction * width
            if p_of((probe,)) <= alpha:
                return inner, probe
            inner = probe
            width *= 2.0
        raise SolverError(
            "confidence interval endpoint not bracketed; the region may be "
            "unbounded at this gamma_bar — supply an explicit grid"
        )

    lo_in, lo_out = outward(-1)
    hi_in, hi_out = outward(+1)
    span = hi_out - lo_out
    tol = endpoint_tol if endpoint_tol is not None else 1e-6 * max(span, 1.0)

    # coarse contiguity probe across the bracket
    probe_grid = np.linspace(lo_out, hi_out, 41)
    probe_accept = [p_of((b,)) > alpha for b in probe_grid]
    if len(_runs(probe_accept)) > 1:
        return region(
            beta_grid=tuple((float(b),) for b in probe_grid),
            accepted=tuple(probe_accept),
            p_values=tuple(p_of((b,)) for b in probe_grid),
            interval=None,
            non_contiguous=True,
        )

    lo = _bisect(p_of, alpha, lo_in, lo_out, tol)
    hi = _bisect(p_of, alpha, hi_in, hi_out, tol)
    return region(
        beta_grid=((lo,), (hi,)), accepted=(True, True), p_values=(p_of((lo,)), p_of((hi,))),
        interval=(lo, hi), non_contiguous=False,
    )
