"""Per-pair bias bounds for dose assignment.

With unmeasured confounding of strength ``gamma`` (on the log-odds scale of
the transformed dose gap), the probability that a given pair's higher dose
went to its first unit is bounded away from 1/2 by a pair-specific factor

    Gamma_i = exp(gamma * |link(z_hi) - link(z_lo)|)  >= 1,

giving 1/(1+Gamma_i) <= P(higher dose to unit 1 | matched pair) <=
Gamma_i/(1+Gamma_i).  A schedule collects these factors; its mean
``gamma_bar`` is the single-number summary users typically report, and the
map gamma_bar <-> gamma is inverted by bisection (the mean of
exp(gamma * gap) is strictly increasing in gamma whenever some gap is
positive).  Each step takes the mean as ``np.add.reduce(...) / n``, the same
arithmetic as ``ndarray.mean`` without its per-call overhead, which
dominates on the few hundred gaps of one simulated study.  Newton steps
would take fewer evaluations but move the last bits of every schedule, and
with them of every sharp and weak-null report, so the inversion stays a
bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, SolverError
from .pairs import DoseLink, MatchedSample, link_gaps

MAX_EXPONENT = 700.0  # exp() overflow guard
BISECTION_TOL = 1e-10  # relative tolerance on the recovered mean
_MAX_ITER = 200


@dataclass(frozen=True)
class GammaSchedule:
    """Frozen per-pair bias bounds.

    ``gamma`` and ``gaps`` are ``None`` when the user supplied the
    ``gamma_i`` vector directly.
    """

    gamma_i: np.ndarray
    gamma: float | None = None
    gaps: np.ndarray | None = None
    pair_ids: tuple | None = None

    def __post_init__(self):
        gamma_i = np.asarray(self.gamma_i, dtype=float)
        gamma_i.setflags(write=False)
        object.__setattr__(self, "gamma_i", gamma_i)
        if gamma_i.ndim != 1 or gamma_i.size == 0:
            raise ConfigError("gamma_i must be a nonempty 1-d vector")
        if not np.all(np.isfinite(gamma_i)) or np.any(gamma_i < 1.0):
            raise DataError("every per-pair bound Gamma_i must be finite and >= 1")
        if self.gaps is not None:
            gaps = np.asarray(self.gaps, dtype=float)
            gaps.setflags(write=False)
            object.__setattr__(self, "gaps", gaps)
            if gaps.shape != gamma_i.shape:
                raise ConfigError("gaps and gamma_i must align")
        if self.pair_ids is not None:
            pair_ids = tuple(self.pair_ids)
            object.__setattr__(self, "pair_ids", pair_ids)
            if len(pair_ids) != gamma_i.size:
                raise ConfigError("pair_ids and gamma_i must align")

    @property
    def n_pairs(self) -> int:
        return int(self.gamma_i.size)

    @property
    def gamma_bar(self) -> float:
        return float(self.gamma_i.mean())

    @property
    def p_plus(self) -> np.ndarray:
        """Upper bound on P(higher dose to the nominally favored unit)."""
        return self.gamma_i / (1.0 + self.gamma_i)

    @property
    def p_minus(self) -> np.ndarray:
        return 1.0 / (1.0 + self.gamma_i)

    def to_json_dict(self) -> dict:
        n = self.n_pairs
        ids = self.pair_ids or [str(i + 1) for i in range(n)]
        gaps = [None] * n if self.gaps is None else self.gaps.tolist()
        per_pair = [
            {"pair_id": pair_id, "gap": gap, "Gamma_i": gamma_i, "p_plus": p_plus}
            for pair_id, gap, gamma_i, p_plus in zip(
                ids, gaps, self.gamma_i.tolist(), self.p_plus.tolist()
            )
        ]
        return {
            "gamma": self.gamma,
            "gamma_bar": self.gamma_bar,
            "per_pair": per_pair,
        }


# ---------------------------------------------------------- constructors --


def schedule_from_gamma(
    gamma: float, sample: MatchedSample, link: DoseLink = DoseLink()
) -> GammaSchedule:
    """Bounds Gamma_i = exp(gamma * gap_i) from a log-odds strength gamma."""
    gamma = float(gamma)
    if gamma < 0:
        raise ConfigError("gamma must be >= 0")
    gaps = link_gaps(sample, link)
    return _schedule_from_gamma_gaps(gamma, gaps, sample.pair_ids)


def _schedule_from_gamma_gaps(gamma, gaps, pair_ids=None) -> GammaSchedule:
    if gamma * float(gaps.max(initial=0.0)) > MAX_EXPONENT:
        raise DataError(
            "gamma * max gap exceeds the exp() overflow guard "
            f"({MAX_EXPONENT:g}); rescale the dose link"
        )
    gamma_i = np.exp(gamma * gaps)
    return GammaSchedule(gamma_i=gamma_i, gamma=gamma, gaps=gaps, pair_ids=pair_ids)


def gamma_for_mean_bound(
    gamma_bar: float, gaps: np.ndarray, tol: float = BISECTION_TOL
) -> float:
    """Invert gamma_bar = mean(exp(gamma * gap)) for gamma by bisection.

    The map is strictly increasing from 1 at gamma = 0, so the root is
    unique.  Raises when the target is below 1, when all gaps are zero, or
    when reaching it would overflow exp().
    """
    target = float(gamma_bar)
    if target < 1.0:
        raise ConfigError("gamma_bar must be >= 1")
    gaps = np.asarray(gaps, dtype=float)
    if np.any(gaps < 0):
        raise DataError("dose gaps must be nonnegative")
    if target == 1.0:
        return 0.0
    max_gap = float(gaps.max(initial=0.0))
    if max_gap == 0.0:
        raise DataError("all transformed dose gaps are zero; gamma_bar > 1 unreachable")
    gamma_cap = MAX_EXPONENT / max_gap
    n = gaps.size

    def mean_bound(g):
        # what ndarray.mean computes, without its per-call overhead
        return float(np.add.reduce(np.exp(g * gaps)) / n)

    lo, hi = 0.0, min(1.0, gamma_cap)
    while mean_bound(hi) < target:
        lo = hi
        hi *= 2.0
        if hi > gamma_cap:
            hi = gamma_cap
            if mean_bound(hi) < target:
                raise DataError(
                    f"gamma_bar={target:g} needs gamma > {gamma_cap:g}, beyond the "
                    "exp() overflow guard; rescale the dose link"
                )
            break
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        value = mean_bound(mid)
        if abs(value - target) <= tol * target and hi - lo <= 1e-12 * max(1.0, mid):
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if abs(mean_bound(mid) - target) > tol * target:
        raise SolverError(
            f"gamma_bar={target:g} not reached within {_MAX_ITER} bisection steps"
        )
    return mid


def schedule_from_gamma_bar(
    gamma_bar: float,
    sample: MatchedSample,
    link: DoseLink = DoseLink(),
    tol: float = BISECTION_TOL,
) -> GammaSchedule:
    """Schedule whose mean per-pair bound equals ``gamma_bar``."""
    return schedule_from_gamma_bar_gaps(
        gamma_bar, link_gaps(sample, link), sample.pair_ids, tol=tol
    )


def schedule_from_gamma_bar_gaps(
    gamma_bar: float, gaps, pair_ids=None, tol: float = BISECTION_TOL
) -> GammaSchedule:
    """Same inversion, taking precomputed transformed gaps directly."""
    gaps = np.asarray(gaps, dtype=float)
    gamma = gamma_for_mean_bound(gamma_bar, gaps, tol=tol)
    return _schedule_from_gamma_gaps(gamma, gaps, pair_ids)


def schedule_from_bounds(gamma_i, pair_ids=None) -> GammaSchedule:
    """Explicit user-supplied per-pair bounds; bypasses gamma and the link."""
    return GammaSchedule(gamma_i=np.asarray(gamma_i, dtype=float), pair_ids=pair_ids)


def build_schedule(
    sample: MatchedSample,
    link: DoseLink = DoseLink(),
    gamma: float | None = None,
    gamma_bar: float | None = None,
    gamma_i=None,
    tol: float = BISECTION_TOL,
) -> GammaSchedule:
    """Build a schedule from exactly one of gamma, gamma_bar, or gamma_i."""
    supplied = [v is not None for v in (gamma, gamma_bar, gamma_i)]
    if sum(supplied) != 1:
        raise ConfigError("supply exactly one of gamma, gamma_bar, gamma_i")
    if gamma is not None:
        return schedule_from_gamma(gamma, sample, link)
    if gamma_bar is not None:
        return schedule_from_gamma_bar(gamma_bar, sample, link, tol=tol)
    gamma_i = np.asarray(gamma_i, dtype=float)
    if gamma_i.size != sample.n_pairs:
        raise ConfigError(
            f"gamma_i has {gamma_i.size} entries for {sample.n_pairs} pairs"
        )
    return schedule_from_bounds(gamma_i, pair_ids=sample.pair_ids)
