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
positive).

The bisection is row-wise: :func:`mean_bound_rows` solves every (gap row,
target) pair of a block at once, each row keeping its own bracket and
freezing when it meets the stop rule, and :func:`gamma_for_mean_bound` is its
one-row call.  A simulation chunk thus calibrates all its replicates and grid
points in one pass.  Each step takes the means as
``np.add.reduce(..., axis=1) / n``, which sums every row exactly as
``ndarray.mean`` sums it alone, so each row follows the scalar bisection bit
for bit.  Rows are solved in blocks of at most ``ROW_BLOCK`` floats.  Newton
steps would take fewer evaluations but move the last bits of every schedule,
and with them of every sharp and weak-null report, so the inversion stays a
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


# why a (gap row, target) pair has no gamma, in the order the checks run
_SOLVED, _BELOW_ONE, _NEGATIVE_GAP, _ZERO_GAPS, _OVERFLOW, _UNREACHED = range(6)


@dataclass(frozen=True)
class MeanBoundRows:
    """gamma for every (gap row, target) pair of one row-wise inversion.

    ``gamma[s, j]`` solves mean(exp(gamma * gaps[s])) = targets[j]; where
    ``status[s, j]`` is not solved, :meth:`value` raises what the scalar
    inversion raises there.
    """

    targets: np.ndarray
    gaps: np.ndarray
    gamma: np.ndarray
    status: np.ndarray

    def value(self, s: int, j: int) -> float:
        code = self.status[s, j]
        if code == _SOLVED:
            return float(self.gamma[s, j])
        target = float(self.targets[j])
        if code == _BELOW_ONE:
            raise ConfigError("gamma_bar must be >= 1")
        if code == _NEGATIVE_GAP:
            raise DataError("dose gaps must be nonnegative")
        if code == _ZERO_GAPS:
            raise DataError("all transformed dose gaps are zero; gamma_bar > 1 unreachable")
        if code == _OVERFLOW:
            gamma_cap = MAX_EXPONENT / float(self.gaps[s].max(initial=0.0))
            raise DataError(
                f"gamma_bar={target:g} needs gamma > {gamma_cap:g}, beyond the "
                "exp() overflow guard; rescale the dose link"
            )
        raise SolverError(
            f"gamma_bar={target:g} not reached within {_MAX_ITER} bisection steps"
        )

    def schedule(self, s: int, j: int) -> GammaSchedule:
        """The schedule of gap row ``s`` at target ``j``."""
        return _schedule_from_gamma_gaps(self.value(s, j), self.gaps[s])

    def p_plus(self, s: int, js: slice):
        """``schedule(s, j).p_plus`` for every j in ``js``, as rows of one
        array, and whether each of those schedules builds without error.

        Where it does not, ``schedule(s, j)`` raises that error.
        """
        gamma = self.gamma[s, js]
        gaps = self.gaps[s]
        gamma_i = np.exp(gamma[:, None] * gaps)
        clean = (self.status[s, js] == _SOLVED) & (gaps.size > 0)
        clean &= ~(gamma * gaps.max(initial=0.0) > MAX_EXPONENT)
        clean &= np.all(np.isfinite(gamma_i) & (gamma_i >= 1.0), axis=1)
        return gamma_i / (1.0 + gamma_i), clean


ROW_BLOCK = 1 << 20  # floats in the largest temporary of the row-wise bisection


def mean_bound_rows(targets, gaps, tol: float = BISECTION_TOL) -> MeanBoundRows:
    """Invert gamma_bar = mean(exp(gamma * gap)) for every target on every
    row of the 2-d ``gaps``, by one row-wise bisection.

    Each map is strictly increasing from 1 at gamma = 0, so each root is
    unique.  A target that is not >= 1 (NaN included), a row with a negative
    gap, a row of zero gaps and a target that would overflow exp() have no
    root; :meth:`MeanBoundRows.value` raises for them.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1)
    gaps = np.asarray(gaps, dtype=float)
    n_rows, n = gaps.shape
    max_gap = gaps.max(axis=1, initial=0.0)
    status = np.full((n_rows, targets.size), _SOLVED, dtype=np.int8)
    # in reverse order of the checks, so that the first failing one wins
    status[max_gap == 0.0, :] = _ZERO_GAPS
    status[:, targets == 1.0] = _SOLVED
    status[np.any(gaps < 0, axis=1), :] = _NEGATIVE_GAP
    status[:, ~(targets >= 1.0)] = _BELOW_ONE
    gamma = np.full(status.shape, np.nan)
    gamma[:, targets == 1.0] = 0.0

    todo = np.flatnonzero((status == _SOLVED) & (targets != 1.0))
    block = max(1, ROW_BLOCK // max(n, 1))
    for k in (todo[i:i + block] for i in range(0, todo.size, block)):
        rows = k // targets.size
        gamma.flat[k], status.flat[k] = _bisect_rows(
            targets[k % targets.size], gaps[rows], MAX_EXPONENT / max_gap[rows], tol
        )
    return MeanBoundRows(targets=targets, gaps=gaps, gamma=gamma, status=status)


def _bisect_rows(target, gaps, gamma_cap, tol):
    """Row-wise bisection: row i solves mean(exp(g * gaps[i])) = target[i]
    with the bracket, doubling and stop rule of the scalar inversion."""
    n = gaps.shape[1]
    buf = np.empty_like(gaps)

    def mean_bound(g):
        # what ndarray.mean computes on each row, without its per-call overhead
        np.multiply(g[:, None], gaps, out=buf)
        np.exp(buf, out=buf)
        return np.add.reduce(buf, axis=1) / n

    status = np.full(target.shape, _SOLVED, dtype=np.int8)
    lo = np.zeros_like(target)
    hi = np.where(gamma_cap < 1.0, gamma_cap, 1.0)
    capped = np.zeros(target.shape, dtype=bool)
    grow = np.ones(target.shape, dtype=bool)
    while True:
        short = grow & (mean_bound(hi) < target)
        status[short & capped] = _OVERFLOW
        grow = short & ~capped
        if not grow.any():
            break
        lo = np.where(grow, hi, lo)
        doubled = 2.0 * hi
        over = grow & (doubled > gamma_cap)
        capped |= over
        hi = np.where(over, gamma_cap, np.where(grow, doubled, hi))

    gamma = np.full(target.shape, np.nan)
    active = status == _SOLVED
    slack = tol * target
    for _ in range(_MAX_ITER):
        if not np.count_nonzero(active):
            return gamma, status
        mid = 0.5 * (lo + hi)
        value = mean_bound(mid)
        done = active & (np.abs(value - target) <= slack)
        done &= hi - lo <= 1e-12 * np.maximum(1.0, mid)
        np.copyto(gamma, mid, where=done)
        active &= ~done
        below = value < target
        np.copyto(lo, mid, where=active & below)
        np.copyto(hi, mid, where=active > below)  # active and not below
    mid = 0.5 * (lo + hi)
    missed = active & (np.abs(mean_bound(mid) - target) > tol * target)
    reached = active & ~missed
    gamma[reached] = mid[reached]
    status[missed] = _UNREACHED
    return gamma, status


def gamma_for_mean_bound(
    gamma_bar: float, gaps: np.ndarray, tol: float = BISECTION_TOL
) -> float:
    """Invert gamma_bar = mean(exp(gamma * gap)) for gamma by bisection.

    The one-row call of :func:`mean_bound_rows`.  Raises when the target is
    not >= 1, when all gaps are zero, or when reaching it would overflow
    exp().
    """
    gaps = np.asarray(gaps, dtype=float).reshape(1, -1)
    return mean_bound_rows([gamma_bar], gaps, tol=tol).value(0, 0)


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
