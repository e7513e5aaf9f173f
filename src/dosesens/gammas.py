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
points in one pass per round.  Each pass sums every row a leaf of at
most ``LEAF`` columns at a time and adds the leaf sums along NumPy's
pairwise tree (:func:`pairwise_sum`), so it divides by n exactly what
``ndarray.mean`` sums on that row alone, and holds scratch for one leaf of
each row, however long the rows are.  Rows are solved in blocks of at most
``ROW_BLOCK`` floats, a row counting its gaps or ``_ROW_STATE`` floats,
whichever is more: each row keeps its bracket and certificate in about that
many floats of arrays, so a block's state stays within the budget however
short its rows are.

The answer is the bisection's, bit for bit, but most of its steps are
decided without a pass over the gaps.  Write f(g) = mean(exp(g * gap)) and
F(g) for its computed value.  After the doubling phase, safeguarded Newton
steps on log f and a probe or two find rates a < b close to the root with
F(a) < target <= F(b).  A bisection step at a midpoint m only needs to know
whether F(m) < target, and that is certain when m < a - margin (yes) or
m > b + margin (no), with margin = 4 eps / mean(gap):

* eps bounds the relative error of F on the bracket [0, hi] of the doubling
  phase.  2^-52 (log2 n + 32 + hi * max gap) covers the rounding of
  g * gap, which exp() turns into a relative error of up to
  hi * max gap * 2^-53; an exp() accurate to 4 ulps; NumPy's pairwise sum
  of n positive terms, at most log2 n + 25 roundings deep; the division by
  n; and their products.
* log f is convex with slope f'/f = mean(gap e^{g gap}) / mean(e^{g gap}) >=
  mean(gap), because gap and e^{g gap} are ordered alike (Chebyshev's sum
  inequality).  The computed mean(gap) is off by far less than a quarter,
  so log f falls by more than 3 eps from a to any m < a - margin.
* Hence F(m) <= (1 + eps) f(m) < (1 + eps) e^{-3 eps} f(a) <=
  F(a) (1 + eps) e^{-3 eps} / (1 - eps) < F(a) < target.  In the same way
  F(m) > F(b) >= target for m > b + margin.

Steps whose width test could stop the bisection still take a pass, since
their value decides the stop, and so do midpoints within the margins.  A
mean that overflows to inf certifies nothing, so such a row evaluates every
step above it, as the plain bisection does.  A row thus takes about ten
passes where the bisection took about forty-three.

The certified steps cost no pass, but replaying them one at a time would
cost some forty array operations per block.  Where the bracket is a dyadic
interval, as the doubling phase leaves it, the midpoints are exact, so a run
of certified steps follows the binary digits that the two ends of the
certificate window share, and :func:`_jump` takes the run at once.  The
remaining steps are replayed one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, SolverError
from .pairs import DoseLink, MatchedSample, link_gaps

MAX_EXPONENT = 700.0  # exp() overflow guard
BISECTION_TOL = 1e-10  # relative tolerance on the recovered mean
_MAX_ITER = 200
_NEWTON_ITER = 16
_PROBES = 4
_ULP = 2.0**-52
LEAF = 1 << 15  # terms a blocked pass sums with one np.add.reduce call


def pairwise_sum(leaf, start: int, stop: int):
    """Terms ``start`` to ``stop - 1`` summed as ``np.add.reduce`` sums a
    contiguous run of them, bit for bit, from leaf sums: ``leaf(i, j)``
    returns ``np.add.reduce`` of terms i to j - 1 (a float, or an array of
    sums that add elementwise) for runs of at most ``LEAF`` terms.

    NumPy's pairwise sum splits a run of more than 128 terms at half its
    length rounded down to a multiple of 8 and adds the sums of the halves.
    This takes the same splits down to runs of at most ``LEAF`` (> 128)
    terms, which NumPy sums as it sums them inside the whole run, so a pass
    over the terms needs scratch for one leaf, not for the whole run.
    """
    n = stop - start
    if n <= LEAF:
        return leaf(start, stop)
    half = n // 2
    half -= half % 8
    return pairwise_sum(leaf, start, start + half) + pairwise_sum(leaf, start + half, stop)


def blocks(n: int):
    """Slices of at most ``LEAF`` consecutive indices that cover range(n)."""
    return (slice(i, min(i + LEAF, n)) for i in range(0, n, LEAF))


def leaves(values):
    """Leaf ``b`` (a slice of ``blocks``) of an array, or of a function that
    returns leaves."""
    return values if callable(values) else values.__getitem__


def gather(values, n: int):
    """The n values that ``values`` holds, or returns a leaf at a time, as
    one array."""
    if not callable(values):
        return values
    if n <= LEAF:
        return values(slice(0, n))
    whole = np.empty(n)
    for b in blocks(n):
        whole[b] = values(b)
    return whole


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
_ROW_STATE = 32  # floats of state the bisection keeps per row, about


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
    block = max(1, ROW_BLOCK // max(n, _ROW_STATE))
    for k in (todo[i:i + block] for i in range(0, todo.size, block)):
        rows = k // targets.size
        # every row of a C-ordered array, in order: no copy needed
        whole = rows.size == n_rows and targets.size == 1 and gaps.flags.c_contiguous
        gamma.flat[k], status.flat[k] = _bisect_rows(
            targets[k % targets.size], gaps if whole else gaps[rows], max_gap[rows], tol
        )
    return MeanBoundRows(targets=targets, gaps=gaps, gamma=gamma, status=status)


def _bisect_rows(target, gaps, max_gap, tol):
    """Row-wise inversion: row i solves mean(exp(g * gaps[i])) = target[i]
    and gets the gamma and status of the plain bisection.

    Every phase keeps its rows' state in arrays and evaluates the means its
    unfinished rows ask for in one pass over their gaps.  The doubling phase
    and the bisection are those of the plain bisection.  Between them,
    safeguarded Newton steps on log mean(exp(g * gap)) and at most
    ``_PROBES`` probes narrow the evaluated bracket a < b, whose comparisons
    certify the bisection steps far enough outside it (see the module
    docstring).
    """
    n_rows, n = gaps.shape
    buf = np.empty((n_rows, min(n, LEAF)))

    def means(rows, at, slope=False):
        # what ndarray.mean computes on each row, a leaf of columns at a time
        part = gaps if rows.size == n_rows else gaps[rows]

        def leaf(start, stop):
            out = buf[:rows.size, :stop - start]
            np.multiply(at[:, None], part[:, start:stop], out=out)
            np.exp(out, out=out)
            value = np.add.reduce(out, axis=1)
            if not slope:
                return value
            with np.errstate(over="ignore"):
                np.multiply(out, part[:, start:stop], out=out)
            return np.array((value, np.add.reduce(out, axis=1)))

        total = pairwise_sum(leaf, 0, n)
        total /= n
        return (total[0], total[1]) if slope else total

    gamma_cap = MAX_EXPONENT / max_gap
    status = np.full(n_rows, _SOLVED, dtype=np.int8)
    lo = np.zeros(n_rows)
    hi = np.where(gamma_cap < 1.0, gamma_cap, 1.0)
    capped = np.zeros(n_rows, dtype=bool)
    value, slope = np.empty(n_rows), np.empty(n_rows)
    rows = np.arange(n_rows)
    while rows.size:
        value[rows], slope[rows] = means(rows, hi[rows], slope=True)
        short = value[rows] < target[rows]
        status[rows[short & capped[rows]]] = _OVERFLOW
        rows = rows[short & ~capped[rows]]
        lo[rows] = hi[rows]
        doubled = 2.0 * hi[rows]
        over = doubled > gamma_cap[rows]
        hi[rows] = np.where(over, gamma_cap[rows], doubled)
        capped[rows] |= over

    # from here on, state is held for the rows the doubling left bracketed
    gamma = np.full(n_rows, np.nan)
    rows = np.flatnonzero(status == _SOLVED)
    target, lo, hi = target[rows], lo[rows], hi[rows]
    value, slope = value[rows], slope[rows]
    mean_gap = (np.add.reduce(gaps, axis=1) / n)[rows]

    # a and b are evaluated rates with computed means below and not below
    # the target; b_mean may be inf, when no step above b is certified
    a, b, b_mean = lo.copy(), hi.copy(), value.copy()
    eps = _ULP * (math.log2(n) + 32.0 + hi * max_gap[rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = np.where(mean_gap > 0.0, 4.0 * eps / mean_gap, np.inf)
    log_target = np.log(target)
    x, step, est = hi.copy(), np.full(rows.size, np.inf), np.full(rows.size, np.nan)

    def update(act, at, mean):
        short = mean < target[act]
        a[act] = np.where(short, at, a[act])
        b[act] = np.where(short, b[act], at)
        b_mean[act] = np.where(short, b_mean[act], mean)

    act = np.arange(rows.size)
    for _ in range(_NEWTON_ITER):
        v, s = value[act], slope[act]
        ok = (v < np.inf) & (0.0 < s) & (s < np.inf)
        with np.errstate(all="ignore"):
            step[act] = np.where(ok, (np.log(v) - log_target[act]) * v / s, np.inf)
        est[act] = np.where(ok, x[act] - step[act], np.nan)
        act = act[~(ok & (np.abs(step[act]) <= margin[act]))]
        if not act.size:
            break
        e, lower, upper = est[act], a[act], b[act]
        x[act] = np.where((lower < e) & (e < upper), e, 0.5 * (lower + upper))
        value[act], slope[act] = means(rows[act], x[act], slope=True)
        update(act, x[act], value[act])

    reach = margin + np.abs(step)
    act = np.arange(rows.size)
    for _ in range(_PROBES):
        e, r, lower, upper = est[act], reach[act], a[act], b[act]
        left = (lower < e - r) & (e - r < upper)
        right = (lower < e + r) & (e + r < upper)
        probe = left | right
        act, at = act[probe], np.where(left, e - r, e + r)[probe]
        if not act.size:
            break
        update(act, at, means(rows[act], at))
        reach[act] *= 16.0
    below = a - margin
    above = np.where(b_mean < np.inf, b + margin, np.inf)

    # the bisection; steps certified by the bracket advance without a pass
    slack = tol * target
    taken = np.zeros(rows.size, dtype=np.int64)
    act = np.arange(rows.size)
    while act.size:
        beneath, beyond = below[act], above[act]
        low, high, k = _jump(lo[act], hi[act], beneath, beyond, taken[act])
        mid, wide = _midpoint(low, high)
        up, down = np.empty_like(wide), np.empty_like(wide)
        # a row stays put once it meets a step it must evaluate
        for _ in range(_MAX_ITER - int(k.max())):
            np.less(mid, beneath, out=up)
            up &= wide
            np.greater(mid, beyond, out=down)
            down &= wide
            np.copyto(low, mid, where=up)
            np.copyto(high, mid, where=down)
            up |= down
            if not np.count_nonzero(up):
                break
            k += up
            mid, wide = _midpoint(low, high)
        v = means(rows[act], mid)
        miss = np.abs(v - target[act])
        last = k >= _MAX_ITER
        solved = np.where(last, ~(miss > slack[act]), ~wide & (miss <= slack[act]))
        gamma[rows[act[solved]]] = mid[solved]
        status[rows[act[last & ~solved]]] = _UNREACHED
        short = v < target[act]
        lo[act] = np.where(short, mid, low)
        hi[act] = np.where(short, high, mid)
        taken[act] = k + 1
        act = act[~(solved | last)]
    return gamma, status


def _midpoint(lo, hi):
    """The bisection's midpoints, and whether the width test lets it go on."""
    mid = lo + hi
    mid *= 0.5
    return mid, hi - lo > 1e-12 * np.maximum(mid, 1.0)


_GRID = 52  # bits of the bracket the jump reads its steps from


def _jump(lo, hi, below, above, taken):
    """Take at once the certified steps whose midpoints are exact.

    Say the computed width w = hi - lo is a power of two, lo is a multiple
    of G = w / 2^s and hi < 2^53 G, as on the brackets the doubling phase
    leaves.  Then w is exact, and the next s midpoints and the sums they
    halve are multiples of G below 2^54 G, which need no rounding.  While
    the bracket is wide and the certificate window [below, above] lies in
    one half of it, each step moves into that half.  In units of w / 2^52
    from lo, those steps follow the leading binary digits that the window's
    ends share; the ends are taken a little outside the window, which only
    shortens the jump.  Rows the jump cannot take stay where they are, and
    the step-by-step loop replays them.
    """
    w = hi - lo
    frac, e_w = np.frexp(w)  # w = 2^(e_w - 1) when frac is 1/2
    # the width stays above every 1e-12 * max(mid, 1) for s <= e_w - e_t steps
    _, e_t = np.frexp(1e-12 * np.maximum(hi, 1.0) * (1.0 + 1e-15))
    _, e_hi = np.frexp(hi)
    top = float(2**_GRID - 1)
    with np.errstate(invalid="ignore", over="ignore"):
        unit = _GRID - (e_w - 1)
        first = np.clip(np.floor(np.ldexp(below - lo, unit)) - 2.0, -1.0, top)
        last = np.clip(np.floor(np.ldexp(above - lo, unit)) + 2.0, -1.0, top)
    first, last = first.astype(np.int64), last.astype(np.int64)
    _, bits = np.frexp((first ^ last).astype(float))
    steps = np.where(first < 0, 0, _GRID - bits)
    steps = np.minimum(steps, np.minimum(e_w - e_t, 52 + e_w - e_hi))  # hi < 2^53 G
    steps = np.clip(np.minimum(steps, _MAX_ITER - taken), 0, None)
    grid = np.ldexp(1.0, e_w - 1 - steps)
    exact = (frac == 0.5) & (grid >= 2.0**-1000)
    exact &= np.floor(lo / grid) == lo / grid
    steps = np.where(exact, steps, 0)
    jumped = lo + grid * (last >> (_GRID - steps))
    lo = np.where(steps > 0, jumped, lo)
    hi = np.where(steps > 0, jumped + grid, hi)
    return lo, hi, taken + steps


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
