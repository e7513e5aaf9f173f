"""Tail probabilities for weighted sums of independent Bernoulli variables.

The worst-case reference distributions used throughout this package are sums
T = sum_i q_i * B_i with known nonnegative weights q_i and independent
B_i ~ Bernoulli(p_i).  Three evaluation routes are provided:

* ``exact_*`` -- the full distribution of T, built pair by pair in a fixed
  order and cached.  It takes one of two routes:

  - *lattice*: when every q_i * k is an integer for one k in (1, 2, 4) --
    McNemar (integers), Wilcoxon with midranks (halves), double-rank and
    ``r_z * r_y`` (quarters) -- and the lattice {0, 1/k, ..., sum q_i}
    has at most ``SUPPORT_CAP`` points, a dense probability array and a
    reachability mask over the lattice are updated in place, O(n * S) with
    no sorting;
  - *merge*: any other weights (``dose-weighted-abs``, general expressions,
    normalized ranks), or a lattice over the cap, merge the support with
    ``np.unique`` after each pair and stop with a ``DataError`` once it
    passes ``SUPPORT_CAP`` points.

  Both routes add the same two products per support point in the same
  order, so they return the same values and probabilities bit for bit;
* ``normal_*`` -- central-limit approximation, with a log-tail variant that
  never underflows;
* ``mc_*`` -- seeded Monte Carlo in fixed-size chunks, so estimates are
  reproducible and independent of how work is split across chunks.  Each
  chunk is drawn in blocks of ``MC_BLOCK`` rows, which bounds memory without
  changing the draws.

Comparisons against a threshold t use a small absolute slack so that sign
patterns whose sum equals t mathematically are not dropped to floating-point
rounding; the same slack is applied on every route.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DataError
from .rngs import STREAM_MC_TAIL, child_rng

MC_CHUNK = 1 << 16
MC_BLOCK = 1 << 12
MIN_MC_REPS = 1000
SUPPORT_CAP = 1 << 21


def comparison_slack(t: float) -> float:
    """Absolute tolerance for ">= t" / "<= t" tests on weighted sums."""
    return 1e-9 * (1.0 + abs(float(t)))


# ---------------------------------------------------------------- normal --


_SQRT2 = math.sqrt(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def normal_sf(z: float) -> float:
    """Upper tail of the standard normal at a scalar z."""
    return 0.5 * math.erfc(z / _SQRT2)


def normal_logsf(z: float) -> float:
    """log P(N(0,1) > z) at a scalar z, without underflow for large z.

    Below 0 the tail is near 1 and ``log1p`` keeps its small complement;
    up to 20 the tail itself is accurate; beyond 20 the asymptotic series
    of the Mills ratio, whose first omitted term is under 3e-12 there.
    """
    if z < 0.0:
        return math.log1p(-0.5 * math.erfc(-z / _SQRT2))
    if z <= 20.0:
        return math.log(0.5 * math.erfc(z / _SQRT2))
    w = 1.0 / (z * z)
    series = 1.0 + w * (-1.0 + w * (3.0 + w * (-15.0 + w * (105.0 + w * -945.0))))
    return -0.5 * z * z - math.log(z) - _HALF_LOG_2PI + math.log(series)


# ----------------------------------------------------------------- exact --


def _lattice_step(q: np.ndarray):
    """Smallest k in (1, 2, 4) that puts every weight on the grid Z / k."""
    if not np.all(q >= 0.0):
        return None
    for k in (1, 2, 4):
        scaled = q * k
        if np.array_equal(scaled, np.floor(scaled)):
            return k
    return None


def _lattice_distribution(steps: list, p: tuple, k: int):
    """Dense convolution over the lattice {0, 1/k, 2/k, ...}.

    Per pair, the new probability of each point is old * (1 - p) plus the
    point's shifted old * p, the same two products added in the same order
    as the merge route, so the results agree bit for bit.  ``reach`` keeps
    points whose probability underflows to zero in the support, as the
    merge route does.
    """
    probs = np.zeros(sum(steps) + 1)
    reach = np.zeros(probs.size, dtype=bool)
    probs[0] = 1.0
    reach[0] = True
    top = 1  # points at or above ``top`` are unreachable so far
    for step, pi in zip(steps, p):
        if step == 0:
            continue
        moved = probs[:top] * pi
        probs[:top] *= 1.0 - pi
        probs[step:step + top] += moved
        reach[step:step + top] |= reach[:top]
        top += step
    idx = np.flatnonzero(reach)
    return idx / k, probs[idx]


def _merged_distribution(q: tuple, p: tuple):
    values = np.zeros(1)
    probs = np.ones(1)
    for qi, pi in zip(q, p):
        if qi == 0.0:
            continue
        cand_values = np.concatenate([values, values + qi])
        cand_probs = np.concatenate([probs * (1.0 - pi), probs * pi])
        values, inverse = np.unique(cand_values, return_inverse=True)
        probs = np.zeros_like(values)
        np.add.at(probs, inverse, cand_probs)
        if values.size > SUPPORT_CAP:
            raise _support_too_large()
    return values, probs


def _reaches_past_cap(steps: list) -> bool:
    """Whether the sums of subsets of the integer ``steps`` take more than
    ``SUPPORT_CAP`` values.  The steps are divided by their greatest common
    divisor, and the sums below ``4 * SUPPORT_CAP`` are marked one bit each
    in a Python int: a lower bound on the count, so True is certain and
    False leaves the question to the merge loop."""
    divisor = math.gcd(*steps)
    width = 4 * SUPPORT_CAP
    window = (1 << width) - 1
    reach = 1
    for i, step in enumerate(steps, 1):
        step //= divisor
        if step < width:
            reach = (reach | reach << step) & window
        if i % 64 == 0 and reach.bit_count() > SUPPORT_CAP:
            return True
    return reach.bit_count() > SUPPORT_CAP


def _support_too_large() -> DataError:
    return DataError(
        f"exact tail support exceeds {SUPPORT_CAP} points; "
        "use the Monte Carlo or normal method"
    )


@lru_cache(maxsize=64)
def _convolved_distribution(q: tuple, p: tuple):
    """Support and probabilities of sum q_i*B_i, sorted by support value.

    A lattice over the cap goes to the merge loop, whose support only grows
    pair by pair; when its reachable points already pass the cap, the merge
    would raise at the end, so the error is raised before it starts.
    """
    weights = np.array(q, dtype=float)
    k = _lattice_step(weights)
    span = weights.sum() * k if k is not None else math.inf
    if span < 2.0**53:  # steps exact as int64
        steps = (weights * k).astype(np.int64).tolist()
        if span < SUPPORT_CAP:
            return _lattice_distribution(steps, p, k)
        if _reaches_past_cap(steps):
            raise _support_too_large()
    return _merged_distribution(q, p)


def _distribution(q: np.ndarray, p: np.ndarray):
    # Canonical ordering: the distribution is invariant under permuting
    # pairs, and sorting improves the cache hit rate.
    order = np.lexsort((p, q))
    key_q = tuple(float(v) for v in q[order])
    key_p = tuple(float(v) for v in p[order])
    return _convolved_distribution(key_q, key_p)


# A tail sums nonnegative point probabilities, and rounding can carry the
# sum past 1; the clamp keeps it a probability.


def exact_upper_tail(q: np.ndarray, p: np.ndarray, t: float) -> float:
    values, probs = _distribution(q, p)
    idx = np.searchsorted(values, t - comparison_slack(t), side="left")
    return min(float(probs[idx:].sum()), 1.0)


def exact_lower_tail(q: np.ndarray, p: np.ndarray, t: float) -> float:
    values, probs = _distribution(q, p)
    idx = np.searchsorted(values, t + comparison_slack(t), side="right")
    return min(float(probs[:idx].sum()), 1.0)


# ----------------------------------------------------------- monte carlo --


def _check_reps(reps: int) -> int:
    reps = int(reps)
    if reps < MIN_MC_REPS:
        raise ConfigError(f"Monte Carlo reps must be >= {MIN_MC_REPS}, got {reps}")
    return reps


def binomial_se(share: float, reps: int) -> float:
    """Standard error of a share estimated from ``reps`` independent draws."""
    return math.sqrt(share * (1.0 - share) / reps)


def uniform_chunks(reps: int, width: int, seed: int, *stream: int):
    """``reps`` rows of ``width`` U(0, 1) draws, in blocks of ``MC_BLOCK`` rows.

    Chunk ``c`` of ``MC_CHUNK`` rows comes from ``child_rng(seed, *stream, c)``,
    so each estimate depends only on the seed, the stream and the number of
    replicates.  A generator yields the same doubles in the same order
    whatever shape they are drawn in, so drawing a chunk block by block
    changes no draw; it only keeps one block in memory at a time.
    """
    for chunk_idx, start in enumerate(range(0, reps, MC_CHUNK)):
        rng = child_rng(seed, *stream, chunk_idx)
        rows = min(MC_CHUNK, reps - start)
        for done in range(0, rows, MC_BLOCK):
            yield rng.random((min(MC_BLOCK, rows - done), width))


def mc_tails(
    q: np.ndarray,
    p_plus: np.ndarray,
    p_minus: np.ndarray,
    t: float,
    reps: int,
    seed: int,
    stream: tuple = (),
):
    """Upper tail under p_plus and lower tail under p_minus, coupled.

    Both sides reuse the same uniform draws; with a fixed seed the upper
    (lower) tail is then exactly nondecreasing in p_plus (nonincreasing in
    p_minus), which preserves the monotonicity of worst-case p-values in the
    strength of the assumed bias.

    Returns ``(upper, lower, se_upper, se_lower)``.
    """
    reps = _check_reps(reps)
    slack = comparison_slack(t)
    hits_upper = 0
    hits_lower = 0
    for u in uniform_chunks(reps, q.size, seed, STREAM_MC_TAIL, *stream):
        hits_upper += int(np.count_nonzero((u < p_plus) @ q >= t - slack))
        hits_lower += int(np.count_nonzero((u < p_minus) @ q <= t + slack))
    upper = hits_upper / reps
    lower = hits_lower / reps
    return upper, lower, binomial_se(upper, reps), binomial_se(lower, reps)
