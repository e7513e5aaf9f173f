"""Tail probabilities for weighted sums of independent Bernoulli variables.

The worst-case reference distributions used throughout this package are sums
T = sum_i q_i * B_i with known nonnegative weights q_i and independent
B_i ~ Bernoulli(p_i).  Three evaluation routes are provided:

* ``exact_*`` -- dynamic-programming convolution over the exact support
  (feasible while the support stays small; weights on a lattice collapse it);
* ``normal_*`` -- central-limit approximation, with a log-tail variant that
  never underflows;
* ``mc_*`` -- seeded Monte Carlo in fixed-size chunks, so estimates are
  reproducible and independent of how work is split across chunks.

Comparisons against a threshold t use a small absolute slack so that sign
patterns whose sum equals t mathematically are not dropped to floating-point
rounding; the same slack is applied on every route.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import ConfigError, DataError
from .rngs import STREAM_MC_TAIL, child_rng

MC_CHUNK = 1 << 16
MIN_MC_REPS = 1000
SUPPORT_CAP = 1 << 21


def comparison_slack(t: float) -> float:
    """Absolute tolerance for ">= t" / "<= t" tests on weighted sums."""
    return 1e-9 * (1.0 + abs(float(t)))


# ---------------------------------------------------------------- normal --


def normal_sf(z):
    """Upper tail of the standard normal, vectorized."""
    return 0.5 * special.erfc(np.asarray(z, dtype=float) / math.sqrt(2.0))


def normal_logsf(z):
    """log P(N(0,1) > z) without underflow for large z."""
    return special.log_ndtr(-np.asarray(z, dtype=float))


# ----------------------------------------------------------------- exact --


@lru_cache(maxsize=64)
def _convolved_distribution(q: tuple, p: tuple):
    """Support and probabilities of sum q_i*B_i, sorted by support value."""
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
            raise DataError(
                f"exact tail support exceeds {SUPPORT_CAP} points; "
                "use the Monte Carlo or normal method"
            )
    return values, probs


def _distribution(q: np.ndarray, p: np.ndarray):
    # Canonical ordering: the distribution is invariant under permuting
    # pairs, and sorting improves the cache hit rate.
    order = np.lexsort((p, q))
    key_q = tuple(float(v) for v in q[order])
    key_p = tuple(float(v) for v in p[order])
    return _convolved_distribution(key_q, key_p)


def exact_upper_tail(q: np.ndarray, p: np.ndarray, t: float) -> float:
    values, probs = _distribution(q, p)
    idx = np.searchsorted(values, t - comparison_slack(t), side="left")
    return float(probs[idx:].sum())


def exact_lower_tail(q: np.ndarray, p: np.ndarray, t: float) -> float:
    values, probs = _distribution(q, p)
    idx = np.searchsorted(values, t + comparison_slack(t), side="right")
    return float(probs[:idx].sum())


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
    """``reps`` rows of ``width`` U(0, 1) draws, in blocks of ``MC_CHUNK`` rows.

    Block ``c`` comes from ``child_rng(seed, *stream, c)``, so each estimate
    depends only on the seed, the stream and the number of replicates.
    """
    for chunk_idx, start in enumerate(range(0, reps, MC_CHUNK)):
        rng = child_rng(seed, *stream, chunk_idx)
        yield rng.random((min(MC_CHUNK, reps - start), width))


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
