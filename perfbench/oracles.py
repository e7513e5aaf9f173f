"""Reference computations made apart from dosesens.

Nothing here imports the package under test.  Fixtures are re-read from
their CSV files, ranks and scores are recomputed, and tails come from
closed forms (binomial sums with ``math.comb``, the normal mean and
variance of a weighted Bernoulli sum), brute-force enumeration of sign
patterns, or an integer dynamic program over the score lattice.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings

import numpy as np


def read_pairs(path):
    """Dose-ordered pairs from an ingestion CSV, in order of first appearance.

    Returns ``(ids, z_lo, z_hi, y_lo, y_hi)``.
    """
    units: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            units.setdefault(row["pair_id"], []).append((float(row["z"]), float(row["y"])))
    ids = list(units)
    lo = [min(units[i]) for i in ids]
    hi = [max(units[i]) for i in ids]
    return (
        ids,
        np.array([u[0] for u in lo]),
        np.array([u[0] for u in hi]),
        np.array([u[1] for u in lo]),
        np.array([u[1] for u in hi]),
    )


def midranks(values) -> np.ndarray:
    """Ranks 1..n of ``values``, ties sharing the mean of their positions."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


_SCORES = {
    "mcnemar": lambda dz, rz, ry: np.ones_like(ry),
    "wilcoxon": lambda dz, rz, ry: ry,
    "dose-weighted": lambda dz, rz, ry: dz * ry,
    "double-rank": lambda dz, rz, ry: rz * ry,
    "sqrt(r_z * r_y)": lambda dz, rz, ry: np.sqrt(rz * ry),
}


def scored(z_lo, z_hi, y_lo, y_hi, test):
    """Scores q and observed statistic t = sum of q over concordant pairs."""
    dz = z_hi - z_lo
    dy = y_hi - y_lo
    q = _SCORES[test](dz, midranks(np.abs(dz)), midranks(np.abs(dy)))
    return q, float(q[dy > 0].sum())


def slack(t: float) -> float:
    # the package's documented tie rule: sums within 1e-9 (1 + |t|) of t
    # count as equal to t
    return 1e-9 * (1.0 + abs(t))


# ---------------------------------------------------------------- tails --


def binomial_tails(n: int, t: float, gamma: float):
    """McNemar with one common bound: T+ ~ Bin(n, G/(1+G)), T- ~ Bin(n, 1/(1+G))."""
    p = gamma / (1.0 + gamma)
    k_obs = round(t)

    def pmf(k, prob):
        return math.comb(n, k) * prob**k * (1.0 - prob) ** (n - k)

    upper = math.fsum(pmf(k, p) for k in range(k_obs, n + 1))
    lower = math.fsum(pmf(k, 1.0 - p) for k in range(0, k_obs + 1))
    return upper, lower


def enumerated_tails(q, t: float):
    """Both tails at no bias by summing over all 2^n sign patterns."""
    n = q.size
    codes = np.arange(1 << n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)) & 1
    sums = bits.astype(float) @ q
    total = float(1 << n)
    upper = int(np.count_nonzero(sums >= t - slack(t))) / total
    lower = int(np.count_nonzero(sums <= t + slack(t))) / total
    return upper, lower


def _lattice_pmf(units, p):
    """Distribution of sum(units_i * B_i), B_i ~ Bernoulli(p_i), integer units."""
    pmf = np.zeros(int(units.sum()) + 1)
    pmf[0] = 1.0
    top = 0
    for u, pi in zip(units, p):
        shifted = pmf[: top + 1] * pi
        pmf[: top + 1] *= 1.0 - pi
        pmf[u : u + top + 1] += shifted
        top += u
    return pmf


def lattice_tails(q, t: float, p_plus, p_minus):
    """Exact tails for scores on the half-integer lattice (midrank Wilcoxon)."""
    units = np.rint(2.0 * q).astype(np.int64)
    if not np.array_equal(units, 2.0 * q):
        raise ValueError("scores are not multiples of 1/2")
    cut = round(2.0 * t)
    upper = float(_lattice_pmf(units, p_plus)[cut:].sum())
    lower = float(_lattice_pmf(units, p_minus)[: cut + 1].sum())
    return upper, lower


def normal_tails(q, t: float, p_plus, p_minus):
    """Normal tails of sum q_i B_i from its closed-form mean and variance."""
    upper_mean = float(np.dot(q, p_plus))
    lower_mean = float(np.dot(q, p_minus))
    var = float(np.dot(q * q, p_plus * (1.0 - p_plus)))
    sd = math.sqrt(var)
    upper = 0.5 * math.erfc((t - upper_mean) / (sd * math.sqrt(2.0)))
    lower = 0.5 * math.erfc(-(t - lower_mean) / (sd * math.sqrt(2.0)))
    return upper, lower


def gamma_for_mean(gamma_bar: float, gaps) -> float:
    """gamma with mean(exp(gamma * gaps)) = gamma_bar, bisected to the last bit."""
    if gamma_bar == 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while np.exp(hi * gaps).mean() < gamma_bar:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.exp(mid * gaps).mean() < gamma_bar:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------- weak null --


def weak_objective(objective, w, tau1, tau2, gamma_i, denom) -> float:
    p_plus = gamma_i / (1.0 + gamma_i)
    coef = np.where(w == 1, p_plus, 1.0 - p_plus)
    signed = tau1 + tau2 if objective == "printed" else tau1 - tau2
    return float(np.sum(coef * signed)) / denom


def weak_enumerated_optimum(objective, tau1, gamma_i, starts=2, seed=0):
    """Minimum over every indicator pattern, each piece solved by SLSQP.

    A general-purpose solver on the same constraints as the branch and
    bound: plane, weighted ball, the sign box of each indicator and big-M.
    Returns None when no pattern has a feasible point.
    """
    from scipy import optimize

    n = tau1.size
    p_plus = gamma_i / (1.0 + gamma_i)
    weights = gamma_i / (1.0 + gamma_i) ** 2
    denom = math.sqrt(float(np.sum(2.0 * p_plus * tau1**2)))
    eps = 1e-9 * denom
    big_m = (1.0 + gamma_i) / np.sqrt(gamma_i) * denom
    total = -float(np.sum(tau1))
    sign = 1.0 if objective == "printed" else -1.0
    rng = np.random.default_rng(seed)
    constraints = [
        {"type": "eq", "fun": lambda x: np.sum(x) - total,
         "jac": lambda x: np.ones_like(x)},
        {"type": "ineq", "fun": lambda x: denom**2 - np.sum(weights * (tau1 - x) ** 2),
         "jac": lambda x: 2.0 * weights * (tau1 - x)},
    ]
    best = None
    for pattern in itertools.product((0, 1), repeat=n):
        w = np.asarray(pattern)
        coef = np.where(w == 1, p_plus, 1.0 - p_plus)
        lin = sign * coef / denom
        const = float(np.sum(coef * tau1)) / denom
        lower = np.where(w == 1, tau1, tau1 - big_m)
        upper = np.where(w == 1, tau1 + big_m, tau1 - eps)
        for attempt in range(starts):
            if attempt == 0:
                x0 = np.clip(tau1 - np.sign(tau1 + 0.5) * 0.1, lower, upper)
            else:
                x0 = rng.uniform(np.maximum(lower, -3 * denom), np.minimum(upper, 3 * denom))
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message="Values in x were outside bounds")
                res = optimize.minimize(
                    lambda x: lin @ x + const, x0, jac=lambda x: lin, method="SLSQP",
                    bounds=list(zip(lower, upper)), constraints=constraints,
                    options={"maxiter": 300, "ftol": 1e-12},
                )
            x = res.x
            feasible = (
                abs(np.sum(x) - total) <= 1e-7 * max(1.0, denom)
                and np.sum(weights * (tau1 - x) ** 2) <= denom**2 * (1 + 1e-7)
                and np.all(x >= lower - 1e-9 * max(1.0, denom))
                and np.all(x <= upper + 1e-9 * max(1.0, denom))
            )
            if feasible:
                value = float(lin @ x + const)
                best = value if best is None else min(best, value)
    return best


# -------------------------------------------------------------- planning --


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def kl_slope(theta: float) -> float:
    """Bahadur slope of the sign test at no bias: 2 KL(theta || 1/2)."""
    return 2.0 * (theta * math.log(theta) + (1.0 - theta) * math.log(1.0 - theta)
                  + math.log(2.0))
