"""Independent reference implementations used to validate the package.

These deliberately use different algorithms from the production code (sign
pattern enumeration instead of convolution; scipy's SLSQP with exhaustive
enumeration of the binary pattern instead of branch-and-bound), so agreement
is meaningful.
"""

import itertools
import warnings

import numpy as np
from scipy import optimize

from dosesens.errors import ConfigError, DataError
from dosesens.simulate import power_curve

ENUMERATION_LIMIT = 25


def exact_randomization_pvalue(scored, side="greater"):
    """Exact permutation p-value under equiprobable within-pair assignments.

    Enumerates all sign patterns of the pairs with a nonzero outcome
    difference (pairs with a zero difference contribute nothing either way).
    Limited to samples small enough to enumerate.
    """
    if side != "greater":
        raise ConfigError("only side='greater' is enumerated")
    active = ~scored.zero_diff
    m = int(np.count_nonzero(active))
    if m > ENUMERATION_LIMIT:
        raise DataError(
            f"exact enumeration limited to {ENUMERATION_LIMIT} active pairs, got {m}"
        )
    q = scored.q[active]
    t = scored.t_obs
    slack = 1e-9 * (1.0 + abs(t))
    total = 1 << m
    hits = 0
    chunk = 1 << 20
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        bits = (codes[:, None] >> np.arange(m, dtype=np.uint64)) & np.uint64(1)
        sums = bits.astype(float) @ q
        hits += int(np.count_nonzero(sums >= t - slack))
    return hits / total


def assignment_bounds(schedule, i):
    """(lower, upper) bounds on pair i's biased assignment probability."""
    if not 0 <= i < schedule.n_pairs:
        raise ConfigError(f"pair index {i} out of range")
    g = float(schedule.gamma_i[i])
    return 1.0 / (1.0 + g), g / (1.0 + g)


def empirical_crossing(
    dgp, spec, n_pairs_ladder, gamma_bar_grid, alpha=0.05, reps=1000, seed=None,
    method="normal", workers=1,
):
    """Where the power curve crosses one half, per sample size.

    Returns ``{I: {"crossing": value | None, "reason": str, "curve": ...}}``;
    as I grows the crossings approach the design-sensitivity threshold.
    """
    out = {}
    for n_pairs in n_pairs_ladder:
        curve = power_curve(
            dgp, int(n_pairs), gamma_bar_grid, spec,
            alpha=alpha, reps=reps, seed=seed, method=method, workers=workers,
        )
        value, reason = curve.crossing(0.5)
        out[int(n_pairs)] = {
            "crossing": value,
            "reason": reason,
            "curve": curve.to_json_dict(),
        }
    return out


def brute_force_weaknull(problem, objective="printed", starts=4, seed=0):
    """Enumerate every side pattern and polish each piece with SLSQP.

    Returns ``(value, w, tau2)`` for the global minimum of the studentized
    statistic, or ``(None, None, None)`` when no pattern admits a feasible
    point.  Only sensible for a handful of pairs.
    """
    tau1 = problem.tau1
    n = tau1.size
    denom = problem.denom
    eps = problem.epsilon
    big_m = problem.big_m
    weights = problem.ball_weights
    p_plus = problem.gamma_i / (1.0 + problem.gamma_i)
    total = -float(np.sum(tau1))
    rng = np.random.default_rng(seed)

    best = (None, None, None)
    for pattern in itertools.product((0, 1), repeat=n):
        w = np.asarray(pattern)
        c = np.where(w == 1, p_plus, 1.0 - p_plus)
        sign = 1.0 if objective == "printed" else -1.0
        coef = sign * c / denom
        const = float(np.sum(c * tau1)) / denom
        lower = np.where(w == 1, tau1, tau1 - big_m)
        upper = np.where(w == 1, tau1 + big_m, tau1 - eps)

        constraints = [
            {
                "type": "eq",
                "fun": lambda x: np.sum(x) - total,
                "jac": lambda x: np.ones_like(x),
            },
            {
                "type": "ineq",
                "fun": lambda x: denom**2 - np.sum(weights * (tau1 - x) ** 2),
                "jac": lambda x: 2.0 * weights * (tau1 - x),
            },
        ]
        for attempt in range(starts):
            if attempt == 0:
                x0 = np.clip(tau1 - np.sign(tau1 + 0.5) * 0.1, lower, upper)
            else:
                x0 = rng.uniform(np.maximum(lower, -3 * denom), np.minimum(upper, 3 * denom))
            with warnings.catch_warnings():
                # SLSQP grumbles when a trial step leaves the box before it
                # clips back; feasibility is re-checked below anyway
                warnings.filterwarnings(
                    "ignore", message="Values in x were outside bounds"
                )
                res = optimize.minimize(
                    lambda x: coef @ x + const,
                    x0,
                    jac=lambda x: coef,
                    method="SLSQP",
                    bounds=list(zip(lower, upper)),
                    constraints=constraints,
                    options={"maxiter": 300, "ftol": 1e-12},
                )
            x = res.x
            feasible = (
                abs(np.sum(x) - total) <= 1e-7 * max(1.0, denom)
                and np.sum(weights * (tau1 - x) ** 2) <= denom**2 * (1 + 1e-7)
                and np.all(x >= lower - 1e-9 * max(1.0, denom))
                and np.all(x <= upper + 1e-9 * max(1.0, denom))
            )
            if not feasible:
                continue
            value = float(coef @ x + const)
            if best[0] is None or value < best[0]:
                best = (value, w.copy(), x.copy())
    return best


def enumerate_bounding_tail(tau1, tau2, gamma_i, t, slack=0.0):
    """Exact tail of the two-point bounding average by enumeration."""
    tau1 = np.asarray(tau1, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    gamma_i = np.asarray(gamma_i, dtype=float)
    hi = np.maximum(tau1, tau2)
    lo = np.minimum(tau1, tau2)
    p_plus = gamma_i / (1.0 + gamma_i)
    n = tau1.size
    prob = 0.0
    for pattern in itertools.product((0, 1), repeat=n):
        take = np.asarray(pattern, dtype=bool)
        weight = float(np.prod(np.where(take, p_plus, 1.0 - p_plus)))
        mean = float(np.where(take, hi, lo).mean())
        if mean >= t - slack:
            prob += weight
    return prob
