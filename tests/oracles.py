"""Independent reference implementations used to validate the package.

These deliberately use different algorithms from the production code (sign
pattern enumeration instead of convolution; scipy's SLSQP with exhaustive
enumeration of the binary pattern instead of branch-and-bound; nested brentq
root-finds instead of the breakpoint and active-set node solve), so agreement
is meaningful.  The support-merging convolution is kept as the reference for
the dense lattice convolution in dosesens.tails, which must match it bit for
bit.
"""

import itertools
import math
import warnings

import numpy as np
from scipy import optimize

from dosesens import tails
from dosesens.errors import ConfigError, DataError, SolverError
from dosesens.qclp import QclpResult
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


def reference_convolved_distribution(q, p):
    """Support and probabilities of sum q_i*B_i by merging the support per pair.

    After each pair the candidate support is re-sorted with ``np.unique`` and
    coinciding points are summed with ``np.add.at``; raises ``DataError``
    once the support passes ``tails.SUPPORT_CAP`` points.
    """
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
        if values.size > tails.SUPPORT_CAP:
            raise DataError(
                f"exact tail support exceeds {tails.SUPPORT_CAP} points; "
                "use the Monte Carlo or normal method"
            )
    return values, probs


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


# ---------------------------------------------------------------- qclp --
# The node solve of the weak-null search as it stood with nested root-finds:
# brentq on the plane multiplier inside brentq on the ball multiplier, after
# x8 bracketing from a tiny nu.  Slow, but it shares no step with the
# breakpoint and active-set solve in dosesens.qclp.

_BRENTQ_KW = dict(maxiter=256, xtol=1e-300, rtol=4 * np.finfo(float).eps)


def _reference_plane(center, c, a, nu, l, u, total):
    lam_all_hi = float(np.min(-c - 2.0 * nu * a * (u - center))) - 1.0
    lam_all_lo = float(np.max(-c - 2.0 * nu * a * (l - center))) + 1.0

    def residual(lam):
        return float(np.sum(np.clip(center - (c + lam) / (2.0 * nu * a), l, u)) - total)

    if residual(lam_all_hi) <= 0.0:
        return u.copy(), lam_all_hi
    if residual(lam_all_lo) >= 0.0:
        return l.copy(), lam_all_lo
    lam = optimize.brentq(residual, lam_all_hi, lam_all_lo, **_BRENTQ_KW)
    return np.clip(center - (c + lam) / (2.0 * nu * a), l, u), lam


def _reference_polish(x, c, lam, l, u, total):
    x = x.copy()
    residual = total - float(np.sum(x))
    if residual == 0.0:
        return x
    for i in np.argsort(np.abs(c + lam)):
        room = (u[i] - x[i]) if residual > 0 else (x[i] - l[i])
        step = math.copysign(min(abs(residual), room), residual)
        x[i] += step
        residual -= step
        if abs(residual) <= 1e-15 * max(1.0, abs(total)):
            break
    return x


def _reference_projection(center, a, l, u, total):
    theta_all_u = float(np.min(2.0 * a * (center - u))) - 1.0
    theta_all_l = float(np.max(2.0 * a * (center - l))) + 1.0

    def residual(theta):
        return float(np.sum(np.clip(center - theta / (2.0 * a), l, u)) - total)

    if residual(theta_all_u) <= 0.0:
        x = u.copy()
    elif residual(theta_all_l) >= 0.0:
        x = l.copy()
    else:
        theta = optimize.brentq(residual, theta_all_u, theta_all_l, **_BRENTQ_KW)
        x = np.clip(center - theta / (2.0 * a), l, u)
        x = _reference_polish(x, np.zeros_like(x), 0.0, l, u, total)
    return x, float(np.sum(a * (x - center) ** 2))


def reference_minimize_linear(c, l, u, a, center, budget, total, feas_tol=1e-9):
    """min c @ x on plane ∩ ball ∩ box by nested brentq; a QclpResult."""
    c, l, u, a, center = (np.asarray(v, dtype=float) for v in (c, l, u, a, center))
    budget, total = float(budget), float(total)
    if np.any(a <= 0) or budget < 0:
        raise SolverError("ball weights must be positive and budget nonnegative")
    infeasible = QclpResult(status="infeasible", value=math.inf, x=None)
    if np.any(l > u + 1e-15 * np.maximum(1.0, np.abs(u))):
        return infeasible
    eq_slack = feas_tol * max(1.0, abs(total))
    if float(np.sum(l)) > total + eq_slack or float(np.sum(u)) < total - eq_slack:
        return infeasible

    def optimal(x):
        return QclpResult(status="optimal", value=float(c @ x), x=x)

    proj, qmin = _reference_projection(center, a, l, u, total)
    budget_slack = feas_tol * max(1.0, budget)
    if qmin > budget + budget_slack:
        return infeasible
    if qmin >= budget - budget_slack:
        return optimal(proj)
    c_scale = float(np.max(np.abs(c)))
    if float(np.max(c) - np.min(c)) <= 1e-15 * max(1.0, c_scale):
        return optimal(proj)

    s0 = total - float(np.sum(center))
    inv_a = 1.0 / a
    A1 = float(np.sum(inv_a))
    Ac = float(np.sum(c * inv_a))
    var_c = max(float(np.sum(c * c * inv_a)) - Ac * Ac / A1, 0.0)
    ball_slack = budget - s0 * s0 / A1
    if ball_slack > 0.0 and var_c > 0.0:
        nu = math.sqrt(var_c / (4.0 * ball_slack))
        x = center - (c + (-2.0 * nu * s0 - Ac) / A1) / (2.0 * nu * a)
        if np.all(x >= l) and np.all(x <= u):
            return optimal(x)

    radius = math.sqrt(budget / float(np.min(a))) if budget > 0 else 0.0
    nu_floor = 1e-12 * max(c_scale * max(radius, 1.0), 1.0) / max(budget, 1e-300)

    def quad_at(nu):
        x, lam = _reference_plane(center, c, a, nu, l, u, total)
        x = _reference_polish(x, c, lam, l, u, total)
        return x, float(np.sum(a * (x - center) ** 2))

    x_lo, q_lo = quad_at(nu_floor)
    if q_lo <= budget + budget_slack:
        return optimal(x_lo)
    nu_lo = nu_hi = nu_floor
    for _ in range(220):
        nu_lo, nu_hi = nu_hi, 8.0 * nu_hi
        if quad_at(nu_hi)[1] <= budget:
            break
        if nu_hi > 1e50:
            return optimal(proj)
    else:
        return optimal(proj)
    nu_root = optimize.brentq(lambda nu: quad_at(nu)[1] - budget, nu_lo, nu_hi, **_BRENTQ_KW)
    x, quad = quad_at(nu_root)
    for _ in range(60):
        if quad <= budget + budget_slack:
            return optimal(x)
        nu_root = 0.5 * (nu_root + nu_hi)
        x, quad = quad_at(nu_root)
    raise SolverError("dual search failed to recover a feasible point")
