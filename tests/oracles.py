"""Independent reference implementations used to validate the package.

These deliberately use different algorithms from the production code (sign
pattern enumeration instead of convolution; scipy's SLSQP with exhaustive
enumeration of the binary pattern instead of branch-and-bound; nested brentq
root-finds instead of the breakpoint and active-set node solve), so agreement
is meaningful.  The support-merging convolution is kept as the reference for
the dense lattice convolution in dosesens.tails, which must match it bit for
bit.  The bisections that solved the design-sensitivity and Bahadur slope
equations are kept as references for the safeguarded Newton solves in
dosesens.asymptotics, and the gamma_bar bisection as it evaluated the mean
with ``ndarray.mean``, which dosesens.gammas must match bit for bit.
"""

import itertools
import math
import warnings

import numpy as np
from scipy import optimize, special

from dosesens import tails
from dosesens.asymptotics import DesignSensitivityResult, _population_components
from dosesens.errors import ConfigError, DataError, SolverError
from dosesens.gammas import MAX_EXPONENT
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


# ------------------------------------------------- asymptotic root solves --

_BISECT_ITER = 200


def reference_design_sensitivity(dgp, tol=1e-6, stream=()):
    """Design sensitivity by doubling bracket and plain bisection."""
    gaps, concordant, phi = _population_components(dgp, stream)
    n = phi.size
    scale = max(float(phi.mean()), np.finfo(float).tiny)
    rhs = float((phi * concordant).mean())

    def lhs(g):
        return float((phi * special.expit(g * gaps)).mean())

    lhs0 = lhs(0.0)
    null_margin = 3.0 * float(np.std(phi * (concordant - 0.5), ddof=1)) / math.sqrt(n)
    if rhs - lhs0 <= null_margin:
        return DesignSensitivityResult(
            gamma_star=0.0, gamma_bar_star=1.0, lhs_rhs_residual=lhs0 - rhs,
            mc_std_err=0.0, null_case=True, non_monotone_lhs=False,
            mc_draws=n, seed=dgp.seed,
        )
    max_gap = float(gaps.max(initial=0.0))
    if max_gap == 0.0:
        raise DataError("all transformed dose gaps are zero")
    gamma_cap = MAX_EXPONENT / max_gap

    non_monotone = False
    lo, hi = 0.0, min(1.0, gamma_cap)
    prev = lhs0
    while lhs(hi) < rhs:
        value = lhs(hi)
        if value < prev - 1e-12 * scale:
            non_monotone = True
        prev = value
        lo = hi
        hi *= 2.0
        if hi >= gamma_cap:
            hi = gamma_cap
            if lhs(hi) < rhs:
                raise SolverError(
                    "design-sensitivity equation has no root below the exp() "
                    "guard: the concordance signal exceeds the logistic "
                    "supremum on these draws"
                )
            break
    for _ in range(_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        residual = lhs(mid) - rhs
        if abs(residual) <= tol * scale and hi - lo <= 1e-12 * max(1.0, mid):
            break
        if residual < 0:
            lo = mid
        else:
            hi = mid
    gamma_star = 0.5 * (lo + hi)
    residual = lhs(gamma_star) - rhs
    if abs(residual) > tol * scale:
        raise SolverError("design-sensitivity bisection failed to converge")
    amplification = np.exp(np.minimum(gamma_star * gaps, MAX_EXPONENT))
    return DesignSensitivityResult(
        gamma_star=float(gamma_star),
        gamma_bar_star=float(amplification.mean()),
        lhs_rhs_residual=float(residual),
        mc_std_err=float(np.std(amplification, ddof=1)) / math.sqrt(n),
        null_case=False,
        non_monotone_lhs=non_monotone,
        mc_draws=n,
        seed=dgp.seed,
    )


def reference_slope_root(mu, phi, p_success, tol=1e-6):
    """(t_tilde, omega0(t_tilde), slope) by doubling bracket and bisection."""
    phi = np.asarray(phi, dtype=float)
    p = np.asarray(p_success, dtype=float)
    mu = float(mu)
    scale = max(float(phi.mean()), np.finfo(float).tiny)
    odds_inv = (1.0 - p) / p

    def omega1(t):
        return float((phi / (1.0 + odds_inv * np.exp(-t * phi))).mean())

    def omega0(t):
        return float((t * phi + np.log(p + (1.0 - p) * np.exp(-t * phi))).mean())

    at_zero = omega1(0.0)
    if mu < at_zero - tol * scale:
        raise SolverError("the bias level exceeds the design sensitivity")
    if abs(mu - at_zero) <= tol * scale:
        return 0.0, 0.0, 0.0
    if mu >= float(phi.mean()) - 1e-15 * scale:
        raise SolverError("mu saturates the score scale; no finite root")
    lo, hi = 0.0, 1.0
    for _ in range(80):
        if omega1(hi) >= mu:
            break
        lo = hi
        hi *= 2.0
    else:
        raise SolverError("failed to bracket the slope equation root")
    for _ in range(_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        value = omega1(mid)
        if abs(value - mu) <= 1e-12 * scale and hi - lo <= 1e-12 * max(1.0, mid):
            break
        if value < mu:
            lo = mid
        else:
            hi = mid
    t_tilde = 0.5 * (lo + hi)
    omega0_t = omega0(t_tilde)
    slope = 2.0 * (t_tilde * mu - omega0_t)
    return float(t_tilde), float(omega0_t), float(max(slope, 0.0))


def reference_gamma_for_mean_bound(gamma_bar, gaps, tol=1e-10):
    """gamma_bar = mean(exp(gamma * gap)) inverted by bisection, the mean
    taken with ``ndarray.mean``."""
    target = float(gamma_bar)
    gaps = np.asarray(gaps, dtype=float)
    if target == 1.0:
        return 0.0
    gamma_cap = MAX_EXPONENT / float(gaps.max(initial=0.0))

    def mean_bound(g):
        return float(np.exp(g * gaps).mean())

    lo, hi = 0.0, min(1.0, gamma_cap)
    while mean_bound(hi) < target:
        lo = hi
        hi *= 2.0
        if hi > gamma_cap:
            hi = gamma_cap
            if mean_bound(hi) < target:
                raise DataError("gamma_bar is beyond the exp() overflow guard")
            break
    for _ in range(_BISECT_ITER):
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
        raise SolverError("gamma_bar bisection failed to converge")
    return mid
