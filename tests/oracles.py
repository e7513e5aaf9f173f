"""Independent reference implementations used to validate the package.

These deliberately use different algorithms from the production code (sign
pattern enumeration instead of convolution; scipy's SLSQP with exhaustive
enumeration of the binary pattern instead of branch-and-bound; nested brentq
root-finds instead of the breakpoint and active-set node solve), so agreement
is meaningful.  The support-merging convolution is kept as the reference for
the dense lattice convolution in dosesens.tails, which must match it bit for
bit.  The bisections that solved the design-sensitivity and Bahadur slope
equations are kept as references for the safeguarded Newton solves in
dosesens.asymptotics.  The scalar gamma_bar bisection, evaluating the mean
with ``ndarray.mean``, and the power loop that tested one replicate and
grid point at a time are kept as references for the row-wise bisection and
the batched power chunks, which must match them bit for bit and raise the
same errors.  The per-node construction of the weak-null coefficient rows
(``np.where`` on the fixed pairs, the chord computed on the free subset) is
kept as the reference for the rows the search builds once, which must match
it bit for bit.  The ``np.unique`` construction of ranks is kept as the
reference for ``dosesens.scores.rank``, which must match it bit for bit.
The planning solves as they were before their passes went a leaf at a time
(built-in samplers as whole-array formulas, the safeguarded Newton solves
with ``ndarray.mean`` and ``np.std`` over draw-sized arrays) are kept as
references for the blocked passes, which must match them bit for bit.
The weak-null node solve as it was before its nu search started from a
guessed active set is kept as the reference for ``dosesens.qclp``, which
must match it bit for bit.
"""

import itertools
import math
import warnings

import numpy as np
from scipy import optimize, special

from dosesens import gammas, tails
from dosesens.asymptotics import (
    BahadurResult,
    DesignSensitivityResult,
    _expit,
    _newton_root,
    _population_components,
)
from dosesens.errors import ConfigError, DataError, SolverError
from dosesens.gammas import MAX_EXPONENT, _schedule_from_gamma_gaps
from dosesens.qclp import QclpResult
from dosesens.rngs import STREAM_DGP, STREAM_POWER, child_rng, child_seed_sequence
from dosesens.scores import score_from_arrays
from dosesens.sharp import worst_case_pvalue
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


def reference_node_coeffs(search, wfix):
    """Slope, intercept, lo and hi of a weak-null node, built per node.

    Fixed pairs take their w = 0 or w = 1 line and box by ``np.where``; free
    pairs take the chord of min(line1, line0) over the union box [lo0, hi1],
    computed on the free subset only.
    """
    one = wfix == 1
    slope = np.where(one, search.slope1, search.slope0)
    icept = np.where(one, search.icept1, search.icept0)
    lo = np.where(one, search.lo1, search.lo0)
    hi = np.where(one, search.hi1, search.hi0)
    free = wfix < 0
    if np.any(free):
        L, U = search.lo0[free], search.hi1[free]
        mL = np.minimum(
            search.slope1[free] * L + search.icept1[free],
            search.slope0[free] * L + search.icept0[free],
        )
        mU = np.minimum(
            search.slope1[free] * U + search.icept1[free],
            search.slope0[free] * U + search.icept0[free],
        )
        chord = (mU - mL) / (U - L)
        slope[free] = chord
        icept[free] = mL - chord * L
        lo[free] = L
        hi[free] = U
    return slope, icept, lo, hi


# ---------------------------------------------------------- frozen qclp --
# The node solve as it stood when every nu search began from the all-free
# active set, with the nu-floor solve and the projection screen run before
# it on every node that reached them, and every argument validated on every
# call.  Kept as the reference for ``dosesens.qclp.minimize_linear``, which
# must match it bit for bit: the same status, value and ``x`` bytes.

_FROZEN_NU_GUARD = 1e50
_FROZEN_MAX_NU_STEPS = 400
_FROZEN_SCREEN_STEP = 2.0**-10
_FROZEN_INFEASIBLE = QclpResult(status="infeasible", value=math.inf, x=None)


def _frozen_plane_root(center, g, s, box, total):
    """Solve sum(clip(center - (g + lam)/s, l, u)) = total; (x, lam).

    The sum is continuous, nonincreasing and piecewise linear in lam.
    Coordinate i sits at u_i below lam = -g_i - s_i (u_i - center_i), at l_i
    above lam = -g_i + s_i (center_i - l_i), and is free in between.  The
    residual at each sorted breakpoint follows from the one before by the
    slope of the segment between them; the root's segment is the first whose
    right end has a nonpositive residual, and lam follows from its free set.
    ``box`` is a _FrozenBox.
    """
    l, u = box.l, box.u
    neg_g = -g
    leave_u = neg_g - s * box.u_off
    reach_l = neg_g + s * box.l_off
    # the plane touches a box corner (to rounding precision): no sign change
    excess = box.u_sum - total
    if excess <= 0.0:
        return u.copy(), float(np.minimum.reduce(leave_u)) - 1.0
    if box.l_sum - total >= 0.0:
        return l.copy(), float(np.maximum.reduce(reach_l)) + 1.0
    n = center.size
    breaks = np.concatenate((leave_u, reach_l))
    order = breaks.argsort(kind="stable")
    inv_s = 1.0 / s
    slope = np.add.accumulate(np.concatenate((inv_s, -inv_s))[order])
    ordered = breaks[order]
    # drop[j] is the fall of the sum from breakpoint 0 to breakpoint j + 1,
    # and the residual there, excess - drop[j], is <= 0 exactly when
    # drop[j] >= excess
    drop = np.add.accumulate(slope[:-1] * (ordered[1:] - ordered[:-1]))
    past = drop >= excess
    k = int(past.argmax()) + 1
    if not past[k - 1]:
        k = 2 * n - 1
    passed = np.zeros(2 * n, dtype=bool)
    passed[order[:k]] = True
    below_u, at_l = passed[:n], passed[n:]
    free = below_u > at_l  # left u, not yet at l
    weight = float(np.add.reduce(inv_s[free]))
    if weight > 0.0:
        fixed = float(np.add.reduce(u[~below_u])) + float(np.add.reduce(l[at_l]))
        moved = (center - g * inv_s)[free]
        lam = (float(np.add.reduce(moved)) + fixed - total) / weight
        lam = min(max(lam, float(ordered[k - 1])), float(ordered[k]))
    else:
        lam = float(ordered[k])
    x = center - (g + lam) / s
    return x.clip(l, u, out=x), lam


def _frozen_solve_plane(center, c, a, nu, box, total):
    """Find lambda with sum(x(nu, lambda)) = total; returns (x, lambda)."""
    return _frozen_plane_root(center, c, 2.0 * nu * a, box, total)


def _frozen_polish_equality(x, c, lam, l, u, total):
    """Absorb the residual of sum(x) = total along near-zero reduced costs.

    Returns ``x`` itself when there is nothing to absorb, else a polished
    copy.
    """
    residual = total - float(np.add.reduce(x))
    if residual == 0.0:
        return x
    x = x.copy()
    for i in np.abs(c + lam).argsort():
        room = (u[i] - x[i]) if residual > 0 else (x[i] - l[i])
        step = math.copysign(min(abs(residual), room), residual)
        x[i] += step
        residual -= step
        if abs(residual) <= 1e-15 * max(1.0, abs(total)):
            break
    return x


class _FrozenBox:
    """The box of one solve with the sums and offsets every plane root reads."""

    __slots__ = ("l", "u", "l_sum", "u_sum", "u_off", "l_off")

    def __init__(self, l, u, center, l_sum, u_sum):
        self.l, self.u, self.l_sum, self.u_sum = l, u, l_sum, u_sum
        self.u_off = u - center
        self.l_off = center - l


def _frozen_project(center, a, box, total):
    zero = np.zeros_like(center)
    x, _ = _frozen_plane_root(center, zero, 2.0 * a, box, total)
    x = _frozen_polish_equality(x, zero, 0.0, box.l, box.u, total)
    return x, float(np.add.reduce(a * (x - center) ** 2))


def _frozen_active_set_piece(c, ca, a, inv_a, center, x, at_l, at_u, l, u, budget, total, ranged=True):
    """The piece of the path x(nu) on which the active set of x holds.

    Off the free set F every coordinate is pressed against the bound it sits
    at.  On the piece each unclipped coordinate is affine in t = 1/(2 nu),
    y(t) = center - (R/A + t d)/a, and the ball term is t^2 V + R^2/A +
    Q_fixed.  Returns the nu at which that ball term equals budget (None
    when it never does: V = 0, or R^2/A + Q_fixed already reaches budget),
    and, when ``ranged``, the smallest and largest nu at which every free y
    stays in its box and every fixed one stays beyond its bound.  ``ca`` is
    c * inv_a and ``inv_a`` is 1 / a.
    """
    free = ~(at_l | at_u)
    if not free.any():
        return None, 0.0, math.inf
    fixed = ~free
    A = float(np.add.reduce(inv_a[free]))
    d = c - float(np.add.reduce(ca[free])) / A
    V = float(np.add.reduce((d * d * inv_a)[free]))
    R = float(np.add.reduce(center[free])) + float(np.add.reduce(x[fixed])) - total
    q_fixed = float(np.add.reduce((a * (x - center) ** 2)[fixed]))
    room = budget - R * R / A - q_fixed
    root = math.sqrt(V / (4.0 * room)) if V > 0.0 and room > 0.0 else None
    if not ranged:
        return root, None, None
    # y(t) = p - t m must stay >= floor and <= ceil
    p = center - R / A * inv_a
    m = d * inv_a
    floor = np.where(at_l, -np.inf, np.where(at_u, u, l))
    ceil = np.where(at_u, np.inf, np.where(at_l, l, u))
    up, down = m > 0.0, m < 0.0
    slope = np.where(m == 0.0, 1.0, m)
    to_floor = (p - floor) / slope
    to_ceil = (p - ceil) / slope
    t_hi = min(np.minimum.reduce(to_floor[up], initial=math.inf),
               np.minimum.reduce(to_ceil[down], initial=math.inf))
    t_lo = max(np.maximum.reduce(to_ceil[up], initial=0.0),
               np.maximum.reduce(to_floor[down], initial=0.0))
    return root, 0.5 / t_hi, 0.5 / t_lo if t_lo > 0.0 else math.inf


def frozen_minimize_linear(
    c,
    l,
    u,
    a,
    center,
    budget: float,
    total: float,
    feas_tol: float = 1e-9,
) -> QclpResult:
    """Solve the plane-ball-box linear minimization; see module docstring.

    Raises SolverError on a weight that is not positive (NaN included), a
    negative budget, or a NaN or infinite budget, total or entry of c, l, u
    or center (or a sum of them, or of 1/a, that overflows).
    """
    c = np.asarray(c, dtype=float)
    l = np.asarray(l, dtype=float)
    u = np.asarray(u, dtype=float)
    a = np.asarray(a, dtype=float)
    center = np.asarray(center, dtype=float)
    budget = float(budget)
    total = float(total)
    # written so that a NaN fails them
    if not budget >= 0.0 or not (a > 0.0).all():
        raise SolverError("ball weights must be positive and budget nonnegative")
    # scalars the solve needs anyway; a NaN or infinity in the data shows here
    l_sum = float(np.add.reduce(l))
    u_sum = float(np.add.reduce(u))
    center_sum = float(np.add.reduce(center))
    c_max = float(np.maximum.reduce(c))
    c_min = float(np.minimum.reduce(c))
    inv_a = 1.0 / a
    A1 = float(np.add.reduce(inv_a))
    for value in (budget, total, l_sum, u_sum, center_sum, c_max - c_min, A1):
        if not math.isfinite(value):
            raise SolverError("solver data must be finite")
    if not (l <= u).all() and (l > u + 1e-15 * np.maximum(1.0, np.abs(u))).any():
        return _FROZEN_INFEASIBLE
    eq_slack = feas_tol * max(1.0, abs(total))
    if l_sum > total + eq_slack or u_sum < total - eq_slack:
        return _FROZEN_INFEASIBLE

    budget_slack = feas_tol * max(1.0, budget)
    c_spread = c_max - c_min
    c_scale = max(c_max, -c_min)  # max |c|
    # objective constant on the plane: c @ x = c_mean * total + spread-noise
    flat = c_spread <= 1e-15 * max(1.0, c_scale)

    # ---- closed form ignoring the box ------------------------------------
    s0 = total - center_sum
    ca = c * inv_a
    Ac = float(np.add.reduce(ca))
    Acc = float(np.add.reduce(c * c * inv_a))
    var_c = max(Acc - Ac * Ac / A1, 0.0)
    ball_slack = budget - s0 * s0 / A1
    closed = None
    if not flat and ball_slack > 0.0 and var_c > 0.0:
        nu = math.sqrt(var_c / (4.0 * ball_slack))
        lam = (-2.0 * nu * s0 - Ac) / A1
        step = (c + lam) / (2.0 * nu * a)
        x = center - step
        if (x >= l).all() and (x <= u).all():
            closed = x
            # The screens below cannot end the solve if a plane-box point
            # has a ball term under budget - 2 slack.  From x toward the
            # box-free projection center + (s0 / A1) / a the ball term falls as
            # s0^2/A1 + (1 - t)^2 ball_slack; try t = _FROZEN_SCREEN_STEP.
            t = _FROZEN_SCREEN_STEP
            if ball_slack * t * (2.0 - t) > 2.0 * budget_slack:
                y = x + t * ((s0 / A1) * inv_a + step)
                if (y >= l).all() and (y <= u).all():
                    return QclpResult(status="optimal", value=float(c @ x), x=x)

    box = _FrozenBox(l, u, center, l_sum, u_sum)
    proj, qmin = _frozen_project(center, a, box, total)
    if qmin > budget + budget_slack:
        return _FROZEN_INFEASIBLE
    if qmin >= budget - budget_slack or flat:
        # the feasible set is (numerically) the single projection point, or
        # every point of it is optimal
        return QclpResult(status="optimal", value=float(c @ proj), x=proj)
    if closed is not None:
        return QclpResult(status="optimal", value=float(c @ closed), x=closed)

    # ---- active-set search on the ball multiplier ------------------------
    radius = math.sqrt(budget / float(np.minimum.reduce(a))) if budget > 0 else 0.0
    obj_scale = max(c_scale * max(radius, 1.0), 1.0)
    nu_floor = 1e-12 * obj_scale / max(budget, 1e-300)

    def solve_at(nu):
        """(raw x, polished x, ball term, at-l mask, at-u mask) at nu."""
        raw, lam = _frozen_solve_plane(center, c, a, nu, box, total)
        x = _frozen_polish_equality(raw, c, lam, l, u, total)
        quad = float(np.add.reduce(a * (x - center) ** 2))
        return raw, x, quad, raw <= l, raw >= u

    def piece(raw, at_l, at_u, ranged=True):
        return _frozen_active_set_piece(
            c, ca, a, inv_a, center, raw, at_l, at_u, l, u, budget, total, ranged
        )

    raw, x, quad, at_l, at_u = solve_at(nu_floor)
    if quad <= budget + budget_slack:
        return QclpResult(status="optimal", value=float(c @ x), x=x)

    # bracket: quad(nu_lo) > budget >= quad(nu_hi); quad is nonincreasing in
    # nu.  The first step, from the all-free active set, is the box-free
    # closed form.
    nu_lo, nu_hi = nu_floor, math.inf
    at_l = at_u = np.zeros(c.size, dtype=bool)
    step, _, _ = piece(raw, at_l, at_u, ranged=False)
    for _ in range(_FROZEN_MAX_NU_STEPS):
        exact = step is not None and nu_lo < step < nu_hi
        if exact:
            nu = step
        elif math.isinf(nu_hi):
            if nu_lo > _FROZEN_NU_GUARD:
                # quad(x(nu)) -> qmin <= budget as nu -> inf; numerically stuck
                return QclpResult(status="optimal", value=float(c @ proj), x=proj)
            nu = 8.0 * nu_lo
        else:
            nu = math.sqrt(nu_lo) * math.sqrt(nu_hi)
        if not nu_lo < nu < nu_hi:
            # the bracket is down to adjacent floats: nu_hi is the root
            raw, x, quad, _, _ = solve_at(nu_hi)
            break
        raw, x, quad, new_l, new_u = solve_at(nu)
        if exact and (new_l == at_l).all() and (new_u == at_u).all():
            # the step kept its active set, so it solved that piece exactly
            break
        at_l, at_u = new_l, new_u
        step, nu_min, nu_max = piece(raw, at_l, at_u)
        # a piece without the root lies wholly on the side of nu
        if quad > budget:
            nu_lo = nu
            if (step is None or step > nu_max) and nu_max < nu_hi:
                nu_lo = max(nu_lo, nu_max)
        else:
            nu_hi = nu
            if (step is None or step < nu_min) and nu_min > nu_lo:
                nu_hi = min(nu_hi, nu_min)
    else:
        raise SolverError("dual search on the ball multiplier did not converge")
    if quad > budget + budget_slack:
        raise SolverError("dual search failed to recover a feasible point")
    return QclpResult(status="optimal", value=float(c @ x), x=x)


# ------------------------------------------------- asymptotic root solves --

_BISECT_ITER = 200


def reference_rank(values, ties="average"):
    """Ranks 1..n from ``np.unique``'s inverse and counts: a block of tied
    values shares the mean or the largest of the ranks it spans."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    top = np.cumsum(counts)
    shared = top if ties == "max" else top - 0.5 * (counts - 1)
    return shared[inverse].astype(float)


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
    mean = float(amplification.mean())
    return DesignSensitivityResult(
        gamma_star=float(gamma_star),
        gamma_bar_star=mean,
        lhs_rhs_residual=float(residual),
        # scaled by the mean, so squares near e^1300 do not overflow
        mc_std_err=float(np.std(amplification / mean, ddof=1)) * mean / math.sqrt(n),
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
    """gamma_bar = mean(exp(gamma * gap)) inverted by a scalar bisection, the
    mean taken with ``ndarray.mean``, raising the package's errors."""
    target = float(gamma_bar)
    if not target >= 1.0:
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

    def mean_bound(g):
        return float(np.exp(g * gaps).mean())

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
        raise SolverError(
            f"gamma_bar={target:g} not reached within {_BISECT_ITER} bisection steps"
        )
    return mid


def reference_mean_bound_rows(targets, gaps, tol=1e-10):
    """``(gamma, status)`` of every (gap row, target) pair, by the row-wise
    bisection that evaluated the mean at every step: the doubling phase,
    then bisection with the stop rule of :func:`reference_gamma_for_mean_bound`,
    all rows at once, each freezing when it stops.  Status codes are those of
    ``dosesens.gammas``."""
    targets = np.asarray(targets, dtype=float).reshape(-1)
    gaps = np.asarray(gaps, dtype=float)
    n_rows, n = gaps.shape
    max_gap = gaps.max(axis=1, initial=0.0)
    status = np.full((n_rows, targets.size), gammas._SOLVED, dtype=np.int8)
    status[max_gap == 0.0, :] = gammas._ZERO_GAPS
    status[:, targets == 1.0] = gammas._SOLVED
    status[np.any(gaps < 0, axis=1), :] = gammas._NEGATIVE_GAP
    status[:, ~(targets >= 1.0)] = gammas._BELOW_ONE
    gamma = np.full(status.shape, np.nan)
    gamma[:, targets == 1.0] = 0.0
    k = np.flatnonzero((status == gammas._SOLVED) & (targets != 1.0))
    if k.size:
        rows = k // targets.size
        gamma.flat[k], status.flat[k] = _reference_bisect_rows(
            targets[k % targets.size], gaps[rows], MAX_EXPONENT / max_gap[rows], tol
        )
    return gamma, status


def _reference_bisect_rows(target, gaps, gamma_cap, tol):
    n = gaps.shape[1]

    def mean_bound(g):
        return np.add.reduce(np.exp(g[:, None] * gaps), axis=1) / n

    status = np.full(target.shape, gammas._SOLVED, dtype=np.int8)
    lo = np.zeros_like(target)
    hi = np.where(gamma_cap < 1.0, gamma_cap, 1.0)
    capped = np.zeros(target.shape, dtype=bool)
    grow = np.ones(target.shape, dtype=bool)
    while True:
        short = grow & (mean_bound(hi) < target)
        status[short & capped] = gammas._OVERFLOW
        grow = short & ~capped
        if not grow.any():
            break
        lo = np.where(grow, hi, lo)
        doubled = 2.0 * hi
        over = grow & (doubled > gamma_cap)
        capped |= over
        hi = np.where(over, gamma_cap, np.where(grow, doubled, hi))
    gamma = np.full(target.shape, np.nan)
    active = status == gammas._SOLVED
    slack = tol * target
    for _ in range(_BISECT_ITER):
        if not active.any():
            return gamma, status
        mid = 0.5 * (lo + hi)
        value = mean_bound(mid)
        done = active & (np.abs(value - target) <= slack)
        done &= hi - lo <= 1e-12 * np.maximum(1.0, mid)
        gamma[done] = mid[done]
        active &= ~done
        below = value < target
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
    mid = 0.5 * (lo + hi)
    missed = active & (np.abs(mean_bound(mid) - target) > tol * target)
    reached = active & ~missed
    gamma[reached] = mid[reached]
    status[missed] = gammas._UNREACHED
    return gamma, status


def reference_power_hits(
    dgp, n_pairs, grid, spec, alpha=0.05, reps=200, seed=0, method="normal",
    mc_reps=10_000,
):
    """Rejections at each grid point, testing one replicate and grid point at
    a time with the full two-sided report, as power_curve did before its
    chunks were batched."""
    hits = [0] * len(grid)
    for rep in range(reps):
        z1, z2, y1, y2 = dgp.sample_pairs(child_rng(seed, STREAM_POWER, rep), n_pairs)
        scored = score_from_arrays(z1, z2, y1, y2, spec)
        gaps = np.abs(dgp.link.apply(z1) - dgp.link.apply(z2))
        for j, gamma_bar in enumerate(grid):
            schedule = _schedule_from_gamma_gaps(
                reference_gamma_for_mean_bound(gamma_bar, gaps), gaps
            )
            mc_seed = child_seed_sequence(seed, STREAM_POWER, rep, 1).generate_state(1)
            report = worst_case_pvalue(
                scored, schedule, method=method, reps=mc_reps, seed=int(mc_seed[0])
            )
            hits[j] += report.p_one_sided_greater < alpha
    return hits


# ------------------------------ planning passes over whole draw-sized arrays --


def _reference_uniform_doses(rng, n, params):
    lo = float(params.get("dose_low", 0.0))
    hi = float(params.get("dose_high", 1.0))
    if not hi > lo:
        raise ConfigError("dose_high must exceed dose_low")
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


def _reference_paired_normal(rng, n, params):
    effect = float(params.get("effect", 0.0))
    noise_sd = float(params.get("noise_sd", 1.0))
    pair_noise_sd = float(params.get("pair_noise_sd", 0.0))
    z1, z2 = _reference_uniform_doses(rng, n, params)
    shared = rng.normal(0.0, pair_noise_sd, n) if pair_noise_sd > 0 else 0.0
    y1 = effect * z1 + shared + rng.normal(0.0, noise_sd, n)
    y2 = effect * z2 + shared + rng.normal(0.0, noise_sd, n)
    return z1, z2, y1, y2


def _reference_fixed_concordance(rng, n, params):
    theta = float(params.get("theta", 0.75))
    if not 0.0 < theta < 1.0:
        raise ConfigError("theta must be in (0, 1)")
    z1, z2 = _reference_uniform_doses(rng, n, params)
    magnitude = np.abs(rng.normal(0.0, 1.0, n))
    agree = np.where(rng.random(n) < theta, 1.0, -1.0)
    half_diff = np.sign(z1 - z2) * agree * magnitude * 0.5
    mid = rng.normal(0.0, 1.0, n)
    return z1, z2, mid + half_diff, mid - half_diff


def _reference_constant_gap(rng, n, params):
    gap = float(params.get("gap", 1.0))
    if gap <= 0:
        raise ConfigError("gap must be positive")
    effect = float(params.get("effect", 0.0))
    noise_sd = float(params.get("noise_sd", 1.0))
    z1 = rng.uniform(
        float(params.get("dose_low", 0.0)), float(params.get("dose_high", 1.0)), n
    )
    z2 = z1 + (rng.integers(0, 2, n) * 2.0 - 1.0) * gap
    y1 = effect * z1 + rng.normal(0.0, noise_sd, n)
    y2 = effect * z2 + rng.normal(0.0, noise_sd, n)
    return z1, z2, y1, y2


REFERENCE_SAMPLERS = {
    "paired-normal": _reference_paired_normal,
    "null": lambda rng, n, params: _reference_paired_normal(rng, n, {**params, "effect": 0.0}),
    "fixed-concordance": _reference_fixed_concordance,
    "constant-gap": _reference_constant_gap,
}


def reference_draw(dgp, stream=()):
    """``dgp.draw`` with the built-in samplers written as whole-array
    formulas, each array made by its own expression."""
    rng = child_rng(dgp.seed, STREAM_DGP, *stream)
    if dgp.is_named:
        return REFERENCE_SAMPLERS[dgp.sampler](rng, dgp.mc_draws, dgp.params)
    return dgp.sampler(rng, dgp.mc_draws)


def reference_components(dgp, stream=()):
    """(gaps, concordance, phi values) from whole-array differences, the
    link's own gaps and ``np.unique`` ranks."""
    z1, z2, y1, y2 = (np.asarray(v, dtype=float) for v in reference_draw(dgp, stream))
    dose_diff, outcome_diff = z1 - z2, y1 - y2
    if np.any(dose_diff == 0):
        raise DataError("DGP produced tied doses within a pair")
    gaps = dgp.link.gaps(z1, z2)
    concordant = (dose_diff * outcome_diff) > 0
    n = dose_diff.size
    u = reference_rank(np.abs(dose_diff), ties="max") / n
    v = reference_rank(np.abs(outcome_diff), ties="max") / n
    phi = np.asarray(dgp.phi_fn()(u, v), dtype=float)
    if phi.shape != (n,):
        raise DataError("phi must return one value per draw")
    if not np.all(np.isfinite(phi)) or np.any(phi < 0):
        raise DataError("phi must be finite and nonnegative over the rank range")
    return gaps, concordant, phi


def reference_lhs_and_slope(phi, gaps):
    """The design-sensitivity pass, E[phi * s] and E[phi * gap * s * (1 - s)]
    at gamma, over whole arrays."""
    phi_gap = phi * gaps

    def lhs_and_slope(g):
        s = _expit(g * gaps)
        return float((phi * s).mean()), float(((1.0 - s) * s * phi_gap).mean())

    return lhs_and_slope


def reference_newton_design_sensitivity(dgp, tol=1e-6, stream=()):
    """The safeguarded Newton solve of ``design_sensitivity`` with every
    mean taken by ``ndarray.mean`` or ``np.std`` over whole arrays."""
    gaps, concordant, phi = reference_components(dgp, stream)
    n = phi.size
    scale = max(float(phi.mean()), np.finfo(float).tiny)
    rhs = float((phi * concordant).mean())
    null_margin = 3.0 * float(np.std(phi * (concordant - 0.5), ddof=1)) / math.sqrt(n)
    lhs_and_slope = reference_lhs_and_slope(phi, gaps)
    at_lo = lhs_and_slope(0.0)
    if rhs - at_lo[0] <= null_margin:
        return DesignSensitivityResult(
            gamma_star=0.0, gamma_bar_star=1.0, lhs_rhs_residual=at_lo[0] - rhs,
            mc_std_err=0.0, null_case=True, non_monotone_lhs=False,
            mc_draws=n, seed=dgp.seed,
        )
    max_gap = float(gaps.max(initial=0.0))
    if max_gap == 0.0:
        raise DataError("all transformed dose gaps are zero")
    gamma_cap = MAX_EXPONENT / max_gap
    non_monotone = False
    lo, hi = 0.0, min(1.0, gamma_cap)
    at_hi = lhs_and_slope(hi)
    while at_hi[0] < rhs:
        if hi >= gamma_cap:
            raise SolverError(
                "design-sensitivity equation has no root below the exp() "
                "guard: the concordance signal exceeds the logistic "
                "supremum on these draws"
            )
        if at_hi[0] < at_lo[0] - 1e-12 * scale:
            non_monotone = True
        lo, at_lo = hi, at_hi
        hi = min(2.0 * hi, gamma_cap)
        at_hi = lhs_and_slope(hi)
    gamma_star, lhs_star = _newton_root(lhs_and_slope, rhs, lo, hi, at_lo, tol * scale)
    residual = lhs_star - rhs
    if not abs(residual) <= tol * scale:
        raise SolverError(
            f"design-sensitivity root solve did not converge (residual {residual:.3g})"
        )
    amplification = np.exp(np.minimum(gamma_star * gaps, MAX_EXPONENT))
    with np.errstate(over="ignore"):
        spread = float(np.std(amplification, ddof=1))
    if not math.isfinite(spread):
        top = float(amplification.max())
        spread = float(np.std(amplification / top, ddof=1)) * top
    return DesignSensitivityResult(
        gamma_star=float(gamma_star), gamma_bar_star=float(amplification.mean()),
        lhs_rhs_residual=float(residual), mc_std_err=spread / math.sqrt(n),
        null_case=False, non_monotone_lhs=non_monotone, mc_draws=n, seed=dgp.seed,
    )


def reference_newton_slope(mu, phi, p, tol=1e-6):
    """The safeguarded Newton solve of ``slope_from_components`` with every
    mean taken by ``ndarray.mean`` over whole arrays."""
    phi = np.asarray(phi, dtype=float)
    p = np.asarray(p, dtype=float)
    mu = float(mu)
    scale = max(float(phi.mean()), np.finfo(float).tiny)
    odds_inv = (1.0 - p) / p

    def omega1_and_slope(t):
        w = np.exp(-t * phi) * odds_inv
        term = phi / (1.0 + w)
        return float(term.mean()), float((term * term * w).mean())

    at_lo = omega1_and_slope(0.0)
    if mu < at_lo[0] - tol * scale:
        raise SolverError("the bias level exceeds the design sensitivity")
    if abs(mu - at_lo[0]) <= tol * scale:
        return 0.0, 0.0, 0.0
    if mu >= float(phi.mean()) - 1e-15 * scale:
        raise SolverError("mu saturates the score scale; no finite root")
    lo, hi = 0.0, 1.0
    for _ in range(80):
        at_hi = omega1_and_slope(hi)
        if at_hi[0] >= mu:
            break
        lo, at_lo = hi, at_hi
        hi *= 2.0
    else:
        raise SolverError("failed to bracket the slope equation root")
    t_tilde, _ = _newton_root(omega1_and_slope, mu, lo, hi, at_lo, 1e-12 * scale)
    omega0_t = float(
        (np.log(np.exp(-t_tilde * phi) * (1.0 - p) + p) + t_tilde * phi).mean()
    )
    slope = 2.0 * (t_tilde * mu - omega0_t)
    return float(t_tilde), omega0_t, float(max(slope, 0.0))


def reference_newton_bahadur_slope(dgp, gamma_bar, tol=1e-6, stream=()):
    """``bahadur_slope`` over whole arrays, gamma from the scalar bisection."""
    gaps, concordant, phi = reference_components(dgp, stream)
    mu = float((phi * concordant).mean())
    gamma = 0.0 if gamma_bar == 1.0 else reference_gamma_for_mean_bound(gamma_bar, gaps, tol=1e-12)
    p = np.minimum(_expit(gamma * gaps), 1.0 - 1e-16)
    t_tilde, omega0_t, slope = reference_newton_slope(mu, phi, p, tol=tol)
    return BahadurResult(
        gamma_bar=float(gamma_bar), mu=mu, t_tilde=t_tilde, omega0_at_t=omega0_t,
        slope=slope, mc_draws=phi.size, seed=dgp.seed,
    )
