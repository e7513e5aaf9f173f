"""Minimize a linear function over plane ∩ weighted-ball ∩ box.

The continuous subproblems of the weak-null search all have the form

    minimize    c @ x
    subject to  sum(x) = total
                sum(a_i * (x_i - center_i)^2) <= budget      (a_i > 0)
                l_i <= x_i <= u_i,

a convex program with one linear equality, one convex quadratic ball and
coordinate bounds.  Every step below is exact; nothing iterates to a
tolerance.

1. feasibility screens (box vs plane, then the projection of the plane-box
   set onto the ball);
2. a closed-form KKT candidate ignoring the box (two multipliers solved
   exactly); if it lands inside the box it is optimal;
3. otherwise a search on the ball multiplier nu.  For fixed nu the
   coordinate minimizers are clip(center - (c + lambda)/(2 nu a), l, u), and
   their sum is monotone and piecewise linear in the plane multiplier
   lambda, so lambda is found by one sort of the 2n breakpoints and one scan
   (the breakpoint search for the continuous quadratic knapsack problem;
   Helgason, Kennington & Lall 1980, Kiwiel 2008).  On a fixed active set F
   the ball term is exactly t^2 V + R^2/A + Q_fixed in t = 1/(2 nu), with

       A = sum_F 1/a,  C = sum_F c/a,  d = c - C/A,  V = sum_F d^2/a,
       R = sum_F center + sum_fixed x - total,

   so each step solves ball term = budget in closed form.  A bracket on nu
   rejects steps that leave it (a bracket midpoint replaces them); a piece
   whose ball term misses budget moves the bracket to its far end.  The
   search stops only when a step keeps the active set, i.e. at the exact
   root up to rounding, never merely within the budget slack: a value above
   the true minimum would make a branch-and-bound bound anti-conservative.

A final polish redistributes the rounding residual of sum(x) = total across
the coordinates with the smallest reduced costs, which leaves the objective
unchanged to first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

_NU_GUARD = 1e50
_MAX_NU_STEPS = 400


@dataclass(frozen=True)
class QclpResult:
    status: str  # "optimal" or "infeasible"
    value: float
    x: np.ndarray | None


_INFEASIBLE = QclpResult(status="infeasible", value=math.inf, x=None)


def _plane_root(center, g, s, l, u, total):
    """Solve sum(clip(center - (g + lam)/s, l, u)) = total; (x, lam).

    The sum is continuous, nonincreasing and piecewise linear in lam.
    Coordinate i sits at u_i below lam = -g_i - s_i (u_i - center_i), at l_i
    above lam = -g_i + s_i (center_i - l_i), and is free in between.  The
    residual at each sorted breakpoint follows from the one before by the
    slope of the segment between them; the root's segment is the first whose
    right end has a nonpositive residual, and lam follows from its free set.
    """
    leave_u = -g - s * (u - center)
    reach_l = -g + s * (center - l)
    # the plane touches a box corner (to rounding precision): no sign change
    excess = float(u.sum()) - total
    if excess <= 0.0:
        return u.copy(), float(leave_u.min()) - 1.0
    if float(l.sum()) - total >= 0.0:
        return l.copy(), float(reach_l.max()) + 1.0
    n = center.size
    breaks = np.concatenate((leave_u, reach_l))
    order = np.argsort(breaks, kind="stable")
    inv_s = 1.0 / s
    slope = np.cumsum(np.concatenate((inv_s, -inv_s))[order])
    ordered = breaks[order]
    residual = excess - np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(ordered))))
    past = residual <= 0.0
    k = int(np.argmax(past)) if past.any() else 2 * n - 1
    rank = np.empty(2 * n, dtype=np.intp)
    rank[order] = np.arange(2 * n)
    free = (rank[:n] < k) & (rank[n:] >= k)
    weight = float(inv_s[free].sum())
    if weight > 0.0:
        fixed = float(u[rank[:n] >= k].sum()) + float(l[rank[n:] < k].sum())
        lam = (float((center[free] - g[free] * inv_s[free]).sum()) + fixed - total) / weight
        lam = min(max(lam, float(ordered[k - 1])), float(ordered[k]))
    else:
        lam = float(ordered[k])
    return np.clip(center - (g + lam) / s, l, u), lam


def _solve_plane(center, c, a, nu, l, u, total):
    """Find lambda with sum(x(nu, lambda)) = total; returns (x, lambda)."""
    return _plane_root(center, c, 2.0 * nu * a, l, u, total)


def _polish_equality(x, c, lam, l, u, total):
    """Absorb the residual of sum(x) = total along near-zero reduced costs."""
    x = x.copy()
    residual = total - float(x.sum())
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


def project_plane_box(center, a, l, u, total):
    """Minimize sum(a*(x-center)^2) on the plane-box set; (x, value)."""
    zero = np.zeros_like(center)
    x, _ = _plane_root(center, zero, 2.0 * a, l, u, total)
    x = _polish_equality(x, zero, 0.0, l, u, total)
    return x, float((a * (x - center) ** 2).sum())


def _active_set_piece(c, a, center, x, at_l, at_u, l, u, budget, total):
    """The piece of the path x(nu) on which the active set of x holds.

    Off the free set F every coordinate is pressed against the bound it sits
    at.  On the piece each unclipped coordinate is affine in t = 1/(2 nu),
    y(t) = center - (R/A + t d)/a, and the ball term is t^2 V + R^2/A +
    Q_fixed.  Returns the nu at which that ball term equals budget (None
    when it never does: V = 0, or R^2/A + Q_fixed already reaches budget),
    and the smallest and largest nu at which every free y stays in its box
    and every fixed one stays beyond its bound.
    """
    free = ~(at_l | at_u)
    if not free.any():
        return None, 0.0, math.inf
    fixed = ~free
    inv_a = 1.0 / a
    A = float(inv_a[free].sum())
    d = c - float((c[free] * inv_a[free]).sum()) / A
    V = float((d[free] ** 2 * inv_a[free]).sum())
    R = float(center[free].sum()) + float(x[fixed].sum()) - total
    q_fixed = float((a[fixed] * (x[fixed] - center[fixed]) ** 2).sum())
    room = budget - R * R / A - q_fixed
    root = math.sqrt(V / (4.0 * room)) if V > 0.0 and room > 0.0 else None
    # y(t) = p - t m must stay >= floor and <= ceil
    p = center - R / A * inv_a
    m = d * inv_a
    floor = np.where(at_l, -np.inf, np.where(at_u, u, l))
    ceil = np.where(at_u, np.inf, np.where(at_l, l, u))
    up, down = m > 0.0, m < 0.0
    slope = np.where(m == 0.0, 1.0, m)
    to_floor = (p - floor) / slope
    to_ceil = (p - ceil) / slope
    t_hi = min(to_floor[up].min(initial=math.inf), to_ceil[down].min(initial=math.inf))
    t_lo = max(to_ceil[up].max(initial=0.0), to_floor[down].max(initial=0.0))
    return root, 0.5 / t_hi, 0.5 / t_lo if t_lo > 0.0 else math.inf


def minimize_linear(
    c,
    l,
    u,
    a,
    center,
    budget: float,
    total: float,
    feas_tol: float = 1e-9,
) -> QclpResult:
    """Solve the plane-ball-box linear minimization; see module docstring."""
    c = np.asarray(c, dtype=float)
    l = np.asarray(l, dtype=float)
    u = np.asarray(u, dtype=float)
    a = np.asarray(a, dtype=float)
    center = np.asarray(center, dtype=float)
    budget = float(budget)
    total = float(total)
    if (a <= 0).any() or budget < 0:
        raise SolverError("ball weights must be positive and budget nonnegative")
    if np.any(l > u + 1e-15 * np.maximum(1.0, np.abs(u))):
        return _INFEASIBLE

    eq_slack = feas_tol * max(1.0, abs(total))
    if float(l.sum()) > total + eq_slack or float(u.sum()) < total - eq_slack:
        return _INFEASIBLE

    proj, qmin = project_plane_box(center, a, l, u, total)
    budget_slack = feas_tol * max(1.0, budget)
    if qmin > budget + budget_slack:
        return _INFEASIBLE
    if qmin >= budget - budget_slack:
        # the feasible set is (numerically) the single projection point
        return QclpResult(status="optimal", value=float(c @ proj), x=proj)

    c_spread = float(c.max() - c.min())
    c_scale = float(np.abs(c).max())
    if c_spread <= 1e-15 * max(1.0, c_scale):
        # objective constant on the plane: c @ x = c_mean * total + spread-noise
        return QclpResult(status="optimal", value=float(c @ proj), x=proj)

    # ---- closed form ignoring the box ------------------------------------
    s0 = total - float(center.sum())
    inv_a = 1.0 / a
    A1 = float(inv_a.sum())
    Ac = float((c * inv_a).sum())
    Acc = float((c * c * inv_a).sum())
    var_c = max(Acc - Ac * Ac / A1, 0.0)
    ball_slack = budget - s0 * s0 / A1
    if ball_slack > 0.0 and var_c > 0.0:
        nu = math.sqrt(var_c / (4.0 * ball_slack))
        lam = (-2.0 * nu * s0 - Ac) / A1
        x = center - (c + lam) / (2.0 * nu * a)
        if np.all(x >= l) and np.all(x <= u):
            return QclpResult(status="optimal", value=float(c @ x), x=x)

    # ---- active-set search on the ball multiplier ------------------------
    radius = math.sqrt(budget / float(a.min())) if budget > 0 else 0.0
    obj_scale = max(c_scale * max(radius, 1.0), 1.0)
    nu_floor = 1e-12 * obj_scale / max(budget, 1e-300)

    def solve_at(nu):
        """(raw x, polished x, ball term, at-l mask, at-u mask) at nu."""
        raw, lam = _solve_plane(center, c, a, nu, l, u, total)
        x = _polish_equality(raw, c, lam, l, u, total)
        return raw, x, float((a * (x - center) ** 2).sum()), raw <= l, raw >= u

    raw, x, quad, at_l, at_u = solve_at(nu_floor)
    if quad <= budget + budget_slack:
        return QclpResult(status="optimal", value=float(c @ x), x=x)

    # bracket: quad(nu_lo) > budget >= quad(nu_hi); quad is nonincreasing in
    # nu.  The first step, from the all-free active set, is the box-free
    # closed form.
    nu_lo, nu_hi = nu_floor, math.inf
    at_l = at_u = np.zeros(c.size, dtype=bool)
    step, _, _ = _active_set_piece(c, a, center, raw, at_l, at_u, l, u, budget, total)
    for _ in range(_MAX_NU_STEPS):
        exact = step is not None and nu_lo < step < nu_hi
        if exact:
            nu = step
        elif math.isinf(nu_hi):
            if nu_lo > _NU_GUARD:
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
        if exact and np.array_equal(new_l, at_l) and np.array_equal(new_u, at_u):
            # the step kept its active set, so it solved that piece exactly
            break
        at_l, at_u = new_l, new_u
        step, nu_min, nu_max = _active_set_piece(c, a, center, raw, at_l, at_u, l, u, budget, total)
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
