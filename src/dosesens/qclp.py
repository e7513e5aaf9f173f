"""Minimize a linear function over plane ∩ weighted-ball ∩ box.

The continuous subproblems of the weak-null search all have the form

    minimize    c @ x
    subject to  sum(x) = total
                sum(a_i * (x_i - center_i)^2) <= budget      (a_i > 0)
                l_i <= x_i <= u_i,

a convex program with one linear equality, one convex quadratic ball and
coordinate bounds.  Every step below is exact; nothing iterates to a
tolerance.

1. a box-plane feasibility check;
2. a closed-form KKT candidate ignoring the box (two multipliers solved
   exactly); if it lands inside the box it is optimal.  When, in addition,
   a point a short step from it toward the box-free projection, still in
   the box, has a ball term below budget - 2 * slack, the projection screen
   of step 4 cannot fire and is skipped;
3. otherwise a search on the ball multiplier nu, in exact steps.  For fixed
   nu the coordinate minimizers are clip(center - (c + lambda)/(2 nu a), l,
   u), and their sum is monotone and piecewise linear in the plane
   multiplier lambda, so lambda is found by one sort of the 2n breakpoints
   and one scan (the breakpoint search for the continuous quadratic
   knapsack problem; Helgason, Kennington & Lall 1980, Kiwiel 2008).  On a
   fixed active set F the ball term is exactly t^2 V + R^2/A + Q_fixed in
   t = 1/(2 nu), with

       A = sum_F 1/a,  C = sum_F c/a,  d = c - C/A,  V = sum_F d^2/a,
       R = sum_F center + sum_fixed x - total,

   so each step solves ball term = budget in closed form on the active set
   of the last solve.  The first step uses the active set of the box-free
   candidate of step 2 clipped to the box.  A bracket on nu rejects steps
   that leave it (a bracket midpoint replaces them); a piece whose ball
   term misses budget moves the bracket to its far end.  The search stops
   only when a step keeps the active set, i.e. at the exact root up to
   rounding, never merely within the budget slack: a value above the true
   minimum would make a branch-and-bound bound anti-conservative;
4. before the search, two screens that can end the solve: the projection
   of the plane-box set onto the ball ends it when the ball misses that
   set (infeasible) or only touches it (the projection is the answer), and
   a solve at a floor nu ends it when the ball does not bind there.  The
   first step's piece certifies either screen silent when its closed-form
   ball term clears budget by 3 slack at the piece's ends: above at the low
   end, the floor cannot end the solve; below at the high end, the
   projection, whose term is the limit nu -> inf, cannot.  A silent screen
   is skipped, so with both silent the first step is the solve's first
   plane solve, and the answer when it keeps its active set.  A floor solve
   whose ball term is 3 slack under budget also shows the projection
   silent, and answers.

A screen is skipped only when it cannot fire.  When the search stops
because a step keeps its active set, its answer is the solve at that set's
own step, whichever sets the search passed on the way, so it is bit for bit
the answer of a search from the all-free set that stops at the same set.
On the search's two other exits, a bracket down to adjacent floats and the
nu guard, the answer depends on the route, so equal bits there are observed,
not proved: the tests compare solves on seeded node relaxations with a
frozen copy of the all-free search.

A ``Ball`` holds the plane and the ball, validated once, with what depends
on them alone, for a family of solves that differ only in c, l and u.

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
_SCREEN_STEP = 2.0**-10
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QclpResult:
    status: str  # "optimal" or "infeasible"
    value: float
    x: np.ndarray | None


_INFEASIBLE = QclpResult(status="infeasible", value=math.inf, x=None)


def _plane_root(center, g, s, box, total):
    """Solve sum(clip(center - (g + lam)/s, l, u)) = total; (x, lam).

    The sum is continuous, nonincreasing and piecewise linear in lam.
    Coordinate i sits at u_i below lam = -g_i - s_i (u_i - center_i), at l_i
    above lam = -g_i + s_i (center_i - l_i), and is free in between.  The
    residual at each sorted breakpoint follows from the one before by the
    slope of the segment between them; the root's segment is the first whose
    right end has a nonpositive residual, and lam follows from its free set.
    ``box`` is a _Box.
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


def _solve_plane(center, c, a, nu, box, total):
    """Find lambda with sum(x(nu, lambda)) = total; returns (x, lambda)."""
    return _plane_root(center, c, 2.0 * nu * a, box, total)


def _polish_equality(x, c, lam, l, u, total):
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


class _Box:
    """The box of one solve with the sums and offsets every plane root reads."""

    __slots__ = ("l", "u", "l_sum", "u_sum", "u_off", "l_off")

    def __init__(self, l, u, center, l_sum, u_sum):
        self.l, self.u, self.l_sum, self.u_sum = l, u, l_sum, u_sum
        self.u_off = u - center
        self.l_off = center - l


def _project(center, a, box, total):
    zero = np.zeros_like(center)
    x, _ = _plane_root(center, zero, 2.0 * a, box, total)
    x = _polish_equality(x, zero, 0.0, box.l, box.u, total)
    return x, float(np.add.reduce(a * (x - center) ** 2))


def project_plane_box(center, a, l, u, total):
    """Minimize sum(a*(x-center)^2) on the plane-box set; (x, value)."""
    box = _Box(l, u, center, float(np.add.reduce(l)), float(np.add.reduce(u)))
    return _project(center, a, box, total)


def _active_set_piece(c, ca, a, inv_a, center, x, at_l, at_u, l, u, budget, total,
                      guess=False):
    """The piece of the path x(nu) on which the active set of x holds.

    Off the free set F every coordinate is pressed against the bound it sits
    at.  On the piece each unclipped coordinate is affine in t = 1/(2 nu),
    y(t) = center - (R/A + t d)/a, and the ball term is t^2 V + R^2/A +
    Q_fixed = t^2 V + budget - room.  Returns ``(root, nu_min, nu_max, V,
    room)``: the nu at which that ball term equals budget (None when it
    never does: V = 0, or room <= 0), and the smallest and largest nu at
    which every free y stays in its box and every fixed one stays beyond its
    bound.  For a ``guess``, an active set not read off a plane solve, a
    coordinate that does not move with t and sits on the wrong side of a
    bound empties the piece (nu_min = inf, nu_max = 0); for a solved set it
    can only sit there by rounding, and is ignored.  ``ca`` is c * inv_a and
    ``inv_a`` is 1 / a.
    """
    free = ~(at_l | at_u)
    if not free.any():
        return None, 0.0, math.inf, 0.0, 0.0
    fixed = ~free
    A = float(np.add.reduce(inv_a[free]))
    d = c - float(np.add.reduce(ca[free])) / A
    V = float(np.add.reduce((d * d * inv_a)[free]))
    R = float(np.add.reduce(center[free])) + float(np.add.reduce(x[fixed])) - total
    q_fixed = float(np.add.reduce((a * (x - center) ** 2)[fixed]))
    room = budget - R * R / A - q_fixed
    root = math.sqrt(V / (4.0 * room)) if V > 0.0 and room > 0.0 else None
    # y(t) = p - t m must stay >= floor and <= ceil
    p = center - R / A * inv_a
    m = d * inv_a
    floor = np.where(at_l, -np.inf, np.where(at_u, u, l))
    ceil = np.where(at_u, np.inf, np.where(at_l, l, u))
    up, down = m > 0.0, m < 0.0
    if guess and ((m == 0.0) & ((p < floor) | (p > ceil))).any():
        return root, math.inf, 0.0, V, room
    slope = np.where(m == 0.0, 1.0, m)
    to_floor = (p - floor) / slope
    to_ceil = (p - ceil) / slope
    t_hi = min(np.minimum.reduce(to_floor[up], initial=math.inf),
               np.minimum.reduce(to_ceil[down], initial=math.inf))
    t_lo = max(np.maximum.reduce(to_ceil[up], initial=0.0),
               np.maximum.reduce(to_floor[down], initial=0.0))
    # 0.5 / t_hi without NumPy's divide-by-zero warning at t_hi = +-0
    nu_min = 0.5 / t_hi if t_hi else math.copysign(math.inf, t_hi)
    return root, nu_min, 0.5 / t_lo if t_lo > 0.0 else math.inf, V, room


class Ball:
    """The plane and the ball shared by a family of solves.

    Holds sum(x) = total and sum(a * (x - center)^2) <= budget, validated
    once, with everything that depends on them alone, so that each solve of
    the family brings only its own c, l and u.  Raises SolverError on a
    weight that is not positive (NaN included), a negative budget, or a NaN
    or infinite budget, total or entry of center (or a sum of center, or of
    1/a, that overflows).
    """

    __slots__ = ("a", "inv_a", "center", "budget", "total", "A1", "s0", "ball_slack",
                 "toward", "radius", "budget_slack", "eq_slack")

    def __init__(self, a, center, budget: float, total: float, feas_tol: float = 1e-9):
        a = np.asarray(a, dtype=float)
        center = np.asarray(center, dtype=float)
        budget = float(budget)
        total = float(total)
        # written so that a NaN fails them
        if not budget >= 0.0 or not (a > 0.0).all():
            raise SolverError("ball weights must be positive and budget nonnegative")
        center_sum = float(np.add.reduce(center))
        inv_a = 1.0 / a
        A1 = float(np.add.reduce(inv_a))
        for value in (budget, total, center_sum, A1):
            if not math.isfinite(value):
                raise SolverError("solver data must be finite")
        self.a, self.inv_a, self.center = a, inv_a, center
        self.budget, self.total, self.A1 = budget, total, A1
        # the box-free projection onto the plane is center + toward, with
        # ball term s0^2 / A1 = budget - ball_slack
        self.s0 = total - center_sum
        self.ball_slack = budget - self.s0 * self.s0 / A1
        self.toward = (self.s0 / A1) * inv_a
        self.radius = math.sqrt(budget / float(np.minimum.reduce(a))) if budget > 0 else 0.0
        self.budget_slack = feas_tol * max(1.0, budget)
        self.eq_slack = feas_tol * max(1.0, abs(total))


def minimize_linear(c, l, u, ball: Ball) -> QclpResult:
    """Minimize c @ x over the plane and ball of ``ball`` and the box [l, u].

    See the module docstring.  Raises SolverError on a NaN or infinite entry
    of c, l or u (or a sum of them that overflows); ``Ball`` checks the
    plane and ball.
    """
    c = np.asarray(c, dtype=float)
    l = np.asarray(l, dtype=float)
    u = np.asarray(u, dtype=float)
    a, inv_a, center = ball.a, ball.inv_a, ball.center
    budget, total, A1 = ball.budget, ball.total, ball.A1
    # scalars the solve needs anyway; a NaN or infinity in the data shows here
    l_sum = float(np.add.reduce(l))
    u_sum = float(np.add.reduce(u))
    c_max = float(np.maximum.reduce(c))
    c_min = float(np.minimum.reduce(c))
    for value in (l_sum, u_sum, c_max - c_min):
        if not math.isfinite(value):
            raise SolverError("solver data must be finite")
    if not (l <= u).all() and (l > u + 1e-15 * np.maximum(1.0, np.abs(u))).any():
        return _INFEASIBLE
    if l_sum > total + ball.eq_slack or u_sum < total - ball.eq_slack:
        return _INFEASIBLE

    budget_slack = ball.budget_slack
    c_spread = c_max - c_min
    c_scale = max(c_max, -c_min)  # max |c|
    # objective constant on the plane: c @ x = c_mean * total + spread-noise
    flat = c_spread <= 1e-15 * max(1.0, c_scale)

    # ---- closed form ignoring the box ------------------------------------
    s0, ball_slack = ball.s0, ball.ball_slack
    ca = c * inv_a
    Ac = float(np.add.reduce(ca))
    Acc = float(np.add.reduce(c * c * inv_a))
    var_c = max(Acc - Ac * Ac / A1, 0.0)
    closed = warm = None
    if not flat and ball_slack > 0.0 and var_c > 0.0:
        nu = math.sqrt(var_c / (4.0 * ball_slack))
        lam = (-2.0 * nu * s0 - Ac) / A1
        offset = (c + lam) / (2.0 * nu * a)
        x = center - offset
        if (x >= l).all() and (x <= u).all():
            closed = x
            # The screens below cannot end the solve if a plane-box point
            # has a ball term under budget - 2 slack.  From x toward the
            # box-free projection center + toward the ball term falls as
            # s0^2/A1 + (1 - t)^2 ball_slack; try t = _SCREEN_STEP.
            t = _SCREEN_STEP
            if ball_slack * t * (2.0 - t) > 2.0 * budget_slack:
                y = x + t * (ball.toward + offset)
                if (y >= l).all() and (y <= u).all():
                    return QclpResult(status="optimal", value=float(c @ x), x=x)
        else:
            warm = x.clip(l, u, out=x)

    box = _Box(l, u, center, l_sum, u_sum)
    obj_scale = max(c_scale * max(ball.radius, 1.0), 1.0)
    nu_floor = 1e-12 * obj_scale / max(budget, 1e-300)

    def solve_at(nu):
        """(raw x, polished x, ball term, at-l mask, at-u mask) at nu."""
        raw, lam = _solve_plane(center, c, a, nu, box, total)
        x = _polish_equality(raw, c, lam, l, u, total)
        quad = float(np.add.reduce(a * (x - center) ** 2))
        return raw, x, quad, raw <= l, raw >= u

    # ---- certificates from the piece the search starts on -----------------
    floor_out = proj_out = False  # the floor solve, the projection screens
    floor_x = None
    if closed is None and not flat:
        # the search starts from the active set of the clipped box-free
        # point, or from the all-free set when there is no such point
        if warm is None:
            warm = center
            at_l = at_u = np.zeros(c.size, dtype=bool)
        else:
            at_l, at_u = warm <= l, warm >= u
        step, nu_min, nu_max, V, room = _active_set_piece(
            c, ca, a, inv_a, center, warm, at_l, at_u, l, u, budget, total, guess=True
        )
        # On a piece that is not empty the ball term V t^2 + budget - room,
        # t = 1/(2 nu), is that of x(nu), which falls as nu grows.  More
        # than 3 slack over budget at the piece's low end (or at the floor,
        # when that is higher), the floor solve cannot end the solve.  More
        # than 3 slack under budget at its high end, it bounds the
        # projection's term, the limit nu -> inf, so neither projection
        # screen can fire.  Rounding enters as follows: each computed d_i,
        # and each c_i + lambda of a plane solve, is off by at most
        # err = 2 (n + 4) eps max|c|, which moves coordinate i by t err / a_i
        # and a ball term Q by at most 2 y sqrt(Q) + y^2, with
        # y = t err sqrt(A1) = t delta_sqrt_a.
        margin = 3.0 * budget_slack
        delta_sqrt_a = 2.0 * (c.size + 4) * _EPS * c_scale * math.sqrt(A1)
        nu_low = max(nu_min, nu_floor)
        if 0.0 <= nu_min and nu_low <= nu_max:
            s, y = 0.5 / nu_low * math.sqrt(V), 0.5 / nu_low * delta_sqrt_a
            q_low = budget - room + s * (s - 2.0 * y) - y * y  # at nu_low
            y = 0.5 / nu_floor * delta_sqrt_a
            floor_out = (math.sqrt(max(q_low, 0.0)) > y
                         and q_low - 2.0 * y * math.sqrt(q_low) - y * y > budget + margin)
            s, y = 0.5 / nu_max * math.sqrt(V), 0.5 / nu_max * delta_sqrt_a
            proj_out = (s + y) ** 2 - room < -margin
        if not floor_out:
            _, floor_x, floor_quad, _, _ = solve_at(nu_floor)
            # the floor point lies on the plane and in the box, so its ball
            # term bounds the projection's: under budget - 3 slack neither
            # projection screen can fire, and the floor is the answer
            if floor_quad < budget - margin:
                return QclpResult(status="optimal", value=float(c @ floor_x), x=floor_x)

    if not proj_out:
        proj, qmin = _project(center, a, box, total)
        if qmin > budget + budget_slack:
            return _INFEASIBLE
        if qmin >= budget - budget_slack or flat:
            # the feasible set is (numerically) the single projection point,
            # or every point of it is optimal
            return QclpResult(status="optimal", value=float(c @ proj), x=proj)
        if closed is not None:
            return QclpResult(status="optimal", value=float(c @ closed), x=closed)
    if floor_x is not None and floor_quad <= budget + budget_slack:
        return QclpResult(status="optimal", value=float(c @ floor_x), x=floor_x)

    # ---- active-set search on the ball multiplier ------------------------
    # bracket: quad(nu_lo) > budget >= quad(nu_hi); quad is nonincreasing in
    # nu
    nu_lo, nu_hi = nu_floor, math.inf
    for _ in range(_MAX_NU_STEPS):
        exact = step is not None and nu_lo < step < nu_hi
        if exact:
            nu = step
        elif math.isinf(nu_hi):
            if nu_lo > _NU_GUARD:
                # quad(x(nu)) -> qmin <= budget as nu -> inf; numerically stuck
                proj, _ = _project(center, a, box, total)
                return QclpResult(status="optimal", value=float(c @ proj), x=proj)
            nu = 8.0 * nu_lo
        else:
            nu = math.sqrt(nu_lo) * math.sqrt(nu_hi)
        if not nu_lo < nu < nu_hi:
            # the bracket is down to adjacent floats: nu_hi is the root
            _, x, quad, _, _ = solve_at(nu_hi)
            break
        raw, x, quad, new_l, new_u = solve_at(nu)
        if exact and (new_l == at_l).all() and (new_u == at_u).all():
            # the step kept its active set, so it solved that piece exactly
            break
        at_l, at_u = new_l, new_u
        step, nu_min, nu_max, _, _ = _active_set_piece(
            c, ca, a, inv_a, center, raw, at_l, at_u, l, u, budget, total
        )
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
