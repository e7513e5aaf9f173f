"""The node solve of the weak-null search against a nested-brentq reference.

``dosesens.qclp.minimize_linear`` finds the plane multiplier by a breakpoint
search and the ball multiplier by closed-form active-set steps.  The
reference in ``oracles.py`` finds both by ``brentq``.  Both must agree on the
status and the value of every instance, and the returned point must meet the
plane, ball and box constraints within the solver's own slacks.  The solve
must also match, bit for bit, the frozen copy in ``oracles.py`` of the solve
that began every nu search from the all-free active set.
"""

import math

import numpy as np
import pytest

from dosesens import qclp
from dosesens.errors import SolverError
from dosesens.gammas import build_schedule
from dosesens.pairs import sample_from_arrays
from dosesens.weaknull import (
    OBJECTIVES,
    SolverConfig,
    WeakNullProblem,
    _Search,
    worst_case_zscore,
)

from oracles import frozen_minimize_linear, reference_minimize_linear

FEAS_TOL = 1e-9


def solve(c, l, u, a, center, budget, total, feas_tol=FEAS_TOL):
    """minimize_linear on the plane and ball of (a, center, budget, total)."""
    return qclp.minimize_linear(c, l, u, qclp.Ball(a, center, budget, total, feas_tol))


def check_agrees(c, l, u, a, center, budget, total):
    c, l, u, a, center = (np.asarray(v, dtype=float) for v in (c, l, u, a, center))
    res = solve(c, l, u, a, center, budget, total)
    ref = reference_minimize_linear(c, l, u, a, center, budget, total, feas_tol=FEAS_TOL)
    assert res.status == ref.status
    if res.status == "infeasible":
        return res
    assert abs(res.value - ref.value) <= 1e-9 * max(1.0, abs(ref.value))
    x = res.x
    assert res.value == float(c @ x)
    assert abs(float(np.sum(x)) - total) <= FEAS_TOL * max(1.0, abs(total))
    quad = float(np.sum(a * (x - center) ** 2))
    assert quad <= budget + FEAS_TOL * max(1.0, budget)
    assert np.all(x >= l - FEAS_TOL * np.maximum(1.0, np.abs(l)))
    assert np.all(x <= u + FEAS_TOL * np.maximum(1.0, np.abs(u)))
    return res


def random_instance(rng):
    """Boxes that may exclude the center; budget around the projection's."""
    n = int(rng.integers(1, 13))
    a = rng.uniform(0.05, 2.0, n)
    center = rng.normal(0.0, 1.0, n)
    l = center + rng.uniform(-3.0, 0.5, n)
    u = l + rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.9)
    c = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-3, 1)
    total = float(rng.uniform(np.sum(l), np.sum(u)))
    _, qmin = qclp.project_plane_box(center, a, l, u, total)
    budget = qmin * rng.uniform(0.9, 1.2) + rng.exponential(rng.choice([0.01, 1.0, 20.0]))
    return c, l, u, a, center, budget, total


def weak_null_instance(rng):
    """A node relaxation of a random weak-null search: fixed and free pairs."""
    n = int(rng.integers(2, 11))
    problem = WeakNullProblem(
        lambda0=0.0, tau1=rng.normal(0.4, 1.0, n), gamma_i=rng.uniform(1.0, 3.0, n)
    )
    objective = "printed" if rng.random() < 0.5 else "expectation"
    search = _Search(problem, SolverConfig(objective=objective))
    wfix = rng.integers(-1, 2, n).astype(np.int8)
    slope, _, lo, hi = search._coeffs(wfix)
    return slope, lo, hi, search.a, search.tau1, search.budget, search.total


@pytest.mark.parametrize("make, count", [(random_instance, 1500), (weak_null_instance, 1500)])
def test_agrees_with_nested_brentq_reference(make, count):
    rng = np.random.default_rng(20240601)
    statuses = []
    for _ in range(count):
        statuses.append(check_agrees(*make(rng)).status)
    # both outcomes occur, so neither path is vacuous
    assert 0 < statuses.count("infeasible") < count


def test_zero_budget_leaves_only_the_center():
    center = np.array([0.5, -1.0, 2.0])
    box = (center - 1.0, center + 1.0)
    res = check_agrees([1.0, 2.0, -1.0], *box, [1.0, 2.0, 0.5], center, 0.0, float(center.sum()))
    assert res.status == "optimal"
    np.testing.assert_array_equal(res.x, center)
    # the center off the plane leaves nothing
    res = check_agrees([1.0, 2.0, -1.0], *box, [1.0, 2.0, 0.5], center, 0.0, 2.0)
    assert res.status == "infeasible"


def test_pinned_coordinates():
    l = np.array([-1.0, 0.3, -2.0, 0.7])
    u = np.array([2.0, 0.3, 1.0, 0.7])
    res = check_agrees([1.0, -3.0, -0.5, 4.0], l, u, [1.0, 0.5, 2.0, 1.0], np.zeros(4), 3.0, 0.5)
    assert res.status == "optimal"
    assert res.x[1] == 0.3 and res.x[3] == 0.7


def test_plane_through_a_box_corner():
    l, u = np.array([-1.0, -1.0, 0.0]), np.array([1.0, 0.5, 2.0])
    res = check_agrees([1.0, -1.0, 0.5], l, u, np.ones(3), np.zeros(3), 10.0, float(u.sum()))
    np.testing.assert_array_equal(res.x, u)
    res = check_agrees([1.0, -1.0, 0.5], l, u, np.ones(3), np.zeros(3), 10.0, float(l.sum()))
    np.testing.assert_array_equal(res.x, l)


def test_constant_objective():
    res = check_agrees(np.full(4, 0.7), -np.ones(4), np.ones(4), np.ones(4), np.zeros(4), 1.0, 0.4)
    assert res.value == pytest.approx(0.7 * 0.4, abs=1e-15)


def test_box_free_optimum_inside_the_box():
    c, a = np.array([1.0, -1.0, 0.5]), np.array([1.0, 2.0, 0.5])
    res = check_agrees(c, -100 * np.ones(3), 100 * np.ones(3), a, np.zeros(3), 1.0, 0.0)
    # closed form: x = -(c - C/A) / (2 nu a) with nu = sqrt(V / 4 budget)
    d = c - np.sum(c / a) / np.sum(1 / a)
    nu = np.sqrt(np.sum(d * d / a) / 4.0)
    np.testing.assert_allclose(res.x, -d / (2.0 * nu * a), rtol=1e-14, atol=1e-15)
    assert float(np.sum(a * res.x**2)) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize(
    "l, u, budget, total",
    [
        ([0.0, 1.0], [1.0, 0.5], 5.0, 1.0),  # empty box
        ([0.0, 0.0], [1.0, 1.0], 5.0, 2.5),  # plane misses the box
        ([2.0, 2.0], [3.0, 3.0], 1.0, 4.0),  # plane-box set outside the ball
    ],
)
def test_infeasible_data(l, u, budget, total):
    res = check_agrees([1.0, -1.0], l, u, [1.0, 1.0], [0.0, 0.0], budget, total)
    assert res.status == "infeasible" and res.x is None


def test_active_ball_is_met_at_the_root():
    """The search stops at the root, not anywhere within the budget slack."""
    rng = np.random.default_rng(5)
    solved = 0
    for _ in range(300):
        c, l, u, a, center, budget, total = random_instance(rng)
        res = solve(c, l, u, a, center, budget, total)
        if res.status != "optimal":
            continue
        lp = reference_minimize_linear(c, l, u, a, center, 1e12, total)
        if lp.value < res.value - 1e-9 * max(1.0, abs(res.value)):
            # a looser ball does better, so the ball binds: it holds to rounding
            quad = float(np.sum(a * (res.x - center) ** 2))
            assert quad == pytest.approx(budget, rel=1e-12, abs=1e-13)
            solved += 1
    assert solved > 50


def eight_pairs(jitter_seed=None):
    """A fixed 8-pair design at gamma_bar 1.5, optionally with a 3 % jitter."""
    base = np.random.default_rng([0, 7919])
    z_lo = base.uniform(0.0, 3.0, 8)
    gap = base.uniform(0.25, 2.0, 8)
    y_lo = 0.5 * z_lo + base.normal(0.0, 1.0, 8)
    y_hi = 0.5 * (z_lo + gap) + base.normal(0.0, 1.0, 8)
    if jitter_seed is not None:
        jitter = np.random.default_rng(jitter_seed)
        gap = gap * np.exp(0.03 * jitter.normal(0.0, 1.0, 8))
        y_lo = y_lo + 0.03 * jitter.normal(0.0, 1.0, 8)
        y_hi = y_hi + 0.03 * jitter.normal(0.0, 1.0, 8)
    sample = sample_from_arrays(z_lo, z_lo + gap, y_lo, y_hi)
    return WeakNullProblem.from_sample(sample, build_schedule(sample, gamma_bar=1.5), 0.5)


def test_nu_search_work_per_node_is_small_and_stable(monkeypatch):
    """Plane solves per node that reaches the nu search, counted, not timed."""
    counts = {"plane": 0, "searched": 0}
    solve_plane, minimize_linear = qclp._solve_plane, qclp.minimize_linear

    def counted_plane(*args):
        counts["plane"] += 1
        return solve_plane(*args)

    def counted_solve(*args, **kwargs):
        before = counts["plane"]
        res = minimize_linear(*args, **kwargs)
        counts["searched"] += counts["plane"] > before
        return res

    monkeypatch.setattr(qclp, "_solve_plane", counted_plane)
    monkeypatch.setattr(qclp, "minimize_linear", counted_solve)
    totals = []
    for jitter_seed in (None, 1):
        counts.update(plane=0, searched=0)
        sol = worst_case_zscore(eight_pairs(jitter_seed), SolverConfig(objective="printed"))
        assert sol.status == "optimal"
        assert counts["searched"] > 100
        # 2.09 here, 2.69 when every search began from the all-free set
        assert counts["plane"] <= 2.1 * counts["searched"]
        totals.append(counts["plane"])
    assert max(totals) <= 1.5 * min(totals)


SMALL_INSTANCE = dict(
    c=[1.0, -2.0, 0.5], l=[-1.0, -1.0, -1.0], u=[1.0, 1.0, 1.0], a=[1.0, 2.0, 0.5],
    center=[0.0, 0.0, 0.0], budget=0.5, total=0.3,
)


def small_instance(name=None, bad=None):
    """SMALL_INSTANCE as arrays, with ``bad`` as the scalar ``name`` or as
    its middle entry."""
    data = {k: np.array(v) if isinstance(v, list) else v for k, v in SMALL_INSTANCE.items()}
    if isinstance(data.get(name), np.ndarray):
        data[name][1] = bad
    elif name is not None:
        data[name] = bad
    return data


@pytest.mark.parametrize("name", sorted(SMALL_INSTANCE))
def test_nan_data_raises_instead_of_a_nan_optimum(name):
    """A NaN anywhere in the data used to come back "optimal" with a NaN
    value, which would make every bound comparison of a search meaningless."""
    assert solve(**small_instance()).status == "optimal"
    with pytest.raises(SolverError):
        solve(**small_instance(name, np.nan))


@pytest.mark.parametrize("name", ["budget", "total", "c", "l", "u", "center"])
def test_infinite_data_raises(name):
    with pytest.raises(SolverError, match="finite"):
        solve(**small_instance(name, np.inf))


def near_degenerate_instance(rng):
    """A budget within a few slacks of the plane-box projection's ball term,
    where the projection screen decides the answer."""
    c, l, u, a, center, _, total = random_instance(rng)
    _, qmin = qclp.project_plane_box(center, a, l, u, total)
    budget = max(qmin + FEAS_TOL * max(1.0, qmin) * rng.uniform(-3.0, 3.0), 0.0)
    return c, l, u, a, center, budget, total


@pytest.mark.parametrize(
    "make", [random_instance, weak_null_instance, near_degenerate_instance]
)
def test_skipped_projection_screen_changes_no_bit(make, monkeypatch):
    """A closed-form answer skips the projection screen only when that screen
    cannot fire; with the skip turned off every result is the same, bit for
    bit."""
    rng = np.random.default_rng(20261019)
    instances = [make(rng) for _ in range(1500)]
    first = [solve(*inst) for inst in instances]
    monkeypatch.setattr(qclp, "_SCREEN_STEP", 0.0)
    for inst, res in zip(instances, first):
        ref = solve(*inst)
        assert res.status == ref.status
        assert res.value == ref.value or (math.isinf(res.value) and math.isinf(ref.value))
        if ref.x is not None:
            assert res.x.tobytes() == ref.x.tobytes()


def weak_null_design(rng):
    """A seeded weak-null problem: 5 to 15 pairs, gamma_bar 1.25 to 2."""
    n = int(rng.integers(5, 16))
    z_lo = rng.uniform(0.0, 3.0, n)
    gap = rng.uniform(0.25, 2.0, n)
    y_lo = 0.5 * z_lo + rng.normal(0.0, 1.0, n)
    y_hi = 0.5 * (z_lo + gap) + rng.normal(0.0, 1.0, n)
    sample = sample_from_arrays(z_lo, z_lo + gap, y_lo, y_hi)
    schedule = build_schedule(sample, gamma_bar=float(rng.uniform(1.25, 2.0)))
    return WeakNullProblem.from_sample(sample, schedule, 0.5)


def search_relaxations(monkeypatch, count):
    """At least ``count`` node relaxations, as minimize_linear arguments,
    of seeded searches under both objectives, 300 nodes each at most."""
    rng = np.random.default_rng(20261020)
    instances = []
    minimize_linear = qclp.minimize_linear

    def recorded(c, l, u, ball):
        instances.append((c, l, u, ball.a, ball.center, ball.budget, ball.total))
        return minimize_linear(c, l, u, ball)

    monkeypatch.setattr(qclp, "minimize_linear", recorded)
    searches = 0
    while len(instances) < count:
        config = SolverConfig(OBJECTIVES[searches % 2], node_limit=300)
        _Search(weak_null_design(rng), config).run()
        searches += 1
    monkeypatch.setattr(qclp, "minimize_linear", minimize_linear)
    return instances


def one_step_outcome(monkeypatch):
    """A probe of a solve's path: ``probe(instance)`` solves it and returns
    its result and "fired" when the first step of the nu search was its
    only plane solve, with no projection and no floor solve, "declined"
    when the certificates left a screen to run first, "searched" when that
    step was taken at once but did not keep its active set, and None when
    the solve ended before the certificates."""
    events = []
    piece, solve_plane, project = qclp._active_set_piece, qclp._solve_plane, qclp._project

    def first_piece(*args, **kwargs):
        out = piece(*args, **kwargs)
        if not events:
            events.append(("first step", out[0]))
        return out

    def plane(center, c, a, nu, box, total):
        events.append(("plane", nu))
        return solve_plane(center, c, a, nu, box, total)

    def projection(*args):
        events.append(("projection", None))
        return project(*args)

    monkeypatch.setattr(qclp, "_active_set_piece", first_piece)
    monkeypatch.setattr(qclp, "_solve_plane", plane)
    monkeypatch.setattr(qclp, "_project", projection)

    def probe(instance):
        events.clear()
        res = solve(*instance)
        if not events or events[0][0] != "first step":
            return res, None
        first = ("plane", events[0][1])
        if events[1:2] != [first]:
            return res, "declined"
        return res, "fired" if len(events) == 2 else "searched"

    return probe


def assert_same_bits(res, ref):
    assert res.status == ref.status
    assert res.value == ref.value or (math.isinf(res.value) and math.isinf(ref.value))
    if ref.x is None:
        assert res.x is None
    else:
        assert res.x.tobytes() == ref.x.tobytes()


@pytest.mark.parametrize(
    "make", [None, random_instance, weak_null_instance, near_degenerate_instance]
)
def test_matches_the_frozen_solve_bit_for_bit(make, monkeypatch):
    """Starting the nu search from the clipped box-free point's active set,
    skipping the screens it shows silent and answering in one step changes
    no status, value or bit of x.  ``None`` stands for the node relaxations
    of seeded searches, where the one-step answer must both fire and
    decline."""
    if make is None:
        instances = search_relaxations(monkeypatch, 5000)
    else:
        rng = np.random.default_rng(20261020)
        instances = [make(rng) for _ in range(1500)]
    probe = one_step_outcome(monkeypatch)
    outcomes = []
    for inst in instances:
        res, outcome = probe(inst)
        assert_same_bits(res, frozen_minimize_linear(*inst, feas_tol=FEAS_TOL))
        outcomes.append(outcome)
    if make is None:
        assert outcomes.count("fired") > 1000
        assert outcomes.count("declined") > 500
