"""Worst-case studentized statistic for the average-slope null.

The branch-and-bound optimum is checked against an exhaustive SLSQP oracle,
the reported certificates against the stated feasibility tolerances, and the
conservative variance / stochastic-dominance inequalities that justify the
construction are exercised directly.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dosesens import tails
from dosesens.errors import ConfigError, DataError
from dosesens.gammas import schedule_from_bounds
from dosesens.pairs import sample_from_arrays
from dosesens.weaknull import (
    SolverConfig,
    WeakNullProblem,
    _Search,
    bounding_tail,
    variance_bound,
    weak_null_ci,
    worst_case_zscore,
)

from oracles import brute_force_weaknull, enumerate_bounding_tail, reference_node_coeffs


def random_problem(rng, n, lambda0=0.0, scale=1.0, gamma_high=3.0):
    tau1 = rng.normal(0.4, scale, n)
    gamma_i = rng.uniform(1.0, gamma_high, n)
    return WeakNullProblem(lambda0=lambda0, tau1=tau1, gamma_i=gamma_i)


def check_feasibility(sol, problem):
    """The reported solution must satisfy the constraints it claims."""
    tau1 = problem.tau1
    tau2 = np.asarray(sol.tau2)
    w = np.asarray(sol.w)
    denom = problem.denom
    assert abs(np.sum(tau1 + tau2)) <= 1e-8 * denom
    quad = denom**2 - float(np.sum(problem.ball_weights * (tau1 - tau2) ** 2))
    assert quad >= -1e-8 * denom**2
    on = w == 1
    eps = problem.epsilon
    assert np.all(tau2[on] >= tau1[on] - 1e-9 * denom)
    assert np.all(tau2[on] <= tau1[on] + problem.big_m[on] + 1e-9 * denom)
    assert np.all(tau2[~on] <= tau1[~on] - eps + 1e-12 * denom)
    assert np.all(tau2[~on] >= tau1[~on] - problem.big_m[~on] - 1e-9 * denom)


@pytest.mark.parametrize("objective", ["printed", "expectation"])
def test_branch_and_bound_matches_slsqp_oracle(objective):
    rng = np.random.default_rng(101)
    for trial in range(6):
        problem = random_problem(rng, rng.integers(3, 6))
        config = SolverConfig(objective=objective)
        sol = worst_case_zscore(problem, config)
        assert sol.status == "optimal"
        ref_value, _, _ = brute_force_weaknull(problem, objective, seed=trial)
        assert ref_value is not None
        assert sol.optimum == pytest.approx(ref_value, abs=1e-6)
        assert sol.bound <= sol.optimum + 1e-12
        assert sol.gap <= config.gap_tol + 1e-15
        check_feasibility(sol, problem)


def test_node_coefficient_rows_match_per_node_construction():
    """The rows the search builds once equal the per-node construction bit
    for bit, and are C-contiguous: a strided view changes the rounding of
    the node solve's sums and dot products."""
    rng = np.random.default_rng(20261019)
    for n in range(1, 21):
        for objective in ("printed", "expectation"):
            search = _Search(random_problem(rng, n), SolverConfig(objective=objective))
            for _ in range(10):
                wfix = rng.integers(-1, 2, n).astype(np.int8)
                rows = search._coeffs(wfix)
                for got, want in zip(rows, reference_node_coeffs(search, wfix), strict=True):
                    assert got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes()


def test_printed_objective_never_positive():
    rng = np.random.default_rng(7)
    for _ in range(5):
        problem = random_problem(rng, 8)
        sol = worst_case_zscore(problem, SolverConfig(objective="printed"))
        assert sol.optimum <= 1e-10


def test_unit_bounds_give_exact_closed_forms():
    rng = np.random.default_rng(3)
    tau1 = rng.normal(0.5, 1.0, 7)
    problem = WeakNullProblem(lambda0=0.0, tau1=tau1, gamma_i=np.ones(7))
    printed = worst_case_zscore(problem, SolverConfig(objective="printed"))
    assert printed.optimum == 0.0
    assert printed.gap == 0.0
    expectation = worst_case_zscore(problem, SolverConfig(objective="expectation"))
    classic = float(np.sum(tau1)) / np.sqrt(float(np.sum(tau1**2)))
    assert expectation.optimum == classic
    assert expectation.p_value_upper == pytest.approx(
        float(tails.normal_sf(classic)), abs=1e-15
    )


def test_node_limit_still_gives_valid_bound():
    rng = np.random.default_rng(29)
    problem = random_problem(rng, 10)
    full = worst_case_zscore(problem, SolverConfig(objective="expectation"))
    cut = worst_case_zscore(
        problem, SolverConfig(objective="expectation", node_limit=3)
    )
    assert cut.status == "bounded"
    assert cut.bound <= full.optimum + 1e-9
    assert cut.p_value_upper >= full.p_value_upper - 1e-12
    if cut.optimum is not None:
        assert cut.optimum >= full.optimum - 1e-9


def test_problem_validation():
    with pytest.raises(DataError):
        WeakNullProblem(lambda0=0.0, tau1=[1.0], gamma_i=[0.5])
    with pytest.raises(ConfigError):
        WeakNullProblem(lambda0=0.0, tau1=[1.0, 2.0], gamma_i=[2.0])
    with pytest.raises(DataError, match="degenerate"):
        WeakNullProblem(lambda0=0.0, tau1=[0.0, 0.0], gamma_i=[2.0, 2.0])
    with pytest.raises(ConfigError):
        SolverConfig(objective="observed")


def test_node_limit_is_capped_at_ten_times_the_default():
    assert SolverConfig(node_limit=1_000_000).node_limit == 1_000_000
    for limit in (0, 1_000_001, 10**20):
        with pytest.raises(ConfigError, match="node_limit"):
            SolverConfig(node_limit=limit)


def test_from_sample_builds_adjusted_responses():
    sample = sample_from_arrays([0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [3.0, 1.0])
    schedule = schedule_from_bounds([2.0, 2.0])
    problem = WeakNullProblem.from_sample(sample, schedule, lambda0=1.0)
    # outcome gaps 3, 1 minus 1.0 * dose gaps 1, 2
    assert_allclose(problem.tau1, [2.0, -1.0])
    assert problem.pair_ids == ("1", "2")


def test_solution_json_keys():
    problem = WeakNullProblem(lambda0=0.25, tau1=[1.0, -0.5], gamma_i=[2.0, 1.5])
    blob = worst_case_zscore(problem).to_json_dict()
    for key in ("lambda0", "tau1", "Gamma_i", "optimum", "gap", "w", "tau2",
                "node_count", "status", "bound", "p_value_upper"):
        assert key in blob
    assert blob["lambda0"] == 0.25
    assert len(blob["w"]) == 2


# ------------------------------------------------- variance / dominance --


def test_pairwise_variance_inequality():
    # 2G/(1+G) (pi a^2 + (1-pi) b^2) >= pi (1-pi) (a-b)^2 whenever the
    # assignment odds are within [1/(1+G), G/(1+G)]
    rng = np.random.default_rng(41)
    a = rng.normal(0.0, 2.0, 4000)
    b = rng.normal(0.0, 2.0, 4000)
    gamma = rng.uniform(1.0, 8.0, 4000)
    lo = 1.0 / (1.0 + gamma)
    pi = lo + rng.random(4000) * (gamma / (1.0 + gamma) - lo)
    lhs = 2.0 * gamma / (1.0 + gamma) * (pi * a**2 + (1.0 - pi) * b**2)
    rhs = pi * (1.0 - pi) * (a - b) ** 2
    assert np.all(lhs >= rhs - 1e-12)


def test_variance_bound_value():
    assert variance_bound([1.0, -2.0], [1.0, 3.0]) == pytest.approx(
        2.0 * 0.5 * 1.0 + 2.0 * 0.75 * 4.0
    )


def test_bounding_average_dominates_observed():
    # the two-point bounding variable takes the larger value with the
    # largest allowed odds, so its average stochastically dominates the
    # observed average for any within-bounds assignment probabilities
    rng = np.random.default_rng(53)
    n = 10
    tau1 = rng.normal(0.2, 1.0, n)
    tau2 = tau1 - rng.uniform(0.5, 2.0, n)
    gamma_i = rng.uniform(1.2, 4.0, n)
    hi = np.maximum(tau1, tau2)
    lo = np.minimum(tau1, tau2)
    bounds_lo = 1.0 / (1.0 + gamma_i)
    bounds_hi = gamma_i / (1.0 + gamma_i)
    pi = bounds_lo + rng.random(n) * (bounds_hi - bounds_lo)
    for t in np.linspace(lo.mean(), hi.mean(), 7):
        observed = enumerate_bounding_tail(
            tau1, tau2, (pi / (1 - pi)), t
        )  # odds pi/(1-pi) make p_plus equal pi exactly
        bounding = enumerate_bounding_tail(tau1, tau2, gamma_i, t)
        assert observed <= bounding + 1e-12


def test_bounding_tail_matches_enumeration():
    rng = np.random.default_rng(67)
    n = 8
    tau1 = rng.normal(0.3, 1.0, n)
    tau2 = tau1 - rng.uniform(0.2, 1.5, n)
    gamma_i = rng.uniform(1.0, 3.0, n)
    t = float(np.mean((tau1 + tau2) / 2.0))
    exact = enumerate_bounding_tail(
        tau1, tau2, gamma_i, t, slack=tails.comparison_slack(t)
    )
    estimate, se = bounding_tail(tau1, tau2, gamma_i, t, reps=60_000, seed=5)
    assert estimate == pytest.approx(exact, abs=4 * max(se, 1e-4))


def test_bounding_tail_single_pair_hand_value():
    estimate, se = bounding_tail([1.0], [-1.0], [2.0], 1.0, reps=30_000, seed=1)
    assert estimate == pytest.approx(2.0 / 3.0, abs=4 * se)
    with pytest.raises(ConfigError):
        bounding_tail([1.0], [-1.0], [2.0], 1.0, reps=30_000)
    with pytest.raises(ConfigError):
        bounding_tail([1.0], [-1.0], [2.0], 1.0, reps=10, seed=1)


# ----------------------------------------------------------------- region --


def test_region_accepts_truth_rejects_far_values():
    rng = np.random.default_rng(71)
    n = 10
    z_lo = rng.uniform(1.0, 2.0, n)
    z_hi = z_lo + rng.uniform(0.5, 1.5, n)
    lam = 1.5
    y_lo = lam * z_lo + rng.normal(0.0, 0.2, n)
    y_hi = lam * z_hi + rng.normal(0.0, 0.2, n)
    sample = sample_from_arrays(z_hi, z_lo, y_hi, y_lo)
    schedule = schedule_from_bounds(np.full(n, 1.2))
    grid = np.arange(0.5, 2.51, 0.25)
    region = weak_null_ci(sample, schedule, lambda_grid=grid)
    assert region.interval is not None
    assert region.interval[0] <= lam <= region.interval[1]
    assert not region.accepted[0]
    assert not region.accepted[-1]
    assert region.objective == "expectation"
    blob = region.to_json_dict()
    assert blob["lambda_grid"] == [float(v) for v in grid]


def test_region_needs_grid(three_pairs):
    schedule = schedule_from_bounds(np.ones(3))
    with pytest.raises(ConfigError):
        weak_null_ci(three_pairs, schedule)
    with pytest.raises(ConfigError):
        weak_null_ci(three_pairs, schedule, alpha=1.5, lambda_grid=[0.0])


def test_region_degenerate_grid_point_flagged():
    # exactly linear outcomes make tau1 identically zero at the true slope
    z_lo = np.array([1.0, 2.0])
    z_hi = np.array([2.0, 4.0])
    sample = sample_from_arrays(z_hi, z_lo, 2.0 * z_hi, 2.0 * z_lo)
    schedule = schedule_from_bounds([1.5, 1.5])
    region = weak_null_ci(sample, schedule, lambda_grid=[1.0, 2.0, 3.0])
    assert region.statuses[1] == "degenerate"
    assert region.accepted[1]
    assert region.p_values[1] == 1.0
