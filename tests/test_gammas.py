"""Per-pair bias bounds: construction, the mean-bound inversion, JSON."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dosesens import gammas
from dosesens.asymptotics import _population_components
from dosesens.dgps import DgpSpec
from dosesens.errors import ConfigError, DataError, SolverError
from dosesens.gammas import (
    GammaSchedule,
    build_schedule,
    gamma_for_mean_bound,
    mean_bound_rows,
    schedule_from_bounds,
    schedule_from_gamma,
    schedule_from_gamma_bar,
    schedule_from_gamma_bar_gaps,
)
from dosesens.pairs import DoseLink

from oracles import (
    assignment_bounds,
    reference_gamma_for_mean_bound,
    reference_mean_bound_rows,
)


def test_rate_to_bounds_hand_example(three_pairs):
    # gaps 1, 2, 4 at rate log 2 give bounds 2, 4, 16 and mean 22/3
    schedule = schedule_from_gamma(np.log(2.0), three_pairs, DoseLink())
    assert_allclose(schedule.gamma_i, [2.0, 4.0, 16.0], rtol=1e-12)
    assert_allclose(schedule.gamma_bar, 22.0 / 3.0, rtol=1e-12)


def test_mean_bound_two_gaps_closed_form():
    # exp(g) + exp(2g) = 6 at g = log 2: mean bound 3 recovers log 2
    gamma = gamma_for_mean_bound(3.0, np.array([1.0, 2.0]), tol=1e-12)
    assert_allclose(gamma, np.log(2.0), rtol=1e-10)


def test_round_trip_rate_mean_rate(three_pairs):
    for gamma in (0.0, 0.05, 0.8, 2.3):
        schedule = schedule_from_gamma(gamma, three_pairs, DoseLink())
        back = gamma_for_mean_bound(
            schedule.gamma_bar, three_pairs.dose_diff(), tol=1e-12
        )
        assert back == pytest.approx(gamma, abs=1e-10, rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(min_value=0.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_random_gaps(gamma, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.05, 3.0, rng.integers(2, 40))
    mean_bound = float(np.mean(np.exp(gamma * gaps)))
    if not np.isfinite(mean_bound):
        return
    back = gamma_for_mean_bound(mean_bound, gaps, tol=1e-12)
    assert back == pytest.approx(gamma, abs=1e-8, rel=1e-8)


def test_mean_bound_one_means_no_bias(three_pairs):
    schedule = schedule_from_gamma_bar(1.0, three_pairs, DoseLink())
    assert_allclose(schedule.gamma_i, np.ones(3))
    assert_allclose(schedule.p_plus, np.full(3, 0.5))


def test_explicit_bounds_passthrough():
    schedule = schedule_from_bounds([1.0, 2.0, 5.0])
    assert_allclose(schedule.gamma_bar, 8.0 / 3.0)
    assert_allclose(schedule.p_plus, [0.5, 2.0 / 3.0, 5.0 / 6.0])
    assert_allclose(schedule.p_minus, 1.0 - schedule.p_plus)
    lo, hi = assignment_bounds(schedule, 2)
    assert_allclose([lo, hi], [1.0 / 6.0, 5.0 / 6.0])


def test_bounds_below_one_rejected():
    with pytest.raises(DataError):
        schedule_from_bounds([0.9, 2.0])
    with pytest.raises(ConfigError):
        gamma_for_mean_bound(0.99, np.array([1.0]))
    with pytest.raises(ConfigError):
        schedule_from_gamma(-0.1, None, DoseLink())


def test_zero_gaps_cannot_reach_mean_above_one():
    with pytest.raises(DataError):
        schedule_from_gamma_bar_gaps(1.5, np.zeros(4))
    # but a mean bound of exactly 1 is fine
    schedule = schedule_from_gamma_bar_gaps(1.0, np.zeros(4))
    assert_allclose(schedule.gamma_i, np.ones(4))


def test_exactly_one_bias_parameter(three_pairs):
    with pytest.raises(ConfigError, match="exactly one"):
        build_schedule(three_pairs, gamma=0.1, gamma_bar=2.0)
    with pytest.raises(ConfigError, match="exactly one"):
        build_schedule(three_pairs)
    schedule = build_schedule(three_pairs, gamma_bar=2.0)
    assert_allclose(schedule.gamma_bar, 2.0, rtol=1e-9)


def test_gamma_i_alignment(three_pairs):
    with pytest.raises(ConfigError):
        build_schedule(three_pairs, gamma_i=[2.0, 2.0])


def test_json_dict_schema(three_pairs):
    schedule = schedule_from_gamma(0.3, three_pairs, DoseLink())
    blob = schedule.to_json_dict()
    assert set(blob) == {"gamma", "gamma_bar", "per_pair"}
    assert len(blob["per_pair"]) == 3
    row = blob["per_pair"][0]
    assert set(row) == {"pair_id", "gap", "Gamma_i", "p_plus"}
    assert row["pair_id"] == "1"


def test_json_dict_rows_match_the_arrays_elementwise():
    gaps = np.random.default_rng(9).uniform(0.0, 2.0, 50)
    ids = tuple(f"p{i}" for i in range(50))
    for schedule in (
        schedule_from_gamma_bar_gaps(1.7, gaps, ids),
        schedule_from_bounds(1.0 + gaps),
    ):
        rows = schedule.to_json_dict()["per_pair"]
        for i, row in enumerate(rows):
            assert row == {
                "pair_id": schedule.pair_ids[i] if schedule.pair_ids else str(i + 1),
                "gap": None if schedule.gaps is None else float(schedule.gaps[i]),
                "Gamma_i": float(schedule.gamma_i[i]),
                "p_plus": float(schedule.p_plus[i]),
            }


def test_larger_bounds_push_p_plus_toward_one():
    schedule = schedule_from_bounds([1.0, 4.0, 100.0])
    assert np.all(np.diff(schedule.p_plus) > 0)
    assert schedule.p_plus[-1] == pytest.approx(100.0 / 101.0)


def test_schedule_is_frozen():
    schedule = schedule_from_bounds([2.0])
    assert isinstance(schedule, GammaSchedule)
    with pytest.raises(AttributeError):
        schedule.gamma_i = np.array([3.0])


@pytest.mark.parametrize("n", [1, 2, 7, 200, 2000])
def test_mean_bound_inversion_is_bit_identical_to_reference(n):
    # the mean is taken as np.add.reduce(...) / n, which is what ndarray.mean
    # computes, so every bisection step and the root match bit for bit.  The
    # means at the dyadic rates 0.375 and 1.5, which the bisection evaluates,
    # make a comparison flip at the last bit of any other summation.
    rng = np.random.default_rng(n)
    for gaps in (rng.uniform(0.0, 3.0, n), np.abs(rng.normal(0.0, 0.2, n))):
        cap = 700.0 / gaps.max()
        near_cap = float(np.exp(0.97 * cap * gaps).mean())
        dyadic = [float(np.exp(g * gaps).mean()) for g in (0.375, 1.5)]
        for target in (1.0 + 1e-9, 1.25, 2.0, near_cap, *dyadic):
            for tol in (1e-10, 1e-12):
                got = gamma_for_mean_bound(target, gaps, tol=tol)
                want = reference_gamma_for_mean_bound(target, gaps, tol=tol)
                assert got == want, (target, tol)
        beyond = 2.0 * float(np.exp(cap * gaps).mean())
        with pytest.raises(DataError, match="overflow guard"):
            gamma_for_mean_bound(beyond, gaps)
        with pytest.raises(DataError):
            reference_gamma_for_mean_bound(beyond, gaps)


def _outcome(solve, *args):
    """A solver's value, or the class and message of what it raises."""
    try:
        return solve(*args)
    except (ConfigError, DataError, SolverError) as exc:
        return type(exc), str(exc)


def _random_instance(rng):
    """Gap rows and targets that reach every branch of the bisection."""
    n = int(rng.integers(1, 400))
    rows = int(rng.integers(1, 3))
    kind = rng.integers(0, 6)
    if kind == 0:
        gaps = rng.uniform(0.0, 3.0, (rows, n))
    elif kind == 1:  # tied and zero gaps
        gaps = np.round(rng.uniform(0.0, 2.0, (rows, n)) * 2.0) / 2.0
    elif kind == 2:  # tiny gaps: gamma far above 1, many doublings
        gaps = rng.uniform(0.0, 1e-3, (rows, n))
    elif kind == 3:  # huge gaps: the exp() cap lies below 1
        gaps = rng.uniform(0.0, 3000.0, (rows, n))
    elif kind == 4:  # a row of zero gaps among others
        gaps = rng.uniform(0.0, 3.0, (rows, n))
        gaps[rng.integers(0, rows)] = 0.0
    else:
        gaps = np.abs(rng.normal(0.0, 0.2, (rows, n)))
    row = gaps[0]
    cap = 700.0 / row.max() if row.max() > 0 else 1.0
    pool = [
        1.0, 1.0 + 1e-9, 1.0 + rng.exponential(0.5), 1.0 + rng.exponential(5.0),
        float(np.exp(rng.uniform(0.0, 0.99) * cap * row).mean()),
        2.0 * float(np.exp(cap * row).mean()),
        float(rng.uniform(0.0, 1.0)), float("nan"), float("inf"),
    ]
    targets = [pool[i] for i in rng.integers(0, len(pool), rng.integers(1, 8))]
    return gaps, targets


def test_row_wise_inversion_matches_the_scalar_bisection_bit_for_bit():
    # every (row, target) pair gets the reference's gamma bit for bit, or the
    # same error class and message
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(3000):
        gaps, targets = _random_instance(rng)
        tol = (1e-10, 1e-12)[int(rng.integers(0, 2))]
        with np.errstate(over="ignore"):
            rows = mean_bound_rows(targets, gaps, tol=tol)
        for s, row in enumerate(gaps):
            for j, target in enumerate(targets):
                got = _outcome(rows.value, s, j)
                want = _outcome(reference_gamma_for_mean_bound, target, row, tol)
                assert got == want, (s, j, target, row.size)
                seen.add(type(got) if isinstance(got, float) else got[0])
    assert seen == {float, ConfigError, DataError}


@pytest.mark.parametrize(
    "target,gaps",
    [
        (0.99, [1.0, 2.0]),
        (float("nan"), [1.0, 2.0]),
        (1.5, [0.0, 0.0, 0.0]),
        (1e305, [1.0, 2.0]),
        (float("inf"), [1.0, 2.0]),
        (1.5, [1.0, -0.5]),
    ],
)
def test_inversion_errors_match_the_scalar_bisection(target, gaps):
    want = _outcome(reference_gamma_for_mean_bound, target, np.array(gaps))
    assert isinstance(want, tuple)
    assert _outcome(gamma_for_mean_bound, target, np.array(gaps)) == want
    with pytest.raises(want[0]) as err:
        schedule_from_gamma_bar_gaps(target, gaps)
    assert str(err.value) == want[1]


def test_nan_mean_bound_is_a_config_error():
    with pytest.raises(ConfigError, match="gamma_bar must be >= 1"):
        gamma_for_mean_bound(float("nan"), np.array([1.0, 2.0]))


def test_row_blocks_do_not_change_the_roots(monkeypatch):
    rng = np.random.default_rng(5)
    gaps = rng.uniform(0.0, 3.0, (9, 40))
    targets = [1.0, 1.3, 2.0, 7.5, 0.5]
    whole = mean_bound_rows(targets, gaps)
    monkeypatch.setattr(gammas, "ROW_BLOCK", 100)
    blocked = mean_bound_rows(targets, gaps)
    np.testing.assert_array_equal(blocked.gamma, whole.gamma)
    np.testing.assert_array_equal(blocked.status, whole.status)


def test_p_plus_rows_equal_each_schedule():
    rng = np.random.default_rng(6)
    gaps = rng.uniform(0.0, 3.0, (2, 30))
    rows = mean_bound_rows([1.0, 1.4, 0.5, 3.0], gaps)
    p_plus, clean = rows.p_plus(1, slice(0, 4))
    assert clean.tolist() == [True, True, False, True]
    for j in (0, 1, 3):
        np.testing.assert_array_equal(p_plus[j], rows.schedule(1, j).p_plus)
    with pytest.raises(ConfigError):
        rows.schedule(1, 2)


def _gap_rows(rng, kind, rows, n):
    if kind == "zero":  # zero gaps in every row, and a row of them
        gaps = rng.uniform(0.0, 3.0, (rows, n))
        gaps[:, ::2] = 0.0
        gaps[rng.integers(0, rows)] = 0.0
        return gaps
    if kind == "tiny":  # gamma far above 1, many doublings
        return rng.uniform(0.0, 1e-4, (rows, n))
    if kind == "near-cap":  # the exp() cap lies below 1
        return rng.uniform(0.0, 3000.0, (rows, n))
    if kind == "constant":
        return np.full((rows, n), rng.uniform(0.01, 3.0))
    if kind == "sparse":  # one positive gap a row: the certificate window is wide
        gaps = np.zeros((rows, n))
        gaps[np.arange(rows), rng.integers(0, n, rows)] = rng.uniform(0.1, 3.0, rows)
        return gaps
    return rng.uniform(0.0, 3.0, (rows, n))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["zero", "tiny", "near-cap", "constant", "sparse", "uniform"]),
    n=st.integers(min_value=1, max_value=2000),
    rows=st.integers(min_value=1, max_value=200),
    picks=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
    tol=st.sampled_from([1e-10, 1e-12]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_certified_inversion_replays_the_bisection_bit_for_bit(kind, n, rows, picks, tol, seed):
    rng = np.random.default_rng(seed)
    gaps = _gap_rows(rng, kind, rows, n)
    row = gaps[rng.integers(0, rows)]
    with np.errstate(over="ignore"):
        edge = float(np.exp(700.0 / row.max() * row).mean()) if row.max() > 0 else 2.0
    pool = [1.0, 1.0 + 1e-12, 1.5, 1e6, edge * (1 - 1e-9), edge * (1 + 1e-9),
            float("nan"), 0.5]
    targets = [pool[i] for i in picks]
    with np.errstate(over="ignore"):
        got = mean_bound_rows(targets, gaps, tol=tol)
        gamma, status = reference_mean_bound_rows(targets, gaps, tol=tol)
    assert got.gamma.tobytes() == gamma.tobytes()
    assert got.status.tobytes() == status.tobytes()


class _CountingNumpy(types.ModuleType):
    """NumPy with a count of the terms ``exp`` is applied to: a pass over the
    gaps calls it once per leaf, on as many terms as there are gaps."""

    def __init__(self):
        super().__init__("numpy")
        self.exp_terms = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.exp_terms += np.size(x)
        return np.exp(x, *args, **kwargs)


def _mean_evaluations(monkeypatch, gamma_bar, gaps, tol=gammas.BISECTION_TOL):
    counting = _CountingNumpy()
    with monkeypatch.context() as patch:
        patch.setattr(gammas, "np", counting)
        gamma = gamma_for_mean_bound(gamma_bar, gaps, tol=tol)
    assert gamma == reference_gamma_for_mean_bound(gamma_bar, gaps, tol=tol)
    return counting.exp_terms / np.size(gaps)


def test_bahadur_inversion_takes_few_mean_evaluations(monkeypatch):
    # the 400,000 frozen draws of a bahadur call, inverted at its tolerance;
    # the bisection alone took 43 passes
    dgp = DgpSpec(sampler="paired-normal", params={"effect": 0.5}, phi="wilcoxon",
                  mc_draws=400_000, seed=3)
    gaps = _population_components(dgp, ())[0]
    for gamma_bar in (1.05, 1.5, 2.6, 8.0):
        assert _mean_evaluations(monkeypatch, gamma_bar, gaps, tol=1e-12) <= 14


def test_schedule_inversion_takes_few_mean_evaluations(monkeypatch):
    gaps = np.random.default_rng(15).uniform(0.25, 2.0, 15)
    for gamma_bar in (1.25, 1.5, 2.0):
        assert _mean_evaluations(monkeypatch, gamma_bar, gaps) <= 14
