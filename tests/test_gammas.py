"""Per-pair bias bounds: construction, the mean-bound inversion, JSON."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dosesens.errors import ConfigError, DataError
from dosesens.gammas import (
    GammaSchedule,
    build_schedule,
    gamma_for_mean_bound,
    schedule_from_bounds,
    schedule_from_gamma,
    schedule_from_gamma_bar,
    schedule_from_gamma_bar_gaps,
)
from dosesens.pairs import DoseLink

from oracles import assignment_bounds, reference_gamma_for_mean_bound


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
