"""Design sensitivity and Bahadur slopes against scalar-equation oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit, logit

from dosesens import asymptotics
from dosesens.asymptotics import (
    bahadur_slope,
    design_sensitivity,
    slope_from_components,
)
from dosesens.dgps import DgpSpec
from dosesens.errors import ConfigError, DataError, SolverError

from oracles import reference_design_sensitivity, reference_slope_root


def concordance_rate(dgp):
    """Empirical concordance of the DGP's frozen population draw."""
    z1, z2, y1, y2 = dgp.draw()
    return float(np.mean((z1 - z2) * (y1 - y2) > 0))


def binary_slope(theta):
    """Closed-form slope for unit scores at even odds."""
    return 2.0 * (theta * math.log(theta) + (1 - theta) * math.log(1 - theta) + math.log(2.0))


def test_expit_helper_matches_scipy_on_the_arguments_it_gets():
    # arguments are gamma * gap with gamma, gap >= 0, up to the exp() guard
    x = np.concatenate([np.linspace(0.0, 700.0, 200_001),
                        np.random.default_rng(3).uniform(0.0, 40.0, 200_000)])
    want = expit(x)
    assert np.all(np.abs(asymptotics._expit(x) - want) <= 5e-16 * want)


def test_constant_gap_reduces_to_scalar_equation():
    # with every gap equal to c and unit scores the defining equation is
    # expit(gamma * c) = concordance rate, so gamma_bar_star is exactly
    # the concordance odds
    dgp = DgpSpec(
        sampler="constant-gap",
        params={"gap": 1.5, "effect": 0.6},
        phi="mcnemar",
        mc_draws=40_000,
        seed=2,
    )
    theta = concordance_rate(dgp)
    result = design_sensitivity(dgp, tol=1e-9)
    assert result.gamma_star == pytest.approx(logit(theta) / 1.5, rel=1e-6)
    assert result.gamma_bar_star == pytest.approx(theta / (1 - theta), rel=1e-6)
    assert not result.null_case


def test_constant_gap_weighted_scalar_equation():
    dgp = DgpSpec(
        sampler="constant-gap",
        params={"gap": 0.8, "effect": 0.7},
        phi="wilcoxon",
        mc_draws=40_000,
        seed=3,
    )
    z1, z2, y1, y2 = dgp.draw()
    from scipy.stats import rankdata

    v = rankdata(np.abs(y1 - y2), method="max") / y1.size
    concordant = (z1 - z2) * (y1 - y2) > 0
    target = float(np.mean(v * concordant)) / float(np.mean(v))
    result = design_sensitivity(dgp, tol=1e-9)
    assert expit(result.gamma_star * 0.8) == pytest.approx(target, rel=1e-7)


def test_null_dgp_flagged():
    dgp = DgpSpec(sampler="null", phi="wilcoxon", mc_draws=20_000, seed=4)
    result = design_sensitivity(dgp)
    assert result.null_case
    assert result.gamma_star == 0.0
    assert result.gamma_bar_star == 1.0


def test_design_sensitivity_is_deterministic_per_spec():
    dgp = DgpSpec(
        sampler="paired-normal", params={"effect": 0.5}, mc_draws=20_000, seed=9
    )
    a = design_sensitivity(dgp)
    b = design_sensitivity(dgp)
    assert a == b
    c = design_sensitivity(dgp, stream=(1,))
    assert c.gamma_bar_star != a.gamma_bar_star
    spread = 4.0 * (a.mc_std_err + c.mc_std_err)
    assert abs(c.gamma_bar_star - a.gamma_bar_star) < spread


def test_residual_within_tolerance():
    dgp = DgpSpec(
        sampler="paired-normal", params={"effect": 0.4}, mc_draws=20_000, seed=11
    )
    result = design_sensitivity(dgp, tol=1e-8)
    assert abs(result.lhs_rhs_residual) <= 1e-8


# ---------------------------------------------------------------- slopes --


def test_slope_matches_binary_closed_form():
    dgp = DgpSpec(
        sampler="fixed-concordance",
        params={"theta": 0.7},
        phi="mcnemar",
        mc_draws=50_000,
        seed=13,
    )
    theta_hat = concordance_rate(dgp)
    result = bahadur_slope(dgp, gamma_bar=1.0, tol=1e-10)
    assert result.mu == pytest.approx(theta_hat, abs=1e-12)
    assert result.slope == pytest.approx(binary_slope(theta_hat), rel=1e-8)
    assert result.t_tilde == pytest.approx(logit(theta_hat), rel=1e-8)


def test_slope_zero_exactly_at_design_sensitivity():
    dgp = DgpSpec(
        sampler="paired-normal", params={"effect": 0.5}, mc_draws=20_000, seed=17
    )
    star = design_sensitivity(dgp, tol=1e-9)
    at_star = bahadur_slope(dgp, gamma_bar=star.gamma_bar_star)
    assert at_star.slope == 0.0
    assert at_star.t_tilde == 0.0
    below = bahadur_slope(dgp, gamma_bar=1.0 + 0.5 * (star.gamma_bar_star - 1.0))
    assert below.slope > 0.0


def test_slope_decreases_with_bias():
    dgp = DgpSpec(
        sampler="paired-normal", params={"effect": 0.6}, mc_draws=20_000, seed=19
    )
    star = design_sensitivity(dgp).gamma_bar_star
    grid = [1.0 + f * (star - 1.0) for f in (0.0, 0.3, 0.6, 0.9)]
    slopes = [bahadur_slope(dgp, gamma_bar=g).slope for g in grid]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))


def test_slope_undefined_beyond_design_sensitivity():
    dgp = DgpSpec(
        sampler="paired-normal", params={"effect": 0.3}, mc_draws=20_000, seed=23
    )
    star = design_sensitivity(dgp)
    with pytest.raises(SolverError, match="exceeds the design sensitivity"):
        bahadur_slope(dgp, gamma_bar=star.gamma_bar_star * 1.3)


def test_slope_component_validation():
    with pytest.raises(DataError):
        slope_from_components(0.5, np.array([1.0]), np.array([1.0]))
    with pytest.raises(DataError):
        slope_from_components(0.5, np.array([-1.0]), np.array([0.5]))
    with pytest.raises(ConfigError):
        slope_from_components(0.5, np.array([1.0, 1.0]), np.array([0.5]))
    with pytest.raises(ConfigError):
        bahadur_slope(DgpSpec(mc_draws=10_000), gamma_bar=0.5)


def test_slope_increases_with_signal():
    phi = np.ones(1)
    p = np.array([0.5])
    slopes = [slope_from_components(mu, phi, p)[2] for mu in (0.55, 0.7, 0.85)]
    assert all(a < b for a, b in zip(slopes, slopes[1:]))


def test_single_atom_slope_closed_form():
    for theta in (0.6, 0.75, 0.9):
        t, omega0, slope = slope_from_components(
            theta, np.ones(1), np.array([0.5]), tol=1e-12
        )
        assert slope == pytest.approx(binary_slope(theta), abs=1e-10)
        assert t == pytest.approx(logit(theta), abs=1e-9)


# ------------------------------------------ Newton solves against bisection --

_SAMPLERS = {
    "paired-normal": {"effect": 0.5},
    "null": {},
    "fixed-concordance": {"theta": 0.7},
    "constant-gap": {"effect": 0.5, "gap": 1.0},
}


def assert_same_root(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def assert_matches_reference(dgp, tol=1e-6):
    got = design_sensitivity(dgp, tol=tol)
    want = reference_design_sensitivity(dgp, tol=tol)
    if want.null_case:
        assert got == want
        return got
    assert not got.null_case
    assert got.non_monotone_lhs == want.non_monotone_lhs
    assert_same_root(got.gamma_star, want.gamma_star)
    # d log(gamma_bar_star) / d gamma_star is at most the largest gap
    gaps, _, phi = asymptotics._population_components(dgp)
    rel = 2e-12 * max(1.0, want.gamma_star) * max(1.0, float(gaps.max()))
    assert got.gamma_bar_star == pytest.approx(want.gamma_bar_star, rel=rel)
    assert got.mc_std_err == pytest.approx(want.mc_std_err, rel=rel)
    assert abs(got.lhs_rhs_residual) <= tol * float(phi.mean())
    return got


@pytest.mark.parametrize("phi", ["mcnemar", "wilcoxon", "double-rank"])
@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
def test_newton_roots_match_bisection(sampler, phi):
    dgp = DgpSpec(sampler=sampler, params=_SAMPLERS[sampler], phi=phi,
                  mc_draws=20_000, seed=41)
    star = assert_matches_reference(dgp)
    assert star.null_case == (sampler == "null")
    if star.null_case:
        return
    # slope equation on the same draws, below and at the design sensitivity
    gaps, concordant, phi_values = asymptotics._population_components(dgp)
    mu = float((phi_values * concordant).mean())
    for frac in (0.0, 0.3, 0.9):
        p = np.clip(expit(frac * star.gamma_star * gaps), None, 1.0 - 1e-16)
        got = slope_from_components(mu, phi_values, p)
        want = reference_slope_root(mu, phi_values, p)
        assert_same_root(got[0], want[0])
        assert got[1] == pytest.approx(want[1], rel=1e-10, abs=1e-14)
        assert got[2] == pytest.approx(want[2], rel=1e-10, abs=1e-14)
    p = np.clip(expit(star.gamma_star * gaps), None, 1.0 - 1e-16)
    assert slope_from_components(mu, phi_values, p) == reference_slope_root(mu, phi_values, p)


def test_newton_root_after_several_bracket_doublings():
    # gap 0.05 and effect 20: the root is near 23, past five doublings of 1
    dgp = DgpSpec(sampler="constant-gap", params={"gap": 0.05, "effect": 20.0},
                  phi="mcnemar", mc_draws=20_000, seed=43)
    star = assert_matches_reference(dgp, tol=1e-9)
    assert star.gamma_star > 16.0


def _guard_sampler(theta):
    """99 % of pairs 0.001 apart in dose and 1 % a whole unit apart, so the
    exp() guard caps gamma at 700 while most logistic terms stay near 1/2;
    outcomes agree with the dose order with probability ``theta``."""

    def sample(rng, n):
        z1 = rng.uniform(0.0, 1.0, n)
        gap = np.where(rng.random(n) < 0.99, 1e-3, 1.0)
        z2 = z1 + np.where(rng.random(n) < 0.5, -gap, gap)
        agree = np.where(rng.random(n) < theta, 1.0, -1.0)
        diff = np.sign(z1 - z2) * agree * np.abs(rng.normal(0.0, 1.0, n))
        mid = rng.normal(0.0, 1.0, n)
        return z1, z2, mid + 0.5 * diff, mid - 0.5 * diff

    return sample


def test_newton_root_near_the_exp_guard():
    dgp = DgpSpec(sampler=_guard_sampler(0.66), phi="mcnemar", mc_draws=20_000, seed=47)
    star = assert_matches_reference(dgp)
    assert 0.8 * 700.0 < star.gamma_star < 700.0
    # exp(gamma_star * gap) is near e^650 here, so squaring it overflows
    assert math.isfinite(star.mc_std_err) and star.mc_std_err > 0.0
    beyond = DgpSpec(sampler=_guard_sampler(0.72), phi="mcnemar", mc_draws=20_000, seed=47)
    for solve in (design_sensitivity, reference_design_sensitivity):
        with pytest.raises(SolverError, match="exp\\(\\) guard"):
            solve(beyond)


@pytest.mark.parametrize("shortfall", [1e-3, 1e-6, 1e-9, 1e-12])
def test_slope_root_near_saturation_matches_bisection(shortfall):
    rng = np.random.default_rng(53)
    atoms = [
        (np.ones(1), np.array([0.5])),
        (np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.6, 0.7])),
        (rng.uniform(0.0, 1.0, 1000), rng.uniform(0.5, 0.995, 1000)),
    ]
    for phi, p in atoms:
        mu = float(phi.mean()) * (1.0 - shortfall)
        got = slope_from_components(mu, phi, p)
        want = reference_slope_root(mu, phi, p)
        assert_same_root(got[0], want[0])
        assert got[2] == pytest.approx(want[2], rel=1e-9)


def test_slope_null_case_is_zero_for_both_solvers():
    phi = np.array([1.0, 2.0, 3.0])
    p = np.array([0.6, 0.7, 0.8])
    mu = float((phi * p).mean())
    assert slope_from_components(mu, phi, p) == reference_slope_root(mu, phi, p) == (0.0, 0.0, 0.0)


# ------------------------------------------------ work done per solve, counted --


@pytest.fixture
def counted(monkeypatch):
    """Count the terms expit is applied to and the calls of rank.

    A pass works a leaf at a time, so it calls expit once per leaf; the
    terms add up to the draw's size per pass.
    """
    counts = {"expit": 0, "rank": 0}
    expit_pass = asymptotics._expit

    def counted_expit(x):
        counts["expit"] += x.size
        return expit_pass(x)

    rank = asymptotics.rank

    def counted_rank(*args, **kwargs):
        counts["rank"] += 1
        return rank(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "_expit", counted_expit)
    monkeypatch.setattr(asymptotics, "rank", counted_rank)
    return counts


@pytest.mark.parametrize(
    "sampler,params,phi",
    [
        ("paired-normal", {"effect": 0.5}, "wilcoxon"),
        ("constant-gap", {"effect": 0.5, "gap": 1.0}, "mcnemar"),
        ("fixed-concordance", {"theta": 0.7}, "double-rank"),
    ],
)
def test_design_sensitivity_passes_are_few(counted, sampler, params, phi):
    # bisection made 44-45 passes on each of these
    dgp = DgpSpec(sampler=sampler, params=params, phi=phi, mc_draws=400_000, seed=59)
    star = design_sensitivity(dgp)
    assert not star.null_case
    assert counted["expit"] <= 12 * dgp.mc_draws


@pytest.mark.parametrize(
    "phi,ranks", [("mcnemar", 0), ("wilcoxon", 1), ("double-rank", 2), ("r_z * r_y", 2)]
)
def test_only_the_ranks_phi_reads_are_computed(counted, phi, ranks):
    dgp = DgpSpec(sampler="paired-normal", params={"effect": 0.5}, phi=phi,
                  mc_draws=10_000, seed=61)
    _, _, phi_values = asymptotics._population_components(dgp)
    assert counted["rank"] == ranks
    # the same scores as from both ranks
    z1, z2, y1, y2 = dgp.draw()
    u = asymptotics.rank(np.abs(z1 - z2), ties="max") / z1.size
    v = asymptotics.rank(np.abs(y1 - y2), ties="max") / z1.size
    assert np.array_equal(phi_values, dgp.phi_fn()(u, v))
