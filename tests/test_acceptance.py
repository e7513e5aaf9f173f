"""End-to-end statistical guarantees the package is accepted against.

Each test pins one externally checkable property of the whole pipeline —
agreement with exact enumeration, classical closed forms, brute-force
optimization oracles, conservative coverage, byte-level determinism — with
explicit tolerances and fixed seeds.  Unit-level behaviour lives in the
per-module test files; this file is the contract.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from dosesens import tails
from dosesens.asymptotics import bahadur_slope, design_sensitivity, slope_from_components
from dosesens.dgps import DgpSpec
from dosesens.gammas import gamma_for_mean_bound, schedule_from_gamma_bar_gaps
from dosesens.pairs import sample_from_arrays, write_csv
from dosesens.scores import ScoreSpec, parse_phi_expression, score, score_from_arrays
from dosesens.sharp import confidence_region, worst_case_pvalue
from dosesens.simulate import empirical_slope, estimate_power, sharp_coverage, weak_coverage
from dosesens.weaknull import SolverConfig, WeakNullProblem, bounding_tail, variance_bound, worst_case_zscore

from conftest import random_sample
from oracles import brute_force_weaknull, exact_randomization_pvalue


# --------------------------------------------------- 1. exact enumeration --


def test_monte_carlo_and_normal_match_exact_enumeration_at_no_bias():
    """At no bias the worst-case p is the plain randomization p-value.

    The reference is the 2^I sign-flip enumeration, a different code path
    from the success-probability convolution used by ``method='exact'``.
    Square-root rank scores keep the support off a coarse lattice, which is
    what the 0.02 normal-approximation budget assumes.
    """
    start = time.monotonic()
    rng = np.random.default_rng(7)
    spec = ScoreSpec(kind="general", phi=parse_phi_expression("sqrt(r_y)"))
    for k in range(50):
        n = int(rng.integers(11, 13))
        sample = random_sample(rng, n, effect=0.3)
        scored = score(sample, spec)
        schedule = schedule_from_gamma_bar_gaps(1.0, sample.dose_diff())

        reference = exact_randomization_pvalue(scored)
        exact = worst_case_pvalue(scored, schedule, method="exact")
        mc = worst_case_pvalue(scored, schedule, method="mc", reps=100_000, seed=1000 + k)
        normal = worst_case_pvalue(scored, schedule, method="normal")

        assert abs(exact.p_one_sided_greater - reference) <= 1e-12
        # the plug-in standard error degenerates when the estimate hits 0 or
        # 1, so fall back on the binomial error at the true p
        se = max(mc.mc_std_err, math.sqrt(reference * (1.0 - reference) / 100_000))
        assert abs(mc.p_one_sided_greater - reference) <= 3.0 * se
        assert abs(normal.p_one_sided_greater - reference) <= 0.02
    assert time.monotonic() - start < 60.0


# ------------------------------------------------ 2. calibration inverse --


def test_bias_calibration_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 61))
        gaps = rng.uniform(0.05, 3.0, n)
        gamma = float(rng.uniform(0.01, 4.0))
        mean_bound = float(np.exp(gamma * gaps).mean())
        recovered = gamma_for_mean_bound(mean_bound, gaps, tol=1e-12)
        assert abs(recovered - gamma) <= 1e-8 * gamma


# ----------------------------------------------------- 3. monotonicity   --


def test_pvalues_monotone_and_intervals_nested_in_bias():
    start = time.monotonic()
    rng = np.random.default_rng(23)
    levels = (1.0, 1.25, 1.5, 2.0, 3.0)
    spec = ScoreSpec(kind="wilcoxon")
    for _ in range(20):
        n = int(rng.integers(8, 21))
        sample = random_sample(rng, n, effect=0.4)
        scored = score(sample, spec)
        previous = -1.0
        for level in levels:
            schedule = schedule_from_gamma_bar_gaps(level, sample.dose_diff())
            p = worst_case_pvalue(scored, schedule, method="exact").p_one_sided_greater
            assert p >= previous - 1e-12
            previous = p

    for trial in range(5):
        sample = random_sample(rng, 60, effect=0.8)
        intervals = []
        for level in (1.0, 1.5, 2.0):
            region = confidence_region(sample, spec, gamma_bar=level, method="normal")
            assert region.interval is not None
            intervals.append(region.interval)
        for (lo_in, hi_in), (lo_out, hi_out) in zip(intervals, intervals[1:]):
            assert lo_out <= lo_in + 1e-9
            assert hi_out >= hi_in - 1e-9
    assert time.monotonic() - start < 60.0


# ------------------------------------------- 4. classic binomial bounds  --


def binomial_upper_tail(n, k, p):
    return float(sum(Fraction(math.comb(n, j)) * Fraction(p) ** j
                     * (1 - Fraction(p)) ** (n - j) for j in range(k, n + 1)))


def test_equal_gaps_reduce_to_classic_binomial_bounds():
    """Constant dose gaps with sign scores reproduce the binary-treatment
    analysis: the bounding count is Binomial(I, Gamma/(1+Gamma))."""
    rng = np.random.default_rng(31)
    spec = ScoreSpec(kind="mcnemar")
    for n in (5, 12, 20):
        # bitwise-identical doses across pairs so the gap, and with it the
        # calibrated per-pair bound, is exactly constant
        z_lo = np.full(n, 1.0)
        z_hi = np.full(n, 1.75)
        diffs = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
        y_hi = rng.normal(0.0, 1.0, n)
        sample = sample_from_arrays(z_hi, z_lo, y_hi, y_hi - diffs)
        scored = score(sample, spec)
        t = int(round(scored.t_obs))
        assert t == int(np.sum(diffs > 0))
        for level in (1.0, 1.5, 2.0, 4.0):
            schedule = schedule_from_gamma_bar_gaps(level, sample.dose_diff())
            gamma = schedule.gamma_i[0]
            assert np.all(schedule.gamma_i == gamma)
            assert abs(gamma - level) <= 1e-8
            report = worst_case_pvalue(scored, schedule, method="exact")
            p_hi = gamma / (1.0 + gamma)
            assert abs(report.p_one_sided_greater - binomial_upper_tail(n, t, p_hi)) <= 1e-12
            # lower bounding side: successes as rare as the bounds allow
            p_lo = 1.0 / (1.0 + gamma)
            closed_less = 1.0 - binomial_upper_tail(n, t + 1, p_lo)
            assert abs(report.p_one_sided_less - closed_less) <= 1e-12


# ------------------------------------------------ 5. power transition    --


def favourable_dgp(phi):
    return DgpSpec(sampler="paired-normal", params={"effect": 0.5},
                   phi=phi, mc_draws=400_000, seed=71)


@pytest.mark.parametrize("phi", ["wilcoxon", "double-rank"])
def test_power_transitions_at_design_sensitivity(phi):
    start = time.monotonic()
    dgp = favourable_dgp(phi)
    result = design_sensitivity(dgp)
    assert not result.null_case
    star = result.gamma_bar_star
    assert star > 1.0 / 0.9  # otherwise the sub-critical point is ill-posed

    spec = ScoreSpec(kind=phi)
    below = estimate_power(dgp, n_pairs=8000, gamma_bar=0.9 * star, spec=spec,
                           alpha=0.05, reps=500, seed=501, method="normal")
    above = estimate_power(dgp, n_pairs=8000, gamma_bar=1.1 * star, spec=spec,
                           alpha=0.05, reps=500, seed=501, method="normal")
    assert below.power > 0.9
    assert above.power < 0.1
    assert time.monotonic() - start < 1800.0


# ------------------------------------------------ 6. evidence decay rate --


def constant_score_slope(theta):
    return 2.0 * (theta * math.log(theta) + (1.0 - theta) * math.log(1.0 - theta)
                  + math.log(2.0))


def test_decay_rate_closed_form_and_empirical_agreement():
    # constant scores with fair-coin bounds collapse to a binomial problem
    # whose best exponential rate is known in closed form
    for theta in (0.6, 0.75, 0.9):
        t_tilde, _, slope = slope_from_components(theta, [1.0], [0.5])
        assert abs(slope - constant_score_slope(theta)) <= 1e-4
        assert t_tilde > 0.0

    # a finite-sample run should decay at roughly that rate: the observed
    # -log(p)/I estimates half the slope by construction
    theta = 0.75
    dgp = DgpSpec(sampler="fixed-concordance", params={"theta": theta},
                  phi="mcnemar", mc_draws=200_000, seed=9)
    est = empirical_slope(dgp, n_pairs=2000, gamma_bar=1.0,
                          spec=ScoreSpec(kind="mcnemar"), reps=200, seed=33)
    slope = constant_score_slope(theta)
    assert abs(2.0 * est.rate - slope) <= 0.10 * slope


def test_decay_rate_vanishes_exactly_at_design_sensitivity():
    dgp = favourable_dgp("wilcoxon")
    star = design_sensitivity(dgp).gamma_bar_star
    at_star = bahadur_slope(dgp, star)
    assert at_star.slope == 0.0
    assert at_star.t_tilde == 0.0
    inside = bahadur_slope(dgp, 1.0 + 0.5 * (star - 1.0))
    assert inside.slope > 0.0


# ---------------------------------------- 7. optimization vs brute force --


def test_branch_and_bound_matches_brute_force_enumeration():
    start = time.monotonic()
    rng = np.random.default_rng(47)
    sizes = [2 + k % 9 for k in range(42)]  # 2..10 repeated
    for k, n in enumerate(sizes):
        tau1 = rng.normal(0.4, 1.0, n)
        gamma_i = rng.uniform(1.0, 3.0, n)
        problem = WeakNullProblem(lambda0=0.0, tau1=tau1, gamma_i=gamma_i)
        objective = "printed" if k % 2 == 0 else "expectation"
        sol = worst_case_zscore(problem, SolverConfig(objective=objective))
        ref, _, _ = brute_force_weaknull(problem, objective=objective,
                                         starts=2, seed=k)
        assert sol.status == "optimal"
        assert ref is not None
        assert abs(sol.optimum - ref) <= 1e-6
        assert sol.bound <= sol.optimum + 1e-9

    # no-bias instances: the equality constraint pins the numerator, so the
    # studentized minimum is available in closed form and must be hit exactly
    for k in range(8):
        n = 3 + k
        tau1 = rng.normal(0.4, 1.0, n)
        problem = WeakNullProblem(lambda0=0.0, tau1=tau1, gamma_i=np.ones(n))
        sol = worst_case_zscore(problem, SolverConfig(objective="printed"))
        assert sol.optimum == 0.0
        ref, _, _ = brute_force_weaknull(problem, objective="printed",
                                         starts=2, seed=100 + k)
        assert abs(ref) <= 1e-6
    assert time.monotonic() - start < 600.0


# ------------------------------------------------ 8. bounding dominance  --


def test_bounding_constructions_dominate_any_within_bounds_assignment():
    """The dispersion proxy over-estimates the variance of the observed
    total, and the two-point bounding variable stochastically dominates the
    observed average, whatever within-bounds probabilities generated it."""
    rng = np.random.default_rng(88)
    reps = 4000
    for cfg in range(20):
        n = int(rng.integers(4, 11))
        tau1 = rng.normal(0.5, 1.0, n)
        tau2 = tau1 - rng.normal(0.0, 1.0, n)
        gamma_i = rng.uniform(1.0, 3.0, n)
        pi = rng.uniform(1.0 / (1.0 + gamma_i), gamma_i / (1.0 + gamma_i))

        draws = np.where(rng.random((reps, n)) < pi, tau1, tau2)
        vbar = np.einsum("j,ij->i", 2.0 * gamma_i / (1.0 + gamma_i), draws**2)
        assert abs(vbar[0] - variance_bound(draws[0], gamma_i)) <= 1e-12
        totals = draws.sum(axis=1)
        se_mean = vbar.std(ddof=1) / math.sqrt(reps)
        var_total = totals.var(ddof=1)
        se_var = var_total * math.sqrt(2.0 / (reps - 1))
        assert vbar.mean() >= var_total - 3.0 * (se_mean + se_var)

        means = draws.mean(axis=1)
        lo = np.minimum(tau1, tau2).mean()
        hi = np.maximum(tau1, tau2).mean()
        for t in np.linspace(lo, hi, 7):
            slack = tails.comparison_slack(float(t))
            p_obs = float(np.mean(means >= t - slack))
            se_obs = math.sqrt(p_obs * (1.0 - p_obs) / reps)
            p_bound, se_bound = bounding_tail(tau1, tau2, gamma_i, float(t),
                                              reps=100_000, seed=55 + cfg)
            assert p_obs <= p_bound + 3.0 * (se_obs + se_bound) + 1e-12


# ------------------------------------------------ 9. interval coverage   --


def test_interval_coverage_without_bias():
    sharp = sharp_coverage(0.7, n_pairs=20, reps=1000, seed=202, method="exact")
    assert sharp.reps == 1000
    assert sharp.coverage >= 0.935

    weak = weak_coverage(1.5, n_pairs=50, reps=1000, seed=404, slope_sd=0.0)
    assert weak.reps == 1000
    assert weak.coverage >= 0.935


# ------------------------------------------------ 10. byte determinism   --


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "dosesens.cli", *args],
                          capture_output=True, text=True)


def test_every_stochastic_command_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    csv_path = tmp_path / "pairs.csv"
    write_csv(random_sample(rng, 30, effect=0.5), csv_path)
    # branch-and-bound cost grows exponentially in free pairs, so the
    # weak-null determinism run gets its own small dataset
    small_path = tmp_path / "small.csv"
    write_csv(random_sample(rng, 12, effect=0.5), small_path)

    invocations = [
        ("analyze", str(csv_path), "--gamma-bar", "1.4", "--method", "mc",
         "--reps", "2000", "--seed", "17"),
        ("ci", str(csv_path), "--gamma-bar", "1.2", "--beta-grid", "0:1:0.25",
         "--method", "mc", "--reps", "2000", "--seed", "18"),
        ("design-sens", "--dgp", "paired-normal", "--param", "effect=0.5",
         "--draws", "20000", "--seed", "19"),
        ("bahadur", "--dgp", "paired-normal", "--param", "effect=0.5",
         "--draws", "20000", "--gamma-bar", "1.1", "--seed", "20"),
        ("power-sim", "--dgp", "paired-normal", "--param", "effect=0.5",
         "--n-pairs", "40", "--gamma-bar-grid", "1.0,1.5", "--reps", "200",
         "--seed", "21", "--workers", "2"),
        ("weak-null", str(small_path), "--gamma-bar", "1.3", "--lambda0", "0.4"),
    ]
    for args in invocations:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["command"] == args[0]
