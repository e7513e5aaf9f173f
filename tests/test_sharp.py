"""Worst-case tail bounds for the sharp null and test-inversion regions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dosesens.errors import ConfigError, DataError
from dosesens.gammas import schedule_from_bounds, schedule_from_gamma_bar_gaps
from dosesens.pairs import DoseLink, sample_from_arrays
from dosesens.scores import ScoreSpec, score, score_from_arrays
from dosesens.sharp import confidence_region, normal_p_greater, worst_case_pvalue

from conftest import random_sample


def two_pair_scored():
    """Two concordant pairs with unit scores; bounds (3, 3)."""
    scored = score_from_arrays(
        [0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [1.0, 1.0], ScoreSpec(kind="mcnemar")
    )
    assert scored.t_obs == 2.0
    return scored


def test_two_pair_closed_form():
    # each pair is concordant with odds bound 3. the greater side uses
    # success chance 3/4 per pair: P(T+ >= 2) = 9/16.  the less side asks
    # how small T can look when successes are as rare as allowed (1/4);
    # t = 2 is the top of the support, so P(T- <= 2) = 1.
    scored = two_pair_scored()
    schedule = schedule_from_bounds([3.0, 3.0])
    report = worst_case_pvalue(scored, schedule, method="exact")
    assert report.p_one_sided_greater == pytest.approx(9.0 / 16.0, abs=1e-12)
    assert report.p_one_sided_less == pytest.approx(1.0, abs=1e-12)
    assert report.p_two_sided == pytest.approx(1.0, abs=1e-12)


def test_two_pair_less_side_closed_form():
    # flip both outcomes: t = 0, the bottom of the support.  now the
    # greater side is certain and the less side is (1 - 1/4)^2 = 9/16.
    scored = score_from_arrays(
        [0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [-1.0, -1.0], ScoreSpec(kind="mcnemar")
    )
    assert scored.t_obs == 0.0
    schedule = schedule_from_bounds([3.0, 3.0])
    report = worst_case_pvalue(scored, schedule, method="exact")
    assert report.p_one_sided_greater == pytest.approx(1.0, abs=1e-12)
    assert report.p_one_sided_less == pytest.approx(9.0 / 16.0, abs=1e-12)


def test_no_bias_recovers_exact_randomization(three_pairs_scored):
    schedule = schedule_from_bounds([1.0, 1.0, 1.0])
    report = worst_case_pvalue(three_pairs_scored, schedule, method="exact")
    assert report.p_one_sided_greater == pytest.approx(0.125, abs=1e-12)


def test_monte_carlo_agrees_with_exact():
    rng = np.random.default_rng(21)
    for trial in range(5):
        sample = random_sample(rng, 12, effect=0.4)
        scored = score(sample, ScoreSpec(kind="wilcoxon"))
        schedule = schedule_from_gamma_bar_gaps(1.5, sample.dose_diff())
        exact = worst_case_pvalue(scored, schedule, method="exact")
        mc = worst_case_pvalue(
            scored, schedule, method="monte-carlo", reps=40_000, seed=trial
        )
        se = max(mc.mc_std_err, 1e-6)
        assert abs(mc.p_one_sided_greater - exact.p_one_sided_greater) <= 4 * se


def test_normal_approximation_close_at_moderate_size():
    rng = np.random.default_rng(3)
    sample = random_sample(rng, 150, effect=0.3)
    scored = score(sample, ScoreSpec(kind="wilcoxon"))
    schedule = schedule_from_gamma_bar_gaps(1.4, sample.dose_diff())
    normal = worst_case_pvalue(scored, schedule, method="normal")
    mc = worst_case_pvalue(scored, schedule, method="monte-carlo", reps=200_000, seed=9)
    assert abs(normal.p_one_sided_greater - mc.p_one_sided_greater) < 0.02


def test_mc_reproducible_and_seed_required(three_pairs_scored):
    schedule = schedule_from_bounds([2.0, 2.0, 2.0])
    a = worst_case_pvalue(three_pairs_scored, schedule, method="mc", seed=5)
    b = worst_case_pvalue(three_pairs_scored, schedule, method="mc", seed=5)
    assert a.p_one_sided_greater == b.p_one_sided_greater
    assert a.method == "monte-carlo"
    with pytest.raises(ConfigError):
        worst_case_pvalue(three_pairs_scored, schedule, method="mc")
    with pytest.raises(ConfigError):
        worst_case_pvalue(three_pairs_scored, schedule, method="mc", seed=5, reps=100)


def test_auto_method_resolution(three_pairs_scored):
    schedule = schedule_from_bounds([2.0, 2.0, 2.0])
    assert worst_case_pvalue(three_pairs_scored, schedule).method == "exact"
    rng = np.random.default_rng(1)
    mid = random_sample(rng, 40)
    scored = score(mid, ScoreSpec(kind="mcnemar"))
    sched = schedule_from_bounds(np.full(40, 1.5))
    assert (
        worst_case_pvalue(scored, sched, seed=0).method == "monte-carlo"
    )
    big = random_sample(rng, 120)
    scored = score(big, ScoreSpec(kind="mcnemar"))
    sched = schedule_from_bounds(np.full(120, 1.5))
    assert worst_case_pvalue(scored, sched).method == "normal"


def test_greater_pvalue_nondecreasing_in_mean_bound():
    rng = np.random.default_rng(17)
    for _ in range(4):
        sample = random_sample(rng, 15, effect=0.5)
        scored = score(sample, ScoreSpec(kind="wilcoxon"))
        previous = -1.0
        for gamma_bar in (1.0, 1.25, 1.5, 2.0, 3.0):
            schedule = schedule_from_gamma_bar_gaps(gamma_bar, sample.dose_diff())
            p = worst_case_pvalue(scored, schedule, method="exact").p_one_sided_greater
            assert p >= previous - 1e-12
            previous = p


def test_reflection_identity():
    rng = np.random.default_rng(23)
    sample = random_sample(rng, 10, effect=0.2)
    spec = ScoreSpec(kind="wilcoxon")
    scored = score(sample, spec)
    flipped = score_from_arrays(
        sample.z_hi(), sample.z_lo(), -sample.y_of_hi(), -sample.y_of_lo(), spec
    )
    schedule = schedule_from_gamma_bar_gaps(1.7, sample.dose_diff())
    fwd = worst_case_pvalue(scored, schedule, method="exact")
    rev = worst_case_pvalue(flipped, schedule, method="exact")
    assert fwd.p_one_sided_less == pytest.approx(rev.p_one_sided_greater, abs=1e-12)
    assert fwd.p_two_sided == pytest.approx(
        min(1.0, 2.0 * min(fwd.p_one_sided_greater, fwd.p_one_sided_less)), abs=1e-15
    )


def test_degenerate_all_zero_scores():
    from dosesens.scores import parse_phi_expression

    scored = score_from_arrays(
        [0.0, 0.0],
        [1.0, 2.0],
        [0.0, 0.0],
        [1.0, 1.0],
        ScoreSpec(kind="general", phi=parse_phi_expression("r_z * 0")),
    )
    schedule = schedule_from_bounds([2.0, 2.0])
    report = worst_case_pvalue(scored, schedule, method="exact")
    assert report.degenerate
    assert report.p_one_sided_greater == 1.0
    assert report.p_two_sided == 1.0


def test_all_zero_outcome_differences_give_p_one():
    scored = score_from_arrays(
        [0.0, 0.0], [1.0, 2.0], [1.0, 1.0], [1.0, 1.0], ScoreSpec(kind="wilcoxon")
    )
    schedule = schedule_from_bounds([2.0, 2.0])
    report = worst_case_pvalue(scored, schedule, method="exact")
    assert report.t_obs == 0.0
    assert report.p_one_sided_greater == pytest.approx(1.0)


def test_pair_count_mismatch_rejected(three_pairs_scored):
    from dosesens.errors import DataError

    schedule = schedule_from_bounds([2.0, 2.0])
    with pytest.raises(DataError):
        worst_case_pvalue(three_pairs_scored, schedule)


# ------------------------------------------------------ confidence region --


def test_interval_brackets_truth_and_grid_agrees():
    rng = np.random.default_rng(31)
    beta = 0.8
    z1 = rng.uniform(0.0, 2.0, 80)
    z2 = z1 + rng.uniform(0.5, 1.5, 80)
    y1 = beta * z1 + rng.normal(0.0, 0.4, 80)
    y2 = beta * z2 + rng.normal(0.0, 0.4, 80)
    sample = sample_from_arrays(z1, z2, y1, y2)
    spec = ScoreSpec(kind="wilcoxon")

    auto = confidence_region(sample, spec, gamma_bar=1.0, method="normal")
    assert auto.interval is not None
    lo, hi = auto.interval
    assert lo < beta < hi
    assert auto.search == "bisect"

    grid = confidence_region(
        sample,
        spec,
        gamma_bar=1.0,
        method="normal",
        grid=np.arange(-0.5, 2.51, 0.05),
    )
    assert grid.interval is not None
    assert grid.interval[0] == pytest.approx(lo, abs=0.06)
    assert grid.interval[1] == pytest.approx(hi, abs=0.06)


def test_intervals_nest_as_bias_grows():
    rng = np.random.default_rng(37)
    sample = random_sample(rng, 60, effect=0.9, noise_sd=0.5)
    spec = ScoreSpec(kind="wilcoxon")
    widths = []
    for gamma_bar in (1.0, 1.5, 2.5):
        region = confidence_region(
            sample, spec, gamma_bar=gamma_bar, method="normal"
        )
        assert region.interval is not None
        widths.append(region.interval)
    for (lo_a, hi_a), (lo_b, hi_b) in zip(widths, widths[1:]):
        assert lo_b <= lo_a + 1e-9
        assert hi_b >= hi_a - 1e-9


def test_region_json_shape(three_pairs):
    region = confidence_region(
        three_pairs,
        ScoreSpec(kind="wilcoxon"),
        gamma_bar=1.0,
        method="exact",
        grid=[0.0, 1.0, 2.0],
    )
    blob = region.to_json_dict()
    assert blob["model"] == "constant"
    assert blob["alpha"] == 0.05
    assert len(blob["accepted"]) == 3
    assert blob["interval"] is None or len(blob["interval"]) == 2


def test_alpha_validation(three_pairs):
    with pytest.raises(ConfigError):
        confidence_region(three_pairs, ScoreSpec(), alpha=0.0, gamma_bar=1.0)


def test_multiparameter_model_needs_grid(three_pairs):
    with pytest.raises(ConfigError):
        confidence_region(
            three_pairs, ScoreSpec(), gamma_bar=1.0, model_kind="kink"
        )


def test_normal_p_greater_rows_equal_worst_case_pvalue_bit_for_bit():
    rng = np.random.default_rng(8)
    for spec in (ScoreSpec(kind="wilcoxon"), ScoreSpec(kind="dose-weighted-abs")):
        scored = score(random_sample(rng, 150, effect=0.3), spec)
        gaps = rng.uniform(0.25, 2.0, 150)
        schedules = [schedule_from_gamma_bar_gaps(g, gaps) for g in (1.0, 1.3, 2.5)]
        rows = normal_p_greater(scored, np.stack([s.p_plus for s in schedules]))
        for got, schedule in zip(rows, schedules):
            want = worst_case_pvalue(scored, schedule, method="normal")
            assert got == want.p_one_sided_greater


def test_normal_p_greater_rows_hold_the_errors_the_report_raises():
    scored = score_from_arrays([1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0],
                               ScoreSpec(kind="wilcoxon"))
    rows = normal_p_greater(scored, np.array([[0.5, 0.6], [0.5, 1.0]]))
    assert isinstance(rows[0], float)
    with pytest.raises(DataError) as err:
        worst_case_pvalue(scored, schedule_from_bounds([1.0, 1e17]), method="normal")
    assert type(rows[1]) is DataError and str(rows[1]) == str(err.value)
    zero = score_from_arrays([1.0], [0.0], [1.0], [0.0],
                             ScoreSpec(kind="general", phi=lambda r_z, r_y: 0.0 * r_y))
    assert normal_p_greater(zero, np.array([[0.5], [0.9]])) == [1.0, 1.0]
