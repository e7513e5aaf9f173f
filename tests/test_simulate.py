"""Power, slope-rate, and coverage simulations: determinism and calibration."""

import json

import numpy as np
import pytest

from dosesens.dgps import DgpSpec
from dosesens.errors import ConfigError
from dosesens.scores import ScoreSpec
from dosesens.simulate import (
    PowerCurve,
    PowerEstimate,
    empirical_slope,
    estimate_power,
    json_text,
    power_curve,
    sharp_coverage,
    weak_coverage,
    write_json,
    write_power_csv,
)

from oracles import empirical_crossing

WILCOXON = ScoreSpec(kind="wilcoxon")


def effect_dgp(effect=0.5, seed=0):
    return DgpSpec(
        sampler="paired-normal", params={"effect": effect}, mc_draws=10_000, seed=seed
    )


def test_size_controlled_under_null():
    est = estimate_power(
        DgpSpec(sampler="null", mc_draws=10_000),
        n_pairs=150,
        gamma_bar=1.0,
        spec=WILCOXON,
        reps=400,
        seed=3,
    )
    assert est.power <= 0.05 + 3.0 * max(est.std_err, 0.011)


def test_power_decreases_with_bias_allowance():
    curve = power_curve(
        effect_dgp(0.8),
        n_pairs=120,
        gamma_bar_grid=[1.0, 1.6, 2.4],
        spec=WILCOXON,
        reps=250,
        seed=5,
    )
    powers = list(curve.powers)
    assert powers[0] > powers[-1]
    assert all(0.0 <= p <= 1.0 for p in powers)


def test_power_is_deterministic_and_worker_invariant():
    kwargs = dict(
        n_pairs=80, gamma_bar=1.3, spec=WILCOXON, reps=224, seed=11
    )
    a = estimate_power(effect_dgp(0.6), **kwargs)
    b = estimate_power(effect_dgp(0.6), **kwargs)
    c = estimate_power(effect_dgp(0.6), workers=3, **kwargs)
    assert a.power == b.power == c.power
    assert a.rejections == c.rejections


def test_power_reps_floor_and_seed_required():
    with pytest.raises(ConfigError, match="200"):
        estimate_power(
            effect_dgp(), n_pairs=50, gamma_bar=1.0, spec=WILCOXON, reps=100, seed=1
        )
    with pytest.raises(ConfigError):
        estimate_power(
            effect_dgp(), n_pairs=50, gamma_bar=1.0, spec=WILCOXON, reps=300
        )


def test_crossing_interpolation_and_reasons():
    dgp = effect_dgp()

    def curve_from(powers):
        estimates = tuple(
            PowerEstimate(
                gamma_bar=g,
                n_pairs=10,
                alpha=0.05,
                reps=200,
                rejections=int(round(p * 200)),
                power=p,
                std_err=0.0,
                method="normal",
                score_kind="wilcoxon",
                seed=0,
            )
            for g, p in powers
        )
        return PowerCurve(estimates=estimates, dgp=dgp)

    value, reason = curve_from([(1.0, 0.9), (2.0, 0.1)]).crossing(0.5)
    assert reason == "crossed"
    assert value == pytest.approx(1.5)
    value, reason = curve_from([(1.0, 0.9), (2.0, 0.8)]).crossing(0.5)
    assert value is None and reason == "all-above"
    value, reason = curve_from([(1.0, 0.4), (2.0, 0.2)]).crossing(0.5)
    assert value is None and reason == "all-below"


def test_empirical_crossing_brackets_design_sensitivity():
    result = empirical_crossing(
        effect_dgp(0.9),
        WILCOXON,
        n_pairs_ladder=[150],
        gamma_bar_grid=[1.0, 2.0, 3.5],
        reps=200,
        seed=7,
    )
    entry = result[150]
    assert entry["reason"] in ("crossed", "all-above", "all-below")
    assert len(entry["curve"]["estimates"]) == 3


def test_empirical_slope_reproducible_and_positive():
    a = empirical_slope(
        effect_dgp(0.8), n_pairs=400, gamma_bar=1.0, spec=WILCOXON, reps=20, seed=13
    )
    b = empirical_slope(
        effect_dgp(0.8), n_pairs=400, gamma_bar=1.0, spec=WILCOXON, reps=20, seed=13,
        workers=2,
    )
    assert a.rate == b.rate
    assert a.rate > 0.0
    assert a.std_err > 0.0


# ---------------------------------------------------------------- coverage --


def test_sharp_coverage_near_nominal_at_no_bias():
    result = sharp_coverage(
        beta_true=0.7, n_pairs=20, reps=300, seed=17, method="exact"
    )
    assert result.coverage >= 0.93 - 3.0 * result.std_err
    assert result.reps == 300


def test_sharp_coverage_conservative_with_bias_allowance():
    at_one = sharp_coverage(beta_true=0.5, n_pairs=18, reps=200, seed=19)
    widened = sharp_coverage(
        beta_true=0.5, n_pairs=18, reps=200, seed=19, gamma_bar=1.8
    )
    assert widened.coverage >= at_one.coverage - 2.0 * at_one.std_err


def test_weak_coverage_heterogeneous_slopes():
    result = weak_coverage(
        slope_mean=1.0, n_pairs=40, reps=200, seed=23, slope_sd=0.5
    )
    assert result.coverage >= 0.93 - 3.0 * result.std_err


def test_coverage_seed_required():
    with pytest.raises(ConfigError):
        sharp_coverage(beta_true=0.0, n_pairs=10, reps=200)
    with pytest.raises(ConfigError):
        weak_coverage(slope_mean=0.0, n_pairs=10, reps=200)


# ------------------------------------------------------------------- io --


def test_write_json_byte_stable(tmp_path):
    report = {"b": 1.5, "a": [1, 2, 3], "nested": {"y": None, "x": 0.1}}
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    write_json(report, first)
    write_json(report, second)
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text()) == report
    assert first.read_text() == json_text(report)
    assert first.read_text().endswith("\n")


def test_write_power_csv_round_trips_floats(tmp_path):
    curve = power_curve(
        effect_dgp(0.5),
        n_pairs=60,
        gamma_bar_grid=[1.0, 1.5],
        spec=WILCOXON,
        reps=200,
        seed=29,
    )
    path = tmp_path / "curve.csv"
    write_power_csv(curve, path)
    rows = path.read_text().splitlines()
    assert rows[0].startswith("gamma_bar")
    assert len(rows) == 3
    got = [float(r.split(",")[1]) for r in rows[1:]]
    assert got == [est.power for est in curve.estimates]
