"""Power, slope-rate, and coverage simulations: determinism and calibration."""

import concurrent.futures
import json
import os
import tracemalloc

import numpy as np
import pytest

from dosesens import gammas, simulate
from dosesens.cli import main
from dosesens.dgps import DgpSpec
from dosesens.errors import ConfigError
from dosesens.gammas import _schedule_from_gamma_gaps
from dosesens.pairs import DoseLink
from dosesens.rngs import STREAM_POWER, child_rng
from dosesens.scores import ScoreSpec, parse_phi_expression, score_from_arrays
from dosesens.sharp import BoundingDistribution
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

from oracles import (
    empirical_crossing,
    reference_gamma_for_mean_bound,
    reference_power_hits,
)

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


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """A real process pool that records the size it was opened with."""

    sizes = []

    def __init__(self, max_workers=None, **kwargs):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


class _InProcessPool:
    """Stands in for a process pool: records its size, starts no process."""

    sizes = []

    def __init__(self, max_workers=None, **kwargs):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def test_the_pool_never_outgrows_the_chunks_or_the_cpus(monkeypatch, capsys):
    # a huge --workers or DOSESENS_WORKERS once forked that many processes
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    assert simulate._map_chunks(abs, [-1, -2, -3], 10**9) == [1, 2, 3]
    assert simulate._pool_size(10**9, 10**9) == _cpus()
    assert simulate._pool_size(0, 5) == 1
    # seven chunks of 32 replicates
    monkeypatch.setattr(simulate, "POOL_MIN_WORK", 0)
    monkeypatch.setenv("DOSESENS_WORKERS", str(10**9))
    assert main(["power-sim", "--n-pairs", "30", "--reps", "200", "--gamma-bar-grid",
                 "1.0,1.5", "--seed", "4"]) == 0
    capsys.readouterr()
    sizes = [min(3, _cpus()), min(7, _cpus())]
    assert _InProcessPool.sizes == [size for size in sizes if size > 1]


def test_a_forced_pool_gives_the_in_process_curve(monkeypatch):
    # studies this small run in one process; forcing the pool keeps its path
    # tested and shows it leaves the curve unchanged
    monkeypatch.setattr(simulate, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    args = (effect_dgp(0.6), 60, [1.0, 1.3, 1.7], WILCOXON)
    kwargs = dict(reps=203, seed=17)
    one = power_curve(*args, workers=1, **kwargs)
    two = power_curve(*args, workers=2, **kwargs)
    assert json_text(two.to_json_dict()) == json_text(one.to_json_dict())
    assert _RecordingPool.sizes == ([2] if _cpus() > 1 else [])


@pytest.mark.parametrize("method", ["exact", "monte-carlo", "auto"])
def test_small_studies_off_the_normal_route_still_pool(method, monkeypatch):
    # the break-even was measured on the normal route; each replicate of the
    # others costs a full tail computation, so they pool as asked
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    power_curve(effect_dgp(0.6), 12, [1.0, 1.5], WILCOXON, reps=203, seed=3,
                method=method, mc_reps=1000, workers=2)
    assert _InProcessPool.sizes == ([2] if _cpus() > 1 else [])


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


# ------------------------------------------------- batched power chunks --

_SPECS = [
    ScoreSpec(kind="mcnemar"),
    WILCOXON,
    ScoreSpec(kind="double-rank"),
    ScoreSpec(kind="dose-weighted-abs"),
    ScoreSpec(kind="general", phi=parse_phi_expression("sqrt(r_z * r_y) + r_y")),
    ScoreSpec(kind="wilcoxon", normalize_ranks=True),
]
_GRID = [1.0, 1.3, 2.0]


def _hits(curve):
    return [e.rejections for e in curve.estimates]


def _outcome(fn, *args, **kwargs):
    """What a power computation returns as rejections, or the class and
    message of what it raises."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)
    return _hits(out) if isinstance(out, PowerCurve) else out


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: f"{s.kind}-{s.normalize_ranks}")
def test_power_curve_equals_the_reference_loop_for_every_score(spec):
    dgp = effect_dgp(0.4)
    kwargs = dict(reps=203, seed=41, method="normal")
    curve = power_curve(dgp, 40, _GRID, spec, **kwargs)
    assert _hits(curve) == reference_power_hits(dgp, 40, _GRID, spec, **kwargs)
    assert len(set(_hits(curve))) > 1


@pytest.mark.parametrize(
    "method,n_pairs,workers",
    [
        ("normal", 120, 2),
        ("exact", 12, 1),
        ("exact", 12, 2),
        ("monte-carlo", 30, 1),
        ("mc", 30, 2),
        ("auto", 20, 1),
        ("auto", 40, 1),
        ("auto", 120, 1),
    ],
)
def test_power_curve_equals_the_reference_loop_for_every_method(method, n_pairs, workers):
    dgp = effect_dgp(0.6)
    kwargs = dict(reps=203, seed=43, method=method, mc_reps=1000)
    curve = power_curve(dgp, n_pairs, _GRID, WILCOXON, workers=workers, **kwargs)
    assert _hits(curve) == reference_power_hits(dgp, n_pairs, _GRID, WILCOXON, **kwargs)


@pytest.mark.parametrize("link", [DoseLink(), DoseLink(kind="log")], ids=lambda l: l.kind)
@pytest.mark.parametrize("workers", [1, 2])
def test_power_curve_equals_the_reference_loop_for_both_links(link, workers):
    dgp = DgpSpec(
        sampler="paired-normal",
        params={"effect": 0.6, "dose_low": 0.5, "dose_high": 3.0},
        link=link,
        mc_draws=10_000,
    )
    spec = ScoreSpec(kind="double-rank")
    curve = power_curve(dgp, 50, _GRID, spec, reps=203, seed=47, workers=workers)
    assert _hits(curve) == reference_power_hits(dgp, 50, _GRID, spec, reps=203, seed=47)


def test_general_phi_sees_one_replicate_row_at_a_time():
    shapes = []

    def phi(r_z, r_y):
        shapes.append((r_z.shape, r_y.shape))
        return r_z * r_y

    spec = ScoreSpec(kind="general", phi=phi)
    power_curve(effect_dgp(), 30, [1.0, 1.5], spec, reps=203, seed=3)
    assert shapes == [((30,), (30,))] * 203


def _sometimes_tied(rng, n):
    # continuous draws, with one tied dose pair in about one replicate in ten
    z1, z2 = rng.uniform(0.5, 3.0, (2, n))
    y1, y2 = rng.normal(0.0, 1.0, (2, n)) + 0.5 * np.stack([z1, z2])
    if rng.random() < 0.1:
        z2[0] = z1[0]
    return z1, z2, y1, y2


def _sometimes_nonpositive(rng, n):
    z1, z2 = rng.uniform(-0.02, 3.0, (2, n))
    return z1, z2, rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, n)


def _rounded_outcomes(rng, n):
    z1, z2 = rng.uniform(0.5, 3.0, (2, n))
    return z1, z2, np.round(rng.normal(0.0, 1.0, n), 2), np.round(rng.normal(0.0, 1.0, n), 2)


_CUSTOM = dict(mc_draws=10_000)


@pytest.mark.parametrize(
    "dgp,grid,spec,message",
    [
        (DgpSpec(sampler=_sometimes_tied, **_CUSTOM), [1.2], WILCOXON, "tied doses"),
        (DgpSpec(sampler=_sometimes_tied, **_CUSTOM), [1.2, float("nan")], WILCOXON,
         "gamma_bar must be >= 1"),
        (effect_dgp(), [1.5], ScoreSpec(kind="general", phi=lambda r_z, r_y: r_y - 1.5),
         "nonnegative"),
        (effect_dgp(), [1.5],
         ScoreSpec(kind="general", phi=lambda r_z, r_y: np.where(r_y > 1, r_y, np.inf)),
         "finite"),
        (effect_dgp(), [1.5, 1e20], WILCOXON, "strictly in (0, 1)"),
        (DgpSpec(sampler=_sometimes_nonpositive, link=DoseLink(kind="log"), **_CUSTOM),
         [1.5], WILCOXON, "strictly positive doses"),
        (DgpSpec(sampler=_rounded_outcomes, **_CUSTOM), [1.5],
         ScoreSpec(kind="wilcoxon", ties="strict"), "tied absolute differences"),
    ],
)
def test_power_curve_raises_what_the_reference_loop_raises_first(dgp, grid, spec, message):
    kwargs = dict(reps=203, seed=53)
    got = _outcome(power_curve, dgp, 40, grid, spec, **kwargs)
    assert got == _outcome(reference_power_hits, dgp, 40, grid, spec, **kwargs)
    assert message in got[1]


@pytest.mark.parametrize(
    "dgp,grid",
    [
        (effect_dgp(0.5), _GRID),
        (DgpSpec(sampler=_sometimes_tied, **_CUSTOM), [1.2]),
        (DgpSpec(sampler=_sometimes_tied, **_CUSTOM), [1.2, float("nan")]),
    ],
)
def test_small_blocks_do_not_change_the_curve_or_its_error(dgp, grid, monkeypatch):
    # 100 floats per block: blocks of one replicate, two grid points and two
    # bisection rows, so every loop over blocks takes several turns
    monkeypatch.setattr(simulate, "ROW_BLOCK", 100)
    monkeypatch.setattr(gammas, "ROW_BLOCK", 100)
    kwargs = dict(reps=203, seed=59)
    got = _outcome(power_curve, dgp, 40, grid, WILCOXON, **kwargs)
    assert got == _outcome(reference_power_hits, dgp, 40, grid, WILCOXON, **kwargs)


@pytest.mark.parametrize(
    "n_pairs,grid",
    [(200, np.linspace(1.0, 2.0, 2000)), (10, np.linspace(1.0, 2.0, 2000)), (20_000, [1.5])],
    ids=["long-grid", "short-rows-long-grid", "many-pairs"],
)
def test_power_curve_memory_stays_bounded(n_pairs, grid):
    # a whole chunk of 32 replicates spans 32 x 2,000 grid points x 200
    # pairs = 12.8M floats (98 MB) on the long grid, and its sixteen or so
    # live arrays of 32 x 20,000 pairs take 82 MB on the many pairs; on
    # 10 pairs, the bisection's 64,000 rows would keep some 30 floats of
    # state each (15 MB) if they were not blocked by ROW_BLOCK as well
    tracemalloc.start()
    try:
        curve = power_curve(effect_dgp(0.5), n_pairs, grid, WILCOXON, reps=200, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(curve.estimates) == len(grid)
    assert peak < 64 * 2**20


def test_empirical_slope_equals_the_one_replicate_loop():
    dgp = effect_dgp(0.8)
    est = empirical_slope(dgp, n_pairs=60, gamma_bar=1.4, spec=WILCOXON, reps=40, seed=13)
    rates = []
    for rep in range(40):
        z1, z2, y1, y2 = dgp.sample_pairs(child_rng(13, STREAM_POWER, rep), 60)
        scored = score_from_arrays(z1, z2, y1, y2, WILCOXON)
        gaps = np.abs(z1 - z2)
        p_plus = _schedule_from_gamma_gaps(
            reference_gamma_for_mean_bound(1.4, gaps), gaps
        ).p_plus
        upper = BoundingDistribution(q=scored.q, p_success=p_plus)
        rates.append(-upper.normal_log_upper_tail(scored.t_obs) / 60)
    assert est.rate == float(np.mean(rates))
