"""Memory the planning solves hold per draw, and the arrays they may overwrite.

``design_sensitivity`` and ``bahadur_slope`` overwrite only arrays they made
or that a built-in sampler has just made; a custom sampler's arrays and a
custom phi's values are read, never written.
"""

import re
import tracemalloc

import numpy as np
import pytest

from dosesens.asymptotics import bahadur_slope, design_sensitivity
from dosesens.dgps import DgpSpec
from dosesens.errors import DataError
from dosesens.pairs import DoseLink

DRAWS = 200_000


def _peak_bytes_per_draw(solve, dgp):
    solve(DgpSpec(**{**dgp, "mc_draws": 10_000}))  # first-call allocations
    tracemalloc.start()
    try:
        solve(DgpSpec(**dgp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / dgp["mc_draws"]


@pytest.mark.parametrize(
    "solve,dgp,bound",
    [
        # 22.3 bytes a draw (NumPy 2.4); 33.3 while the samplers held y2 and
        # z2 whole, 40.0 while the passes held draw-sized scratch, 67.0 while
        # the draw arrays lived to the end
        (design_sensitivity,
         dict(sampler="constant-gap", params={"effect": 0.5, "gap": 1.0}, phi="mcnemar"),
         24.0),
        # 28.6 bytes a draw (NumPy 2.4); 34.0 with y2 whole, 42.0 with
        # draw-sized scratch, 130.0 when np.unique took the ranks
        (lambda dgp: bahadur_slope(dgp, gamma_bar=1.2),
         dict(sampler="paired-normal", params={"effect": 0.5}, phi="wilcoxon"),
         30.0),
        # 36.6 bytes a draw (NumPy 2.4); 42.0 while the ranks held a sorted
        # copy of the values, 50.0 with draw-sized scratch
        (design_sensitivity,
         dict(sampler="fixed-concordance", params={"theta": 0.7}, phi="double-rank"),
         38.0),
        # 34.6 bytes a draw (NumPy 2.4), the shared pair noise held whole
        # while y2 is drawn; 41.3 with y2 whole
        (lambda dgp: bahadur_slope(dgp, gamma_bar=1.2),
         dict(sampler="paired-normal", params={"effect": 0.5, "pair_noise_sd": 0.5},
              phi="wilcoxon"),
         37.0),
    ],
    ids=["design-sens-mcnemar", "bahadur-wilcoxon", "design-sens-double-rank",
         "bahadur-wilcoxon-pair-noise"],
)
def test_peak_bytes_per_draw(solve, dgp, bound):
    assert _peak_bytes_per_draw(solve, {**dgp, "mc_draws": DRAWS, "seed": 3}) <= bound


def test_custom_sampler_and_phi_arrays_are_never_written(link=DoseLink()):
    kept, copies = [], []

    def sampler(rng, n):
        z1 = rng.uniform(0.0, 1.0, n)
        z2 = rng.uniform(0.0, 1.0, n)
        y1 = 0.5 * z1 + rng.normal(0.0, 1.0, n)
        y2 = 0.5 * z2 + rng.normal(0.0, 1.0, n)
        kept.extend((z1, z2, y1, y2))
        copies.extend(a.copy() for a in (z1, z2, y1, y2))
        return z1, z2, y1, y2

    def phi(u, v):
        values = np.sqrt(u * v)
        kept.append(values)
        copies.append(values.copy())
        return values

    dgp = DgpSpec(sampler=sampler, phi=phi, link=link, mc_draws=20_000, seed=5)
    star = design_sensitivity(dgp)
    bahadur_slope(dgp, gamma_bar=1.0 + 0.5 * (star.gamma_bar_star - 1.0))
    assert len(kept) == 10
    for array, copy in zip(kept, copies):
        assert array.tobytes() == copy.tobytes()


def test_custom_sampler_arrays_are_never_written_under_another_link():
    # the log link's gaps are taken from z2 whole, before the differences
    test_custom_sampler_and_phi_arrays_are_never_written(DoseLink(kind="log"))


def test_identity_link_returns_new_arrays():
    doses = np.array([0.5, 2.0, 1.0])
    other = np.array([1.5, 1.0, 3.0])
    link = DoseLink()
    applied = link.apply(doses)
    assert not np.shares_memory(applied, doses)
    gaps = link.gaps(doses, other)
    assert not np.shares_memory(gaps, doses) and not np.shares_memory(gaps, other)
    assert doses.tolist() == [0.5, 2.0, 1.0] and other.tolist() == [1.5, 1.0, 3.0]


@pytest.mark.parametrize(
    "link,z_a,z_b",
    [
        (DoseLink(), [0.5, np.inf, -0.0, 3.0], [1.5, 1.0, 0.0, -np.inf]),
        (DoseLink(), [0.5, 2.0], [np.nan, 1.0]),
        (DoseLink(), [np.nan, 2.0], [0.5, 1.0]),
        (DoseLink(kind="log"), [0.5, 2.0, 7.0], [1.5, 1.0, 3.0]),
        (DoseLink(kind="log"), [0.5, 2.0], [0.0, 1.0]),
        (DoseLink(kind="table", table=((0.0, 1.0), (1.0, 3.0), (2.0, 4.0))), [0.0, 2.0], [1.0, 1.0]),
        (DoseLink(kind="table", table=((0.0, 1.0), (1.0, 3.0))), [0.0, 2.0], [1.0, 1.0]),
        (DoseLink(kind="table", table=((0.0, 1.0), (1.0, 3.0), (2.0, 2.0))), [0.0, 2.0], [1.0, 1.0]),
    ],
)
def test_link_gaps_match_validate_then_apply(link, z_a, z_b):
    z_a, z_b = np.array(z_a), np.array(z_b)

    def reference():
        link.validate_on(np.concatenate([z_a, z_b]))
        return np.abs(link.apply(z_a) - link.apply(z_b))

    try:
        expected = reference()
    except DataError as err:
        with pytest.raises(DataError, match=re.escape(str(err))):
            link.gaps(z_a, z_b)
    else:
        assert link.gaps(z_a, z_b).tobytes() == expected.tobytes()
