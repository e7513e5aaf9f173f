"""Exact tail routes against the support-merging reference, and Monte Carlo
blocks against whole chunks.

The lattice route must return the reference's values and probabilities bit
for bit (``np.array_equal``, no tolerance): it adds the same two products per
support point in the same order.
"""

import math

import numpy as np
import pytest

from dosesens import tails
from dosesens.errors import DataError
from dosesens.pairs import sample_from_arrays
from dosesens.rngs import child_rng
from dosesens.scores import ScoreSpec, parse_phi_expression, score

from conftest import random_sample
from oracles import reference_convolved_distribution

_SPECS = {
    "mcnemar": ScoreSpec(kind="mcnemar"),
    "wilcoxon": ScoreSpec(kind="wilcoxon"),
    "double-rank": ScoreSpec(kind="double-rank"),
    "r_z * r_y": ScoreSpec(kind="general", phi=parse_phi_expression("r_z * r_y")),
    "normalized": ScoreSpec(kind="wilcoxon", normalize_ranks=True),
    "normalized double-rank": ScoreSpec(kind="double-rank", normalize_ranks=True),
    "dose-weighted-abs": ScoreSpec(kind="dose-weighted-abs"),
}


def tied_sample(rng, n):
    """Doses and outcomes on a 0.1 grid, so midranks tie into halves."""
    z1 = np.round(rng.uniform(0.0, 3.0, n), 1)
    z2 = np.round(z1 + rng.uniform(0.25, 2.0, n) * rng.choice([-1.0, 1.0], n), 1)
    z2 = np.where(z2 == z1, z1 + 0.1, z2)
    y1 = np.round(0.5 * z1 + rng.normal(0.0, 1.0, n), 1)
    y2 = np.round(0.5 * z2 + rng.normal(0.0, 1.0, n), 1)
    return sample_from_arrays(z1, z2, y1, y2)


def weights(kind, n, seed, ties=True, zeros=0):
    rng = np.random.default_rng(seed)
    sample = tied_sample(rng, n) if ties else random_sample(rng, n)
    q = np.array(score(sample, _SPECS[kind]).q)
    q[rng.choice(n, zeros, replace=False)] = 0.0
    return q


def assert_matches_reference(q, p):
    key_q = tuple(float(v) for v in q)
    key_p = tuple(float(v) for v in p)
    values, probs = tails._convolved_distribution(key_q, key_p)
    ref_values, ref_probs = reference_convolved_distribution(key_q, key_p)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(probs, ref_probs)
    return values, probs


@pytest.mark.parametrize(
    "kind, n, ties, zeros, step",
    [
        ("mcnemar", 250, True, 10, 1),
        ("wilcoxon", 250, True, 0, 2),
        ("wilcoxon", 250, False, 0, 1),
        ("wilcoxon", 120, True, 7, 2),
        ("double-rank", 60, True, 3, 4),
        ("double-rank", 72, True, 0, 4),
        ("r_z * r_y", 60, True, 5, 4),
    ],
)
def test_lattice_route_equals_reference_bit_for_bit(kind, n, ties, zeros, step):
    q = weights(kind, n, seed=n + zeros, ties=ties, zeros=zeros)
    assert tails._lattice_step(q) == step
    rng = np.random.default_rng(n)
    for p in (rng.uniform(0.5, 0.8, n), rng.uniform(0.01, 0.2, n)):
        assert_matches_reference(q, p)


def test_lattice_route_in_canonical_order_with_certain_and_tiny_probabilities():
    q = weights("wilcoxon", 200, seed=4)
    p = np.random.default_rng(4).uniform(0.5, 0.99, 200)
    p[:3] = 1.0  # 1 - p == 0: points keep zero probability, as in the reference
    p[3:6] = 1e-300
    order = np.lexsort((p, q))
    _, probs = assert_matches_reference(q[order], p[order])
    assert np.any(probs == 0.0)  # reached points whose probability is zero


@pytest.mark.parametrize(
    "kind", ["normalized", "normalized double-rank", "dose-weighted-abs"]
)
def test_off_lattice_weights_keep_the_merge_route(kind):
    q = weights(kind, 40, seed=3)
    assert tails._lattice_step(q) is None
    p = np.random.default_rng(3).uniform(0.5, 0.9, 40)
    assert_matches_reference(q, p)


def test_lattice_over_the_cap_with_a_small_support_is_merged():
    q = np.array([0.5, 3e6, 1.0])  # lattice of 6,000,004 points, support of 8
    assert tails._lattice_step(q) == 2
    values, _ = assert_matches_reference(q, np.array([0.6, 0.7, 0.8]))
    assert values.size == 8


def test_lattice_at_the_cap_is_dense_and_over_it_raises_as_before():
    # Powers of two reach every point of their lattice.
    at_cap = 2.0 ** np.arange(21)  # 2**21 points, exactly SUPPORT_CAP
    assert at_cap.sum() + 1 == tails.SUPPORT_CAP
    values, _ = assert_matches_reference(at_cap, np.full(21, 0.6))
    assert values.size == tails.SUPPORT_CAP

    over_cap = 2.0 ** np.arange(22)
    key = (tuple(over_cap.tolist()), (0.6,) * 22)
    with pytest.raises(DataError) as ours:
        tails._convolved_distribution(*key)
    with pytest.raises(DataError) as reference:
        reference_convolved_distribution(*key)
    assert str(ours.value) == str(reference.value)


@pytest.mark.parametrize("seed", range(6))
def test_reachable_count_matches_the_merged_support(seed, monkeypatch):
    # a cap of 40 points, so small supports fall either side of it
    rng = np.random.default_rng(seed)
    # sums below 4 * 40, so all of them are counted
    steps = (rng.integers(0, 9, rng.integers(1, 7)) * rng.integers(1, 4)).tolist()
    points = {0}
    for step in steps:
        points |= {v + step for v in points}
    monkeypatch.setattr(tails, "SUPPORT_CAP", 40)
    assert tails._reaches_past_cap(steps) == (len(points) > 40)


def test_reach_counts_a_lower_bound_after_the_common_divisor():
    powers = [1 << i for i in range(22)]  # every point of 2**22, past the cap
    assert tails._reaches_past_cap(powers)
    assert tails._reaches_past_cap([3_000_000 << i for i in range(22)])
    assert not tails._reaches_past_cap([3_000_000] * 23)  # 24 points
    # the same 2**22 sums, all but 0 and 1 past 4 * SUPPORT_CAP: uncounted,
    # so the merge loop decides, as before
    assert not tails._reaches_past_cap([1, *(4 * tails.SUPPORT_CAP << i for i in range(22))])


def test_exact_tails_over_the_whole_support_stay_probabilities():
    # the point probabilities of these 20 Wilcoxon pairs sum past 1 in floats
    rng = np.random.default_rng(0)
    q = np.arange(1.0, 21.0)
    past_one = 0
    for _ in range(20):
        p = rng.uniform(0.5, 0.9, q.size)
        for tail, probs, t in (
            (tails.exact_upper_tail, p, -1.0),
            (tails.exact_lower_tail, 1.0 - p, q.sum() + 1.0),
        ):
            total = float(tails._distribution(q, probs)[1].sum())
            past_one += total > 1.0
            assert tail(q, probs, t) == min(total, 1.0)
    assert past_one > 0


def test_benchmark_clears_the_exact_tail_cache_by_this_name():
    assert callable(tails._convolved_distribution.cache_clear)


@pytest.mark.parametrize("reps", [1000, 65536, 65537, 131073])
def test_uniform_blocks_concatenate_to_one_draw_per_chunk(reps):
    width, seed, stream = 3, 17, (9, 2)
    blocks = list(tails.uniform_chunks(reps, width, seed, *stream))
    assert all(0 < b.shape[0] <= tails.MC_BLOCK for b in blocks)
    chunks = [
        child_rng(seed, *stream, c).random((min(tails.MC_CHUNK, reps - start), width))
        for c, start in enumerate(range(0, reps, tails.MC_CHUNK))
    ]
    assert np.array_equal(np.concatenate(blocks), np.concatenate(chunks))


# ---------------------------------------------------------------- normal --
# SciPy is the oracle here only; the package itself does not import it.


def _normal_grid():
    rng = np.random.default_rng(7)
    return np.concatenate([
        np.linspace(-37.0, 37.0, 20_001),
        rng.uniform(-37.0, 37.0, 20_000),
        np.linspace(19.0, 21.0, 2_001),  # both sides of the series switch
        np.geomspace(1e-300, 1e6, 5_000),
        -np.geomspace(1e-300, 37.0, 5_000),
        [0.0, -0.0, 20.0, 1e6],
    ])


def test_normal_sf_is_math_erfc_and_matches_scipy():
    from scipy import special

    zs = _normal_grid()
    zs = zs[np.abs(zs) <= 37.0]
    got = np.array([tails.normal_sf(float(z)) for z in zs])
    assert np.array_equal(got, [0.5 * math.erfc(float(z) / math.sqrt(2.0)) for z in zs])
    want = 0.5 * special.erfc(zs / math.sqrt(2.0))
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_normal_logsf_matches_scipy_log_ndtr():
    from scipy import special

    zs = _normal_grid()
    got = np.array([tails.normal_logsf(float(z)) for z in zs])
    want = special.log_ndtr(-zs)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # far below the mean both round to exactly 0; far above, both reach -inf
    for z in (-38.5, -40.0, -1e6, -math.inf):
        assert tails.normal_logsf(z) == special.log_ndtr(-z) == 0.0
    assert tails.normal_logsf(math.inf) == special.log_ndtr(-math.inf) == -math.inf
