"""``scores.rank`` against the ``np.unique`` construction, bit for bit."""

import numpy as np
import pytest

from dosesens.errors import DataError
from dosesens.gammas import LEAF
from dosesens.scores import rank, rank_abs

from oracles import reference_rank


def _tied_arrays(rng):
    for n in (3, 17, 200, 5_000):
        yield np.round(rng.normal(size=n), 1)
        yield rng.integers(0, 4, n).astype(float)
    with_nans = np.round(rng.normal(size=60), 1)
    with_nans[rng.choice(60, 7, replace=False)] = np.nan
    yield with_nans
    yield np.array([np.nan, 2.0, np.nan, np.nan, -1.0, 2.0])
    yield np.array([np.nan, np.nan])
    yield np.array([np.inf, -np.inf, 1.0, np.inf, -np.inf, np.nan, 0.0])
    yield np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0])
    yield np.array([])
    yield np.array([4.5])
    yield np.array([2.0, 2.0])
    yield np.array([3.0, -3.0])
    yield rng.normal(size=400_000)


@pytest.mark.parametrize("ties", ["max", "average"])
def test_rank_matches_unique_construction_bit_for_bit(ties):
    for values in _tied_arrays(np.random.default_rng(71)):
        got, expected = rank(values, ties=ties), reference_rank(values, ties=ties)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), values


def _leaf_boundary_arrays(rng):
    """Arrays over several leaves of sorted positions whose ties or NaN
    block start just before, at or just after a leaf's first position."""
    n = 2 * LEAF + 8
    for first_nan in (LEAF - 1, LEAF, LEAF + 1, n - 1, n):
        for values in (np.round(rng.normal(size=n), 1), rng.normal(size=n)):
            values[rng.permutation(n)[:n - first_nan]] = np.nan
            yield values
    for start in (LEAF - 1, LEAF):  # one tie, across a leaf boundary or not
        values = np.arange(n, dtype=float)
        values[start + 1] = values[start]
        yield rng.permutation(values)


@pytest.mark.parametrize("ties", ["max", "average"])
def test_rank_finds_ties_across_leaves_bit_for_bit(ties):
    for values in _leaf_boundary_arrays(np.random.default_rng(72)):
        got, expected = rank(values, ties=ties), reference_rank(values, ties=ties)
        assert got.tobytes() == expected.tobytes()
        written = values.copy()
        assert rank(written, ties=ties, out=written) is written
        assert written.tobytes() == expected.tobytes()


def test_strict_ties_still_raise():
    with pytest.raises(DataError, match="strict"):
        rank_abs(np.array([1.0, -1.0, 2.0]), ties="strict")
