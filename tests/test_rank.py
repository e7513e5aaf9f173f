"""``scores.rank`` against the ``np.unique`` construction, bit for bit."""

import numpy as np
import pytest

from dosesens.errors import DataError
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


def test_strict_ties_still_raise():
    with pytest.raises(DataError, match="strict"):
        rank_abs(np.array([1.0, -1.0, 2.0]), ties="strict")
