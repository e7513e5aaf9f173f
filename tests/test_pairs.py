"""Matched-pair container, dose links, effect models, CSV round-trips."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dosesens.errors import ConfigError, DataError
from dosesens.pairs import (
    DoseLink,
    EffectModel,
    MatchedSample,
    adjust_outcomes,
    link_gaps,
    read_csv,
    sample_from_arrays,
    write_csv,
)


def test_accessors_orient_by_dose(three_pairs):
    assert_array_equal(three_pairs.z_hi(), [2.0, 3.0, 4.0])
    assert_array_equal(three_pairs.z_lo(), [1.0, 1.0, 0.0])
    assert_array_equal(three_pairs.y_of_hi(), [5.0, 7.0, 6.0])
    assert_array_equal(three_pairs.y_of_lo(), [3.0, 4.0, 2.0])
    assert_array_equal(three_pairs.dose_diff(), [1.0, 2.0, 4.0])
    assert_array_equal(three_pairs.outcome_diff(), [2.0, 3.0, 4.0])


def test_tied_doses_rejected():
    with pytest.raises(DataError):
        sample_from_arrays([1.0, 2.0], [1.0, 3.0], [0.0, 0.0], [1.0, 1.0])


def test_shape_mismatch_rejected():
    with pytest.raises(DataError):
        sample_from_arrays([1.0], [2.0, 3.0], [0.0], [1.0])


def test_csv_round_trip(tmp_path, three_pairs):
    path = tmp_path / "pairs.csv"
    write_csv(three_pairs, path)
    back = read_csv(path)
    assert back.pair_ids == three_pairs.pair_ids
    assert_allclose(back.z_hi(), three_pairs.z_hi())
    assert_allclose(back.z_lo(), three_pairs.z_lo())
    assert_allclose(back.y_of_hi(), three_pairs.y_of_hi())
    assert_allclose(back.y_of_lo(), three_pairs.y_of_lo())

    second = tmp_path / "again.csv"
    write_csv(back, second)
    assert path.read_bytes() == second.read_bytes()


def test_csv_within_pair_row_order_is_irrelevant(tmp_path, three_pairs):
    path = tmp_path / "pairs.csv"
    write_csv(three_pairs, path)
    lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    swapped = [header]
    for i in range(0, len(rows), 2):
        swapped.extend([rows[i + 1], rows[i]])
    shuffled = tmp_path / "swapped.csv"
    shuffled.write_text("\n".join(swapped) + "\n")
    back = read_csv(shuffled)
    assert_allclose(back.z_hi(), three_pairs.z_hi())
    assert_allclose(back.y_of_hi(), three_pairs.y_of_hi())


def test_csv_rejects_missing_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("pair_id,unit_id,z\n1,a,1\n1,b,2\n")
    with pytest.raises(DataError, match="missing required columns"):
        read_csv(bad)


def test_csv_rejects_odd_pair(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("pair_id,unit_id,z,y\n1,a,1,0\n1,b,2,1\n2,c,1,0\n")
    with pytest.raises(DataError):
        read_csv(bad)


# ---------------------------------------------------------------- links --


def test_identity_and_log_links(three_pairs):
    ident = DoseLink()
    assert_allclose(link_gaps(three_pairs, ident), [1.0, 2.0, 4.0])
    with pytest.raises(DataError):
        # the sample has a zero dose, which the log link cannot take
        link_gaps(three_pairs, DoseLink(kind="log"))
    positive = sample_from_arrays([1.0, 2.0], [2.0, 8.0], [0.0, 0.0], [1.0, 1.0])
    assert_allclose(
        link_gaps(positive, DoseLink(kind="log")), [np.log(2.0), np.log(4.0)]
    )


def test_identity_link_fails_only_on_a_nan_dose():
    ident = DoseLink()
    ident.validate_on(np.array([3.0, 1.0, 2.0, 1.0, -np.inf]))
    with pytest.raises(DataError, match="not strictly monotone"):
        ident.validate_on(np.array([0.0, np.nan, 1.0]))


def test_table_link_lookup_and_monotonicity():
    link = DoseLink(kind="table", table=((0.0, 0.0), (1.0, 2.0), (2.0, 3.0)))
    sample = sample_from_arrays([0.0], [2.0], [0.0], [1.0])
    assert_allclose(link_gaps(sample, link), [3.0])
    with pytest.raises(DataError, match="missing from table link"):
        link_gaps(sample_from_arrays([0.0], [1.5], [0.0], [1.0]), link)
    with pytest.raises(ConfigError):
        DoseLink(kind="table", table=((0.0, 0.0), (0.0, 1.0)))
    # decreasing is fine (still strictly monotone); a bump is not
    DoseLink(kind="table", table=((0.0, 1.0), (1.0, 0.0))).validate_on([0.0, 1.0])
    bumpy = DoseLink(kind="table", table=((0.0, 0.0), (1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(DataError, match="not strictly monotone"):
        bumpy.validate_on(np.array([0.0, 1.0, 2.0]))


def test_unknown_link_kind_rejected():
    with pytest.raises(ConfigError):
        DoseLink(kind="sqrt")


# --------------------------------------------------------- effect models --


def test_constant_model_adjustment(three_pairs):
    model = EffectModel(kind="constant", beta=(0.5,))
    adjusted = adjust_outcomes(three_pairs, model)
    assert_allclose(adjusted.y_of_hi(), [4.5, 6.0, 4.0])
    assert_allclose(adjusted.y_of_lo(), three_pairs.y_of_lo())


def test_kink_model_crossing_branch_literal():
    # pair straddles the bend: lo_rel = 0.5 < 1 <= hi_rel = 5, so the
    # offset is b2*(z_hi - z0) - b1*(z_hi - z0) = (3 - 1) * 5 = 10
    sample = sample_from_arrays([0.5], [5.0], [0.0], [0.0])
    model = EffectModel(kind="kink", beta=(1.0, 3.0, 1.0), z0=0.0)
    assert_allclose(model.offsets(sample), [10.0])


def test_kink_model_pure_branches():
    sample = sample_from_arrays([0.0, 3.0], [0.5, 5.0], [0.0, 0.0], [0.0, 0.0])
    model = EffectModel(kind="kink", beta=(1.0, 3.0, 1.0), z0=0.0)
    assert_allclose(model.offsets(sample), [0.5, 6.0])


def test_effect_modification_needs_modifier():
    with pytest.raises(ConfigError):
        EffectModel(kind="effect-modification", beta=(1.0, 0.5))


def test_model_coefficient_counts():
    with pytest.raises(ConfigError):
        EffectModel(kind="constant", beta=(1.0, 2.0))
    with pytest.raises(ConfigError):
        EffectModel(kind="kink", beta=(1.0, 2.0, 0.0))
    with pytest.raises(ConfigError):
        EffectModel(kind="quadratic", beta=(1.0,))


def test_adjusting_by_truth_recovers_null():
    rng = np.random.default_rng(5)
    z1 = rng.uniform(0.0, 2.0, 40)
    z2 = z1 + rng.uniform(0.5, 1.5, 40)
    base1 = rng.normal(0.0, 1.0, 40)
    base2 = rng.normal(0.0, 1.0, 40)
    beta = 0.7
    sample = sample_from_arrays(z1, z2, base1 + beta * z1, base2 + beta * z2)
    adjusted = adjust_outcomes(sample, EffectModel(kind="constant", beta=(beta,)))
    assert_allclose(
        adjusted.outcome_diff(),
        np.abs(base2 - base1) * 0 + (base2 - base1) * np.sign(z2 - z1),
        atol=1e-12,
    )


def test_sample_len_and_pair_ids(three_pairs):
    assert isinstance(three_pairs, MatchedSample)
    assert len(three_pairs) == three_pairs.n_pairs == 3
    assert three_pairs.pair_ids == ("1", "2", "3")
    assert three_pairs.n_covariates == 0


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "source, message",
    [
        ("bad_nan_y.csv", "y_of_hi must be finite, got nan"),
        ("bad_inf_z.csv", "z_hi must be finite, got inf"),
        ("bad_tied_doses.csv", "pair '2': tied doses (1.5)"),
        ("bad_duplicate_unit.csv", "pair '1': duplicate unit id 'a'"),
        ("bad_three_rows.csv", "pair '1' has 3 rows, expected 2"),
        (
            "bad_non_numeric_x.csv",
            "line 3: non-numeric field: could not convert string to float: 'high'",
        ),
        ("bad_first_fault_wins.csv", "y_of_lo must be finite, got -inf"),
        (
            lambda: sample_from_arrays(
                [1.0, 2.0, 0.0], [2.0, 1.0, 3.0], [0.0] * 3, [1.0] * 3, pair_ids=["a", "b", "a"]
            ),
            "duplicate pair id 'a'",
        ),
        (
            lambda: sample_from_arrays(
                [1.0, 2.0, 0.0], [2.0, 2.0, 3.0], [0.0] * 3, [1.0, np.nan, 1.0], pair_ids=[7, 8, 8]
            ),
            "pair 8: tied doses (2.0)",
        ),
        (
            lambda: sample_from_arrays([1.0, 2.0], [2.0, 3.0], [0.0, np.inf], [1.0, 1.0]),
            "y_of_lo must be finite, got inf",
        ),
    ],
    ids=[
        "nan-y", "inf-z", "tied-doses", "duplicate-unit", "three-rows", "non-numeric-x",
        "first-fault-wins", "duplicate-pair-id", "tie-before-nan", "inf-y-from-arrays",
    ],
)
def test_ingestion_errors_name_the_first_offending_pair(source, message):
    with pytest.raises(DataError) as err:
        source() if callable(source) else read_csv(GOLDEN / source)
    assert str(err.value) == message
