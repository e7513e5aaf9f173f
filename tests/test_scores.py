"""Signed-score statistics and the exact randomization p-value."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dosesens.errors import ConfigError, DataError
from dosesens.pairs import sample_from_arrays
from dosesens.scores import (
    ScoreSpec,
    midranks,
    parse_phi_expression,
    rank,
    rank_abs,
    score,
    score_from_arrays,
    score_rows,
)

from conftest import random_sample
from oracles import exact_randomization_pvalue


def brute_force_ranks(values):
    """O(n^2) mid-rank oracle: 1 + #smaller + (#equal - 1)/2."""
    values = np.abs(np.asarray(values, dtype=float))
    out = np.empty(values.size)
    for i, v in enumerate(values):
        smaller = np.sum(values < v)
        equal = np.sum(values == v)
        out[i] = 1.0 + smaller + (equal - 1) / 2.0
    return out


@pytest.mark.parametrize(
    "kind,expected_q,expected_t",
    [
        ("mcnemar", [1.0, 1.0, 1.0], 3.0),
        ("wilcoxon", [1.0, 2.0, 3.0], 6.0),
        ("dose-weighted-abs", [1.0, 4.0, 12.0], 17.0),
        ("double-rank", [1.0, 4.0, 9.0], 14.0),
    ],
)
def test_hand_scores(three_pairs, kind, expected_q, expected_t):
    scored = score(three_pairs, ScoreSpec(kind=kind))
    assert_allclose(scored.q, expected_q)
    assert scored.t_obs == pytest.approx(expected_t)
    assert scored.concordant.all()


def test_dose_weighted_rank_alias(three_pairs):
    spec = ScoreSpec(kind="dose-weighted-rank")
    assert spec.kind == "double-rank"
    assert score(three_pairs, spec).t_obs == pytest.approx(14.0)


def test_midranks_against_counting_oracle():
    rng = np.random.default_rng(42)
    values = rng.integers(-4, 5, 60).astype(float)
    assert_allclose(rank_abs(values), brute_force_ranks(values))


def test_double_rank_counting_oracle():
    rng = np.random.default_rng(7)
    sample = random_sample(rng, 30)
    scored = score(sample, ScoreSpec(kind="double-rank"))
    rz = brute_force_ranks(sample.dose_diff())
    ry = brute_force_ranks(sample.outcome_diff())
    assert_allclose(scored.q, rz * ry)
    assert scored.t_obs == pytest.approx(
        float(np.sum(rz * ry * (sample.outcome_diff() > 0)))
    )


def test_strict_ties_raise():
    z1 = [0.0, 0.0]
    z2 = [1.0, 2.0]
    y1 = [0.0, 0.0]
    y2 = [1.0, -1.0]  # |differences| tie
    score_from_arrays(z1, z2, y1, y2, ScoreSpec(kind="wilcoxon"))  # midrank fine
    with pytest.raises(DataError, match="strict"):
        score_from_arrays(z1, z2, y1, y2, ScoreSpec(kind="wilcoxon", ties="strict"))


def test_zero_outcome_difference_is_never_concordant():
    scored = score_from_arrays(
        [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 2.0], ScoreSpec(kind="mcnemar")
    )
    assert list(scored.concordant) == [False, True]
    assert list(scored.zero_diff) == [True, False]
    assert scored.t_obs == pytest.approx(1.0)


def test_normalized_ranks(three_pairs):
    scored = score(three_pairs, ScoreSpec(kind="wilcoxon", normalize_ranks=True))
    assert_allclose(scored.q, [1.0 / 3.0, 2.0 / 3.0, 1.0])
    assert scored.t_obs == pytest.approx(2.0)


def test_general_kind_needs_phi_and_matches_builtin(three_pairs):
    with pytest.raises(ConfigError):
        ScoreSpec(kind="general")
    phi = parse_phi_expression("r_z * r_y")
    scored = score(three_pairs, ScoreSpec(kind="general", phi=phi))
    built_in = score(three_pairs, ScoreSpec(kind="double-rank"))
    assert_allclose(scored.q, built_in.q)
    assert scored.t_obs == pytest.approx(built_in.t_obs)


def test_phi_only_for_general():
    with pytest.raises(ConfigError):
        ScoreSpec(kind="wilcoxon", phi=lambda rz, ry: rz)


def test_expression_parser_rejects_junk():
    for bad in ("import os", "r_z + __import__('os')", "r_w + 1", "r_z; r_y"):
        with pytest.raises(ConfigError):
            parse_phi_expression(bad)


@pytest.mark.parametrize(
    "bad,message",
    [
        ("r_y ** (9**9**9)", "exponents"),
        ("r_y ** 65", "exponents"),
        ("r_y ** -64.5", "exponents"),
        ("r_y ** r_z", "exponents"),
        ("(r_y ** 2) ** 2", "nested"),
        ("2 ** 64 ** 1", "exponents"),
        ("r_y + " * 200 + "r_y", "longer than"),
        ("-" * 996 + "r_y", "nests too deeply"),
        ("(" * 199 + "-" * 500 + "r_y" + ")" * 199, "nests too deeply"),
    ],
)
def test_expression_parser_bounds_powers_and_size(bad, message):
    with pytest.raises(ConfigError, match=message):
        parse_phi_expression(bad)


def test_bounded_powers_evaluate(three_pairs):
    ranks = np.array([1.0, 2.0, 3.0])
    for expr, want in [("r_y ** 2", ranks**2), ("r_z ** -0.5 * r_y", ranks**-0.5 * ranks),
                       ("2 ** 64 * r_y", 2.0**64 * ranks)]:
        assert_allclose(parse_phi_expression(expr)(ranks, ranks), want)


def test_expression_arithmetic_faults_are_config_errors():
    with pytest.raises(ConfigError, match="cannot be evaluated"):
        parse_phi_expression("1 / 0 + r_y")(np.ones(3), np.ones(3))


def test_expression_supports_numpy_functions(three_pairs):
    phi = parse_phi_expression("sqrt(r_z) * r_y")
    spec = ScoreSpec(kind="general", phi=phi, normalize_ranks=True)
    scored = score(three_pairs, spec)
    rz = np.array([1.0, 2.0, 3.0]) / 3.0
    ry = np.array([1.0, 2.0, 3.0]) / 3.0
    assert_allclose(scored.q, np.sqrt(rz) * ry)


def test_negative_scores_rejected():
    phi = parse_phi_expression("r_z - 2")
    with pytest.raises(DataError, match="nonnegative"):
        score_from_arrays(
            [0.0, 0.0, 0.0],
            [1.0, 2.0, 3.0],
            [0.0, 0.0, 0.0],
            [1.0, 2.0, 3.0],
            ScoreSpec(kind="general", phi=phi),
        )


def test_tied_doses_rejected_in_scoring():
    with pytest.raises(DataError):
        score_from_arrays([1.0], [1.0], [0.0], [1.0], ScoreSpec())


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        ScoreSpec(kind="signed-rank")


# ------------------------------------------- exact randomization p-value --


def test_exact_pvalue_fixture(three_pairs_scored):
    assert exact_randomization_pvalue(three_pairs_scored) == pytest.approx(0.125)
    with pytest.raises(ConfigError):
        exact_randomization_pvalue(three_pairs_scored, side="less")


def test_exact_pvalue_extremes(three_pairs):
    scored = score(three_pairs, ScoreSpec(kind="wilcoxon"))
    # t = 0 is reached by every assignment on the greater side's complement
    zero = score_from_arrays(
        [0.0, 0.0, 0.0],
        [1.0, 2.0, 3.0],
        [1.0, 2.0, 3.0],
        [0.0, 0.0, 0.0],
        ScoreSpec(kind="wilcoxon"),
    )
    assert zero.t_obs == 0.0
    assert exact_randomization_pvalue(zero) == pytest.approx(1.0)
    assert exact_randomization_pvalue(scored) > 0.0


def test_exact_pvalue_matches_enumeration():
    rng = np.random.default_rng(11)
    sample = random_sample(rng, 10)
    scored = score(sample, ScoreSpec(kind="wilcoxon"))
    n = len(sample)
    q = scored.q
    hits = 0
    for mask in range(2**n):
        bits = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        t = float(np.sum(q[bits & ~scored.zero_diff]))
        hits += t >= scored.t_obs - 1e-12
    assert exact_randomization_pvalue(scored) == pytest.approx(hits / 2**n)


def test_enumeration_limit():
    rng = np.random.default_rng(0)
    sample = random_sample(rng, 26)
    scored = score(sample, ScoreSpec(kind="mcnemar"))
    with pytest.raises(DataError, match="limited"):
        exact_randomization_pvalue(scored)


@pytest.mark.parametrize("ties", ["average", "max"])
def test_rank_matches_scipy_on_ties(ties):
    from scipy.stats import rankdata

    rng = np.random.default_rng(3)
    for values in (
        rng.integers(0, 6, 40).astype(float),
        np.round(rng.normal(size=200), 1),
        np.array([2.0, 2.0, 2.0]),
        np.array([0.5]),
    ):
        expected = rankdata(values, method=ties).astype(float)
        assert np.array_equal(rank(values, ties=ties), expected)


def _tie_rows(rng, n_rows, n):
    """Rows with ties, zeros, infinities and NaNs among continuous values."""
    rows = np.round(rng.normal(0.0, 2.0, (n_rows, n)) * rng.choice([1.0, 4.0]), 1)
    specials = rng.random((n_rows, n))
    rows[specials < 0.05] = 0.0
    rows[specials > 0.97] = np.nan
    rows[(specials > 0.95) & (specials <= 0.97)] = np.inf
    return rows


@pytest.mark.parametrize("n", [1, 2, 7, 60, 301])
def test_row_wise_midranks_equal_rank_abs_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for rows in (_tie_rows(rng, 9, n), rng.normal(0.0, 1.0, (9, n))):
        ranks, tied = midranks(np.abs(rows))
        for row, got, has_ties in zip(rows, ranks, tied):
            np.testing.assert_array_equal(got, rank_abs(row))
            assert has_ties == (np.unique(np.abs(row)).size != n)


_ROW_SPECS = [
    ScoreSpec(kind="mcnemar"),
    ScoreSpec(kind="wilcoxon"),
    ScoreSpec(kind="dose-weighted-abs"),
    ScoreSpec(kind="double-rank"),
    ScoreSpec(kind="general", phi=parse_phi_expression("sqrt(r_z * r_y) + r_y")),
    ScoreSpec(kind="double-rank", normalize_ranks=True),
]


@pytest.mark.parametrize("spec", _ROW_SPECS, ids=lambda s: f"{s.kind}-{s.normalize_ranks}")
def test_score_rows_equal_score_from_arrays(spec):
    rng = np.random.default_rng(3)
    z1 = rng.uniform(0.0, 3.0, (6, 25))
    z2 = z1 + np.round(rng.uniform(-2.0, 2.0, (6, 25)), 1) + 0.05
    y1, y2 = np.round(rng.normal(0.0, 1.0, (2, 6, 25)), 1)
    rows = list(score_rows(z1 - z2, y1 - y2, spec))
    assert len(rows) == 6
    for r, got in enumerate(rows):
        want = score_from_arrays(z1[r], z2[r], y1[r], y2[r], spec)
        for name in ("q", "concordant", "zero_diff", "rank_z", "rank_y"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.t_obs == want.t_obs
        assert got.kind == want.kind


def test_score_rows_raise_at_the_failing_row():
    dose = np.array([[1.0, 2.0, 3.0], [1.0, 0.0, 2.0]])
    outcome = np.array([[1.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
    rows = score_rows(dose, outcome, ScoreSpec(kind="wilcoxon", ties="strict"))
    with pytest.raises(DataError, match="tied absolute differences"):
        next(rows)
    rows = score_rows(dose, outcome, ScoreSpec(kind="wilcoxon"))
    assert next(rows).t_obs == 6.0
    with pytest.raises(DataError, match="tied doses"):
        next(rows)
