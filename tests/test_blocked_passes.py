"""Passes over the frozen draws a leaf at a time, against whole arrays.

Every mean over the draws is summed a leaf of at most ``gammas.LEAF`` terms
at a time, the leaf sums added along NumPy's pairwise tree; the built-in
samplers draw their last outcome array a leaf at a time and add their terms
leaf by leaf, and the frozen draw keeps only the pair differences.  Each
must give the bytes of the whole-array computation (``tests/oracles.py``),
at sizes either side of a leaf as well as far from one.
"""

import json
from functools import partial

import numpy as np
import pytest

from dosesens import asymptotics, gammas
from dosesens.asymptotics import bahadur_slope, design_sensitivity
from dosesens.dgps import DgpSpec
from dosesens.pairs import DoseLink

from oracles import (
    reference_components,
    reference_draw,
    reference_lhs_and_slope,
    reference_newton_bahadur_slope,
    reference_newton_design_sensitivity,
)

LEAF = gammas.LEAF
SIZES = [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 8, 1_000_003]


@pytest.mark.parametrize("n", SIZES)
def test_pairwise_sum_adds_leaves_as_add_reduce_adds_the_run(n):
    rng = np.random.default_rng(n)
    terms = np.exp(rng.normal(0.0, 3.0, n))
    total = gammas.pairwise_sum(lambda i, j: np.add.reduce(terms[i:j]), 0, n)
    assert total == np.add.reduce(terms)
    assert total / n == terms.mean()


@pytest.mark.parametrize("n", SIZES[:4])
def test_pairwise_sum_of_rows_through_column_views(n):
    rows = np.exp(np.random.default_rng(n).normal(0.0, 3.0, (3, n)))
    total = gammas.pairwise_sum(lambda i, j: np.add.reduce(rows[:, i:j], axis=1), 0, n)
    assert total.tobytes() == np.add.reduce(rows, axis=1).tobytes()


BUILTIN = [
    ("paired-normal", {"effect": 0.5}),
    ("paired-normal", {"effect": 0.3, "pair_noise_sd": 0.7, "noise_sd": 0.5}),
    ("null", {}),
    ("fixed-concordance", {"theta": 0.7}),
    ("constant-gap", {"effect": 0.5, "gap": 1.0}),
]


@pytest.mark.parametrize("n", [LEAF - 1, LEAF + 1, 2 * LEAF + 9])
@pytest.mark.parametrize("sampler,params", BUILTIN)
def test_builtin_samplers_give_the_whole_array_bytes(sampler, params, n):
    dgp = DgpSpec(sampler=sampler, params=params, mc_draws=n, seed=11)
    for got, want in zip(dgp.draw(), reference_draw(dgp)):
        assert got.tobytes() == want.tobytes()


# every distribution the built-in samplers draw, with the arguments they use
DISTRIBUTIONS = {
    "normal": lambda rng, m: rng.normal(0.0, 0.7, m),
    "uniform": lambda rng, m: rng.uniform(0.5, 3.0, m),
    "integers": lambda rng, m: rng.integers(0, 2, m),
    "random": lambda rng, m: rng.random(m),
}


@pytest.mark.parametrize("leaf", [LEAF, 1000, 777])
@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_a_generator_draws_the_same_values_a_leaf_at_a_time(name, leaf):
    draw, n = DISTRIBUTIONS[name], 2 * LEAF + 8
    whole, leafwise = np.random.default_rng(41), np.random.default_rng(41)
    for rng in (whole, leafwise):
        rng.random(3)  # a generator part of the way through its stream
    expected = draw(whole, n)
    got = np.concatenate([draw(leafwise, min(leaf, n - i)) for i in range(0, n, leaf)])
    assert got.tobytes() == expected.tobytes()
    assert leafwise.bit_generator.state == whole.bit_generator.state


# positive doses, so the log link applies
DIFFERENCE_CASES = [
    ("paired-normal", {"effect": 0.3, "pair_noise_sd": 0.7, "noise_sd": 0.5}),
    ("null", {"pair_noise_sd": 0.4}),
    ("fixed-concordance", {"theta": 0.7}),
    ("constant-gap", {"effect": 0.5, "gap": 0.5}),
]


@pytest.mark.parametrize("n", [LEAF - 1, LEAF + 1, 2 * LEAF + 8])
@pytest.mark.parametrize("stream", [(), (3, 1)])
@pytest.mark.parametrize("link", [DoseLink(), DoseLink(kind="log")], ids=["identity", "log"])
@pytest.mark.parametrize("sampler,params", DIFFERENCE_CASES)
def test_frozen_draw_gives_the_bytes_of_the_whole_array_differences(
    sampler, params, link, stream, n
):
    params = {**params, "dose_low": 1.0, "dose_high": 3.0}
    dgp = DgpSpec(sampler=sampler, params=params, link=link, mc_draws=n, seed=23)
    dose_diff, outcome_diff, gaps = dgp.draw_into(
        partial(asymptotics._pair_differences, link), stream
    )
    z1, z2, y1, y2 = reference_draw(dgp, stream)
    assert dose_diff.tobytes() == (z1 - z2).tobytes()
    assert outcome_diff.tobytes() == (y1 - y2).tobytes()
    if link.kind == "identity":
        assert gaps is None
    else:
        assert gaps.tobytes() == link.gaps(z1, z2).tobytes()


def _custom_sampler(rng, n):
    z1 = rng.uniform(1.0, 2.0, n)
    z2 = rng.uniform(1.0, 2.0, n)
    return z1, z2, 0.4 * z1 + rng.normal(0.0, 1.0, n), 0.4 * z2 + rng.normal(0.0, 1.0, n)


def _custom_phi(u, v):
    return np.sqrt(u) + v


CASES = [
    *(dict(sampler=sampler, params=params, phi="wilcoxon") for sampler, params in BUILTIN),
    dict(sampler="constant-gap", params={"effect": 0.5, "gap": 1.0}, phi="mcnemar"),
    dict(sampler="fixed-concordance", params={"theta": 0.7}, phi="double-rank"),
    dict(sampler="paired-normal", params={"effect": 0.5}, phi="sqrt(r_z * r_y) + r_y"),
    dict(sampler=_custom_sampler, phi=_custom_phi),
    dict(sampler="paired-normal", params={"effect": 0.5, "dose_low": 1.0, "dose_high": 3.0},
         phi="double-rank", link=DoseLink(kind="log")),
]


def _outcome(solve, *args, **kwargs):
    try:
        return json.dumps(solve(*args, **kwargs).to_json_dict(), sort_keys=True)
    except Exception as err:  # the same error class on both sides
        return type(err).__name__


@pytest.mark.parametrize("n", [LEAF - 1, LEAF + 1, 2 * LEAF + 9])
def test_design_sensitivity_pass_gives_the_whole_array_bytes(n):
    rng = np.random.default_rng(n)
    phi, gaps = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 2.0, n)
    got, want = asymptotics._lhs_and_slope(phi, gaps), reference_lhs_and_slope(phi, gaps)
    for g in (0.0, 0.3, 1.7):
        assert got(g) == want(g)


@pytest.mark.parametrize("n", [LEAF - 1, LEAF + 1, 2 * LEAF + 9])
@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("stream", [(), (3, 1)])
def test_planning_solves_give_the_whole_array_bytes(case, n, stream):
    dgp = DgpSpec(**CASES[case], mc_draws=n, seed=29)
    for got, want in zip(asymptotics._population_components(dgp, stream),
                         reference_components(dgp, stream)):
        assert got.tobytes() == want.tobytes()
    star = _outcome(design_sensitivity, dgp, stream=stream)
    assert star == _outcome(reference_newton_design_sensitivity, dgp, stream=stream)
    gamma_bar_star = json.loads(star)["gamma_bar_star"]
    for gamma_bar in (1.0, 1.0 + 0.5 * (gamma_bar_star - 1.0), gamma_bar_star):
        assert _outcome(bahadur_slope, dgp, gamma_bar, stream=stream) == _outcome(
            reference_newton_bahadur_slope, dgp, gamma_bar, stream=stream
        )


def test_scaled_spread_near_the_exp_guard_gives_the_whole_array_bytes():
    # 1 % of pairs a unit apart in dose: gamma_star sits near the exp() guard,
    # so the squared amplifications overflow and the scaled spread is taken
    def sampler(rng, n):
        z1 = rng.uniform(0.0, 1.0, n)
        gap = np.where(rng.random(n) < 0.99, 1e-3, 1.0)
        z2 = z1 + np.where(rng.random(n) < 0.5, -gap, gap)
        agree = np.where(rng.random(n) < 0.66, 1.0, -1.0)
        diff = np.sign(z1 - z2) * agree * np.abs(rng.normal(0.0, 1.0, n))
        mid = rng.normal(0.0, 1.0, n)
        return z1, z2, mid + 0.5 * diff, mid - 0.5 * diff

    dgp = DgpSpec(sampler=sampler, phi="mcnemar", mc_draws=LEAF + 1, seed=47)
    star = _outcome(design_sensitivity, dgp)
    assert json.loads(star)["gamma_star"] > 560.0
    assert star == _outcome(reference_newton_design_sensitivity, dgp)
