"""Passes over the frozen draws a leaf at a time, against whole arrays.

Every mean over the draws is summed a leaf of at most ``gammas.LEAF`` terms
at a time, the leaf sums added along NumPy's pairwise tree, and the built-in
samplers add their terms block by block.  Each must give the bytes of the
whole-array computation (``tests/oracles.py``), at sizes either side of a
leaf as well as far from one.
"""

import json

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
