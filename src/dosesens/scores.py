"""Signed-score statistics for dose-matched pairs.

Each pair contributes its nonnegative score q_i to the statistic when the
pair is concordant, i.e. when the higher-dose unit also had the strictly
higher outcome:

    T = sum_i q_i * 1{(Z_i1 - Z_i2)(Y_i1 - Y_i2) > 0}.

A zero outcome difference never counts as concordant.  Built-in score kinds
(r^z, r^y are the ranks of the absolute dose and outcome differences, with
mid-ranks for ties by default):

* ``mcnemar``             q_i = 1
* ``wilcoxon``            q_i = r^y_i
* ``dose-weighted-abs``   q_i = |Z_i1 - Z_i2| * r^y_i
* ``double-rank``         q_i = r^z_i * r^y_i   (alias ``dose-weighted-rank``)
* ``general``             q_i = phi(r^z_i, r^y_i) for a user callable phi >= 0
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError
from .pairs import MatchedSample

KINDS = ("mcnemar", "wilcoxon", "dose-weighted-abs", "double-rank", "general")
_KIND_ALIASES = {"dose-weighted-rank": "double-rank"}


def rank(values, ties: str = "average") -> np.ndarray:
    """Ranks 1..n of a 1-d array; a block of tied values shares the mean
    (``"average"``) or the largest (``"max"``) of the ranks it spans.

    Ranks are integers or half-integers, exact in float64.
    """
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    top = np.cumsum(counts)
    shared = top if ties == "max" else top - 0.5 * (counts - 1)
    return shared[inverse].astype(float)


def rank_abs(values, ties: str = "midrank") -> np.ndarray:
    """Ranks of |values|; ties get mid-ranks, or raise in strict mode."""
    values = np.abs(np.asarray(values, dtype=float))
    if ties == "strict":
        if np.unique(values).size != values.size:
            raise DataError("tied absolute differences under ties='strict'")
    elif ties != "midrank":
        raise ConfigError(f"unknown tie rule {ties!r}")
    return rank(values)


@dataclass(frozen=True)
class ScoreSpec:
    """Configuration of a signed-score statistic."""

    kind: str = "wilcoxon"
    phi: Callable | None = None
    normalize_ranks: bool = False
    ties: str = "midrank"

    def __post_init__(self):
        kind = _KIND_ALIASES.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in KINDS:
            raise ConfigError(f"unknown score kind {self.kind!r}")
        if kind == "general" and self.phi is None:
            raise ConfigError("general score kind needs a phi callable")
        if kind != "general" and self.phi is not None:
            raise ConfigError(f"phi is only used with kind='general', not {kind!r}")
        if self.ties not in ("midrank", "strict"):
            raise ConfigError(f"unknown tie rule {self.ties!r}")


@dataclass(frozen=True)
class ScoredSample:
    """Scores, concordance pattern and the observed statistic for one sample."""

    q: np.ndarray
    concordant: np.ndarray
    zero_diff: np.ndarray
    rank_z: np.ndarray
    rank_y: np.ndarray
    t_obs: float
    kind: str
    pair_ids: tuple | None = None

    def __post_init__(self):
        for name in ("q", "concordant", "zero_diff", "rank_z", "rank_y"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_pairs(self) -> int:
        return int(self.q.size)


def _compute_scores(spec, abs_dose_diff, rank_z, rank_y):
    if spec.kind == "mcnemar":
        return np.ones_like(rank_y)
    if spec.kind == "wilcoxon":
        return rank_y.copy()
    if spec.kind == "dose-weighted-abs":
        return abs_dose_diff * rank_y
    if spec.kind == "double-rank":
        return rank_z * rank_y
    q = np.asarray(spec.phi(rank_z, rank_y), dtype=float)
    if q.shape != rank_y.shape:
        raise DataError("phi must return one score per pair")
    return q


def score_from_arrays(z1, z2, y1, y2, spec: ScoreSpec, pair_ids=None) -> ScoredSample:
    """Score pairs given as parallel per-unit arrays."""
    z1, z2, y1, y2 = (np.asarray(v, dtype=float) for v in (z1, z2, y1, y2))
    dose_diff = z1 - z2
    outcome_diff = y1 - y2
    if np.any(dose_diff == 0):
        raise DataError("tied doses within a pair")
    product = dose_diff * outcome_diff
    concordant = product > 0
    zero_diff = outcome_diff == 0.0

    rank_z = rank_abs(dose_diff, ties=spec.ties)
    rank_y = rank_abs(outcome_diff, ties=spec.ties)
    n = rank_y.size
    if spec.normalize_ranks:
        rank_z = rank_z / n
        rank_y = rank_y / n
    q = _compute_scores(spec, np.abs(dose_diff), rank_z, rank_y)
    if not np.all(np.isfinite(q)):
        raise DataError("scores must be finite")
    if np.any(q < 0):
        raise DataError("scores must be nonnegative")
    t_obs = float(q @ concordant)
    return ScoredSample(
        q=q,
        concordant=concordant,
        zero_diff=zero_diff,
        rank_z=rank_z,
        rank_y=rank_y,
        t_obs=t_obs,
        kind=spec.kind,
        pair_ids=tuple(pair_ids) if pair_ids is not None else None,
    )


def score(sample: MatchedSample, spec: ScoreSpec) -> ScoredSample:
    """Score a matched sample (dose-ordered, so the dose diff is z_hi - z_lo)."""
    return score_from_arrays(
        sample.z_hi(),
        sample.z_lo(),
        sample.y_of_hi(),
        sample.y_of_lo(),
        spec,
        pair_ids=sample.pair_ids,
    )


# ------------------------------------------------- phi expression parsing --

_PHI_FUNCS = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "log": np.log,
    "exp": np.exp,
    "minimum": np.minimum,
    "maximum": np.maximum,
}
_ALLOWED_NAMES = {"r_z", "r_y"}
_ALLOWED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_phi_expression(expr: str) -> Callable:
    """Compile an arithmetic expression over ``r_z`` and ``r_y`` to a callable.

    Only arithmetic operators, numeric literals and a small set of
    elementwise functions are allowed; anything else is rejected.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"invalid phi expression: {exc}") from exc

    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load)):
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_OPS):
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            continue
        if isinstance(node, ast.Name) and node.id in (_ALLOWED_NAMES | set(_PHI_FUNCS)):
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _PHI_FUNCS and not node.keywords:
                continue
        if isinstance(node, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)):
            continue
        raise ConfigError(f"disallowed element in phi expression: {ast.dump(node)}")

    code = compile(tree, "<phi>", "eval")

    def phi(r_z, r_y):
        namespace = {"r_z": r_z, "r_y": r_y, **_PHI_FUNCS}
        return np.asarray(eval(code, {"__builtins__": {}}, namespace), dtype=float)

    phi.expression = expr
    return phi
