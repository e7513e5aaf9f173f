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
from .gammas import LEAF
from .pairs import MatchedSample

KINDS = ("mcnemar", "wilcoxon", "dose-weighted-abs", "double-rank", "general")
_KIND_ALIASES = {"dose-weighted-rank": "double-rank"}


def rank(values, ties: str = "average", out=None) -> np.ndarray:
    """Ranks 1..n of a 1-d array; a block of tied values shares the mean
    (``"average"``) or the largest (``"max"``) of the ranks it spans.

    One argsort orders the values.  Ties are found a leaf of ``gammas.LEAF``
    sorted positions at a time, over ``values[order[i:j + 1]]``, so no
    sorted copy of the values is made; NaNs form one block, as they do in
    ``np.unique``.  Without ties, the ranks are the sorted positions plus
    one, written a leaf at a time too: beside the ranks, ``rank`` then holds
    the order and a byte a value.  With ties, running minima and maxima
    over the sorted positions find where each block of equal values ends
    and starts.  Ranks are integers or half-integers, exact in float64.
    They are written into ``out`` when it is given, which may be ``values``
    itself.
    """
    values = np.asarray(values)
    n = values.size
    order = np.argsort(values)
    # tied[i]: sorted positions i and i + 1 hold one value
    tied = np.empty(max(n - 1, 0), dtype=bool)
    for i in range(0, n, LEAF):
        j = min(i + LEAF, n)
        ordered = values[order[i:j + 1]]
        np.equal(ordered[1:], ordered[:-1], out=tied[i:j])
        if ordered.dtype.kind == "f" and np.isnan(ordered[-1]):
            tied[i + np.searchsorted(ordered, ordered[-1]):j] = True  # NaNs sort last
    ranks = np.empty(n) if out is None else out
    if not tied.any():
        del tied
        for i in range(0, n, LEAF):
            j = min(i + LEAF, n)
            ranks[order[i:j]] = np.arange(i + 1.0, j + 1.0)
        return ranks
    # last (0-based) sorted position of each position's block
    shared = np.arange(n, dtype=float)
    np.copyto(shared[:-1], np.inf, where=tied)
    np.minimum.accumulate(shared[::-1], out=shared[::-1])
    if ties == "max":
        shared += 1.0
    else:
        first = np.arange(n, dtype=float)
        np.copyto(first[1:], -np.inf, where=tied)
        np.maximum.accumulate(first, out=first)
        shared += first
        shared *= 0.5
        shared += 1.0
    ranks[order] = shared
    return ranks


_STRICT_TIES = "tied absolute differences under ties='strict'"


def rank_abs(values, ties: str = "midrank") -> np.ndarray:
    """Ranks of |values|; ties get mid-ranks, or raise in strict mode."""
    values = np.abs(np.asarray(values, dtype=float))
    if ties == "strict":
        if np.unique(values).size != values.size:
            raise DataError(_STRICT_TIES)
    elif ties != "midrank":
        raise ConfigError(f"unknown tie rule {ties!r}")
    return rank(values)


def midranks(values) -> tuple:
    """``rank`` of every row of a 2-d array, and whether each row has ties.

    Each row is sorted once and each block of equal values gets the mean of
    the ranks it spans: the same exact half-integers as ``rank``, bit for
    bit.  NaNs form one block, as they do in ``np.unique``.
    """
    values = np.asarray(values, dtype=float)
    n_rows, n = values.shape
    order = np.argsort(values, axis=1)
    ordered = np.take_along_axis(values, order, axis=1)
    nan = np.isnan(ordered)
    same = (ordered[:, 1:] == ordered[:, :-1]) | (nan[:, 1:] & nan[:, :-1])
    edge = np.zeros((n_rows, 1), dtype=bool)
    index = np.arange(n)
    # each position's block spans first..last of the sorted row
    first = np.maximum.accumulate(
        np.where(np.hstack([edge, same]), 0, index), axis=1
    )
    last = np.minimum.accumulate(
        np.where(np.hstack([same, edge]), n - 1, index)[:, ::-1], axis=1
    )[:, ::-1]
    ranks = np.empty_like(values)
    np.put_along_axis(ranks, order, 0.5 * (first + last) + 1.0, axis=1)
    return ranks, same.any(axis=1)


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


def _check_doses(dose_diff) -> None:
    if np.any(dose_diff == 0):
        raise DataError("tied doses within a pair")


def _ranked_scores(spec, dose_diff, outcome_diff, rank_z, rank_y, pair_ids=None):
    """The scored sample, once both rank vectors are taken."""
    concordant = dose_diff * outcome_diff > 0
    zero_diff = outcome_diff == 0.0
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


def score_from_arrays(z1, z2, y1, y2, spec: ScoreSpec, pair_ids=None) -> ScoredSample:
    """Score pairs given as parallel per-unit arrays."""
    z1, z2, y1, y2 = (np.asarray(v, dtype=float) for v in (z1, z2, y1, y2))
    dose_diff = z1 - z2
    outcome_diff = y1 - y2
    _check_doses(dose_diff)
    rank_z = rank_abs(dose_diff, ties=spec.ties)
    rank_y = rank_abs(outcome_diff, ties=spec.ties)
    return _ranked_scores(spec, dose_diff, outcome_diff, rank_z, rank_y, pair_ids)


def score_rows(dose_diff, outcome_diff, spec: ScoreSpec):
    """``score_from_arrays`` of every row of stacked (R, n) pair differences.

    The ranks of all rows are taken at once (:func:`midranks`); the rows are
    then checked and scored one at a time, lazily, so a row that fails
    raises its error only when it is reached.  A general ``phi`` sees one
    row's 1-d rank vectors, as it does in ``score_from_arrays``.
    """
    rank_z, tied_z = midranks(np.abs(dose_diff))
    rank_y, tied_y = midranks(np.abs(outcome_diff))
    for r in range(len(dose_diff)):
        _check_doses(dose_diff[r])
        if spec.ties == "strict" and (tied_z[r] or tied_y[r]):
            raise DataError(_STRICT_TIES)
        yield _ranked_scores(spec, dose_diff[r], outcome_diff[r], rank_z[r], rank_y[r])


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
# Python's integer powers grow without bound: 9 ** 9 ** 9 never finishes
MAX_PHI_EXPONENT = 64
MAX_PHI_LENGTH = 1000


def _check_power(node: ast.BinOp) -> None:
    """A power's exponent is a number literal, with an optional sign, of
    absolute value at most ``MAX_PHI_EXPONENT``, and its base holds no other
    power; so no integer the expression makes grows past some 64 times the
    expression's length in digits."""
    exponent = node.right
    if isinstance(exponent, ast.UnaryOp) and isinstance(exponent.op, (ast.USub, ast.UAdd)):
        exponent = exponent.operand
    if not (
        isinstance(exponent, ast.Constant)
        and type(exponent.value) in (int, float)
        and abs(exponent.value) <= MAX_PHI_EXPONENT
    ):
        raise ConfigError(
            "phi expression exponents must be numbers of absolute value at "
            f"most {MAX_PHI_EXPONENT}"
        )
    if any(isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Pow)
           for inner in ast.walk(node.left)):
        raise ConfigError("phi expression powers may not be nested")


def parse_phi_expression(expr: str) -> Callable:
    """Compile an arithmetic expression over ``r_z`` and ``r_y`` to a callable.

    Only arithmetic operators, numeric literals and a small set of
    elementwise functions are allowed; anything else is rejected, and so
    are expressions longer than ``MAX_PHI_LENGTH`` characters and powers
    that ``_check_power`` does not allow, before anything is evaluated.
    """
    if len(expr) > MAX_PHI_LENGTH:
        raise ConfigError(f"phi expression is longer than {MAX_PHI_LENGTH} characters")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"invalid phi expression: {exc}") from exc
    except (RecursionError, MemoryError) as exc:  # the parser's stack overflowed
        raise ConfigError("phi expression nests too deeply") from exc

    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load)):
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_OPS):
            if isinstance(node.op, ast.Pow):
                _check_power(node)
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

    try:
        code = compile(tree, "<phi>", "eval")
    except RecursionError as exc:
        raise ConfigError("phi expression nests too deeply") from exc

    def phi(r_z, r_y):
        namespace = {"r_z": r_z, "r_y": r_y, **_PHI_FUNCS}
        try:
            # NumPy's floating-point warnings stay silent: a NaN or infinite
            # score is reported once, by the finiteness check of the caller
            with np.errstate(all="ignore"):
                value = eval(code, {"__builtins__": {}}, namespace)
                # Python-number arithmetic (1 / 0), NumPy on a number too
                # large for it (exp(10**23)) and the conversion below
                if np.iscomplexobj(value):  # (-8) ** 0.5
                    raise ValueError("the value is complex")
                return np.asarray(value, dtype=float)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(f"phi expression cannot be evaluated: {exc}") from exc

    phi.expression = expr
    return phi
