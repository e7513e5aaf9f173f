"""Matched-pair data model: ingestion, dose transforms, outcome adjustment.

A study is a collection of pairs matched on observed covariates, where the
two units of a pair received different doses of the treatment.  Within each
pair the units are stored dose-ordered (``z_lo < z_hi`` strictly), one
column per field; the original unit labels are kept so files round-trip.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

REQUIRED_COLUMNS = ("pair_id", "unit_id", "z", "y")
COVARIATE_PREFIX = "x_"


def _column(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(shape)
    arr.setflags(write=False)
    return arr


def _raise_first(checks) -> None:
    """Raise the error of the first pair that fails any check.

    ``checks`` holds ``(bad, message)`` pairs, a boolean mask over pairs and
    a function of the pair index, in the order one pair is checked; so the
    error is the one a pair-by-pair check would raise first.
    """
    bad = np.array([mask for mask, _ in checks])
    failing = np.flatnonzero(bad.any(axis=0))
    if failing.size:
        i = int(failing[0])
        raise DataError(checks[int(np.argmax(bad[:, i]))][1](i))


def _finite(name, col):
    return ~np.isfinite(col), lambda i: f"{name} must be finite, got {float(col[i])!r}"


class MatchedSample:
    """Matched pairs held as frozen columns, dose-ordered within each pair.

    Pair ``i`` has id ``pair_ids[i]``; its lower-dose unit is labelled
    ``unit_lo[i]`` and has dose ``z_lo()[i]``, outcome ``y_of_lo()[i]`` and
    covariate row ``x_lo[i]``, and likewise for the higher-dose unit.  Ids and
    labels are stored as strings; every check runs over whole columns but
    reports the first offending pair.
    """

    def __init__(self, pair_ids, unit_lo, unit_hi, z_lo, z_hi, y_lo, y_hi, x_lo=(), x_hi=()):
        n = len(pair_ids)
        if n == 0:
            raise DataError("a matched sample needs at least one pair")
        self._z_lo, self._z_hi, self._y_lo, self._y_hi = (
            _column(v, n) for v in (z_lo, z_hi, y_lo, y_hi)
        )
        self.x_lo, self.x_hi = (_column(x, (n, -1)) for x in (x_lo, x_hi))
        labels_lo = np.array(unit_lo, dtype=str)
        labels_hi = np.array(unit_hi, dtype=str)

        _raise_first([
            (labels_lo == labels_hi,
             lambda i: f"pair {pair_ids[i]!r}: duplicate unit id {unit_lo[i]!r}"),
            (self._z_lo == self._z_hi,
             lambda i: f"pair {pair_ids[i]!r}: tied doses ({float(self._z_hi[i])})"),
            _finite("z_lo", self._z_lo),
            _finite("z_hi", self._z_hi),
            _finite("y_of_lo", self._y_lo),
            _finite("y_of_hi", self._y_hi),
            (self._z_lo > self._z_hi, lambda i: f"pair {pair_ids[i]!r}: z_lo must be < z_hi"),
            (np.full(n, self.x_lo.shape != self.x_hi.shape),
             lambda i: f"pair {pair_ids[i]!r}: covariate length mismatch"),
        ])
        self.pair_ids = tuple(map(str, pair_ids))
        if len(set(self.pair_ids)) != n:
            is_first = np.zeros(n, dtype=bool)
            is_first[np.unique(self.pair_ids, return_index=True)[1]] = True
            raise DataError(f"duplicate pair id {self.pair_ids[np.argmin(is_first)]!r}")
        self.unit_lo = tuple(labels_lo.tolist())
        self.unit_hi = tuple(labels_hi.tolist())

    def _with_y_hi(self, y_hi) -> "MatchedSample":
        """The same pairs with new higher-dose outcomes (checked finite)."""
        y_hi = _column(y_hi, self.n_pairs)
        _raise_first([_finite("y_of_hi", y_hi)])
        out = copy.copy(self)
        out._y_hi = y_hi
        return out

    def __len__(self) -> int:
        return len(self.pair_ids)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_ids)

    @property
    def n_covariates(self) -> int:
        return self.x_hi.shape[1]

    def z_lo(self) -> np.ndarray:
        return self._z_lo

    def z_hi(self) -> np.ndarray:
        return self._z_hi

    def y_of_lo(self) -> np.ndarray:
        return self._y_lo

    def y_of_hi(self) -> np.ndarray:
        return self._y_hi

    def dose_diff(self) -> np.ndarray:
        """z_hi - z_lo, strictly positive."""
        return self._z_hi - self._z_lo

    def outcome_diff(self) -> np.ndarray:
        """y_hi - y_lo (higher-dose minus lower-dose outcome)."""
        return self._y_hi - self._y_lo


def _from_units(pair_ids, labels, z, y, x) -> MatchedSample:
    """Dose-order pairs given unit by unit in label order.

    ``labels``, ``z`` and ``y`` are (n, 2) arrays and ``x`` is (n, 2, k);
    column 0 holds the unit whose label sorts first.  That unit becomes the
    low unit only when its dose is strictly lower, so on a tied or NaN dose
    it is the high unit, which fixes the unit a failed check names.
    """
    rows = np.arange(len(pair_ids))
    hi = (z[:, 0] < z[:, 1]).astype(int)
    lo = 1 - hi
    return MatchedSample(
        pair_ids, labels[rows, lo].tolist(), labels[rows, hi].tolist(),
        z[rows, lo], z[rows, hi], y[rows, lo], y[rows, hi], x[rows, lo], x[rows, hi],
    )


def sample_from_arrays(z1, z2, y1, y2, pair_ids=None) -> MatchedSample:
    """Assemble a sample from parallel per-unit arrays (units labelled 1 and 2)."""
    z1, z2, y1, y2 = (np.asarray(v, dtype=float) for v in (z1, z2, y1, y2))
    if not (z1.shape == z2.shape == y1.shape == y2.shape):
        raise DataError("z1, z2, y1, y2 must have identical shapes")
    n = z1.size
    if pair_ids is None:
        pair_ids = np.arange(1, n + 1).astype(str).tolist()
    labels = np.tile(np.array(["1", "2"], dtype=object), (n, 1))
    return _from_units(
        pair_ids, labels, np.column_stack([z1, z2]), np.column_stack([y1, y2]),
        np.empty((n, 2, 0)),
    )


# -------------------------------------------------------------- dose link --


@dataclass(frozen=True)
class DoseLink:
    """Strictly monotone transform applied to doses before gap calculus.

    ``identity`` and ``log`` are closed forms; ``table`` is an explicit
    dose -> value map with no interpolation: every observed dose must appear
    in the table, and the mapped values must be strictly monotone in dose.
    """

    kind: str = "identity"
    table: tuple = ()

    _KINDS = ("identity", "log", "table")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown dose link {self.kind!r}")
        if self.kind == "table":
            if not self.table:
                raise ConfigError("table link needs at least one (dose, value) row")
            object.__setattr__(
                self,
                "table",
                tuple((float(d), float(v)) for d, v in self.table),
            )
            doses = [d for d, _ in self.table]
            if len(set(doses)) != len(doses):
                raise ConfigError("table link has duplicate dose entries")

    def apply(self, doses) -> np.ndarray:
        doses = np.asarray(doses, dtype=float)
        if self.kind == "identity":
            return doses.copy()
        if self.kind == "log":
            if np.any(doses <= 0):
                raise DataError("log dose link requires strictly positive doses")
            return np.log(doses)
        mapping = dict(self.table)
        try:
            values = np.array([mapping[float(d)] for d in np.atleast_1d(doses)])
        except KeyError as exc:
            raise DataError(f"dose {exc.args[0]!r} missing from table link") from exc
        return values.reshape(doses.shape)

    def validate_on(self, doses) -> None:
        """Check strict monotonicity of the link over the observed doses."""
        doses = np.asarray(doses, dtype=float)
        if self.kind == "identity":
            # monotone by construction; a NaN dose is the one way it fails
            if np.isnan(doses).any():
                raise DataError("dose link is not strictly monotone over observed doses")
            return
        doses = np.unique(doses)
        values = self.apply(doses)
        diffs = np.diff(values)
        if doses.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise DataError("dose link is not strictly monotone over observed doses")

    def gaps(self, z_a, z_b) -> np.ndarray:
        """|link(z_a) - link(z_b)| elementwise, after validating the link on
        the doses of both arrays.

        Returns a new array and never writes into ``z_a`` or ``z_b``.  The
        identity link checks for NaN doses and takes |z_a - z_b| in one
        array, without copying or concatenating the doses.
        """
        if self.kind != "identity":
            self.validate_on(np.concatenate([z_a, z_b]))
            return np.abs(self.apply(z_a) - self.apply(z_b))
        # monotone by construction, so each array can be checked alone
        self.validate_on(z_a)
        self.validate_on(z_b)
        gaps = np.subtract(z_a, z_b, dtype=float)
        return np.abs(gaps, out=gaps)


def link_gaps(sample: MatchedSample, link: DoseLink) -> np.ndarray:
    """|link(z_hi) - link(z_lo)| per pair, after validating the link."""
    return link.gaps(sample.z_hi(), sample.z_lo())


# ----------------------------------------------------------- effect model --


@dataclass(frozen=True)
class EffectModel:
    """Hypothesised treatment-effect model used to adjust observed outcomes.

    Supported kinds and their per-pair offsets (applied to the higher-dose
    unit; ``d = z_hi - z_lo``):

    * ``constant``: beta[0] * d
    * ``effect-modification``: (beta[0] + beta[1] * x_k) * d, where x_k is
      the designated covariate of the higher-dose unit
    * ``kink``: slope beta[0] below a bend at z0 + beta[2] and beta[1] above
      it; the offset uses whichever branch the pair's doses fall in, with
      the crossing branch written out literally as
      beta[1]*(z_hi - z0) - beta[0]*(z_hi - z0).

    ``z0`` defaults to the smallest low dose in the sample being adjusted.
    """

    kind: str
    beta: tuple
    modifier_index: int | None = None
    z0: float | None = None

    _SIZES = {"constant": 1, "effect-modification": 2, "kink": 3}

    def __post_init__(self):
        if self.kind not in self._SIZES:
            raise ConfigError(f"unknown effect model {self.kind!r}")
        beta = tuple(float(b) for b in np.atleast_1d(self.beta))
        object.__setattr__(self, "beta", beta)
        if len(beta) != self._SIZES[self.kind]:
            raise ConfigError(
                f"{self.kind} model needs {self._SIZES[self.kind]} coefficients, "
                f"got {len(beta)}"
            )
        if self.kind == "effect-modification":
            if self.modifier_index is None:
                raise ConfigError("effect-modification model needs modifier_index")
        if self.kind == "kink" and beta[2] <= 0:
            raise ConfigError("kink model needs a positive bend offset beta[2]")

    def offsets(self, sample: MatchedSample) -> np.ndarray:
        """Per-pair hypothesised effect of moving from z_lo to z_hi."""
        z_lo = sample.z_lo()
        z_hi = sample.z_hi()
        d = z_hi - z_lo
        if self.kind == "constant":
            return self.beta[0] * d
        if self.kind == "effect-modification":
            k = self.modifier_index
            if not 0 <= k < sample.n_covariates:
                raise DataError(
                    f"modifier_index {k} out of range for "
                    f"{sample.n_covariates} covariates"
                )
            return (self.beta[0] + self.beta[1] * sample.x_hi[:, k]) * d
        # kink
        b1, b2, bend = self.beta
        z0 = self.z0 if self.z0 is not None else float(sample.z_lo().min())
        if z0 > sample.z_lo().min():
            raise DataError("kink reference z0 must not exceed the smallest low dose")
        lo_rel = z_lo - z0
        hi_rel = z_hi - z0
        below = hi_rel < bend
        above = lo_rel >= bend
        crossing = ~below & ~above
        out = np.empty_like(d)
        out[below] = b1 * d[below]
        out[above] = b2 * d[above]
        out[crossing] = b2 * (hi_rel[crossing]) - b1 * (hi_rel[crossing])
        return out


def adjust_outcomes(sample: MatchedSample, model: EffectModel) -> MatchedSample:
    """Remove the hypothesised effect from the higher-dose unit's outcome.

    Under the hypothesised model the adjusted outcomes are free of the
    treatment effect, so downstream tests behave as under a null of no
    effect.
    """
    return sample._with_y_hi(sample.y_of_hi() - model.offsets(sample))


# -------------------------------------------------------------------- csv --


def read_csv(path) -> MatchedSample:
    """Read matched pairs from ``pair_id,unit_id,z,y[,x_*...]`` rows.

    Each pair id must appear on exactly two rows with distinct unit ids and
    distinct doses.  Rows may come in any order; extra columns are ignored.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DataError(f"missing required columns: {', '.join(missing)}")
        x_cols = [c for c in header if c.startswith(COVARIATE_PREFIX)]
        by_pair: dict = {}
        order: list = []
        for line_no, row in enumerate(reader, start=2):
            pid = row["pair_id"]
            if pid is None or pid == "":
                raise DataError(f"line {line_no}: empty pair_id")
            try:
                z = float(row["z"])
                y = float(row["y"])
                x = tuple(float(row[c]) for c in x_cols)
            except (TypeError, ValueError) as exc:
                raise DataError(f"line {line_no}: non-numeric field: {exc}") from exc
            if pid not in by_pair:
                by_pair[pid] = []
                order.append(pid)
            by_pair[pid].append((row["unit_id"], z, y, x))
    labels, z, y, x = [], [], [], []

    def assemble(ids):
        n = len(ids)
        return _from_units(
            ids,
            np.array(labels, dtype=object).reshape(n, 2),
            np.array(z).reshape(n, 2),
            np.array(y).reshape(n, 2),
            np.array(x, dtype=float).reshape(n, 2, len(x_cols)),
        )

    for k, pid in enumerate(order):
        units = by_pair[pid]
        if len(units) != 2:
            if k:  # a fault of an earlier pair is reported first
                assemble(order[:k])
            raise DataError(f"pair {pid!r} has {len(units)} rows, expected 2")
        # canonicalize by unit label so row order in the file is irrelevant
        a, b = sorted(units, key=lambda u: str(u[0]))
        labels.append((a[0], b[0]))
        z.append((a[1], b[1]))
        y.append((a[2], b[2]))
        x.append((a[3], b[3]))
    return assemble(order)


def write_csv(sample: MatchedSample, path) -> None:
    """Write a sample back to the ingestion schema (numeric fields via repr,
    so a read/write/read cycle reproduces the floats bit for bit)."""
    x_cols = [f"x_{i + 1}" for i in range(sample.n_covariates)]
    units = zip(
        zip(sample.unit_lo, sample.z_lo().tolist(), sample.y_of_lo().tolist(), sample.x_lo.tolist()),
        zip(sample.unit_hi, sample.z_hi().tolist(), sample.y_of_hi().tolist(), sample.x_hi.tolist()),
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*REQUIRED_COLUMNS, *x_cols])
        for pair_id, rows in zip(sample.pair_ids, units):
            for unit_id, z, y, x in sorted(rows, key=lambda r: r[0]):
                writer.writerow([pair_id, unit_id, *map(repr, (z, y, *x))])
