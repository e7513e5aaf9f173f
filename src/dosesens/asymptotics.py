"""Large-sample operating characteristics of signed-score sensitivity tests.

Two quantities are computed for a data-generating process and a rank-score
function phi:

* the *design sensitivity*: the bias strength at which the worst-case test
  transitions from consistent to powerless.  gamma_star solves

      E[phi(U, V) * logistic(gamma * gap)] = E[phi(U, V) * 1{concordant}],

  where U, V are the population ranks of the dose and outcome gaps and
  ``gap`` is the transformed dose gap; the left side increases strictly in
  gamma whenever some gap is positive.  The headline number is
  gamma_bar_star = E[exp(gamma_star * gap)].

* the *Bahadur slope* of the worst-case test at a bias level below the
  design sensitivity: with mu = E[phi * 1{concordant}] and worst-case
  success probabilities p_i, the slope is 2*(t*mu - omega0(t)) at the root
  t of omega1(t) = mu, where

      omega0(t) = E[log(p*exp(t*phi) + 1 - p)],
      omega1(t) = E[p*phi*exp(t*phi) / (p*exp(t*phi) + 1 - p)].

  -log(p-value)/I converges to half the slope; the root is t = 0 (slope 0)
  exactly when the bias level equals the design sensitivity.

Population expectations are replaced by one frozen Monte Carlo draw per
DgpSpec, so ``design_sensitivity`` and ``bahadur_slope`` with the same spec
see identical draws and their fixed points agree to tolerance rather than to
Monte Carlo noise.  Only the ranks that phi reads are computed: McNemar reads
neither, Wilcoxon only V.

Both equations are solved by one safeguarded Newton iteration (``rtsafe``):
a doubling bracket, then Newton steps from its lower end, each taking the
function and its derivative from the same pass over the draws,

    d/dgamma  E[phi * logistic(gamma * gap)] = E[phi * gap * s * (1 - s)],
    d/dt      omega1(t)                      = E[phi^2 * s * (1 - s)],

with s the logistic term in each.  For gamma, t >= 0 both left sides are
increasing and concave (gaps >= 0 and p >= 1/2), so Newton from below
climbs to the root without overshooting; a step that still leaves the
bracket is replaced by the bracket midpoint.  On the built-in DGPs a solve
takes five to seven passes, bracket included, where bisection took 43 to 45.

Every mean over the draws is taken a leaf of at most ``gammas.LEAF``
draws at a time, in scratch arrays of one leaf made once per solve, and the
leaf sums are added along NumPy's pairwise tree (``gammas.pairwise_sum``):
the same bits as ``ndarray.mean`` or ``np.std`` over a draw-sized array,
which no pass makes.  A design-sensitivity pass reads the gaps and phi, a
slope pass phi and p.  The frozen draw comes as the two pair differences,
the last outcome array drawn and subtracted a leaf at a time
(``_pair_differences``), so drawing holds three arrays of the draw's size
(four with shared pair noise; z1, y1 and one-byte coin flips for constant
gap), and a rank holds the sort order and a byte a draw beside the gaps,
the concordance and the differences (``_population_components``): 22 to
37 bytes a draw at the peak on the built-in samplers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .dgps import DgpSpec, rank_score_fn  # noqa: F401  (re-exported API)
from .errors import ConfigError, DataError, SolverError
from .gammas import (
    LEAF,
    MAX_EXPONENT,
    blocks,
    gamma_for_mean_bound,
    gather,
    leaves,
    pairwise_sum,
)
from .scores import rank

_MAX_ITER = 200
_STEP_TOL = 1e-13  # distance to the root, relative to max(1, x), that ends a solve


@dataclass(frozen=True)
class DesignSensitivityResult:
    gamma_star: float
    gamma_bar_star: float
    lhs_rhs_residual: float
    mc_std_err: float
    null_case: bool
    non_monotone_lhs: bool
    mc_draws: int
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BahadurResult:
    gamma_bar: float
    mu: float
    t_tilde: float
    omega0_at_t: float
    slope: float
    mc_draws: int
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _expit(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + e^-x), written over ``x`` and returned;
    every argument here is >= 0, so e^-x never overflows."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _pair_differences(link, z1, z2, y1, y2):
    """Sink of the frozen draw (``DgpSpec.draw_into``): ``(dose_diff,
    outcome_diff, gaps)``.

    The differences z1 - z2 and y1 - y2 are written over z1 and y1 a leaf at
    a time, so y2, and a z2 that comes in leaves, never exist whole.  The
    link is checked on the doses first: the identity link's NaN check takes
    z2 a leaf at a time, and its gaps are left to the caller (None), as
    |dose_diff|; any other link's gaps are taken here, from z2 whole.
    """
    n = z1.size
    if link.kind == "identity":
        link.validate_on(z1)
        gaps = None
    else:
        z2 = gather(z2, n)
        gaps = link.gaps(z1, z2)
    z2, y2 = leaves(z2), leaves(y2)
    tied = False
    for b in blocks(n):
        y1[b] -= y2(b)  # before z1[b] changes: a leaf of y2 may read it
        low = z2(b)
        if gaps is None:
            link.validate_on(low)
        dose_diff = np.subtract(z1[b], low, out=z1[b])
        tied = tied or not dose_diff.all()
    if tied:
        raise DataError("DGP produced tied doses within a pair")
    return z1, y1, gaps


def _population_components(dgp: DgpSpec, stream: tuple = ()):
    """Frozen draws -> (transformed gaps, concordance, phi values).

    A nonempty ``stream`` keys an independent set of draws (same size), for
    assessing the Monte Carlo variability of the outputs.

    The gaps and the concordance are new arrays that the caller may
    overwrite; the phi values may be a read-only view or an array that a
    custom phi keeps, and are only read.  The draw comes as the two pair
    differences (``_pair_differences``), and the concordance is found from
    them a leaf at a time before the gaps: the identity link's gaps,
    |dose_diff|, are then taken over the dose difference when phi does not
    read its rank.  Each rank phi reads is written over its |difference|,
    and holds the sort order while it ranks.  At the peak of a solve, the
    built-in samplers hold about 22 bytes a draw for McNemar on constant
    gaps, 29 for Wilcoxon (35 with shared pair noise) and 37 for
    double-rank.
    """
    dose_diff, outcome_diff, gaps = dgp.draw_into(
        partial(_pair_differences, dgp.link), tuple(stream)
    )
    n = dose_diff.size
    concordant = np.empty(n, dtype=bool)
    product = np.empty(min(n, LEAF))
    for b in blocks(n):
        np.greater(
            np.multiply(dose_diff[b], outcome_diff[b], out=product[:b.stop - b.start]),
            0,
            out=concordant[b],
        )
    del product

    reads = dgp.phi_reads()
    if gaps is None:
        # the subtraction DoseLink.gaps makes, over the dose difference when
        # no rank of it is read
        gaps = np.abs(dose_diff, out=None if "u" in reads else dose_diff)
    # a rank phi does not read is a NaN view, which the finiteness check catches
    unread = np.broadcast_to(np.nan, (n,))
    u = _cdf_at_draws(dose_diff) if "u" in reads else unread
    del dose_diff
    v = _cdf_at_draws(outcome_diff) if "v" in reads else unread
    del outcome_diff
    phi_values = np.asarray(dgp.phi_fn()(u, v), dtype=float)
    if phi_values.shape != (n,):
        raise DataError("phi must return one value per draw")
    if not np.all(np.isfinite(phi_values)) or np.any(phi_values < 0):
        raise DataError("phi must be finite and nonnegative over the rank range")
    return gaps, concordant, phi_values


def _cdf_at_draws(diff: np.ndarray) -> np.ndarray:
    """Right-continuous empirical CDF of |diff| at the draws, rank_max / n,
    written over ``diff`` and returned."""
    cdf = rank(np.abs(diff, out=diff), ties="max", out=diff)
    cdf /= diff.size
    return cdf


def _mean(n: int, terms) -> float:
    """``ndarray.mean`` of the n terms that ``terms(start, stop)`` returns
    for each leaf, bit for bit (see ``gammas.pairwise_sum``)."""
    return float(pairwise_sum(lambda start, stop: np.add.reduce(terms(start, stop)), 0, n) / n)


def _std(n: int, terms) -> float:
    """``np.std(x, ddof=1)`` of the n terms x that ``terms(start, stop)``
    returns for each leaf, bit for bit: the mean, then the sum of squared
    deviations from it, each summed along NumPy's pairwise tree."""
    mean = _mean(n, terms)
    deviation = np.empty(min(n, LEAF))

    def squares(start, stop):
        d = np.subtract(terms(start, stop), mean, out=deviation[:stop - start])
        return np.add.reduce(np.square(d, out=d))

    return math.sqrt(pairwise_sum(squares, 0, n) / max(n - 1, 0))


def _concordant_mean(phi: np.ndarray, concordant: np.ndarray) -> float:
    """E[phi * 1{concordant}] over the draws, as (phi * concordant).mean()."""
    product = np.empty(min(phi.size, LEAF))
    return _mean(
        phi.size,
        lambda start, stop: np.multiply(
            phi[start:stop], concordant[start:stop], out=product[:stop - start]
        ),
    )


def _signed_spread(phi: np.ndarray, concordant: np.ndarray) -> float:
    """np.std(phi * (concordant - 0.5), ddof=1) over the draws."""
    signed = np.empty(min(phi.size, LEAF))

    def terms(start, stop):
        out = np.subtract(concordant[start:stop], 0.5, out=signed[:stop - start])
        return np.multiply(phi[start:stop], out, out=out)

    return _std(phi.size, terms)


def _newton_root(value_and_slope, target, lo, hi, at_lo, ftol):
    """Root of value(x) = target for an increasing value on [lo, hi].

    ``value_and_slope(x)`` returns ``(value(x), value'(x))`` from one pass;
    ``at_lo`` is its result at ``lo``, with value(lo) < target <= value(hi).
    Newton steps start from ``lo``; a step that leaves the bracket (lo, hi)
    is replaced by its midpoint, and every iterate narrows the bracket while
    keeping value(lo) < target <= value(hi), as bisection does.  Returns
    ``(x, value(x))`` for the first iterate within ``ftol`` of the target
    that is within _STEP_TOL * max(1, x) of the root: either the bracket is
    that narrow, or the residual plus one float spacing of the target (the
    width of a run of x whose values all round to the target), divided by
    the slope, is.  After _MAX_ITER passes, the last iterate.
    """
    spacing = float(np.spacing(target))
    x, (value, slope) = lo, at_lo
    for _ in range(_MAX_ITER):
        residual = value - target
        xtol = _STEP_TOL * max(1.0, x)
        if abs(residual) <= ftol and (
            hi - lo <= xtol or abs(residual) + spacing <= xtol * slope
        ):
            break
        step = -residual / slope if slope > 0.0 else math.inf
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
        value, slope = value_and_slope(x)
        if value < target:
            lo = x
        else:
            hi = x
    return x, value


def _lhs_and_slope(phi: np.ndarray, gaps: np.ndarray):
    """The pass of the design-sensitivity solve: a function of gamma that
    returns E[phi * s] and its derivative E[phi * gap * s * (1 - s)], with
    s = logistic(gamma * gap).  Every pass works a leaf at a time in the
    same three scratch arrays of ``LEAF`` floats, and recomputes phi * gap
    for each leaf: (w * phi) * gap would round differently."""
    n = gaps.size
    s, work, phi_gap = (np.empty(min(n, LEAF)) for _ in range(3))

    def lhs_and_slope(g: float):
        def leaf(start, stop):
            m = stop - start
            ss, ww, pg = s[:m], work[:m], phi_gap[:m]
            ph, gap = phi[start:stop], gaps[start:stop]
            _expit(np.multiply(g, gap, out=ss))
            lhs = np.add.reduce(np.multiply(ph, ss, out=ww))
            np.subtract(1.0, ss, out=ww)
            np.multiply(ww, ss, out=ww)
            np.multiply(ww, np.multiply(ph, gap, out=pg), out=ww)
            return np.array((lhs, np.add.reduce(ww)))

        lhs, slope = pairwise_sum(leaf, 0, n) / n
        return float(lhs), float(slope)

    return lhs_and_slope


def design_sensitivity(
    dgp: DgpSpec, tol: float = 1e-6, stream: tuple = ()
) -> DesignSensitivityResult:
    """Solve for the bias strength where the worst-case test loses all power.

    The equation residual is driven below ``tol`` (relative to the mean phi
    value).  A DGP whose concordance signal is within 3 Monte Carlo standard
    errors of the no-effect level is reported as the null case
    (gamma_bar_star = 1, flagged) rather than solved for a spurious root.
    """
    gaps, concordant, phi = _population_components(dgp, stream)
    n = phi.size
    scale = max(float(phi.mean()), np.finfo(float).tiny)
    rhs = _concordant_mean(phi, concordant)
    null_margin = 3.0 * _signed_spread(phi, concordant) / math.sqrt(n)
    del concordant
    lhs_and_slope = _lhs_and_slope(phi, gaps)
    at_lo = lhs_and_slope(0.0)
    lhs0 = at_lo[0]
    if rhs - lhs0 <= null_margin:
        return DesignSensitivityResult(
            gamma_star=0.0,
            gamma_bar_star=1.0,
            lhs_rhs_residual=lhs0 - rhs,
            mc_std_err=0.0,
            null_case=True,
            non_monotone_lhs=False,
            mc_draws=n,
            seed=dgp.seed,
        )

    max_gap = float(gaps.max(initial=0.0))
    if max_gap == 0.0:
        raise DataError("all transformed dose gaps are zero")
    gamma_cap = MAX_EXPONENT / max_gap

    non_monotone = False
    lo, hi = 0.0, min(1.0, gamma_cap)
    at_hi = lhs_and_slope(hi)
    while at_hi[0] < rhs:
        if hi >= gamma_cap:
            raise SolverError(
                "design-sensitivity equation has no root below the exp() "
                "guard: the concordance signal exceeds the logistic "
                "supremum on these draws"
            )
        if at_hi[0] < at_lo[0] - 1e-12 * scale:
            non_monotone = True
        lo, at_lo = hi, at_hi
        hi = min(2.0 * hi, gamma_cap)
        at_hi = lhs_and_slope(hi)

    gamma_star, lhs_star = _newton_root(lhs_and_slope, rhs, lo, hi, at_lo, tol * scale)
    del lhs_and_slope
    residual = lhs_star - rhs
    if not abs(residual) <= tol * scale:
        raise SolverError(
            f"design-sensitivity root solve did not converge (residual {residual:.3g})"
        )

    amplification = np.multiply(gamma_star, gaps, out=gaps)
    np.minimum(amplification, MAX_EXPONENT, out=amplification)
    np.exp(amplification, out=amplification)
    gamma_bar_star = float(amplification.mean())
    with np.errstate(over="ignore"):
        spread = _std(n, lambda start, stop: amplification[start:stop])
    if not math.isfinite(spread):
        # amplifications near e^MAX_EXPONENT overflow when squared; the
        # scaled spread is the same number without the overflow
        top = float(amplification.max())
        scaled = np.empty(min(n, LEAF))
        spread = _std(
            n,
            lambda start, stop: np.divide(
                amplification[start:stop], top, out=scaled[:stop - start]
            ),
        ) * top
    mc_std_err = spread / math.sqrt(n)
    return DesignSensitivityResult(
        gamma_star=float(gamma_star),
        gamma_bar_star=gamma_bar_star,
        lhs_rhs_residual=float(residual),
        mc_std_err=mc_std_err,
        null_case=False,
        non_monotone_lhs=non_monotone,
        mc_draws=n,
        seed=dgp.seed,
    )


# -------------------------------------------------------------- bahadur --


def slope_from_components(mu, phi, p_success, tol: float = 1e-6):
    """Solve omega1(t) = mu and return (t_tilde, omega0(t_tilde), slope).

    ``phi`` and ``p_success`` are parallel arrays of equally weighted atoms
    of the joint distribution of the score and its worst-case success
    probability.  Exact inputs (e.g. a single atom phi=1, p=1/2) give the
    closed-form answer to root-finder precision.
    """
    phi = np.asarray(phi, dtype=float)
    p = np.asarray(p_success, dtype=float)
    if phi.shape != p.shape:
        raise ConfigError("phi and p_success must align")
    phi, p = phi.reshape(-1), p.reshape(-1)
    if np.any((p <= 0) | (p >= 1)):
        raise DataError("success probabilities must lie strictly in (0, 1)")
    if np.any(phi < 0):
        raise DataError("phi must be nonnegative")
    mu = float(mu)
    n = phi.size
    scale = max(float(phi.mean()), np.finfo(float).tiny)
    # scratch of one leaf that every pass reuses; the inverse odds (1 - p) / p,
    # the exp(-t*phi) multiplier (stable for t >= 0), are taken per leaf
    w, term, odds_inv = (np.empty(min(n, LEAF)) for _ in range(3))

    def omega1_and_slope(t: float):
        # the logistic term is s = 1 / (1 + w), so phi^2 s(1-s) = term^2 * w
        def leaf(start, stop):
            m = stop - start
            ww, tt, odds = w[:m], term[:m], odds_inv[:m]
            ph, pp = phi[start:stop], p[start:stop]
            np.divide(np.subtract(1.0, pp, out=odds), pp, out=odds)
            np.exp(np.multiply(-t, ph, out=ww), out=ww)
            np.multiply(ww, odds, out=ww)
            np.add(1.0, ww, out=tt)
            omega1 = np.add.reduce(np.divide(ph, tt, out=tt))
            np.multiply(tt, tt, out=tt)
            return np.array((omega1, np.add.reduce(np.multiply(tt, ww, out=tt))))

        omega1, slope = pairwise_sum(leaf, 0, n) / n
        return float(omega1), float(slope)

    def omega0(t: float) -> float:
        # t * phi + log(p + (1 - p) * exp(-t * phi))
        def terms(start, stop):
            m = stop - start
            ww, tt = w[:m], term[:m]
            ph, pp = phi[start:stop], p[start:stop]
            np.exp(np.multiply(-t, ph, out=ww), out=ww)
            np.multiply(ww, np.subtract(1.0, pp, out=tt), out=ww)
            np.log(np.add(ww, pp, out=ww), out=ww)
            return np.add(ww, np.multiply(t, ph, out=tt), out=ww)

        return _mean(n, terms)

    at_lo = omega1_and_slope(0.0)
    at_zero = at_lo[0]
    if mu < at_zero - tol * scale:
        raise SolverError(
            "mean concordance score falls below the worst-case null mean: "
            "the bias level exceeds the design sensitivity, slope undefined"
        )
    if abs(mu - at_zero) <= tol * scale:
        return 0.0, 0.0, 0.0

    supremum = float(phi.mean())  # omega1(t) -> E[phi] as t -> infinity
    if mu >= supremum - 1e-15 * scale:
        raise SolverError("mu saturates the score scale; no finite root")

    lo, hi = 0.0, 1.0
    for _ in range(80):
        at_hi = omega1_and_slope(hi)
        if at_hi[0] >= mu:
            break
        lo, at_lo = hi, at_hi
        hi *= 2.0
    else:
        raise SolverError("failed to bracket the slope equation root")
    t_tilde, _ = _newton_root(omega1_and_slope, mu, lo, hi, at_lo, 1e-12 * scale)
    omega0_t = omega0(t_tilde)
    slope = 2.0 * (t_tilde * mu - omega0_t)
    return float(t_tilde), float(omega0_t), float(max(slope, 0.0))


def bahadur_slope(
    dgp: DgpSpec, gamma_bar: float, tol: float = 1e-6, stream: tuple = ()
) -> BahadurResult:
    """Bahadur slope of the worst-case test at mean bias level ``gamma_bar``.

    Uses the same frozen draws as ``design_sensitivity`` for the same spec,
    so the slope is exactly 0 at gamma_bar equal to the computed
    gamma_bar_star, positive below it, and an error above it.
    """
    gamma_bar = float(gamma_bar)
    if not gamma_bar >= 1.0:
        raise ConfigError("gamma_bar must be >= 1")
    gaps, concordant, phi = _population_components(dgp, stream)
    mu = _concordant_mean(phi, concordant)
    del concordant
    gamma = 0.0 if gamma_bar == 1.0 else gamma_for_mean_bound(gamma_bar, gaps, tol=1e-12)
    p = _expit(np.multiply(gamma, gaps, out=gaps))
    # expit saturates to 1.0 in floats for huge exponents; keep p in (0, 1)
    np.clip(p, None, 1.0 - 1e-16, out=p)
    t_tilde, omega0_t, slope = slope_from_components(mu, phi, p, tol=tol)
    return BahadurResult(
        gamma_bar=gamma_bar,
        mu=mu,
        t_tilde=t_tilde,
        omega0_at_t=omega0_t,
        slope=slope,
        mc_draws=phi.size,
        seed=dgp.seed,
    )
