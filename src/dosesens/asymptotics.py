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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import special

from .dgps import DgpSpec, rank_score_fn  # noqa: F401  (re-exported API)
from .errors import ConfigError, DataError, SolverError
from .gammas import MAX_EXPONENT, gamma_for_mean_bound
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


def _population_components(dgp: DgpSpec, stream: tuple = ()):
    """Frozen draws -> (transformed gaps, concordance, phi values).

    A nonempty ``stream`` keys an independent set of draws (same size), for
    assessing the Monte Carlo variability of the outputs.
    """
    z1, z2, y1, y2 = dgp.draw(stream=tuple(stream))
    z1, z2, y1, y2 = (np.asarray(v, dtype=float) for v in (z1, z2, y1, y2))
    dose_diff = z1 - z2
    if np.any(dose_diff == 0):
        raise DataError("DGP produced tied doses within a pair")
    outcome_diff = y1 - y2
    concordant = (dose_diff * outcome_diff) > 0

    dgp.link.validate_on(np.concatenate([z1, z2]))
    gaps = np.abs(dgp.link.apply(z1) - dgp.link.apply(z2))

    n = dose_diff.size
    reads = dgp.phi_reads()
    # a rank phi does not read is a NaN view, which the finiteness check catches
    unread = np.broadcast_to(np.nan, (n,))
    # right-continuous empirical CDF evaluated at the draws: rank_max / n
    u = rank(np.abs(dose_diff), ties="max") / n if "u" in reads else unread
    v = rank(np.abs(outcome_diff), ties="max") / n if "v" in reads else unread
    phi_values = np.asarray(dgp.phi_fn()(u, v), dtype=float)
    if phi_values.shape != (n,):
        raise DataError("phi must return one value per draw")
    if not np.all(np.isfinite(phi_values)) or np.any(phi_values < 0):
        raise DataError("phi must be finite and nonnegative over the rank range")
    return gaps, concordant, phi_values


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
    rhs = float((phi * concordant).mean())
    phi_gap = phi * gaps

    def lhs_and_slope(g: float):
        s = special.expit(g * gaps)
        return float((phi * s).mean()), float((phi_gap * (s * (1.0 - s))).mean())

    at_lo = lhs_and_slope(0.0)
    lhs0 = at_lo[0]
    null_margin = 3.0 * float(np.std(phi * (concordant - 0.5), ddof=1)) / math.sqrt(n)
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
    residual = lhs_star - rhs
    if not abs(residual) <= tol * scale:
        raise SolverError(
            f"design-sensitivity root solve did not converge (residual {residual:.3g})"
        )

    amplification = np.exp(np.minimum(gamma_star * gaps, MAX_EXPONENT))
    gamma_bar_star = float(amplification.mean())
    mc_std_err = float(np.std(amplification, ddof=1)) / math.sqrt(n)
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
    if np.any((p <= 0) | (p >= 1)):
        raise DataError("success probabilities must lie strictly in (0, 1)")
    if np.any(phi < 0):
        raise DataError("phi must be nonnegative")
    mu = float(mu)
    scale = max(float(phi.mean()), np.finfo(float).tiny)
    odds_inv = (1.0 - p) / p  # exp(-t*phi) multiplier, stable for t >= 0

    def omega1_and_slope(t: float):
        # the logistic term is s = 1 / (1 + w), so phi^2 s(1-s) = term^2 * w
        w = odds_inv * np.exp(-t * phi)
        term = phi / (1.0 + w)
        return float(term.mean()), float((term * term * w).mean())

    def omega0(t: float) -> float:
        return float((t * phi + np.log(p + (1.0 - p) * np.exp(-t * phi))).mean())

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
    if gamma_bar < 1.0:
        raise ConfigError("gamma_bar must be >= 1")
    gaps, concordant, phi = _population_components(dgp, stream)
    mu = float((phi * concordant).mean())
    gamma = 0.0 if gamma_bar == 1.0 else gamma_for_mean_bound(gamma_bar, gaps, tol=1e-12)
    # expit saturates to 1.0 in floats for huge exponents; keep p in (0, 1)
    p = np.clip(special.expit(gamma * gaps), None, 1.0 - 1e-16)
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
