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
Monte Carlo noise.
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

_BISECT_ITER = 200


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
    # right-continuous empirical CDF evaluated at the draws: rank_max / n
    u = rank(np.abs(dose_diff), ties="max") / n
    v = rank(np.abs(outcome_diff), ties="max") / n
    phi_values = np.asarray(dgp.phi_fn()(u, v), dtype=float)
    if phi_values.shape != u.shape:
        raise DataError("phi must return one value per draw")
    if not np.all(np.isfinite(phi_values)) or np.any(phi_values < 0):
        raise DataError("phi must be finite and nonnegative over the rank range")
    return gaps, concordant, phi_values


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

    def lhs(g: float) -> float:
        return float((phi * special.expit(g * gaps)).mean())

    lhs0 = lhs(0.0)
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
    prev = lhs0
    while lhs(hi) < rhs:
        value = lhs(hi)
        if value < prev - 1e-12 * scale:
            non_monotone = True
        prev = value
        lo = hi
        hi *= 2.0
        if hi >= gamma_cap:
            hi = gamma_cap
            if lhs(hi) < rhs:
                raise SolverError(
                    "design-sensitivity equation has no root below the exp() "
                    "guard: the concordance signal exceeds the logistic "
                    "supremum on these draws"
                )
            break

    for _ in range(_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        residual = lhs(mid) - rhs
        if abs(residual) <= tol * scale and hi - lo <= 1e-12 * max(1.0, mid):
            break
        if residual < 0:
            lo = mid
        else:
            hi = mid
    gamma_star = 0.5 * (lo + hi)
    residual = lhs(gamma_star) - rhs
    if abs(residual) > tol * scale:
        raise SolverError("design-sensitivity bisection failed to converge")

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

    def omega1(t: float) -> float:
        return float((phi / (1.0 + odds_inv * np.exp(-t * phi))).mean())

    def omega0(t: float) -> float:
        return float((t * phi + np.log(p + (1.0 - p) * np.exp(-t * phi))).mean())

    at_zero = omega1(0.0)
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
        if omega1(hi) >= mu:
            break
        lo = hi
        hi *= 2.0
    else:
        raise SolverError("failed to bracket the slope equation root")
    for _ in range(_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        value = omega1(mid)
        if abs(value - mu) <= 1e-12 * scale and hi - lo <= 1e-12 * max(1.0, mid):
            break
        if value < mu:
            lo = mid
        else:
            hi = mid
    t_tilde = 0.5 * (lo + hi)
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
