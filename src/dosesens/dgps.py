"""Named data-generating processes for asymptotic calculations and power studies.

A sampler maps ``(rng, n)`` to four arrays ``(z1, z2, y1, y2)``: i.i.d. pair
draws of the two doses and outcomes.  Built-in samplers are referenced by
name plus a parameter dict so that simulation configurations are picklable
and serializable; custom callables are accepted wherever parallelism is not
requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .pairs import DoseLink
from .rngs import STREAM_DGP, child_rng

# Rank-score functions phi(u, v) on normalized ranks u (dose gap) and
# v (outcome gap), both in (0, 1].  Must be nonnegative.
RANK_SCORE_FNS: dict = {
    "mcnemar": lambda u, v: np.ones_like(np.asarray(v, dtype=float)),
    "wilcoxon": lambda u, v: np.asarray(v, dtype=float),
    "double-rank": lambda u, v: np.asarray(u, dtype=float) * np.asarray(v, dtype=float),
}
RANK_SCORE_FNS["dose-weighted-rank"] = RANK_SCORE_FNS["double-rank"]
# The ranks each built-in reads; expressions and callables read both.
RANK_SCORE_READS: dict = {
    "mcnemar": "",
    "wilcoxon": "v",
    "double-rank": "uv",
    "dose-weighted-rank": "uv",
}


def rank_score_fn(phi) -> Callable:
    """Resolve a rank-score function from a name, expression, or callable."""
    if callable(phi):
        return phi
    if phi in RANK_SCORE_FNS:
        return RANK_SCORE_FNS[phi]
    if isinstance(phi, str):
        from .scores import parse_phi_expression

        raw = parse_phi_expression(phi)
        return lambda u, v: raw(u, v)
    raise ConfigError(f"cannot interpret rank-score function {phi!r}")


# ----------------------------------------------------------- built-in DGPs --


def _uniform_doses(rng, n, params):
    lo = float(params.get("dose_low", 0.0))
    hi = float(params.get("dose_high", 1.0))
    if not hi > lo:
        raise ConfigError("dose_high must exceed dose_low")
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


def _paired_normal(rng, n, params):
    """Linear dose response with normal noise: y = effect*z + shared + eps."""
    effect = float(params.get("effect", 0.0))
    noise_sd = float(params.get("noise_sd", 1.0))
    pair_noise_sd = float(params.get("pair_noise_sd", 0.0))
    z1, z2 = _uniform_doses(rng, n, params)
    shared = rng.normal(0.0, pair_noise_sd, n) if pair_noise_sd > 0 else 0.0
    y1 = effect * z1 + shared + rng.normal(0.0, noise_sd, n)
    y2 = effect * z2 + shared + rng.normal(0.0, noise_sd, n)
    return z1, z2, y1, y2


def _null(rng, n, params):
    params = dict(params)
    params["effect"] = 0.0
    return _paired_normal(rng, n, params)


def _fixed_concordance(rng, n, params):
    """Outcome gap agrees with the dose gap with fixed probability theta,
    independently of the gap size; gaps themselves are continuous."""
    theta = float(params.get("theta", 0.75))
    if not 0.0 < theta < 1.0:
        raise ConfigError("theta must be in (0, 1)")
    z1, z2 = _uniform_doses(rng, n, params)
    magnitude = np.abs(rng.normal(0.0, 1.0, n))
    agree = np.where(rng.random(n) < theta, 1.0, -1.0)
    diff = np.sign(z1 - z2) * agree * magnitude
    mid = rng.normal(0.0, 1.0, n)
    return z1, z2, mid + 0.5 * diff, mid - 0.5 * diff


def _constant_gap(rng, n, params):
    """Doses a fixed distance apart (every pair gets the same gap)."""
    gap = float(params.get("gap", 1.0))
    if gap <= 0:
        raise ConfigError("gap must be positive")
    effect = float(params.get("effect", 0.0))
    noise_sd = float(params.get("noise_sd", 1.0))
    z1 = rng.uniform(
        float(params.get("dose_low", 0.0)), float(params.get("dose_high", 1.0)), n
    )
    sign = rng.integers(0, 2, n) * 2.0 - 1.0
    z2 = z1 + sign * gap
    y1 = effect * z1 + rng.normal(0.0, noise_sd, n)
    y2 = effect * z2 + rng.normal(0.0, noise_sd, n)
    return z1, z2, y1, y2


BUILTIN_DGPS: dict = {
    "paired-normal": _paired_normal,
    "null": _null,
    "fixed-concordance": _fixed_concordance,
    "constant-gap": _constant_gap,
}


@dataclass(frozen=True)
class DgpSpec:
    """A data-generating process plus the knobs asymptotic routines need.

    ``sampler`` is a built-in name (with ``params``) or a custom callable
    ``(rng, n) -> (z1, z2, y1, y2)``.  ``phi`` is the rank-score function of
    the test under study, on normalized ranks.  ``mc_draws`` pairs are drawn
    once per calculation with generators derived from ``seed``, so repeated
    calls see identical draws.
    """

    sampler: str | Callable = "paired-normal"
    params: dict = field(default_factory=dict)
    link: DoseLink = DoseLink()
    phi: str | Callable = "wilcoxon"
    mc_draws: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.sampler, str) and self.sampler not in BUILTIN_DGPS:
            raise ConfigError(f"unknown DGP {self.sampler!r}")
        if not isinstance(self.sampler, str) and self.params:
            raise ConfigError("params are only used with named samplers")
        if int(self.mc_draws) < 10_000:
            raise ConfigError(
                "mc_draws must be at least 10000; population functionals "
                "are too noisy below that"
            )

    @property
    def is_named(self) -> bool:
        return isinstance(self.sampler, str)

    def sample_pairs(self, rng, n: int):
        if self.is_named:
            return BUILTIN_DGPS[self.sampler](rng, int(n), self.params)
        return self.sampler(rng, int(n))

    def draw(self, n: int | None = None, stream: tuple = ()):
        """One frozen draw of n pairs (default mc_draws) for this spec's seed."""
        rng = child_rng(self.seed, STREAM_DGP, *stream)
        return self.sample_pairs(rng, n if n is not None else self.mc_draws)

    def phi_fn(self) -> Callable:
        return rank_score_fn(self.phi)

    def phi_reads(self) -> str:
        """The normalized ranks phi reads: some of ``"u"`` and ``"v"``."""
        if isinstance(self.phi, str):
            return RANK_SCORE_READS.get(self.phi, "uv")
        return "uv"

    def to_json_dict(self) -> dict:
        return {
            "sampler": self.sampler if self.is_named else "<custom>",
            "params": dict(self.params),
            "link": self.link.kind,
            "phi": self.phi if isinstance(self.phi, str) else "<custom>",
            "mc_draws": int(self.mc_draws),
            "seed": int(self.seed),
        }
