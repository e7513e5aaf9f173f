"""Named data-generating processes for asymptotic calculations and power studies.

A sampler maps ``(rng, n)`` to four arrays ``(z1, z2, y1, y2)``: i.i.d. pair
draws of the two doses and outcomes.  Built-in samplers are referenced by
name plus a parameter dict so that simulation configurations are picklable
and serializable; custom callables are accepted wherever parallelism is not
requested.

The built-in samplers draw their outcomes a leaf of ``gammas.LEAF`` pairs
at a time: a leaf's noise is drawn and effect * z (+ shared) is added to
it; addition commutes, so every value has the bits of the formula.  A
generator gives the same values, and ends in the same state, whether it
draws n values in one call or a leaf at a time, so the draws are those of
one call per array.  A sampler hands its draw to a *sink* with the last
outcome, y2, still to draw a leaf at a time (``_whole``): ``DgpSpec.draw``
and ``sample_pairs`` gather it into one array, and the frozen draw of the
planning solves (``DgpSpec.draw_into``) subtracts each leaf of y2 from y1
as it comes.  A sampler thus holds three arrays of n floats (four with shared
pair noise; ``constant-gap`` holds z2 as one-byte coin flips and forms it a
leaf at a time).  Their arrays are new, so the planning solves may
overwrite them; a custom sampler's arrays are only read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .gammas import blocks, gather, leaves
from .pairs import DoseLink
from .rngs import STREAM_DGP, child_rng

# Rank-score functions phi(u, v) on normalized ranks u (dose gap) and
# v (outcome gap), both in (0, 1].  Must be nonnegative.
RANK_SCORE_FNS: dict = {
    # a read-only view of one 1.0, not an array of n ones
    "mcnemar": lambda u, v: np.broadcast_to(1.0, np.shape(v)),
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


# 20 times the design-sens default: about 0.45-0.75 GB at the 22-37 bytes a
# draw holds at the peak of a planning solve
MAX_MC_DRAWS = 20_000_000

# ----------------------------------------------------------- built-in DGPs --


def _whole(z1, z2, y1, y2):
    """The sink that keeps a draw whole: ``(z1, z2, y1, y2)`` as arrays.

    A built-in sampler ends by handing its draw to a sink.  z1 and y1 are
    arrays the sink may write; z2 is an array or a function of a leaf's
    slice that returns that leaf; y2 is such a function, which draws as it
    goes, so it is called once per leaf of ``gammas.blocks``, in order, and
    leaf b of y1 is final once y2(b) has returned.
    """
    n = z1.size
    z2 = gather(z2, n)
    y2 = gather(y2, n)
    return z1, z2, y1, y2


def _uniform_doses(rng, n, params):
    lo = float(params.get("dose_low", 0.0))
    hi = float(params.get("dose_high", 1.0))
    if not hi > lo:
        raise ConfigError("dose_high must exceed dose_low")
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


def _response(rng, noise_sd, effect, z, shared=None):
    """Leaves of effect * z (+ shared) + noise: leaf b draws its noise and
    adds the rest of the formula to it; addition commutes, so each value has
    the bits of the formula."""
    z = leaves(z)

    def leaf(b):
        y = rng.normal(0.0, noise_sd, b.stop - b.start)
        term = np.multiply(effect, z(b))
        if shared is not None:
            term += shared if np.ndim(shared) == 0 else shared[b]
        y += term
        return y

    return leaf


def _paired_normal(rng, n, params, sink=_whole):
    """Linear dose response with normal noise: y = effect*z + shared + eps."""
    effect = float(params.get("effect", 0.0))
    noise_sd = float(params.get("noise_sd", 1.0))
    pair_noise_sd = float(params.get("pair_noise_sd", 0.0))
    z1, z2 = _uniform_doses(rng, n, params)
    shared = rng.normal(0.0, pair_noise_sd, n) if pair_noise_sd > 0 else 0.0
    y1 = gather(_response(rng, noise_sd, effect, z1, shared), n)
    return sink(z1, z2, y1, _response(rng, noise_sd, effect, z2, shared))


def _null(rng, n, params, sink=_whole):
    params = dict(params)
    params["effect"] = 0.0
    return _paired_normal(rng, n, params, sink)


def _fixed_concordance(rng, n, params, sink=_whole):
    """Outcome gap agrees with the dose gap with fixed probability theta,
    independently of the gap size; gaps themselves are continuous."""
    theta = float(params.get("theta", 0.75))
    if not 0.0 < theta < 1.0:
        raise ConfigError("theta must be in (0, 1)")
    z1, z2 = _uniform_doses(rng, n, params)
    # half the outcome gap, sign(z1 - z2) * agree * |magnitude| * 0.5, is
    # built over the magnitude draw
    half = rng.normal(0.0, 1.0, n)
    for b in blocks(n):
        agree = np.where(rng.random(b.stop - b.start) < theta, 1.0, -1.0)
        term = np.sign(np.subtract(z1[b], z2[b]))
        term *= agree
        term *= np.abs(half[b])
        term *= 0.5
        half[b] = term

    def y2(b):
        # mid - half; y1 = mid + half is written over half
        mid = rng.normal(0.0, 1.0, b.stop - b.start)
        low = np.subtract(mid, half[b])
        half[b] += mid
        return low

    return sink(z1, z2, half, y2)


def _constant_gap(rng, n, params, sink=_whole):
    """Doses a fixed distance apart (every pair gets the same gap)."""
    gap = float(params.get("gap", 1.0))
    if gap <= 0:
        raise ConfigError("gap must be positive")
    effect = float(params.get("effect", 0.0))
    noise_sd = float(params.get("noise_sd", 1.0))
    z1 = rng.uniform(
        float(params.get("dose_low", 0.0)), float(params.get("dose_high", 1.0)), n
    )
    # which side of z1 each z2 lies on, a byte a pair
    coins = np.empty(n, dtype=np.int8)
    for b in blocks(n):
        coins[b] = rng.integers(0, 2, b.stop - b.start)

    def z2(b):
        # z1 + (2 * coin - 1) * gap, built in the array that first holds the sign
        z = coins[b] * 2.0
        z -= 1.0
        z *= gap
        z += z1[b]
        return z

    y1 = gather(_response(rng, noise_sd, effect, z1), n)
    return sink(z1, z2, y1, _response(rng, noise_sd, effect, z2))


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
    calls see identical draws; at most ``MAX_MC_DRAWS`` are allowed.
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
        if int(self.mc_draws) > MAX_MC_DRAWS:
            raise ConfigError(
                f"mc_draws must be at most {MAX_MC_DRAWS}; one frozen draw "
                "is held in memory whole"
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

    def draw_into(self, sink, stream: tuple = ()):
        """The frozen draw of ``draw(stream=stream)`` handed to ``sink``, as
        a built-in sampler hands it (see ``_whole``); returns what the sink
        returns.  The sink may write z1 and y1, so of a custom sampler's
        arrays, broadcast to one shape, z1 and y1 are handed over as copies
        and z2 and y2 as they are, to be read."""
        rng = child_rng(self.seed, STREAM_DGP, *stream)
        n = int(self.mc_draws)
        if self.is_named:
            return BUILTIN_DGPS[self.sampler](rng, n, self.params, sink)
        z1, z2, y1, y2 = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in self.sampler(rng, n))
        )
        return sink(z1.copy(), z2, y1.copy(), y2)

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
