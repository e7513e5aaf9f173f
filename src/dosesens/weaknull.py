"""Worst-case inference for the weak null of zero average dose effect.

For pair i let tau_i1 be the adjusted higher-dose-minus-lower-dose response
actually observed (after removing a hypothesised average slope lambda0) and
tau_i2 the value that would have been observed under the flipped assignment;
tau_i2 is unobservable.  The weak null states sum_i(tau_i1 + tau_i2) = 0.
Biased assignment tilts each pair toward the larger of its two values with
probability at most Gamma_i/(1+Gamma_i), and a conservative variance proxy
for the observed average is

    denom^2 = sum_i 2*Gamma_i/(1+Gamma_i) * tau_i1^2.

The testing problem minimizes a studentized deviation over all tau_2
consistent with the null, a quadratic dispersion cap, and big-M constraints
tying binary indicators w_i to the event tau_i2 >= tau_i1:

    minimize   numerator(tau_2, w) / denom
    subject to sum_i (tau_i1 + tau_i2) = 0
               sum_i Gamma_i/(1+Gamma_i)^2 (tau_i1 - tau_i2)^2 <= denom^2
               w_i = 1  =>  tau_i2 >= tau_i1
               w_i = 0  =>  tau_i2 <= tau_i1 - epsilon
               |tau_i2 - tau_i1| <= M_i,   w_i in {0, 1}.

Two numerator transcriptions are supported (``objective``):

* ``printed``:      sum_i [w_i p_i+ + (1-w_i) p_i-] * (tau_i1 + tau_i2)
* ``expectation``:  sum_i [w_i p_i+ + (1-w_i) p_i-] * (tau_i1 - tau_i2),
  the deviation of the observed total from the tilted two-point mean; at
  Gamma = 1 it reduces to the classic paired z-numerator sum_i tau_i1.

The mixed-integer program is solved exactly by best-bound-first
branch-and-bound on w.  Free indicators are relaxed with the chord of the
pointwise minimum of the two per-pair objective lines over the union box (a
valid convex under-estimator); each node's continuous relaxation is the
plane-ball-box program in :mod:`dosesens.qclp`.  The certified lower bound
on the optimum converts to an upper bound on the worst-case p-value through
the normal upper tail (asymptotic, not exact).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import qclp, tails
from .errors import ConfigError, DataError
from .gammas import GammaSchedule
from .pairs import MatchedSample
from .rngs import STREAM_WEAK_TAIL
from .sharp import _runs

OBJECTIVES = ("printed", "expectation")
# ten times the default node limit; at a few thousand nodes a second a
# higher one could keep a solve running for hours
MAX_NODE_LIMIT = 1_000_000


def variance_bound(tau_obs, gamma_i) -> float:
    """Conservative variance proxy sum 2G/(1+G) tau^2 for the observed total."""
    tau_obs = np.asarray(tau_obs, dtype=float)
    gamma_i = np.asarray(gamma_i, dtype=float)
    return float(np.sum(2.0 * gamma_i / (1.0 + gamma_i) * tau_obs**2))


@dataclass(frozen=True)
class WeakNullProblem:
    """Data of the weak-null testing problem at one hypothesised lambda0."""

    lambda0: float
    tau1: np.ndarray
    gamma_i: np.ndarray
    pair_ids: tuple | None = None

    def __post_init__(self):
        tau1 = np.asarray(self.tau1, dtype=float)
        gamma_i = np.asarray(self.gamma_i, dtype=float)
        for name, arr in (("tau1", tau1), ("gamma_i", gamma_i)):
            if arr.ndim != 1 or arr.size == 0:
                raise ConfigError(f"{name} must be a nonempty vector")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if tau1.shape != gamma_i.shape:
            raise ConfigError("tau1 and gamma_i must align")
        if np.any(gamma_i < 1.0) or not np.all(np.isfinite(gamma_i)):
            raise DataError("per-pair bounds Gamma_i must be finite and >= 1")
        if not np.all(np.isfinite(tau1)):
            raise DataError("tau1 must be finite")
        if not np.any(tau1 != 0.0):
            raise DataError(
                "all adjusted responses are exactly zero; the studentized "
                "statistic is degenerate at this lambda0"
            )

    @classmethod
    def from_sample(
        cls, sample: MatchedSample, schedule: GammaSchedule, lambda0: float
    ) -> "WeakNullProblem":
        if schedule.n_pairs != sample.n_pairs:
            raise DataError("sample and schedule sizes disagree")
        if schedule.pair_ids is not None and tuple(schedule.pair_ids) != tuple(
            sample.pair_ids
        ):
            raise DataError("sample and schedule disagree on pair ids")
        tau1 = sample.outcome_diff() - float(lambda0) * sample.dose_diff()
        return cls(
            lambda0=float(lambda0),
            tau1=tau1,
            gamma_i=schedule.gamma_i,
            pair_ids=sample.pair_ids,
        )

    @property
    def n_pairs(self) -> int:
        return int(self.tau1.size)

    @property
    def y_bar(self) -> float:
        """Observed average adjusted response."""
        return float(self.tau1.mean())

    @property
    def denom(self) -> float:
        return math.sqrt(variance_bound(self.tau1, self.gamma_i))

    @property
    def ball_weights(self) -> np.ndarray:
        g = self.gamma_i
        return g / (1.0 + g) ** 2

    @property
    def big_m(self) -> np.ndarray:
        """Per-pair big-M: the dispersion cap alone forces
        |tau1 - tau2| <= denom / sqrt(weight) = (1+Gamma)/sqrt(Gamma) * denom,
        so boxes of exactly that half-width lose no feasible point while
        keeping the linear relaxation as tight as a static box can be."""
        g = self.gamma_i
        return (1.0 + g) / np.sqrt(g) * self.denom

    @property
    def epsilon(self) -> float:
        # max|tau1| <= denom because each weight 2G/(1+G) >= 1, so denom is
        # the natural problem scale; epsilon/big_m <= 5e-10 keeps every
        # strict box nonempty.
        return 1e-9 * self.denom


@dataclass(frozen=True)
class SolverConfig:
    objective: str = "printed"
    node_limit: int = 100_000
    gap_tol: float = 1e-8
    feas_tol: float = 1e-9

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}")
        if self.node_limit < 1:
            raise ConfigError("node_limit must be positive")
        if self.node_limit > MAX_NODE_LIMIT:
            raise ConfigError(f"node_limit must be at most {MAX_NODE_LIMIT}")


def _finite_or_none(value):
    return float(value) if value is not None and math.isfinite(value) else None


@dataclass(frozen=True)
class WeakNullSolution:
    """Outcome of the branch-and-bound search.

    ``optimum`` is the best feasible (incumbent) studentized value found and
    ``bound`` the certified global lower bound, so ``bound <= optimum``
    always, with ``gap = optimum - bound <= gap_tol`` at status
    ``"optimal"``.  ``p_value_upper`` is the asymptotic normal upper tail at
    ``bound`` — an upper bound for the worst-case p-value even when the node
    limit stopped the search early (status ``"bounded"``).
    """

    lambda0: float
    objective: str
    status: str  # "optimal" | "bounded" | "infeasible"
    optimum: float | None
    bound: float
    gap: float
    node_count: int
    w: tuple | None
    tau2: tuple | None
    p_value_upper: float
    denom: float
    epsilon: float
    problem: WeakNullProblem = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "tau1": [float(v) for v in self.problem.tau1],
            "Gamma_i": [float(v) for v in self.problem.gamma_i],
            "optimum": _finite_or_none(self.optimum),
            "gap": _finite_or_none(self.gap),
            "w": None if self.w is None else [int(v) for v in self.w],
            "tau2": None if self.tau2 is None else [float(v) for v in self.tau2],
            "node_count": self.node_count,
            "status": self.status,
            "bound": _finite_or_none(self.bound),
            "p_value_upper": self.p_value_upper,
            "objective": self.objective,
            "denom": self.denom,
            "epsilon": self.epsilon,
            "y_bar": self.problem.y_bar,
            "big_M": [float(v) for v in self.problem.big_m],
        }


class _Search:
    """One branch-and-bound run over the indicator vector w.

    Children are pushed without threshold pruning, so at any moment the true
    optimum is >= min(incumbent, smallest heap bound); the reported bound is
    exactly that quantity and needs no pruning-slack correction.
    """

    def __init__(self, problem: WeakNullProblem, config: SolverConfig):
        self.problem = problem
        self.config = config
        g = problem.gamma_i
        tau1 = problem.tau1
        denom = problem.denom
        self.tau1 = tau1
        self.a = problem.ball_weights
        self.budget = denom * denom
        self.total = -float(np.sum(tau1))
        self.denom = denom
        # the plane and ball every node relaxation shares
        self.ball = qclp.Ball(self.a, tau1, self.budget, self.total, config.feas_tol)
        eps = problem.epsilon
        big_m = problem.big_m
        # leaf boxes per indicator value
        self.lo1, self.hi1 = tau1.copy(), tau1 + big_m
        self.lo0, self.hi0 = tau1 - big_m, tau1 - eps
        p_plus = g / (1.0 + g)
        p_minus = 1.0 / (1.0 + g)
        sign = 1.0 if config.objective == "printed" else -1.0
        # per-pair objective lines slope * tau2 + intercept, in z units
        self.slope1 = sign * p_plus / denom
        self.icept1 = p_plus * tau1 / denom
        self.slope0 = sign * p_minus / denom
        self.icept0 = p_minus * tau1 / denom
        # a free pair's line: the chord of min(line1, line0) over its union
        # box [lo0, hi1]
        L, U = self.lo0, self.hi1
        mL = np.minimum(self.slope1 * L + self.icept1, self.slope0 * L + self.icept0)
        mU = np.minimum(self.slope1 * U + self.icept1, self.slope0 * U + self.icept0)
        chord = (mU - mL) / (U - L)
        self.chord = (chord, mL - chord * L)
        # the coefficient rows (slope, intercept, lo, hi) of every pair in
        # each state, side by side: column s * n + i holds pair i in state s
        # (0 free, 1 w = 0, 2 w = 1)
        self._table = np.hstack([
            np.stack((*self.chord, L, U)),
            np.stack((self.slope0, self.icept0, self.lo0, self.hi0)),
            np.stack((self.slope1, self.icept1, self.lo1, self.hi1)),
        ])
        self._column = tau1.size + np.arange(tau1.size)
        self.node_count = 0
        self.incumbent = math.inf
        self.best_w = None
        self.best_x = None
        # snapped leaves repeat across the tree; cache fully-fixed solves
        self._leaf_cache: dict = {}

    # -- geometry helpers ---------------------------------------------------

    def _coeffs(self, wfix: np.ndarray):
        """Slope, intercept, lo and hi of each pair at wfix (-1 free, 0, 1).

        Each comes back as a C-contiguous array: a strided view would change
        the rounding of the sums and dot products that read it.
        """
        column = np.multiply(wfix, wfix.size, dtype=np.intp)
        column += self._column
        return tuple(self._table.take(column, axis=1))

    def _solve(self, wfix: np.ndarray):
        """Relaxation value (exact when no pair is free); None if infeasible."""
        key = wfix.tobytes() if (wfix >= 0).all() else None
        if key is not None and key in self._leaf_cache:
            return self._leaf_cache[key]
        slope, icept, lo, hi = self._coeffs(wfix)
        self.node_count += 1
        res = qclp.minimize_linear(slope, lo, hi, self.ball)
        out = None
        if res.status == "optimal":
            out = (res.value + float(np.add.reduce(icept)), res.x)
        if key is not None:
            self._leaf_cache[key] = out
        return out

    def _snap(self, wfix: np.ndarray, x: np.ndarray) -> np.ndarray:
        w = wfix.copy()
        free = wfix < 0
        w[free] = (x[free] >= self.tau1[free]).astype(np.int8)
        return w

    def _record(self, w: np.ndarray, value: float, x: np.ndarray):
        if value < self.incumbent:
            self.incumbent = value
            self.best_w = w.copy()
            self.best_x = x

    def _offer_snap(self, wfix: np.ndarray, x: np.ndarray):
        w = self._snap(wfix, x)
        solved = self._solve(w)
        if solved is not None:
            self._record(w, *solved)

    def _looseness(self, x: np.ndarray) -> np.ndarray:
        """Gap between the true per-pair objective floor and the chord at x,
        for every pair; only the free pairs' entries mean anything."""
        floor = np.minimum(self.slope1 * x + self.icept1, self.slope0 * x + self.icept0)
        slope, icept = self.chord
        return floor - (slope * x + icept)

    # -- main loop ----------------------------------------------------------

    def run(self) -> WeakNullSolution:
        n = self.problem.n_pairs
        root = np.full(n, -1, dtype=np.int8)
        solved = self._solve(root)
        if solved is None:
            return self._finish("infeasible", [])
        bound, x = solved
        self._offer_snap(root, x)
        counter = 0
        heap = [(bound, counter, root, x)]
        status = "optimal"
        while heap:
            bound, _, wfix, x = heapq.heappop(heap)
            if bound >= self.incumbent - self.config.gap_tol:
                counter += 1
                heapq.heappush(heap, (bound, counter, wfix, x))
                break
            if self.node_count >= self.config.node_limit:
                counter += 1
                heapq.heappush(heap, (bound, counter, wfix, x))
                status = "bounded"
                break
            free_idx = np.flatnonzero(wfix < 0)
            j = int(free_idx[int(self._looseness(x)[free_idx].argmax())])
            for wj in (0, 1):
                child = wfix.copy()
                child[j] = wj
                solved = self._solve(child)
                if solved is None:
                    continue
                child_bound, child_x = solved
                if (child < 0).any():
                    self._offer_snap(child, child_x)
                    counter += 1
                    heapq.heappush(heap, (child_bound, counter, child, child_x))
                else:
                    self._record(child, child_bound, child_x)
        return self._finish(status, heap)

    def _finish(self, status: str, heap) -> WeakNullSolution:
        prob = self.problem
        solution = partial(
            WeakNullSolution, lambda0=prob.lambda0, objective=self.config.objective,
            node_count=self.node_count, denom=self.denom, epsilon=prob.epsilon, problem=prob,
        )
        candidates = [b for b, *_ in heap]
        if self.incumbent < math.inf:
            candidates.append(self.incumbent)
        if status != "infeasible" and not candidates:
            # feasible root relaxation but every leaf infeasible
            status = "infeasible"
        if status == "infeasible":
            return solution(
                status="infeasible", optimum=None, bound=math.inf, gap=0.0,
                w=None, tau2=None, p_value_upper=0.0,
            )
        certified = min(candidates)
        if self.incumbent == math.inf:
            status = "bounded"
            gap = math.inf
        else:
            gap = max(0.0, self.incumbent - certified)
        return solution(
            status=status,
            optimum=None if self.incumbent == math.inf else float(self.incumbent),
            bound=float(certified),
            gap=gap,
            w=None if self.best_w is None else tuple(int(v) for v in self.best_w),
            tau2=None if self.best_x is None else tuple(float(v) for v in self.best_x),
            p_value_upper=float(tails.normal_sf(certified)),
        )


def worst_case_zscore(
    problem: WeakNullProblem, config: SolverConfig | None = None
) -> WeakNullSolution:
    """Minimize the studentized statistic over assignments consistent with
    the weak null; exact branch-and-bound with a certified lower bound."""
    config = config or SolverConfig()
    sol = _Search(problem, config).run()
    if sol.optimum is not None and np.all(problem.gamma_i == 1.0):
        # with every Gamma at 1 the numerator does not depend on w, and the
        # equality constraint pins it: printed form sums to zero, the
        # expectation form to the observed total — report those exactly
        if config.objective == "printed":
            exact = 0.0
        else:
            exact = float(np.sum(problem.tau1)) / problem.denom
        sol = replace(
            sol,
            optimum=exact,
            bound=exact,
            gap=0.0,
            p_value_upper=float(tails.normal_sf(exact)),
        )
    return sol


def two_sided_pvalue(problem: WeakNullProblem, config: SolverConfig) -> tuple:
    """Doubled smaller one-sided p-value bound, capped at 1.

    The less side solves the sign-reflected problem.  Returns ``(p, (greater,
    less))`` with the two solutions.
    """
    greater = worst_case_zscore(problem, config)
    less = worst_case_zscore(replace(problem, tau1=-problem.tau1), config)
    return min(1.0, 2.0 * min(greater.p_value_upper, less.p_value_upper)), (greater, less)


# ---------------------------------------------------------------- region --


@dataclass(frozen=True)
class WeakNullRegion:
    alpha: float
    objective: str
    gamma_bar: float
    lambda_grid: tuple
    accepted: tuple
    p_values: tuple
    statuses: tuple
    interval: tuple | None
    non_contiguous: bool

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "objective": self.objective,
            "gamma_bar": self.gamma_bar,
            "lambda_grid": [float(v) for v in self.lambda_grid],
            "accepted": [bool(a) for a in self.accepted],
            "p_values": [float(p) for p in self.p_values],
            "statuses": list(self.statuses),
            "interval": None if self.interval is None else list(self.interval),
            "non_contiguous": self.non_contiguous,
        }


def weak_null_ci(
    sample: MatchedSample,
    schedule: GammaSchedule,
    alpha: float = 0.05,
    lambda_grid=None,
    objective: str = "expectation",
    config: SolverConfig | None = None,
) -> WeakNullRegion:
    """Invert the weak-null test over a grid of hypothesised average slopes.

    Each grid point gets a two-sided p-value: the greater side from the
    minimized studentized statistic, the less side from the sign-reflected
    problem, doubled and capped at 1.  Grid points where the statistic is
    degenerate (all adjusted responses exactly zero) are accepted and
    flagged ``"degenerate"``.  The default objective is ``expectation``:
    under the printed transcription pairwise cancellation (tau2 = -tau1) is
    always feasible, so its optimum is <= 0 and the test never rejects.
    """
    if not 0 < alpha < 1:
        raise ConfigError("alpha must be in (0, 1)")
    if lambda_grid is None:
        raise ConfigError("weak_null_ci needs an explicit lambda grid")
    base = config or SolverConfig(objective=objective)
    if base.objective != objective:
        base = replace(base, objective=objective)
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ConfigError("lambda grid is empty")
    accepted, p_values, statuses = [], [], []
    for lam in grid:
        try:
            prob = WeakNullProblem.from_sample(sample, schedule, lam)
        except DataError:
            accepted.append(True)
            p_values.append(1.0)
            statuses.append("degenerate")
            continue
        p_two, sides = two_sided_pvalue(prob, base)
        accepted.append(p_two > alpha)
        p_values.append(p_two)
        worst = "optimal"
        for sol in sides:
            if sol.status != "optimal":
                worst = sol.status
        statuses.append(worst)
    runs = _runs(accepted)
    interval = (grid[runs[0][0]], grid[runs[0][1]]) if len(runs) == 1 else None
    return WeakNullRegion(
        alpha=alpha,
        objective=objective,
        gamma_bar=schedule.gamma_bar,
        lambda_grid=tuple(grid),
        accepted=tuple(accepted),
        p_values=tuple(p_values),
        statuses=tuple(statuses),
        interval=interval,
        non_contiguous=len(runs) > 1,
    )


# ------------------------------------------------------------- mc helper --


def bounding_tail(
    tau1, tau2, gamma_i, t: float, reps: int = 100_000, seed: int | None = None
):
    """Monte Carlo upper tail of the two-point bounding average.

    Each pair independently contributes max(tau1, tau2) with probability
    Gamma/(1+Gamma) and min(tau1, tau2) otherwise; the statistic is the
    average across pairs.  Returns ``(estimate, std_err)``.
    """
    if seed is None:
        raise ConfigError("bounding_tail needs a seed")
    reps = tails._check_reps(reps)
    tau1 = np.asarray(tau1, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    gamma_i = np.asarray(gamma_i, dtype=float)
    if not (tau1.shape == tau2.shape == gamma_i.shape) or tau1.ndim != 1:
        raise ConfigError("tau1, tau2 and gamma_i must be aligned vectors")
    hi = np.maximum(tau1, tau2)
    lo = np.minimum(tau1, tau2)
    p_plus = gamma_i / (1.0 + gamma_i)
    slack = tails.comparison_slack(t)
    hits = 0
    for u in tails.uniform_chunks(reps, tau1.size, seed, STREAM_WEAK_TAIL):
        hits += int(np.count_nonzero(np.where(u < p_plus, hi, lo).mean(axis=1) >= t - slack))
    estimate = hits / reps
    return estimate, tails.binomial_se(estimate, reps)
