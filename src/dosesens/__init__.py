"""Sensitivity analysis for dose-matched observational pairs.

Matched pairs differ in received dose; hidden bias is capped per pair by an
odds bound that grows with the dose gap.  This package computes worst-case
p-values and confidence regions for sharp effect models, worst-case
z-statistics for the weak (average-slope) null, and the asymptotics — design
sensitivity and Bahadur slopes — that guide choosing a test before data
arrive.
"""

__version__ = "0.1.0"

from .asymptotics import (
    BahadurResult,
    DesignSensitivityResult,
    bahadur_slope,
    design_sensitivity,
    slope_from_components,
)
from .dgps import BUILTIN_DGPS, DgpSpec, rank_score_fn
from .errors import ConfigError, DataError, DoseSensError, SolverError
from .gammas import (
    GammaSchedule,
    build_schedule,
    gamma_for_mean_bound,
    schedule_from_bounds,
    schedule_from_gamma,
    schedule_from_gamma_bar,
    schedule_from_gamma_bar_gaps,
)
from .pairs import (
    DoseLink,
    EffectModel,
    MatchedSample,
    adjust_outcomes,
    link_gaps,
    read_csv,
    sample_from_arrays,
    write_csv,
)
from .scores import (
    ScoredSample,
    ScoreSpec,
    parse_phi_expression,
    score,
    score_from_arrays,
)
from .sharp import (
    ConfidenceRegion,
    WorstCaseReport,
    confidence_region,
    worst_case_pvalue,
)
from .simulate import (
    PowerCurve,
    PowerEstimate,
    empirical_slope,
    estimate_power,
    power_curve,
    sharp_coverage,
    weak_coverage,
)
from .weaknull import (
    SolverConfig,
    WeakNullProblem,
    WeakNullRegion,
    WeakNullSolution,
    bounding_tail,
    variance_bound,
    weak_null_ci,
    worst_case_zscore,
)

__all__ = [
    "__version__",
    "BahadurResult",
    "DesignSensitivityResult",
    "bahadur_slope",
    "design_sensitivity",
    "slope_from_components",
    "BUILTIN_DGPS",
    "DgpSpec",
    "rank_score_fn",
    "ConfigError",
    "DataError",
    "DoseSensError",
    "SolverError",
    "GammaSchedule",
    "build_schedule",
    "gamma_for_mean_bound",
    "schedule_from_bounds",
    "schedule_from_gamma",
    "schedule_from_gamma_bar",
    "schedule_from_gamma_bar_gaps",
    "DoseLink",
    "EffectModel",
    "MatchedSample",
    "adjust_outcomes",
    "link_gaps",
    "read_csv",
    "sample_from_arrays",
    "write_csv",
    "ScoredSample",
    "ScoreSpec",
    "parse_phi_expression",
    "score",
    "score_from_arrays",
    "ConfidenceRegion",
    "WorstCaseReport",
    "confidence_region",
    "worst_case_pvalue",
    "PowerCurve",
    "PowerEstimate",
    "empirical_slope",
    "estimate_power",
    "power_curve",
    "sharp_coverage",
    "weak_coverage",
    "SolverConfig",
    "WeakNullProblem",
    "WeakNullRegion",
    "WeakNullSolution",
    "bounding_tail",
    "variance_bound",
    "weak_null_ci",
    "worst_case_zscore",
]
