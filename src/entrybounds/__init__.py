"""Entrywise interval bounds and condition numbers for nearly
data-consistent solutions of linear inverse problems."""

from .bounds import (
    BoundArrays,
    BoundStatus,
    ConditionReport,
    EntryBound,
    ExtremalSolution,
    LinearSystem,
    Target,
    adjacent_difference_bounds,
    bounds_for,
    condition_report,
    crlb_identity_check,
    ellipsoid_volume,
    entrywise_bounds,
    epsilon_heuristic,
    extremal_solution,
    functional_bound,
    global_bounds,
)
from .core import SvdFactors, svd_truncated
from .matfree import (
    DiagEstimate,
    LandweberConfig,
    LandweberResult,
    LinearOperator,
    landweber_pinv,
    power_iteration_sigma1,
    stochastic_diag,
)

__version__ = "0.1.0"

__all__ = [
    "BoundArrays",
    "BoundStatus",
    "ConditionReport",
    "DiagEstimate",
    "EntryBound",
    "ExtremalSolution",
    "LandweberConfig",
    "LandweberResult",
    "LinearOperator",
    "LinearSystem",
    "SvdFactors",
    "Target",
    "adjacent_difference_bounds",
    "bounds_for",
    "condition_report",
    "crlb_identity_check",
    "ellipsoid_volume",
    "entrywise_bounds",
    "epsilon_heuristic",
    "extremal_solution",
    "functional_bound",
    "global_bounds",
    "landweber_pinv",
    "power_iteration_sigma1",
    "stochastic_diag",
    "svd_truncated",
]
