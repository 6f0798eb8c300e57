"""Degree constraints, ℓp-norm constraints and statistics collection (Sections 3.2, 9.2)."""

from repro.stats.constraints import (
    ConstraintSet,
    DegreeConstraint,
    LpNormConstraint,
    guarding_atoms,
    identical_cardinalities,
    log_with_base,
    statistics_for_query,
)
from repro.stats.collect import collect_statistics, satisfies, validate

__all__ = [
    "DegreeConstraint",
    "LpNormConstraint",
    "ConstraintSet",
    "identical_cardinalities",
    "statistics_for_query",
    "log_with_base",
    "guarding_atoms",
    "collect_statistics",
    "validate",
    "satisfies",
]
