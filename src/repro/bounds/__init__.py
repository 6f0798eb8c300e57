"""Worst-case output-size bounds (Sections 4.2, 5.2, 9.2)."""

from repro.bounds.agm import EdgeCoverResult, agm_bound, agm_bound_from_sizes, fractional_edge_cover
from repro.bounds.polymatroid import (
    BoundResult,
    PolymatroidProgram,
    ddr_polymatroid_bound,
    entropy_variable_name,
    polymatroid_bound,
)
from repro.bounds.lpnorm import (
    NormBoundComparison,
    add_measured_lp_norms,
    compare_with_and_without_norms,
)

__all__ = [
    "agm_bound",
    "agm_bound_from_sizes",
    "fractional_edge_cover",
    "EdgeCoverResult",
    "polymatroid_bound",
    "ddr_polymatroid_bound",
    "PolymatroidProgram",
    "BoundResult",
    "entropy_variable_name",
    "add_measured_lp_norms",
    "compare_with_and_without_norms",
    "NormBoundComparison",
]
