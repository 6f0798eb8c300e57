"""Linear programming substrate: compiled named LPs solved by HiGHS plus an
exact rational simplex (the semantics reference for the numeric path)."""

from repro.lp.model import (
    BoundedCache,
    CompiledConstraints,
    InfeasibleProgramError,
    LP_STATS,
    LinearProgram,
    LPSolution,
    UnboundedProgramError,
    clear_lp_caches,
    lp_cache_stats,
    register_lp_cache,
    solve_max,
)
from repro.lp.exact import (
    ExactLPError,
    ExactSolution,
    solve_min_with_inequalities,
    solve_standard_form,
)

__all__ = [
    "LinearProgram",
    "LPSolution",
    "BoundedCache",
    "CompiledConstraints",
    "InfeasibleProgramError",
    "UnboundedProgramError",
    "solve_max",
    "lp_cache_stats",
    "LP_STATS",
    "clear_lp_caches",
    "register_lp_cache",
    "ExactLPError",
    "ExactSolution",
    "solve_standard_form",
    "solve_min_with_inequalities",
]
