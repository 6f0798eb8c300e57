"""Linear programming substrate: compiled named LPs solved by HiGHS plus an
exact rational simplex (the semantics reference for the numeric path)."""

from repro.lp.model import (
    BoundedCache,
    CompiledConstraints,
    InfeasibleProgramError,
    LinearProgram,
    LPSolution,
    UnboundedProgramError,
    clear_lp_caches,
    count_lp_event,
    lp_cache_delta,
    lp_cache_stats,
    register_lp_cache,
    reset_lp_cache_stats,
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
    "lp_cache_delta",
    "reset_lp_cache_stats",
    "clear_lp_caches",
    "register_lp_cache",
    "count_lp_event",
    "ExactLPError",
    "ExactSolution",
    "solve_standard_form",
    "solve_min_with_inequalities",
]
