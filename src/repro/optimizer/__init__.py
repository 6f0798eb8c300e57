"""The information-theoretic query optimizer: cost model and planner."""

from repro.optimizer.cost import CostEstimate, estimate_costs
from repro.optimizer.planner import (
    ExecutionResult,
    PlanKind,
    QueryPlan,
    plan,
    realize_plan,
)

__all__ = [
    "CostEstimate",
    "estimate_costs",
    "PlanKind",
    "QueryPlan",
    "ExecutionResult",
    "plan",
    "realize_plan",
]
