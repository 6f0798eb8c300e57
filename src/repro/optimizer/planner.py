"""The query planner: picking and executing the best plan (Sections 1, 4–5, 8).

The planner is the "meta-algorithm" of the paper's introduction: given a query
``Q`` and statistics ``S`` it decides, *before looking at the data*, which
evaluation strategy to use:

* a free-connex acyclic query goes straight to the Yannakakis algorithm
  (linear in input + output);
* when the submodular width is strictly below the fractional hypertree width,
  the query benefits from data partitioning and an adaptive (multi-TD) PANDA
  plan is chosen;
* otherwise the best single tree decomposition (the fhtw witness) is executed
  as a static plan.

``plan(...)`` produces a :class:`QueryPlan` that can be inspected
(``explain()``) and executed against any database satisfying the statistics.
A plan is built from exactly one :class:`~repro.optimizer.cost.CostEstimate`
(pass ``estimate=`` to reuse one the caller already computed) and carries the
decompositions that estimate enumerated, so choosing *and* executing a plan
never re-derives widths, LP bounds or decompositions — the historical
behaviour of re-running ``estimate_costs`` when switching between plan kinds
is gone.  For repeated traffic, :class:`repro.engine.Engine` caches whole
plans across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from repro.algorithms.static_plan import evaluate_static_plan
from repro.algorithms.yannakakis import evaluate_yannakakis
from repro.decompositions.treedecomp import TreeDecomposition
from repro.optimizer.cost import CostEstimate, estimate_costs
from repro.panda.adaptive import evaluate_adaptive
from repro.query.cq import ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.operators import WorkCounter
from repro.relational.relation import Relation
from repro.stats.constraints import ConstraintSet
from repro.telemetry.trace import get_tracer


class PlanKind(str, Enum):
    """The three plan families the optimizer chooses between."""

    YANNAKAKIS = "yannakakis"
    STATIC_TD = "static-tree-decomposition"
    ADAPTIVE_PANDA = "adaptive-panda"


@dataclass
class ExecutionResult:
    """The answer relation plus the work performed to compute it."""

    answer: Relation
    counter: WorkCounter
    details: object | None = None

    @property
    def output_size(self) -> int:
        return len(self.answer)


@dataclass
class QueryPlan:
    """A chosen plan: its kind, cost figures and an executable closure.

    ``estimate`` is the full cost estimate when the plan was freshly costed
    and ``None`` when the plan was rebuilt from the engine's plan cache (the
    widths then live in ``reason``/``fingerprint``).  ``decomposition`` /
    ``decompositions`` expose the plan's structure so it can be cached and
    explained without re-deriving anything.
    """

    kind: PlanKind
    query: ConjunctiveQuery
    statistics: ConstraintSet
    runner: Callable[[Database, WorkCounter | None], ExecutionResult]
    reason: str
    estimate: CostEstimate | None = None
    #: The static plan's tree decomposition (``STATIC_TD`` only).
    decomposition: TreeDecomposition | None = None
    #: The free-connex decompositions an adaptive plan unions over.
    decompositions: tuple[TreeDecomposition, ...] = ()
    #: The plan-cache identity: canonical query fingerprint × statistics
    #: fingerprint.  Empty for plans built outside an engine.
    fingerprint: str = ""
    #: The engine-attached cardinality profile
    #: (:class:`repro.telemetry.profiler.CardinalityProfile`) and the
    #: query → canonical variable renaming its observations map through.
    #: ``None`` for plans built outside an engine.
    profile: object | None = field(default=None, repr=False, compare=False)
    renaming: dict | None = field(default=None, repr=False, compare=False)

    def execute(self, database: Database,
                counter: WorkCounter | None = None) -> ExecutionResult:
        """Run the plan; ``counter`` optionally supplies the work counter.

        Passing a counter is how callers thread a cooperative cancellation
        token (``WorkCounter(cancellation=token)``) into the evaluation inner
        loops; the result's ``counter`` is then that same object.
        """
        return self.runner(database, counter)

    def explain(self) -> str:
        lines = [f"plan for {self.query}",
                 f"  strategy: {self.kind.value}",
                 f"  reason: {self.reason}"]
        if self.fingerprint:
            lines.append(f"  fingerprint: {self.fingerprint}")
        if self.estimate is not None:
            lines.append("  " + self.estimate.describe().replace("\n", "\n  "))
        else:
            lines.append("  estimate: served from the plan cache")
        return "\n".join(lines)


def realize_plan(kind: PlanKind, query: ConjunctiveQuery,
                 statistics: ConstraintSet, *, reason: str,
                 estimate: CostEstimate | None = None,
                 decomposition: TreeDecomposition | None = None,
                 decompositions: Sequence[TreeDecomposition] = (),
                 max_variables: int = 9,
                 validate: bool = True,
                 fingerprint: str = "") -> QueryPlan:
    """Build the executable :class:`QueryPlan` for an already-made decision.

    This is the single place runners are constructed: :func:`plan` calls it
    after comparing the cost figures, and the engine's plan cache calls it
    when rebinding a cached decision to a (possibly variable-renamed) query.
    ``validate=False`` skips re-validating a decomposition that was validated
    when the decision was first made.
    """
    decompositions = tuple(decompositions)
    if kind is PlanKind.YANNAKAKIS:
        runner = lambda database, counter=None: _run_yannakakis(  # noqa: E731
            query, database, counter=counter)
    elif kind is PlanKind.ADAPTIVE_PANDA:
        runner = lambda database, counter=None: _run_adaptive(  # noqa: E731
            query, database, statistics, max_variables,
            decompositions=decompositions or None, counter=counter)
    elif kind is PlanKind.STATIC_TD:
        if decomposition is None:
            raise ValueError("a static plan needs its tree decomposition")
        runner = lambda database, counter=None: _run_static(  # noqa: E731
            query, database, decomposition, validate=validate, counter=counter)
    else:  # pragma: no cover - exhaustive over PlanKind
        raise ValueError(f"unknown plan kind: {kind!r}")
    return QueryPlan(kind=kind, query=query, statistics=statistics,
                     runner=runner, reason=reason, estimate=estimate,
                     decomposition=decomposition, decompositions=decompositions,
                     fingerprint=fingerprint)


def plan(query: ConjunctiveQuery, statistics: ConstraintSet,
         max_variables: int = 9,
         adaptive_threshold: float = 1e-6,
         estimate: CostEstimate | None = None) -> QueryPlan:
    """Choose a plan for ``query`` under ``statistics``.

    ``estimate`` lets a caller that already holds the costed estimate (the
    engine, a benchmark comparing strategies) skip recomputing it; every
    runner below reuses the estimate's decompositions, so the widths and the
    TD enumeration happen exactly once per plan.
    """
    if estimate is None:
        estimate = estimate_costs(query, statistics, max_variables=max_variables)
    elif estimate.query != query:
        # The decompositions and widths below are only meaningful for the
        # query they were costed on; silently accepting a mismatch would
        # execute a foreign decomposition and return wrong answers.
        raise ValueError(
            f"the supplied estimate was costed for {estimate.query}, not {query}")

    if estimate.is_acyclic and estimate.is_free_connex:
        return realize_plan(
            PlanKind.YANNAKAKIS, query, statistics, estimate=estimate,
            reason="the query is free-connex acyclic: Yannakakis runs in O(N + OUT)",
            max_variables=max_variables)
    if estimate.adaptive_gain > adaptive_threshold:
        return realize_plan(
            PlanKind.ADAPTIVE_PANDA, query, statistics, estimate=estimate,
            decompositions=estimate.decompositions,
            reason=(f"subw = {estimate.subw_exponent:.4g} < fhtw = "
                    f"{estimate.fhtw_exponent:.4g}: data partitioning across multiple "
                    "tree decompositions is strictly better than any single one"),
            max_variables=max_variables)
    return realize_plan(
        PlanKind.STATIC_TD, query, statistics, estimate=estimate,
        decomposition=estimate.fhtw.best_decomposition,
        reason=(f"a single tree decomposition already attains the submodular width "
                f"({estimate.fhtw_exponent:.4g})"),
        max_variables=max_variables, validate=False)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _run_yannakakis(query: ConjunctiveQuery, database: Database,
                    counter: WorkCounter | None = None) -> ExecutionResult:
    counter = counter if counter is not None else WorkCounter()
    counter.check()
    with get_tracer().span("exec.yannakakis",
                           {"query": query.name}) as span:
        answer = evaluate_yannakakis(query, database, counter=counter)
        span.set("rows_out", len(answer))
    return ExecutionResult(answer=answer, counter=counter)


def _run_static(query: ConjunctiveQuery, database: Database,
                decomposition, validate: bool = True,
                counter: WorkCounter | None = None) -> ExecutionResult:
    counter = counter if counter is not None else WorkCounter()
    counter.check()
    with get_tracer().span("exec.static_td",
                           {"query": query.name,
                            "bags": len(tuple(decomposition.bags))}) as span:
        answer, report = evaluate_static_plan(query, database, decomposition,
                                              counter=counter,
                                              validate=validate)
        span.set("rows_out", len(answer))
    for bag, size in report.bag_sizes.items():
        counter.observe_node("bag", sorted(bag), size)
    return ExecutionResult(answer=answer, counter=counter, details=report)


def _run_adaptive(query: ConjunctiveQuery, database: Database,
                  statistics: ConstraintSet, max_variables: int,
                  decompositions: Sequence[TreeDecomposition] | None = None,
                  counter: WorkCounter | None = None) -> ExecutionResult:
    counter = counter if counter is not None else WorkCounter()
    counter.check()
    with get_tracer().span("exec.adaptive_panda",
                           {"query": query.name}) as span:
        answer, report = evaluate_adaptive(query, database,
                                           statistics=statistics,
                                           decompositions=decompositions,
                                           max_variables=max_variables,
                                           counter=counter)
        span.set("rows_out", len(answer))
        span.set("max_intermediate", report.max_intermediate)
    counter.observe_max(report.max_intermediate)
    for bag, size in report.bag_sizes.items():
        counter.observe_node("bag", sorted(bag), size)
    return ExecutionResult(answer=answer, counter=counter, details=report)
