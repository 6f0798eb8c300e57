"""The query-engine service layer: one facade that amortizes everything.

The paper's planner is a meta-algorithm that picks Yannakakis / static-TD /
adaptive-PANDA per query; PRs 1–3 gave the storage and LP layers caches.  The
:class:`Engine` composes them into a serving loop:

* a **plan cache** (:mod:`repro.engine.plan_cache`) keyed by the canonical —
  variable-renaming-invariant — query fingerprint × the statistics
  fingerprint, with LRU eviction and build/hit counters, so repeated (or
  alpha-renamed) queries skip width computation, LP solving and TD
  enumeration entirely; concurrent misses on one key build the plan once;
* **measured-statistics memoization** validated by the database's revision
  counter (relations are immutable, so :meth:`Database.add` is the only
  change), so ``prepare(query)`` with no explicit statistics re-measures
  only after the data actually changed;
* **prepared queries** (:meth:`Engine.prepare`) whose ``execute``
  re-validates against the database revision and re-resolves transparently
  on staleness;
* :class:`EngineStats`: plans built/reused, statistics measured/reused,
  executions and wall time.  Storage, LP and kernel cache counters live once,
  in their layers' process-wide tables (``STORAGE_STATS``, ``LP_STATS``,
  ``KERNEL_STATS``); ``explain(analyze=True)`` reports one run's movements
  of them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.plan_verifier import assert_valid, verify_recipe
from repro.engine.fingerprint import (
    plan_fingerprint,
    query_fingerprint,
    statistics_fingerprint,
)
from repro.engine.plan_cache import PlanCache, PlanRecipe
from repro.decompositions.treedecomp import TreeDecomposition
from repro.lp.model import LP_STATS
from repro.optimizer.cost import estimate_costs
from repro.optimizer.planner import (
    ExecutionResult,
    QueryPlan,
    plan as choose_plan,
    realize_plan,
)
from repro.query.cq import ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.kernels import KERNEL_STATS
from repro.relational.operators import WorkCounter
from repro.relational.storage import STORAGE_STATS
from repro.stats.collect import collect_statistics
from repro.stats.constraints import ConstraintSet
from repro.telemetry.metrics import CounterTable, get_registry
from repro.telemetry.profiler import CardinalityProfile, plan_nodes
from repro.telemetry.trace import get_tracer
from repro.utils.cancellation import CancellationToken, QueryCancelledError
from repro.utils.lru import LruDict


#: The counters :meth:`EngineStats.bump` moves, in ``as_dict`` order.
_ENGINE_COUNTERS = (
    "plans_built", "plans_reused",
    # Recipes statically verified (running intersection, coverage,
    # free-variable safety) before entering the plan cache; every built plan
    # passes through the verifier, so this tracks ``plans_built`` unless
    # verification ever rejects a decision.
    "plans_verified",
    "statistics_measured", "statistics_reused",
    "executions",
    # Executions that raised ``QueryCancelledError`` (deadline or explicit
    # cancel) before producing an answer; not counted in ``executions``.
    "cancelled_executions",
    "invalidations",
    "wall_time_seconds",
)

#: Every engine's :meth:`EngineStats.bump` summed over the process (engines
#: come and go; these totals only grow), sampled as ``engine.stats.<key>``.
ENGINE_TOTALS = get_registry().table("engine.stats")


class EngineStats:
    """Serving metrics: planning reuse and execution shape.

    The counters in ``_ENGINE_COUNTERS`` read as attributes
    (``stats.plans_built``) and live in a
    :class:`~repro.telemetry.metrics.CounterTable`, so every update is
    atomic: :meth:`bump` applies its whole batch under one lock, two sessions
    finishing simultaneously never lose increments, and :meth:`as_dict`
    returns a consistent snapshot of the counters.
    """

    def __init__(self) -> None:
        self._counters = CounterTable(dict.fromkeys(_ENGINE_COUNTERS, 0))

    def __getattr__(self, name: str):
        if name in _ENGINE_COUNTERS:
            return self._counters.snapshot()[name]
        raise AttributeError(name)

    def bump(self, **deltas: int | float) -> None:
        """Apply counter increments as one atomic batch, here and in the
        process-wide :data:`ENGINE_TOTALS`."""
        if unknown := deltas.keys() - _ENGINE_COUNTERS:
            raise AttributeError(f"unknown engine counters {sorted(unknown)}")
        self._counters.add_many(deltas)
        ENGINE_TOTALS.add_many(deltas)

    def as_dict(self) -> dict:
        return self._counters.snapshot()

    def describe(self) -> str:
        d = self.as_dict()
        lines = [f"engine: {d['executions']} executions "
                 f"({d['cancelled_executions']} cancelled) "
                 f"in {d['wall_time_seconds']:.4f}s",
                 f"  plans: {d['plans_built']} built, {d['plans_reused']} reused, "
                 f"{d['plans_verified']} verified; "
                 f"statistics: {d['statistics_measured']} measured, "
                 f"{d['statistics_reused']} reused; "
                 f"{d['invalidations']} invalidations"]
        return "\n".join(lines)


@dataclass
class PreparedQuery:
    """A plan bound to an engine, re-validated against the database revision.

    ``execute()`` runs the cached plan, re-resolving it first if the engine's
    database moved on since it was prepared.
    """

    engine: "Engine"
    query: ConjunctiveQuery
    statistics: ConstraintSet
    plan: QueryPlan
    _explicit_statistics: bool
    _revision: int

    def execute(self, cancellation: CancellationToken | None = None
                ) -> ExecutionResult:
        self._refresh()
        return self.engine._execute_plan(self.plan, cancellation=cancellation)

    def _refresh(self) -> None:
        """Re-resolve statistics and plan if the engine database moved on."""
        engine = self.engine
        if engine.database.revision == self._revision:
            return
        engine.stats.bump(invalidations=1)
        if not self._explicit_statistics:
            self.statistics = engine.measured_statistics(self.query)
        self.plan = engine._resolve_plan(self.query, self.statistics)
        self._revision = engine.database.revision


class Engine:
    """The serving facade: a database plus every cross-request cache.

    Parameters
    ----------
    database:
        The database the engine owns and serves queries against.
    plan_cache_size:
        LRU capacity of the plan cache (entries, not bytes).
    measure_degrees:
        Whether auto-measured statistics include per-split max degrees
        (tighter plans, costlier measurement) or only cardinalities.
    """

    def __init__(self, database: Database, *,
                 plan_cache_size: int = 128,
                 measure_degrees: bool = False) -> None:
        self.database = database
        self.measure_degrees = measure_degrees
        self.plan_cache = PlanCache(plan_cache_size)
        self.stats = EngineStats()
        # LRU-bounded like the plan cache: an unbounded memo would keep one
        # statistics set per query shape ever seen for the engine's lifetime.
        self._stats_memo: LruDict = LruDict(plan_cache_size)
        self._plan_lock = threading.Lock()

    # ------------------------------------------------------------ statistics
    def measured_statistics(self, query: ConjunctiveQuery) -> ConstraintSet:
        """Statistics measured on the engine's database, memoized per query.

        Entries are validated by the database revision, so
        :meth:`Database.add` invalidates them.
        """
        memo = self._stats_memo.get(query)
        if memo is not None:
            revision, statistics = memo
            if revision == self.database.revision:
                self.stats.bump(statistics_reused=1)
                return statistics
        with get_tracer().span("engine.statistics",
                               {"query": query.name,
                                "degrees": self.measure_degrees}):
            statistics = collect_statistics(
                self.database, query, include_degrees=self.measure_degrees)
        self._stats_memo.put(query, (self.database.revision, statistics))
        self.stats.bump(statistics_measured=1)
        return statistics

    # -------------------------------------------------------------- planning
    def prepare(self, query: ConjunctiveQuery,
                statistics: ConstraintSet | None = None) -> PreparedQuery:
        """Resolve (or fetch) the plan for ``query`` and bind it for serving."""
        explicit = statistics is not None
        if statistics is None:
            statistics = self.measured_statistics(query)
        chosen = self._resolve_plan(query, statistics)
        return PreparedQuery(engine=self, query=query, statistics=statistics,
                             plan=chosen,
                             _explicit_statistics=explicit,
                             _revision=self.database.revision)

    def execute(self, query: ConjunctiveQuery,
                statistics: ConstraintSet | None = None,
                cancellation: CancellationToken | None = None) -> ExecutionResult:
        """Plan-cache-aware one-shot execution against the engine database.

        ``cancellation`` threads a cooperative token (deadline or explicit
        cancel) into the plan's inner loops; a tripped token raises
        :class:`~repro.utils.cancellation.QueryCancelledError` and the
        execution is accounted under ``stats.cancelled_executions``.
        """
        return self.prepare(query, statistics=statistics).execute(
            cancellation=cancellation)

    def explain(self, query: ConjunctiveQuery,
                statistics: ConstraintSet | None = None,
                analyze: bool = False) -> dict:
        """The chosen plan as a structured document; ``analyze=True`` also
        executes it and reports what actually happened.

        The analyze section carries the run's wall time, output row count,
        work-counter totals, the cache events the run moved, the trace
        (every span with offsets and durations), and the plan's
        ``estimated_vs_observed`` cardinality report — the polymatroid
        prediction next to the observed size for every plan node.
        """
        prepared = self.prepare(query, statistics=statistics)
        plan = prepared.plan
        doc = {
            "query": str(query),
            "kind": plan.kind.value,
            "reason": plan.reason,
            "fingerprint": plan.fingerprint,
            "explain": plan.explain(),
        }
        if not analyze:
            return doc
        tracer = get_tracer()
        storage_before = STORAGE_STATS.snapshot()
        lp_before = LP_STATS.snapshot()
        kernel_before = KERNEL_STATS.snapshot()
        started = time.perf_counter()
        with tracer.span("engine.explain_analyze",
                         {"query": query.name}) as span:
            result = prepared.execute()
        counter = result.counter
        doc["analyze"] = {
            "trace_id": span.trace_id,
            "row_count": len(result.answer),
            "wall_seconds": time.perf_counter() - started,
            "work": {
                "intermediate_tuples": counter.intermediate_tuples,
                "max_intermediate": counter.max_intermediate,
                "materializations": counter.materializations,
            },
            "cache_events": {
                "storage": STORAGE_STATS.delta(storage_before),
                "lp": LP_STATS.delta(lp_before),
                "kernels": KERNEL_STATS.delta(kernel_before),
            },
            "trace": tracer.export_trace(span.trace_id),
            "estimated_vs_observed": (plan.profile.estimated_vs_observed()
                                      if plan.profile is not None else []),
        }
        return doc

    # -------------------------------------------------------------- internals
    def _resolve_plan(self, query: ConjunctiveQuery,
                      statistics: ConstraintSet) -> QueryPlan:
        tracer = get_tracer()
        query_digest, renaming = query_fingerprint(query)
        statistics_digest = statistics_fingerprint(statistics, renaming)
        key = (query_digest, statistics_digest)
        with tracer.span("engine.plan_cache",
                         {"query": query.name}) as cache_span:
            cached = self._cached_plan(key, query, statistics, renaming)
            cache_span.set("hit", cached is not None)
        if cached is not None:
            return cached
        # Single flight: a miss builds under the engine's plan lock, and a
        # thread that missed while another was building re-reads the cache
        # once it gets the lock instead of building the same plan again.
        # The lock is per engine, so misses on different keys wait for each
        # other too. ``engine.plan_wait`` times the wait plus the re-read;
        # its ``hit`` says whether the waiter reused the other thread's plan.
        wait_span = tracer.span("engine.plan_wait", {"query": query.name})
        with self._plan_lock:
            cached = None
            try:
                cached = self._cached_plan(key, query, statistics, renaming)
            finally:
                wait_span.finish(hit=cached is not None)
            if cached is not None:
                return cached
            with tracer.span("engine.lp_solve",
                             {"query": query.name}) as lp_span:
                estimate = estimate_costs(query, statistics)
                chosen = choose_plan(query, statistics, estimate=estimate)
                lp_span.set("kind", chosen.kind.value)
            chosen.fingerprint = plan_fingerprint(query_digest,
                                                  statistics_digest)
            profile = CardinalityProfile(chosen.fingerprint, chosen.kind.value)
            profile.seed(plan_nodes(chosen), statistics, renaming)
            chosen.profile = profile
            chosen.renaming = renaming
            fresh_recipe = self._recipe_from_plan(chosen, renaming)
            # Statically verify the decision before it becomes a cache entry:
            # a malformed recipe cached here would be rebuilt with
            # ``validate=False`` on every later hit, returning wrong answers
            # silently.
            with tracer.span("engine.verify",
                             {"fingerprint": fresh_recipe.fingerprint}):
                assert_valid(f"plan recipe {fresh_recipe.fingerprint}",
                             verify_recipe(fresh_recipe, query=query,
                                           renaming=renaming))
            self.plan_cache.put(key, fresh_recipe)
            self.stats.bump(plans_built=1, plans_verified=1)
        return chosen

    def _cached_plan(self, key: tuple, query: ConjunctiveQuery,
                     statistics: ConstraintSet,
                     renaming: dict[str, str]) -> QueryPlan | None:
        """The plan cached under ``key`` rebound to ``query``, or ``None``."""
        recipe = self.plan_cache.get(key)
        if recipe is None:
            return None
        rebuilt = self._plan_from_recipe(recipe, query, statistics, renaming)
        if rebuilt is None:
            return None
        rebuilt.profile = recipe.profile
        rebuilt.renaming = renaming
        if recipe.profile is not None:
            # A renamed twin may execute through this entry: make sure
            # every node the rebuilt plan prices exists in the shared
            # profile (idempotent for already-seeded nodes).
            recipe.profile.seed(plan_nodes(rebuilt), statistics, renaming)
        self.stats.bump(plans_reused=1)
        return rebuilt

    def _recipe_from_plan(self, chosen: QueryPlan,
                          renaming: dict[str, str]) -> PlanRecipe:
        """Translate a freshly costed plan into canonical variable space."""

        def canonical_bags(bags: Iterable[frozenset[str]]) -> tuple:
            return tuple(frozenset(renaming[v] for v in bag) for bag in bags)

        estimate = chosen.estimate
        return PlanRecipe(
            kind=chosen.kind,
            reason=chosen.reason,
            fhtw_width=estimate.fhtw_exponent if estimate else float("nan"),
            subw_width=estimate.subw_exponent if estimate else float("nan"),
            is_acyclic=bool(estimate and estimate.is_acyclic),
            is_free_connex=bool(estimate and estimate.is_free_connex),
            best_bags=(canonical_bags(chosen.decomposition.bags)
                       if chosen.decomposition is not None else ()),
            decomposition_bags=tuple(canonical_bags(td.bags)
                                     for td in chosen.decompositions),
            fingerprint=chosen.fingerprint,
            profile=chosen.profile,
        )

    def _plan_from_recipe(self, recipe: PlanRecipe, query: ConjunctiveQuery,
                          statistics: ConstraintSet,
                          renaming: dict[str, str]) -> QueryPlan | None:
        """Rebind a canonical recipe to ``query``'s own variable names."""
        inverse = {canonical: original
                   for original, canonical in renaming.items()}
        try:
            decomposition = (TreeDecomposition(
                [{inverse[v] for v in bag} for bag in recipe.best_bags])
                if recipe.best_bags else None)
            decompositions = tuple(
                TreeDecomposition([{inverse[v] for v in bag} for bag in bags])
                for bags in recipe.decomposition_bags)
        except KeyError:
            # A fingerprint collision between structurally different queries:
            # astronomically unlikely, but fall back to a fresh plan.
            return None
        return realize_plan(recipe.kind, query, statistics,
                            reason=recipe.reason,
                            decomposition=decomposition,
                            decompositions=decompositions,
                            validate=False,
                            fingerprint=recipe.fingerprint)

    def _execute_plan(self, chosen: QueryPlan,
                      cancellation: CancellationToken | None = None) -> ExecutionResult:
        started = time.perf_counter()
        with get_tracer().span("engine.execute",
                               {"query": chosen.query.name,
                                "kind": chosen.kind.value}) as span:
            try:
                counter = None
                if cancellation is not None:
                    cancellation.check()
                    counter = WorkCounter(cancellation=cancellation)
                result = chosen.execute(self.database, counter=counter)
            except QueryCancelledError:
                # A cancelled run still spent wall time; account for it
                # (separately from successful executions) so the service's
                # deadline tests can assert bounded overshoot from the stats
                # alone.
                self.stats.bump(
                    cancelled_executions=1,
                    wall_time_seconds=time.perf_counter() - started)
                raise
            span.set("rows_out", len(result.answer))
        self.stats.bump(executions=1,
                        wall_time_seconds=time.perf_counter() - started)
        self._record_profile(chosen, result)
        return result

    def _record_profile(self, chosen: QueryPlan,
                        result: ExecutionResult) -> None:
        """Fold one successful execution's node observations into the plan's
        cardinality profile (a no-op for plans built outside this engine)."""
        profile = getattr(chosen, "profile", None)
        if profile is None:
            return
        observations = list(result.counter.observations)
        observations.append(("output",
                             tuple(sorted(result.answer.columns)),
                             len(result.answer)))
        profile.record(observations, chosen.renaming or {})
