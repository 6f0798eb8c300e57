"""The query-engine service layer: one facade that amortizes everything.

The paper's planner is a meta-algorithm that picks Yannakakis / static-TD /
adaptive-PANDA per query; PRs 1–3 gave the storage and LP layers caches.  The
:class:`Engine` composes them into a serving loop:

* a **plan cache** (:mod:`repro.engine.plan_cache`) keyed by the canonical —
  variable-renaming-invariant — query fingerprint × the statistics
  fingerprint, with LRU eviction and build/hit counters, so repeated (or
  alpha-renamed) queries skip width computation, LP solving and TD
  enumeration entirely;
* **measured-statistics memoization** validated by the database's revision
  counter and backend identities, so ``prepare(query)`` with no explicit
  statistics re-measures only after the data actually changed;
* **prepared queries** (:meth:`Engine.prepare`) whose ``execute`` /
  ``execute_many`` re-validate against the database revision and re-resolve
  transparently on staleness;
* :class:`EngineStats`: plans built/reused, executions, wall time, and the
  aggregated storage + LP cache deltas observed while serving.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.plan_verifier import assert_valid, verify_recipe
from repro.engine.fingerprint import (
    plan_fingerprint,
    query_fingerprint,
    statistics_fingerprint,
)
from repro.engine.plan_cache import LruDict, PlanCache, PlanRecipe
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
from repro.stats.collect import collect_statistics
from repro.stats.constraints import ConstraintSet
from repro.telemetry.metrics import CounterTable, counter_delta, get_registry
from repro.telemetry.profiler import CardinalityProfile, plan_nodes
from repro.telemetry.trace import get_tracer
from repro.utils.cancellation import CancellationToken, QueryCancelledError


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

#: Event buckets: storage-backend index build/hit movements of the engine
#: database, LP-substrate cache movements during planning and execution, and
#: vectorized-kernel usage/fallback movements during execution.
_ENGINE_BUCKETS = ("storage_cache_events", "lp_cache_events",
                   "kernel_cache_events")

#: Every engine's :meth:`EngineStats.bump` summed over the process (engines
#: come and go; these totals only grow), sampled as ``engine.stats.<key>``.
ENGINE_TOTALS = get_registry().table("engine.stats")


class EngineStats:
    """Serving metrics: planning reuse, execution shape, cache activity.

    The counters in ``_ENGINE_COUNTERS`` read as attributes
    (``stats.plans_built``); each event bucket reads as a dict
    (``stats.lp_cache_events``).  Both live in
    :class:`~repro.telemetry.metrics.CounterTable` s, so every update is
    atomic: :meth:`bump` applies its whole batch under one lock, two sessions
    finishing simultaneously never lose increments, and :meth:`as_dict`
    returns a consistent snapshot of the counters.  (The LP and kernel event
    deltas are measured against process-global counters, so under
    concurrent sessions an execution's bucket may include a neighbour's
    movements — the totals remain exact, the per-session attribution is
    approximate.)
    """

    def __init__(self) -> None:
        self._counters = CounterTable(dict.fromkeys(_ENGINE_COUNTERS, 0))
        self._buckets = {bucket: CounterTable() for bucket in _ENGINE_BUCKETS}

    def __getattr__(self, name: str):
        if name in _ENGINE_COUNTERS:
            return self._counters.snapshot()[name]
        if name in _ENGINE_BUCKETS:
            return self._buckets[name].snapshot()
        raise AttributeError(name)

    def bump(self, **deltas: int | float) -> None:
        """Apply counter increments as one atomic batch, here and in the
        process-wide :data:`ENGINE_TOTALS`."""
        if unknown := deltas.keys() - _ENGINE_COUNTERS:
            raise AttributeError(f"unknown engine counters {sorted(unknown)}")
        self._counters.add_many(deltas)
        ENGINE_TOTALS.add_many(deltas)

    def absorb_events(self, target: str, delta: dict[str, int]) -> None:
        self._buckets[target].add_many(delta)

    def as_dict(self) -> dict:
        return {**self._counters.snapshot(),
                **{bucket: table.snapshot()
                   for bucket, table in self._buckets.items()}}

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
        for label, bucket in (("storage caches", d["storage_cache_events"]),
                              ("lp caches", d["lp_cache_events"]),
                              ("kernels", d["kernel_cache_events"])):
            if bucket:
                events = ", ".join(f"{key}={value}"
                                   for key, value in sorted(bucket.items()))
                lines.append(f"  {label}: {events}")
        return "\n".join(lines)


@dataclass
class PreparedQuery:
    """A plan bound to an engine, re-validated against the database revision.

    ``execute()`` runs the cached plan; ``execute_many(batch)`` runs the
    same plan once per database in ``batch`` — the serving pattern for a
    stream of snapshots or tenant databases that share one schema — or, with
    no batch, once per engine database per repetition.
    """

    engine: "Engine"
    query: ConjunctiveQuery
    statistics: ConstraintSet
    plan: QueryPlan
    _explicit_statistics: bool
    _revision: int
    _snapshot: tuple

    def execute(self, cancellation: CancellationToken | None = None
                ) -> ExecutionResult:
        self._refresh()
        return self.engine._execute_plan(self.plan, cancellation=cancellation)

    def execute_many(self, batch: Iterable[Database] | None = None,
                     repeat: int = 1) -> list[ExecutionResult]:
        """Run the prepared plan over a batch of databases (or ``repeat`` times).

        All runs reuse this one plan — no re-planning per database — which is
        sound because the plan only depends on the query and the statistics;
        pass databases that satisfy the prepared statistics for the cost
        guarantees to carry over.
        """
        if batch is None:
            return [self.execute() for _ in range(repeat)]
        self._refresh()
        return [self.engine._execute_plan(self.plan, database=database)
                for database in batch]

    def _refresh(self) -> None:
        """Re-resolve statistics and plan if the engine database moved on."""
        engine = self.engine
        if (engine.database.revision == self._revision
                and engine.database.backend_snapshot() == self._snapshot):
            return
        engine.stats.bump(invalidations=1)
        if not self._explicit_statistics:
            self.statistics = engine.measured_statistics(self.query)
        self.plan = engine._resolve_plan(self.query, self.statistics)
        self._revision = engine.database.revision
        self._snapshot = engine.database.backend_snapshot()


class Engine:
    """The serving facade: a database plus every cross-request cache.

    Parameters
    ----------
    database:
        The database the engine owns and serves queries against.
    plan_cache_size:
        LRU capacity of the plan cache (entries, not bytes).
    max_variables, adaptive_threshold:
        Planner configuration, part of the plan-cache key.
    measure_degrees:
        Whether auto-measured statistics include per-split max degrees
        (tighter plans, costlier measurement) or only cardinalities.
    """

    def __init__(self, database: Database, *,
                 plan_cache_size: int = 128,
                 max_variables: int = 9,
                 adaptive_threshold: float = 1e-6,
                 measure_degrees: bool = False) -> None:
        self.database = database
        self.max_variables = max_variables
        self.adaptive_threshold = adaptive_threshold
        self.measure_degrees = measure_degrees
        self.plan_cache = PlanCache(plan_cache_size)
        self.stats = EngineStats()
        # LRU-bounded like the plan cache: an unbounded memo would pin one
        # backend snapshot per query shape ever seen — including superseded
        # backends and their memoized encodings — for the engine's lifetime.
        self._stats_memo: LruDict = LruDict(plan_cache_size)

    # ------------------------------------------------------------ statistics
    def measured_statistics(self, query: ConjunctiveQuery) -> ConstraintSet:
        """Statistics measured on the engine's database, memoized per query.

        Entries are validated by the database revision *and* the stored
        relations' backend identities, so both :meth:`Database.add` and
        copy-on-write row mutation invalidate them.
        """
        memo = self._stats_memo.get(query)
        snapshot = self.database.backend_snapshot()
        if memo is not None:
            revision, seen_snapshot, statistics = memo
            if revision == self.database.revision and seen_snapshot == snapshot:
                self.stats.bump(statistics_reused=1)
                return statistics
        with get_tracer().span("engine.statistics",
                               {"query": query.name,
                                "degrees": self.measure_degrees}):
            statistics = collect_statistics(
                self.database, query, include_degrees=self.measure_degrees)
        self._stats_memo.put(query, (self.database.revision, snapshot, statistics))
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
                             _revision=self.database.revision,
                             _snapshot=self.database.backend_snapshot())

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

    def execute_many(self, queries: Sequence[ConjunctiveQuery]
                     ) -> list[ExecutionResult]:
        """Serve a workload of queries; repeated shapes hit the plan cache."""
        return [self.execute(query) for query in queries]

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
        storage_before = self.database.cache_stats()
        lp_before = LP_STATS.snapshot()
        kernel_before = KERNEL_STATS.snapshot()
        started = time.perf_counter()
        with tracer.span("engine.explain_analyze",
                         {"query": query.name}) as span:
            result = prepared.execute()
            ctx = span.context()
        trace_id = ctx.trace_id if ctx is not None else ""
        counter = result.counter
        doc["analyze"] = {
            "trace_id": trace_id,
            "row_count": len(result.answer),
            "wall_seconds": time.perf_counter() - started,
            "work": {
                "intermediate_tuples": counter.intermediate_tuples,
                "max_intermediate": counter.max_intermediate,
                "materializations": counter.materializations,
            },
            "cache_events": {
                "storage": counter_delta(self.database.cache_stats(),
                                         storage_before),
                "lp": LP_STATS.delta(lp_before),
                "kernels": KERNEL_STATS.delta(kernel_before),
            },
            "trace": tracer.export_trace(trace_id) if trace_id else None,
            "estimated_vs_observed": (plan.profile.estimated_vs_observed()
                                      if plan.profile is not None else []),
        }
        return doc

    def cache_stats(self) -> dict[str, int]:
        """Plan-cache counters merged with the database's index counters."""
        totals = self.plan_cache.cache_stats()
        for event, count in self.database.cache_stats().items():
            totals[event] = totals.get(event, 0) + count
        return totals

    def invalidate(self) -> None:
        """Drop every cached plan and memoized statistic."""
        self.plan_cache.clear()
        self._stats_memo.clear()
        self.stats.bump(invalidations=1)

    # -------------------------------------------------------------- internals
    def _plan_key(self, query_digest: str, statistics_digest: str) -> tuple:
        return (query_digest, statistics_digest,
                self.max_variables, self.adaptive_threshold)

    def _resolve_plan(self, query: ConjunctiveQuery,
                      statistics: ConstraintSet) -> QueryPlan:
        tracer = get_tracer()
        query_digest, renaming = query_fingerprint(query)
        statistics_digest = statistics_fingerprint(statistics, renaming)
        key = self._plan_key(query_digest, statistics_digest)
        with tracer.span("engine.plan_cache",
                         {"query": query.name}) as cache_span:
            recipe = self.plan_cache.get(key)
            rebuilt = (self._plan_from_recipe(recipe, query, statistics,
                                              renaming)
                       if recipe is not None else None)
            cache_span.set("hit", rebuilt is not None)
        if rebuilt is not None:
            rebuilt.profile = recipe.profile
            rebuilt.renaming = renaming
            if recipe.profile is not None:
                # A renamed twin may execute through this entry: make sure
                # every node the rebuilt plan prices exists in the shared
                # profile (idempotent for already-seeded nodes).
                recipe.profile.seed(plan_nodes(rebuilt), statistics, renaming)
            self.stats.bump(plans_reused=1)
            return rebuilt
        before_lp = LP_STATS.snapshot()
        with tracer.span("engine.lp_solve", {"query": query.name}) as lp_span:
            estimate = estimate_costs(query, statistics,
                                      max_variables=self.max_variables)
            chosen = choose_plan(query, statistics,
                                 max_variables=self.max_variables,
                                 adaptive_threshold=self.adaptive_threshold,
                                 estimate=estimate)
            lp_span.set("kind", chosen.kind.value)
        chosen.fingerprint = plan_fingerprint(query_digest, statistics_digest)
        self.stats.absorb_events("lp_cache_events", LP_STATS.delta(before_lp))
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
                            max_variables=self.max_variables,
                            validate=False,
                            fingerprint=recipe.fingerprint)

    def _execute_plan(self, chosen: QueryPlan,
                      database: Database | None = None,
                      cancellation: CancellationToken | None = None) -> ExecutionResult:
        database = self.database if database is None else database
        storage_before = database.cache_stats()
        lp_before = LP_STATS.snapshot()
        kernel_before = KERNEL_STATS.snapshot()
        started = time.perf_counter()
        with get_tracer().span("engine.execute",
                               {"query": chosen.query.name,
                                "kind": chosen.kind.value}) as span:
            try:
                counter = None
                if cancellation is not None:
                    cancellation.check()
                    counter = WorkCounter(cancellation=cancellation)
                result = chosen.execute(database, counter=counter)
            except QueryCancelledError:
                # A cancelled run still spent wall time and moved the caches;
                # account for it (separately from successful executions) so
                # the service's deadline tests can assert bounded overshoot
                # from the stats alone.
                self.stats.bump(
                    cancelled_executions=1,
                    wall_time_seconds=time.perf_counter() - started)
                self._absorb_execution_events(database, storage_before,
                                              lp_before, kernel_before)
                raise
            span.set("rows_out", len(result.answer))
        self.stats.bump(executions=1,
                        wall_time_seconds=time.perf_counter() - started)
        self._absorb_execution_events(database, storage_before,
                                      lp_before, kernel_before)
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

    def _absorb_execution_events(self, database: Database,
                                 storage_before: dict[str, int],
                                 lp_before: dict[str, int],
                                 kernel_before: dict[str, int]) -> None:
        self.stats.absorb_events("storage_cache_events",
                                 counter_delta(database.cache_stats(),
                                               storage_before))
        self.stats.absorb_events("lp_cache_events", LP_STATS.delta(lp_before))
        self.stats.absorb_events("kernel_cache_events",
                                 KERNEL_STATS.delta(kernel_before))

