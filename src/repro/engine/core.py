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
* **partition-parallel execution** (:mod:`repro.engine.parallel`): the
  heaviest non-self-joined atom is hash-partitioned across N workers, the
  cached plan runs per shard, and the shard answers union into exactly the
  serial result;
* :class:`EngineStats`: plans built/reused, shards run, wall time, and the
  aggregated storage + LP cache deltas observed while serving.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.plan_verifier import assert_valid, verify_recipe
from repro.engine.fingerprint import (
    plan_fingerprint,
    query_fingerprint,
    statistics_fingerprint,
)
from repro.engine.parallel import EXECUTORS, run_partitioned
from repro.engine.plan_cache import LruDict, PlanCache, PlanRecipe
from repro.decompositions.treedecomp import TreeDecomposition
from repro.lp.model import lp_cache_delta, lp_cache_stats
from repro.optimizer.cost import estimate_costs
from repro.optimizer.planner import (
    ExecutionResult,
    QueryPlan,
    plan as choose_plan,
    realize_plan,
)
from repro.query.cq import ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.kernels import kernel_stats, kernel_stats_delta
from repro.relational.operators import WorkCounter
from repro.stats.collect import collect_statistics
from repro.stats.constraints import ConstraintSet
from repro.telemetry.metrics import bump_counters
from repro.telemetry.profiler import CardinalityProfile, plan_nodes
from repro.telemetry.trace import get_tracer
from repro.utils.cancellation import CancellationToken, QueryCancelledError


@dataclass
class EngineStats:
    """Serving metrics: planning reuse, execution shape, cache activity.

    Updates are atomic: every counter movement goes through :meth:`bump` /
    :meth:`absorb_events`, which apply their whole delta under one internal
    lock.  Two sessions finishing simultaneously — the multi-tenant service
    completes queries of one engine on several worker threads — therefore
    never lose increments to interleaved read-modify-write, and
    :meth:`as_dict` returns an internally consistent snapshot.  (The LP and
    kernel *event deltas* are measured against process-global counters, so
    under concurrent sessions an execution's bucket may include a neighbour's
    movements — the totals remain exact, the per-session attribution is
    approximate.)
    """

    plans_built: int = 0
    plans_reused: int = 0
    #: Recipes statically verified (running intersection, coverage,
    #: free-variable safety) before entering the plan cache; every built
    #: plan passes through the verifier, so this tracks ``plans_built``
    #: unless verification ever rejects a decision.
    plans_verified: int = 0
    statistics_measured: int = 0
    statistics_reused: int = 0
    executions: int = 0
    serial_executions: int = 0
    parallel_executions: int = 0
    #: Executions that raised ``QueryCancelledError`` (deadline or explicit
    #: cancel) before producing an answer; not counted in ``executions``.
    cancelled_executions: int = 0
    shards_run: int = 0
    invalidations: int = 0
    #: Shard tasks re-dispatched after a failure (worker error, worker death
    #: or a dropped ack) by the fault-tolerant cluster executor.
    tasks_retried: int = 0
    #: Straggler shards speculatively re-issued to an idle worker (first
    #: result wins; duplicates are discarded by shard id).
    stragglers_redispatched: int = 0
    #: Worker processes replaced after death or circuit-breaker quarantine
    #: by the cluster executor.
    workers_respawned: int = 0
    #: Queries that fell back to in-process serial execution of remaining
    #: shards after retry/pool exhaustion — degraded, never failed.
    degraded_executions: int = 0
    wall_time_seconds: float = 0.0
    #: Aggregated storage-backend index build/hit deltas observed during
    #: executions (the engine database's ``cache_stats`` movements).
    storage_cache_events: dict[str, int] = field(default_factory=dict)
    #: Aggregated LP-substrate cache deltas (region/flow/solution reuse)
    #: observed during planning and execution.
    lp_cache_events: dict[str, int] = field(default_factory=dict)
    #: Aggregated vectorized-kernel usage/fallback deltas (kernel joins and
    #: marginals taken, reference-path fallbacks) observed during executions.
    kernel_cache_events: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def bump(self, **deltas: int | float) -> None:
        """Apply counter increments as one atomic batch."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)
        # Mirror the movement into the process-wide metrics registry (after
        # releasing the lock — the registry takes its own).  The event
        # buckets absorbed via ``absorb_events`` are *not* forwarded: the
        # storage/LP/kernel layers already publish those process-wide
        # through their registered pull sources.
        bump_counters({f"engine.stats.{name}": delta
                       for name, delta in deltas.items()})

    def absorb_events(self, target: str, delta: dict[str, int]) -> None:
        with self._lock:
            bucket = getattr(self, target)
            for event, count in delta.items():
                if count:
                    bucket[event] = bucket.get(event, 0) + count

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "plans_built": self.plans_built,
                "plans_reused": self.plans_reused,
                "plans_verified": self.plans_verified,
                "statistics_measured": self.statistics_measured,
                "statistics_reused": self.statistics_reused,
                "executions": self.executions,
                "serial_executions": self.serial_executions,
                "parallel_executions": self.parallel_executions,
                "cancelled_executions": self.cancelled_executions,
                "shards_run": self.shards_run,
                "invalidations": self.invalidations,
                "tasks_retried": self.tasks_retried,
                "stragglers_redispatched": self.stragglers_redispatched,
                "workers_respawned": self.workers_respawned,
                "degraded_executions": self.degraded_executions,
                "wall_time_seconds": self.wall_time_seconds,
                "storage_cache_events": dict(self.storage_cache_events),
                "lp_cache_events": dict(self.lp_cache_events),
                "kernel_cache_events": dict(self.kernel_cache_events),
            }

    def describe(self) -> str:
        lines = [f"engine: {self.executions} executions "
                 f"({self.parallel_executions} parallel, {self.shards_run} shards, "
                 f"{self.cancelled_executions} cancelled) "
                 f"in {self.wall_time_seconds:.4f}s",
                 f"  plans: {self.plans_built} built, {self.plans_reused} reused, "
                 f"{self.plans_verified} verified; "
                 f"statistics: {self.statistics_measured} measured, "
                 f"{self.statistics_reused} reused; "
                 f"{self.invalidations} invalidations"]
        if (self.tasks_retried or self.stragglers_redispatched
                or self.workers_respawned or self.degraded_executions):
            lines.append(
                f"  faults: {self.tasks_retried} tasks retried, "
                f"{self.stragglers_redispatched} stragglers re-dispatched, "
                f"{self.workers_respawned} workers respawned, "
                f"{self.degraded_executions} degraded executions")
        for label, bucket in (("storage caches", self.storage_cache_events),
                              ("lp caches", self.lp_cache_events),
                              ("kernels", self.kernel_cache_events)):
            if bucket:
                events = ", ".join(f"{key}={value}"
                                   for key, value in sorted(bucket.items()))
                lines.append(f"  {label}: {events}")
        return "\n".join(lines)


@dataclass
class PreparedQuery:
    """A plan bound to an engine, re-validated against the database revision.

    ``execute()`` runs the cached plan (sharded when the prepared shard count
    or the call-site override asks for it); ``execute_many(batch)`` runs the
    same plan once per database in ``batch`` — the serving pattern for a
    stream of snapshots or tenant databases that share one schema — or, with
    no batch, once per engine database per repetition.
    """

    engine: "Engine"
    query: ConjunctiveQuery
    statistics: ConstraintSet
    plan: QueryPlan
    shards: int
    _explicit_statistics: bool
    _revision: int
    _snapshot: tuple

    def execute(self, shards: int | None = None,
                cancellation: CancellationToken | None = None) -> ExecutionResult:
        self._refresh()
        return self.engine._execute_plan(
            self.plan, self.shards if shards is None else shards,
            cancellation=cancellation)

    def execute_many(self, batch: Iterable[Database] | None = None,
                     repeat: int = 1,
                     shards: int | None = None) -> list[ExecutionResult]:
        """Run the prepared plan over a batch of databases (or ``repeat`` times).

        All runs reuse this one plan — no re-planning per database — which is
        sound because the plan only depends on the query and the statistics;
        pass databases that satisfy the prepared statistics for the cost
        guarantees to carry over.
        """
        shard_count = self.shards if shards is None else shards
        if batch is None:
            return [self.execute(shards=shard_count) for _ in range(repeat)]
        self._refresh()
        return [self.engine._execute_plan(self.plan, shard_count,
                                          database=database)
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
    shards:
        Default shard count for executions; ``1`` means serial.  Shard counts
        can be overridden per ``prepare``/``execute`` call.
    executor:
        ``"serial"`` (default; runs the shards one after another in this
        process, sharing warm indexes of unpartitioned relations) or
        ``"cluster"`` (forked workers under the fault-tolerant coordinator
        of :mod:`repro.engine.cluster`: retries, straggler re-dispatch,
        worker respawn, serial degradation).
    cluster_config:
        Optional :class:`~repro.engine.cluster.ClusterConfig` for the
        ``"cluster"`` executor; ``None`` uses the defaults.
    measure_degrees:
        Whether auto-measured statistics include per-split max degrees
        (tighter plans, costlier measurement) or only cardinalities.
    """

    def __init__(self, database: Database, *,
                 plan_cache_size: int = 128,
                 max_variables: int = 9,
                 adaptive_threshold: float = 1e-6,
                 shards: int = 1,
                 executor: str = "serial",
                 cluster_config=None,
                 measure_degrees: bool = False) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; pick one of {EXECUTORS}")
        if isinstance(shards, bool) or not isinstance(shards, int) \
                or shards < 1:
            raise ValueError(f"shards must be a positive int, got {shards!r}")
        self.database = database
        self.max_variables = max_variables
        self.adaptive_threshold = adaptive_threshold
        self.shards = shards
        self.executor = executor
        self.measure_degrees = measure_degrees
        self.plan_cache = PlanCache(plan_cache_size)
        self.stats = EngineStats()
        # LRU-bounded like the plan cache: an unbounded memo would pin one
        # backend snapshot per query shape ever seen — including superseded
        # backends and their memoized encodings — for the engine's lifetime.
        self._stats_memo: LruDict = LruDict(plan_cache_size)
        # The cluster coordinator is built lazily, on the first clustered
        # run, and reports fault counters into this engine's stats.
        self._cluster_config = cluster_config
        self._cluster = None

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
                statistics: ConstraintSet | None = None,
                shards: int | None = None) -> PreparedQuery:
        """Resolve (or fetch) the plan for ``query`` and bind it for serving."""
        explicit = statistics is not None
        if statistics is None:
            statistics = self.measured_statistics(query)
        chosen = self._resolve_plan(query, statistics)
        return PreparedQuery(engine=self, query=query, statistics=statistics,
                             plan=chosen,
                             shards=self.shards if shards is None else shards,
                             _explicit_statistics=explicit,
                             _revision=self.database.revision,
                             _snapshot=self.database.backend_snapshot())

    def execute(self, query: ConjunctiveQuery,
                statistics: ConstraintSet | None = None,
                shards: int | None = None,
                cancellation: CancellationToken | None = None) -> ExecutionResult:
        """Plan-cache-aware one-shot execution against the engine database.

        ``cancellation`` threads a cooperative token (deadline or explicit
        cancel) into the plan's inner loops; a tripped token raises
        :class:`~repro.utils.cancellation.QueryCancelledError` and the
        execution is accounted under ``stats.cancelled_executions``.
        """
        return self.prepare(query, statistics=statistics,
                            shards=shards).execute(cancellation=cancellation)

    def execute_many(self, queries: Sequence[ConjunctiveQuery],
                     shards: int | None = None) -> list[ExecutionResult]:
        """Serve a workload of queries; repeated shapes hit the plan cache."""
        return [self.execute(query, shards=shards) for query in queries]

    def explain(self, query: ConjunctiveQuery,
                statistics: ConstraintSet | None = None,
                shards: int | None = None,
                analyze: bool = False) -> dict:
        """The chosen plan as a structured document; ``analyze=True`` also
        executes it and reports what actually happened.

        The analyze section carries the run's wall time, output row count,
        work-counter totals, the cache events the run moved, the trace
        (every span with offsets and durations), and the plan's
        ``estimated_vs_observed`` cardinality report — the polymatroid
        prediction next to the observed size for every plan node.
        """
        prepared = self.prepare(query, statistics=statistics, shards=shards)
        plan = prepared.plan
        doc = {
            "query": str(query),
            "kind": plan.kind.value,
            "reason": plan.reason,
            "fingerprint": plan.fingerprint,
            "shards": prepared.shards,
            "explain": plan.explain(),
        }
        if not analyze:
            return doc
        tracer = get_tracer()
        storage_before = self.database.cache_stats()
        lp_before = lp_cache_stats()
        kernel_before = kernel_stats()
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
                "storage": _dict_delta(self.database.cache_stats(),
                                       storage_before),
                "lp": lp_cache_delta(lp_before),
                "kernels": kernel_stats_delta(kernel_before),
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

    def cluster_coordinator(self):
        """This engine's (lazily built) cluster coordinator.

        Exposed so operators and the chaos harness can install a fault plan,
        read lifetime fault counters or shut the pool down explicitly.
        """
        if self._cluster is None:
            from repro.engine.cluster import ClusterCoordinator

            self._cluster = ClusterCoordinator(self._cluster_config,
                                               stats=self.stats)
        return self._cluster

    def close(self) -> None:
        """Release worker processes (idempotent; the engine stays usable —
        the pool rebuilds lazily on the next clustered execution)."""
        if self._cluster is not None:
            self._cluster.shutdown()

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
        before_lp = lp_cache_stats()
        with tracer.span("engine.lp_solve", {"query": query.name}) as lp_span:
            estimate = estimate_costs(query, statistics,
                                      max_variables=self.max_variables)
            chosen = choose_plan(query, statistics,
                                 max_variables=self.max_variables,
                                 adaptive_threshold=self.adaptive_threshold,
                                 estimate=estimate)
            lp_span.set("kind", chosen.kind.value)
        chosen.fingerprint = plan_fingerprint(query_digest, statistics_digest)
        self.stats.absorb_events("lp_cache_events", lp_cache_delta(before_lp))
        profile = CardinalityProfile(chosen.fingerprint, chosen.kind.value)
        profile.seed(plan_nodes(chosen), statistics, renaming)
        chosen.profile = profile
        chosen.renaming = renaming
        fresh_recipe = self._recipe_from_plan(chosen, renaming)
        # Statically verify the decision before it becomes a cache entry:
        # a malformed recipe cached here would be rebuilt with
        # ``validate=False`` on every later hit and shipped to shard
        # workers as bare bags, returning wrong answers silently.
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

    def _execute_plan(self, chosen: QueryPlan, shards: int,
                      database: Database | None = None,
                      cancellation: CancellationToken | None = None) -> ExecutionResult:
        database = self.database if database is None else database
        storage_before = database.cache_stats()
        lp_before = lp_cache_stats()
        kernel_before = kernel_stats()
        started = time.perf_counter()
        with get_tracer().span("engine.execute",
                               {"query": chosen.query.name,
                                "kind": chosen.kind.value,
                                "shards": shards,
                                "executor": self.executor}) as span:
            try:
                if cancellation is not None:
                    cancellation.check()
                result = None
                if shards > 1:
                    cluster = (self.cluster_coordinator()
                               if self.executor == "cluster" else None)
                    result = run_partitioned(chosen, database, shards,
                                             cancellation=cancellation,
                                             cluster=cluster)
                if result is not None:
                    parallel = True
                else:
                    counter = (WorkCounter(cancellation=cancellation)
                               if cancellation is not None else None)
                    result = chosen.execute(database, counter=counter)
                    parallel = False
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
            span.set("parallel", parallel)
            span.set("rows_out", len(result.answer))
        if parallel:
            self.stats.bump(executions=1, parallel_executions=1,
                            shards_run=shards,
                            wall_time_seconds=time.perf_counter() - started)
        else:
            self.stats.bump(executions=1, serial_executions=1,
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
                                 _dict_delta(database.cache_stats(),
                                             storage_before))
        self.stats.absorb_events("lp_cache_events", lp_cache_delta(lp_before))
        self.stats.absorb_events("kernel_cache_events",
                                 kernel_stats_delta(kernel_before))


def _dict_delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {event: after.get(event, 0) - before.get(event, 0)
            for event in set(after) | set(before)}
