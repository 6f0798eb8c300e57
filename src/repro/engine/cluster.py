"""Fault-tolerant coordinator/worker execution for partitioned plans.

:mod:`repro.engine.parallel` proves the partitioning identity — a plan run
over disjoint hash shards of one atom unions into exactly the serial answer.
This module is the multi-process executor of that dataflow, built to be
honest about failure: one worker dying must not fail the query.  It rests on
the observation that makes the paper's plans cheap to ship: a task is *fully
determined* by its plan recipe plus an encoded shard payload (built by
:func:`_shard_payload`, rebuilt by :func:`_execute_shard`), so re-running it
anywhere, any number of times, is semantically free.  The coordinator
therefore treats every fault as a scheduling event, not an error:

* **bounded retries** — each shard draws attempts from a
  :class:`~repro.utils.retry.RetryBudget` and backs off on the policy's
  deterministic seeded-jitter schedule, so failures never thundering-herd
  and never retry unboundedly;
* **worker health** — liveness is piggybacked on task acks; a worker
  accumulating consecutive failures trips a circuit breaker and is
  quarantined (terminated and respawned), and a worker that dies outright
  (``os._exit``, OOM kill) is detected by liveness polling, its in-flight
  shard requeued, and a replacement forked — the pool self-heals, so the
  *next* query never inherits a dead pool;
* **straggler re-dispatch** — a shard exceeding ``straggler_factor ×`` the
  median completed-shard latency is speculatively re-issued to an idle
  worker; results are keyed by shard id and the first one wins, so the
  duplicate is discarded and the merged answer stays bit-identical to
  serial;
* **graceful degradation** — a shard that exhausts its retry budget (or a
  pool that cannot be rebuilt at all) falls back to in-process serial
  execution of the remaining shards instead of failing the query, counted
  in ``EngineStats.degraded_executions``.

Fault injection for the chaos battery rides *inside* task payloads as plain
picklable directives (:mod:`repro.testing.faults`), decided by an optional
coordinator-side :class:`~repro.testing.faults.FaultPlan` — the worker loop
only interprets a directive when one is present, so production dispatch
never imports the testing machinery.

One coordinator serves one engine; :meth:`ClusterCoordinator.run` serializes
concurrent clustered queries under a lock (the worker pool is the scarce
resource — interleaving two queries' tasks would only thrash it).
"""

from __future__ import annotations

import queue
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.plan_verifier import assert_valid, verify_cluster_task
from repro.relational.database import Database
from repro.relational.operators import WorkCounter
from repro.relational.relation import Relation
from repro.telemetry.trace import SpanContext, get_tracer
from repro.utils.cancellation import CancellationToken, QueryCancelledError
from repro.utils.retry import RetryBudget, RetryPolicy

#: Counters a run reports into :class:`~repro.engine.core.EngineStats`.
ENGINE_COUNTERS = ("tasks_retried", "stragglers_redispatched",
                   "workers_respawned", "degraded_executions")

#: Everything a run tracks (the extras stay on ``ClusterCoordinator.counters``).
RUN_COUNTERS = ENGINE_COUNTERS + ("tasks_dispatched", "task_failures",
                                  "acks_dropped", "workers_quarantined",
                                  "spawn_failures")


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the coordinator loop; the defaults suit same-box workers."""

    #: Upper bound on live worker processes (the pool is sized to
    #: ``min(max_workers, shard count)`` per run and healed lazily).
    max_workers: int = 4
    #: Per-shard retry/backoff policy (attempts include the first dispatch).
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=3, base_delay=0.01, multiplier=2.0, max_delay=0.25))
    #: A shard is a straggler when its elapsed time exceeds
    #: ``straggler_factor × median(completed shard latencies)``...
    straggler_factor: float = 4.0
    #: ...but never before this floor, so microsecond shards don't speculate.
    straggler_min_seconds: float = 0.05
    #: Completed shards required before the median is trusted.
    speculation_min_completed: int = 2
    #: Consecutive failures that trip a worker's circuit breaker.
    max_consecutive_failures: int = 2
    #: Result-queue poll tick; also the cadence of liveness checks.
    poll_interval: float = 0.02
    #: Hard stall guard: no dispatch/ack progress for this long abandons the
    #: pool and degrades the remaining shards to serial execution.
    stall_timeout: float = 30.0


# ---------------------------------------------------------------------------
# shard payloads
# ---------------------------------------------------------------------------

def _database_payload(database: Database) -> dict:
    """A picklable description of a database, no backend objects.

    Kernel-capable relations ship as ``("encoded", ...)`` — per-column code
    tables plus compact ``int64`` code arrays — instead of Python row tuples;
    everything else falls back to ``("rows", ...)``.  Workers rebuild
    identical relations either way: encoded columns rebuild exactly the
    shipped codes (into tables cut down to the values each relation uses),
    and row-built columns get codes that are a deterministic function of the
    column's value set.
    """
    payload = {}
    for name in database.relation_names():
        relation = database[name]
        encoded = relation.encoded_payload()
        if encoded is not None:
            payload[name] = ("encoded", relation.columns, encoded,
                             relation.backend_kind)
        else:
            payload[name] = ("rows", relation.columns, list(relation.rows),
                             relation.backend_kind)
    return payload


def _shard_payload(plan, shard_db: Database,
                   cancellation: CancellationToken | None = None) -> dict:
    """Everything a worker process needs to re-run ``plan`` on ``shard_db``.

    Cancellation crosses the process boundary as a wall-clock ``deadline``
    (every worker on the box reads the same clock), so a deadline-exceeded
    sharded run trips cooperatively inside each worker rather than waiting
    for the pool to finish.

    The ambient span context ships with the payload so the worker's spans
    reattach under the coordinator's trace; the coordinator stamps each task
    with its own id prefix before dispatch.
    """
    return {
        "kind": plan.kind,
        "query": plan.query,
        "statistics": plan.statistics,
        "best_bags": (tuple(plan.decomposition.bags)
                      if plan.decomposition is not None else None),
        "decomposition_bags": tuple(tuple(td.bags)
                                    for td in plan.decompositions),
        "relations": _database_payload(shard_db),
        "deadline": cancellation.deadline if cancellation is not None else None,
        "trace": get_tracer().export_context(),
    }


def _execute_shard(payload: dict):
    """Worker side: rebuild the database and plan, run, return the result.

    Runs in a separate interpreter, so everything crossing the boundary is
    plain picklable data; the returned ``ExecutionResult`` keeps the worker's
    counter (thread-safe counters re-grow their lock on unpickling) and drops
    the execution details, which may hold arbitrarily large reports.
    """
    from repro.decompositions.treedecomp import TreeDecomposition
    from repro.optimizer.planner import realize_plan
    from repro.relational.storage import ColumnarBackend

    relations = {}
    for name, (tag, columns, data, backend) in payload["relations"].items():
        if tag == "encoded":
            relations[name] = Relation._from_backend(
                name, columns, ColumnarBackend.from_encoded(*data))
        else:
            relations[name] = Relation(name, columns, data, backend=backend)
    database = Database(relations)
    decomposition = (TreeDecomposition(payload["best_bags"])
                     if payload["best_bags"] is not None else None)
    decompositions = tuple(TreeDecomposition(bags)
                           for bags in payload["decomposition_bags"])
    plan = realize_plan(payload["kind"], payload["query"], payload["statistics"],
                        reason="shard worker", decomposition=decomposition,
                        decompositions=decompositions, validate=False)
    counter = None
    if payload.get("deadline") is not None:
        token = CancellationToken(deadline=payload["deadline"])
        counter = WorkCounter(cancellation=token)
    ctx = SpanContext.from_dict(payload.get("trace"))
    tracer = get_tracer()
    if ctx is None:
        result = plan.execute(database, counter=counter)
        result.details = None
        return result
    # A forked worker inherits the parent's tracer state; the shipped
    # prefix namespaces every id allocated here, so reassembled spans can
    # never collide with the coordinator's (or a retry twin's).
    with tracer.span("exec.shard", {"prefix": ctx.prefix},
                     parent=ctx) as span:
        result = plan.execute(database, counter=counter)
        span.set("rows_out", len(result.answer))
    result.details = None
    # Ship this process's finished spans home with the result; the
    # coordinator splices them back via ``Tracer.adopt``.
    result.spans = tracer.drain_remote(ctx.trace_id, ctx.prefix)
    return result


def _process_context():
    """Fork when the platform offers it (cheap, inherits the code); else default."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _worker_loop(task_queue, result_queue) -> None:
    """Persistent worker: execute task dicts until a ``None`` sentinel.

    Every outcome is *recorded* to the coordinator through the result queue
    (the REP107 contract): ``("ok", ...)`` carries the shard's
    ``ExecutionResult``, ``("cancelled", ...)`` a tripped cooperative
    deadline, ``("err", ...)`` the failure rendered as a string — never a
    raw exception object, which may not pickle.  A ``fault`` directive in
    the task (chaos harness only) is interpreted before execution and may
    sleep, raise, or kill this process outright.
    """
    while True:
        task = task_queue.get()
        if task is None:
            return
        task_id, shard = task["task_id"], task["shard"]
        try:
            directive = task.get("fault")
            if directive is not None:
                from repro.testing.faults import perform_fault

                perform_fault(directive)
            result = _execute_shard(task["payload"])
            result_queue.put(("ok", task_id, shard, result))
        except QueryCancelledError as exc:
            result_queue.put(("cancelled", task_id, shard, str(exc)))
        except Exception as exc:
            result_queue.put(("err", task_id, shard,
                              f"{type(exc).__name__}: {exc}"))


class _Worker:
    """One persistent worker process and its coordinator-side health record."""

    __slots__ = ("process", "queue", "current", "consecutive_failures",
                 "tasks_done", "last_ack")

    def __init__(self, process, task_queue) -> None:
        self.process = process
        self.queue = task_queue
        #: The task dict currently executing there, or ``None`` when idle.
        self.current: dict | None = None
        self.consecutive_failures = 0
        self.tasks_done = 0
        #: Monotonic time of the last ack — the liveness ping, piggybacked
        #: on task results instead of a separate heartbeat channel.
        self.last_ack = time.monotonic()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ClusterCoordinator:
    """Owns a pool of persistent workers and dispatches shard tasks with
    retries, straggler speculation, quarantine/respawn and serial fallback.

    ``stats`` is duck-typed: anything with ``bump(**deltas)`` (normally the
    owning engine's :class:`~repro.engine.core.EngineStats`) receives the
    :data:`ENGINE_COUNTERS` movements of every run.  ``fault_plan`` is the
    chaos hook — a :class:`~repro.testing.faults.FaultPlan` consulted at
    each dispatch and ack; ``None`` (the default) injects nothing.
    """

    def __init__(self, config: ClusterConfig | None = None,
                 stats=None) -> None:
        self.config = config or ClusterConfig()
        self.fault_plan = None
        self._stats = stats
        self._ctx = _process_context()
        self._results = self._ctx.Queue()
        self._workers: list[_Worker] = []
        self._assignments: dict[str, _Worker] = {}
        self._serial = 0
        self._spawned_ever = 0
        self._lock = threading.Lock()
        #: Open "cluster.task" dispatch spans by task id.  Span objects are
        #: coordinator-side only — they must never enter a task dict, which
        #: gets pickled to a worker.
        self._dispatch_spans: dict[str, object] = {}
        #: Lifetime totals across runs (updated under the run lock).
        self.counters: dict[str, int] = {name: 0 for name in RUN_COUNTERS}

    # ------------------------------------------------------------------ api
    def run(self, plan, payloads: Sequence[dict], shard_dbs: Sequence,
            cancellation: CancellationToken | None = None) -> list:
        """Execute one task per shard payload; returns results in shard order.

        Serializes concurrent callers (one clustered query at a time per
        coordinator) and reports this run's counter movements to ``stats``
        even when the run is cancelled mid-flight.
        """
        with self._lock:
            run = {name: 0 for name in RUN_COUNTERS}
            try:
                return self._run_locked(plan, payloads, shard_dbs,
                                        cancellation, run)
            finally:
                # Whatever ends the run — completion, cancellation, a stall
                # abandoning the pool — every dispatch span closes exactly
                # once; unacked tasks close with an explicit status.
                for task_id in list(self._dispatch_spans):
                    self._finish_dispatch(task_id, "unsettled")
                for name, value in run.items():
                    self.counters[name] = self.counters[name] + value
                if self._stats is not None:
                    deltas = {name: run[name] for name in ENGINE_COUNTERS
                              if run[name]}
                    if deltas:
                        self._stats.bump(**deltas)

    def shutdown(self) -> None:
        """Stop every worker.  The coordinator stays usable: the next run
        lazily respawns the pool (that is the healing path, exercised on
        purpose)."""
        with self._lock:
            for worker in list(self._workers):
                self._retire(worker)

    def describe(self) -> str:
        live = sum(1 for worker in self._workers if worker.alive)
        events = ", ".join(f"{name}={value}"
                           for name, value in sorted(self.counters.items())
                           if value)
        return (f"cluster: {live}/{len(self._workers)} workers live, "
                f"{self._spawned_ever} spawned ever"
                + (f"; {events}" if events else ""))

    # ------------------------------------------------------------- the loop
    def _run_locked(self, plan, payloads, shard_dbs, cancellation, run):
        config = self.config
        count = len(payloads)
        budget = RetryBudget(config.retry)
        self._drain_stale(run)
        self._heal(min(count, config.max_workers), run)

        results: dict[int, object] = {}
        failed: dict[int, str] = {}
        ready: deque[int] = deque(range(count))
        delayed: list[tuple[float, int]] = []
        tasks: dict[str, dict] = {}
        inflight: dict[int, set[str]] = {shard: set() for shard in range(count)}
        durations: list[float] = []
        speculated: set[int] = set()
        verified_first = False
        last_progress = time.monotonic()

        def settled() -> int:
            return len(set(results) | set(failed))

        while settled() < count:
            if cancellation is not None:
                cancellation.check()
            now = time.monotonic()
            if now - last_progress > config.stall_timeout:
                break  # abandon the pool; the fallback below degrades
            if delayed:
                due = [shard for ready_at, shard in delayed if ready_at <= now]
                if due:
                    delayed = [(ready_at, shard) for ready_at, shard in delayed
                               if ready_at > now]
                    ready.extend(due)
            idle = self._idle_workers()
            while idle and ready:
                shard = ready.popleft()
                if shard in results or shard in failed:
                    continue
                attempt = budget.grant(shard)
                if attempt is None:
                    failed[shard] = "retry budget exhausted"
                    continue
                task = self._build_task(plan, payloads[shard], shard, attempt,
                                        speculative=False)
                if not verified_first:
                    # Statically verify the first task of the run (they share
                    # structure): unpicklable payloads and malformed fault
                    # directives die here, by name, not inside a worker.
                    assert_valid("cluster task", verify_cluster_task(task))
                    verified_first = True
                self._send(idle.pop(), task, tasks, inflight, now)
                run["tasks_dispatched"] += 1
                last_progress = now
            if idle and len(durations) >= config.speculation_min_completed:
                if self._speculate(plan, payloads, idle, tasks, inflight,
                                   results, speculated, durations, now, run):
                    last_progress = now

            message = self._receive(config.poll_interval)
            if message is None:
                if self._reap_dead(tasks, inflight, results, budget,
                                   delayed, ready, failed, run):
                    last_progress = time.monotonic()
                if not any(worker.alive for worker in self._workers) \
                        and not self._heal(min(count, config.max_workers), run):
                    break  # no pool and none can be built: degrade
                continue

            last_progress = time.monotonic()
            kind, task_id, shard, detail = message
            task = tasks.pop(task_id, None)
            self._note_idle(task_id, ok=(kind == "ok"), run=run)
            self._finish_dispatch(
                task_id, "ok" if kind == "ok" else f"error: {kind}")
            if task is None:
                continue  # stale duplicate of an already-settled task
            inflight[shard].discard(task_id)
            if kind == "cancelled":
                raise QueryCancelledError(detail)
            if kind == "ok":
                if shard in results:
                    continue  # idempotent merge: the duplicate is discarded
                if self.fault_plan is not None and self.fault_plan.drop_ack(
                        shard, task.get("speculative", False)):
                    run["acks_dropped"] += 1
                    self._schedule_retry(shard, budget, delayed, ready,
                                         failed, run)
                    continue
                results[shard] = detail
                failed.pop(shard, None)
                durations.append(time.monotonic() - task["started"])
            else:  # "err"
                run["task_failures"] += 1
                if shard in results or inflight[shard]:
                    continue  # a twin already won or is still racing
                self._schedule_retry(shard, budget, delayed, ready,
                                     failed, run)

        missing = [shard for shard in range(count) if shard not in results]
        if missing:
            # Graceful degradation: the query still answers, serially, and
            # the movement is observable in ``degraded_executions``.
            run["degraded_executions"] += 1
            for shard in missing:
                counter = (WorkCounter(cancellation=cancellation)
                           if cancellation is not None else None)
                results[shard] = plan.execute(shard_dbs[shard], counter=counter)
        return [results[shard] for shard in range(count)]

    # --------------------------------------------------------- dispatch bits
    def _build_task(self, plan, payload, shard, attempt, speculative):
        self._serial += 1
        task_id = f"task-{self._serial}"
        trace = payload.get("trace")
        if trace is not None:
            # Re-namespace the worker's span ids by this *task* (not shard):
            # a retried or speculated shard runs as a distinct task, so its
            # spans reassemble as distinct siblings instead of colliding.
            payload = {**payload, "trace": {**trace, "prefix": task_id}}
        task = {
            "task_id": task_id,
            "shard": shard,
            "attempt": attempt,
            "speculative": speculative,
            "fingerprint": getattr(plan, "fingerprint", None),
            "deadline": payload.get("deadline"),
            "payload": payload,
        }
        if self.fault_plan is not None:
            directive = self.fault_plan.task_fault(shard, attempt, speculative)
            if directive is not None:
                task["fault"] = directive
        return task

    def _send(self, worker, task, tasks, inflight, now):
        task["started"] = now
        tasks[task["task_id"]] = task
        inflight[task["shard"]].add(task["task_id"])
        self._assignments[task["task_id"]] = worker
        worker.current = task
        span = get_tracer().span("cluster.task",
                                 {"task_id": task["task_id"],
                                  "shard": task["shard"],
                                  "attempt": task["attempt"],
                                  "speculative": task["speculative"]})
        if span:
            self._dispatch_spans[task["task_id"]] = span
        worker.queue.put(task)

    def _finish_dispatch(self, task_id: str, status: str) -> None:
        """Close the dispatch span of a settled task (idempotent)."""
        span = self._dispatch_spans.pop(task_id, None)
        if span is not None:
            span.finish(status=status)

    def _schedule_retry(self, shard, budget, delayed, ready, failed, run):
        if budget.exhausted(shard):
            failed[shard] = "retry budget exhausted"
            return
        run["tasks_retried"] += 1
        delay = budget.delay_for(f"shard-{shard}", budget.attempts(shard) + 1)
        if delay > 0:
            delayed.append((time.monotonic() + delay, shard))
        else:
            ready.append(shard)

    def _speculate(self, plan, payloads, idle, tasks, inflight, results,
                   speculated, durations, now, run) -> bool:
        threshold = max(self.config.straggler_min_seconds,
                        self.config.straggler_factor
                        * statistics.median(durations))
        launched = False
        for task in list(tasks.values()):
            if not idle:
                break
            shard = task["shard"]
            if task["speculative"] or shard in speculated or shard in results:
                continue
            if now - task["started"] < threshold:
                continue
            twin = self._build_task(plan, payloads[shard], shard,
                                    task["attempt"], speculative=True)
            self._send(idle.pop(), twin, tasks, inflight, now)
            speculated.add(shard)
            run["stragglers_redispatched"] += 1
            run["tasks_dispatched"] += 1
            launched = True
        return launched

    # ---------------------------------------------------------- worker pool
    def _idle_workers(self) -> list[_Worker]:
        return [worker for worker in self._workers
                if worker.current is None and worker.alive]

    def _heal(self, wanted: int, run) -> bool:
        """Prune dead workers and grow the pool back to ``wanted`` live ones.

        Returns True when at least one worker is live afterwards.  Replacing
        a worker that died earlier counts as a respawn — this is the path
        that makes a query *after* a crashed one see a healthy pool.
        """
        dead = [worker for worker in self._workers if not worker.alive]
        for worker in dead:
            self._retire(worker)
        replacements = min(len(dead), max(0, wanted - len(self._workers)))
        grown = 0
        while len(self._workers) < wanted:
            worker = self._spawn(run)
            if worker is None:
                break
            self._workers.append(worker)
            grown += 1
        if replacements:
            run["workers_respawned"] += min(replacements, grown)
        return any(worker.alive for worker in self._workers)

    def _spawn(self, run) -> _Worker | None:
        try:
            task_queue = self._ctx.Queue()
            process = self._ctx.Process(
                target=_worker_loop, args=(task_queue, self._results),
                daemon=True,
                name=f"repro-cluster-{self._spawned_ever}")
            process.start()
        except OSError:
            run["spawn_failures"] += 1
            return None
        self._spawned_ever += 1
        return _Worker(process, task_queue)

    def _retire(self, worker: _Worker) -> None:
        """Remove a worker: sentinel if listening, then escalate."""
        if worker in self._workers:
            self._workers.remove(worker)
        process = worker.process
        if process.is_alive():
            try:
                worker.queue.put_nowait(None)
            except (queue.Full, ValueError, OSError):
                pass  # a wedged queue ends in terminate() below anyway
            process.join(timeout=0.2)
        if process.is_alive():
            process.terminate()
            process.join(timeout=0.5)
        if process.is_alive():  # pragma: no cover - terminate() suffices on POSIX
            process.kill()
            process.join(timeout=0.5)
        worker.queue.close()
        worker.queue.cancel_join_thread()

    def _quarantine(self, worker: _Worker, run) -> None:
        run["workers_quarantined"] += 1
        self._retire(worker)
        replacement = self._spawn(run)
        if replacement is not None:
            self._workers.append(replacement)
            run["workers_respawned"] += 1

    def _reap_dead(self, tasks, inflight, results, budget, delayed, ready,
                   failed, run) -> bool:
        """Detect crashed workers, requeue their in-flight shards, respawn."""
        progressed = False
        for worker in list(self._workers):
            if worker.alive:
                continue
            task = worker.current
            self._retire(worker)
            replacement = self._spawn(run)
            if replacement is not None:
                self._workers.append(replacement)
                run["workers_respawned"] += 1
            progressed = True
            if task is None:
                continue
            task_id, shard = task["task_id"], task["shard"]
            tasks.pop(task_id, None)
            self._assignments.pop(task_id, None)
            inflight[shard].discard(task_id)
            self._finish_dispatch(task_id, "error: worker-died")
            if shard in results or inflight[shard]:
                continue  # a twin already won or is still racing
            self._schedule_retry(shard, budget, delayed, ready, failed, run)
        return progressed

    # ------------------------------------------------------------- messaging
    def _receive(self, timeout: float):
        try:
            return self._results.get(timeout=timeout)
        except queue.Empty:
            return None

    def _note_idle(self, task_id: str, ok: bool, run) -> None:
        worker = self._assignments.pop(task_id, None)
        if worker is None:
            return
        if worker.current is not None and \
                worker.current.get("task_id") == task_id:
            worker.current = None
        worker.last_ack = time.monotonic()
        if ok:
            worker.tasks_done += 1
            worker.consecutive_failures = 0
        else:
            worker.consecutive_failures += 1
            if worker.consecutive_failures >= \
                    self.config.max_consecutive_failures and \
                    worker in self._workers:
                # The breaker trips on the coordinator side: quarantine the
                # suspect process and replace it, whatever it claims.
                self._quarantine(worker, run)

    def _drain_stale(self, run) -> None:
        """Absorb leftovers of a cancelled/abandoned run before starting."""
        while True:
            try:
                kind, task_id, _shard, _detail = self._results.get_nowait()
            except queue.Empty:
                return
            self._note_idle(task_id, ok=(kind == "ok"), run=run)


def run_shards(plan, shard_dbs: Sequence, coordinator: ClusterCoordinator,
               cancellation: CancellationToken | None = None) -> list:
    """Build per-shard task payloads and run them on the coordinator.

    Each payload is the plan's recipe structure plus the encoded shard
    relations and the wall-clock deadline, so a worker rebuilds exactly the
    plan and database the serial loop runs — the two executors are
    interchangeable answer-wise, which the chaos battery asserts.
    """
    payloads = [_shard_payload(plan, shard_db, cancellation)
                for shard_db in shard_dbs]
    return coordinator.run(plan, payloads, shard_dbs, cancellation=cancellation)
