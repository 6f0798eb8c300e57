"""The asyncio query service: multi-tenant serving over cached-plan engines.

:class:`QueryService` is the in-process front: it owns a
:class:`~repro.service.registry.TenantRegistry` (one engine, plan cache and
stats block per tenant), an
:class:`~repro.service.admission.AdmissionController` (global + per-tenant
concurrency with bounded queues and fast rejection), and a thread pool the
synchronous engine calls actually run on.  The HTTP front
(:mod:`repro.service.http`) is a thin JSON shim over :meth:`QueryService.handle`;
everything interesting — deadlines, cancellation, streaming, stats — is
testable here without opening a socket.

Deadlines are cooperative: each query gets a
:class:`~repro.utils.cancellation.CancellationToken` threaded through the
engine into the evaluation inner loops, so a query over a pathological
intermediate join stops *mid-plan*, within a bounded number of work steps of
its deadline — it does not run to completion and then notice it was late.

Shutdown drains: new queries are refused with ``service-unavailable``,
in-flight queries finish (or, past an optional grace period, are cancelled
through the same tokens), then the worker pool is torn down.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.lp.model import lp_cache_stats
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import QueryParseError, parse_query
from repro.relational.database import Database
from repro.relational.kernels import kernel_stats
from repro.relational.relation import Relation
from repro.relational.storage import storage_stats
from repro.service.admission import AdmissionController
from repro.service.errors import (
    AdmissionRejectedError,
    BadRequestError,
    DeadlineExceededError,
    InvalidQueryError,
    QueryAbortedError,
    QueryExecutionError,
    ServiceError,
    ServiceUnavailableError,
    UnknownStreamError,
)
from repro.service.registry import Tenant, TenantRegistry
from repro.service.streaming import ResultPage, ResultStream
from repro.telemetry.metrics import Sample, get_registry
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.trace import SpanContext, get_tracer
from repro.utils.cancellation import CancellationToken, QueryCancelledError


@dataclass
class ServiceConfig:
    """Knobs of the serving loop (all enforced, all reported in ``/stats``)."""

    max_concurrent: int = 8
    max_per_tenant: int = 4
    queue_depth: int = 16
    tenant_queue_depth: int = 8
    #: Applied when a query names no timeout; ``None`` means run unbounded.
    default_timeout: float | None = None
    default_page_size: int = 64
    #: Open result streams retained per service; the oldest stream is evicted
    #: (its remaining pages become unreachable) when the bound is exceeded.
    max_open_streams: int = 64
    executor_threads: int = 8
    #: Queries slower than this land in the slow-query log (``GET /slow``);
    #: ``None`` disables the log entirely.
    slow_query_seconds: float | None = 1.0
    slow_log_capacity: int = 128

    def as_dict(self) -> dict:
        return {
            "max_concurrent": self.max_concurrent,
            "max_per_tenant": self.max_per_tenant,
            "queue_depth": self.queue_depth,
            "tenant_queue_depth": self.tenant_queue_depth,
            "default_timeout": self.default_timeout,
            "default_page_size": self.default_page_size,
            "max_open_streams": self.max_open_streams,
            "executor_threads": self.executor_threads,
            "slow_query_seconds": self.slow_query_seconds,
            "slow_log_capacity": self.slow_log_capacity,
        }


@dataclass
class QueryResult:
    """A completed query: identity, first page, and the full lazy answer."""

    tenant: str
    stream_id: str
    columns: tuple[str, ...]
    row_count: int
    elapsed: float
    page: ResultPage
    #: The answer relation itself — in-process callers can keep joining /
    #: comparing without round-tripping rows through pages.
    answer: Relation = field(repr=False)
    #: The tracer's id for this request — the key into ``export_trace`` /
    #: ``/slow``.
    trace_id: str

    def to_dict(self) -> dict:
        return {"tenant": self.tenant, "stream_id": self.stream_id,
                "columns": list(self.columns), "row_count": self.row_count,
                "elapsed": self.elapsed, "trace_id": self.trace_id,
                "page": self.page.to_dict()}


class QueryService:
    """The in-process service object; see the module docstring."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.registry = TenantRegistry()
        self.admission = AdmissionController(
            max_concurrent=self.config.max_concurrent,
            max_per_tenant=self.config.max_per_tenant,
            queue_depth=self.config.queue_depth,
            tenant_queue_depth=self.config.tenant_queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="repro-service")
        self._streams: OrderedDict[str, ResultStream] = OrderedDict()
        self._stream_ids = itertools.count(1)
        self._active_tokens: set[CancellationToken] = set()
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._closing = False
        self.started_at = time.time()
        self.slow_log = SlowQueryLog(
            threshold_seconds=self.config.slow_query_seconds,
            capacity=self.config.slow_log_capacity)
        get_registry().register_source(
            "service", self._metrics_samples, owner=self)

    # -------------------------------------------------------------- tenants
    def create_tenant(self, name: str, database: Database, *,
                      plan_cache_size: int = 128,
                      measure_degrees: bool = False) -> Tenant:
        if self._closing:
            raise ServiceUnavailableError("service is shutting down")
        return self.registry.create(
            name, database, plan_cache_size=plan_cache_size,
            measure_degrees=measure_degrees)

    def drop_tenant(self, name: str) -> None:
        self.registry.drop(name)
        for stream_id in [sid for sid, stream in self._streams.items()
                          if stream.tenant == name]:
            del self._streams[stream_id]

    # -------------------------------------------------------------- queries
    async def query(self, tenant_name: str, query: ConjunctiveQuery | str, *,
                    timeout: float | None = None,
                    page_size: int | None = None) -> QueryResult:
        """Admit, execute and stream one query for ``tenant_name``.

        Raises a typed :class:`~repro.service.errors.ServiceError` subclass on
        every failure path: unknown tenant, unparsable query, admission
        rejection, deadline, engine failure, shutdown.
        """
        if self._closing:
            raise ServiceUnavailableError("service is shutting down")
        tenant = self.registry.get(tenant_name)
        parsed = self._parse(query)
        effective_timeout = (self.config.default_timeout
                             if timeout is None else timeout)
        token = (CancellationToken.with_timeout(effective_timeout)
                 if effective_timeout is not None else CancellationToken())
        with get_tracer().span("service.request",
                               {"tenant": tenant_name,
                                "query": parsed.name}) as span:
            ctx = span.context()
            trace_id = ctx.trace_id
            started = time.perf_counter()
            try:
                async with self.admission.slot(tenant_name):
                    started = time.perf_counter()
                    result = await self._run_on_pool(tenant, parsed, token,
                                                     ctx)
                    elapsed = time.perf_counter() - started
            except AdmissionRejectedError:
                tenant.bump(rejected=1)
                span.set("outcome", "rejected")
                raise
            except ServiceError as exc:
                span.set("outcome", exc.code)
                self.slow_log.record(
                    tenant=tenant_name, query=parsed.name,
                    elapsed=time.perf_counter() - started,
                    trace_id=trace_id, outcome=exc.code)
                raise
            tenant.bump(completed=1)
            span.set("outcome", "completed")
            span.set("rows_out", len(result.answer))
            self.slow_log.record(
                tenant=tenant_name, query=parsed.name, elapsed=elapsed,
                trace_id=trace_id, row_count=len(result.answer),
                outcome="completed")
        return self._register_stream(tenant_name, parsed, result.answer,
                                     page_size, elapsed, trace_id=trace_id)

    async def _run_on_pool(self, tenant: Tenant, parsed: ConjunctiveQuery,
                           token: CancellationToken, ctx: SpanContext):
        """Run the blocking engine call on the worker pool, mapping engine
        exceptions to the service error taxonomy.

        ``ctx`` is the request span's :class:`~repro.telemetry.trace.SpanContext`:
        contextvars do not follow ``run_in_executor`` into the pool thread, so
        the engine call re-attaches it explicitly — engine/execution spans
        parent under the service request instead of starting orphan traces.
        """
        loop = asyncio.get_running_loop()
        tracer = get_tracer()

        def call():
            with tracer.attach(ctx):
                return tenant.engine.execute(parsed, cancellation=token)

        self._track(token, +1)
        try:
            return await loop.run_in_executor(self._executor, call)
        except QueryCancelledError as exc:
            tenant.bump(cancelled=1)
            if token.deadline_exceeded:
                raise DeadlineExceededError(str(exc)) from exc
            raise QueryAbortedError(str(exc)) from exc
        except Exception as exc:
            tenant.bump(failed=1)
            raise QueryExecutionError(
                f"query execution failed: {exc}", cause=exc) from exc
        finally:
            self._track(token, -1)

    def _parse(self, query: ConjunctiveQuery | str) -> ConjunctiveQuery:
        if isinstance(query, ConjunctiveQuery):
            return query
        try:
            return parse_query(query)
        except QueryParseError as exc:
            raise InvalidQueryError(str(exc)) from exc

    def _track(self, token: CancellationToken, delta: int) -> None:
        self._active += delta
        if delta > 0:
            self._active_tokens.add(token)
            self._idle.clear()
        else:
            self._active_tokens.discard(token)
            if self._active == 0:
                self._idle.set()

    def _register_stream(self, tenant_name: str, parsed: ConjunctiveQuery,
                         answer: Relation, page_size: int | None,
                         elapsed: float, trace_id: str) -> QueryResult:
        size = (self.config.default_page_size
                if page_size is None else page_size)
        stream_id = f"{tenant_name}-{next(self._stream_ids)}"
        stream = ResultStream(stream_id, tenant_name, answer, size)
        self._streams[stream_id] = stream
        while len(self._streams) > self.config.max_open_streams:
            self._streams.popitem(last=False)
        return QueryResult(tenant=tenant_name, stream_id=stream_id,
                           columns=stream.columns, row_count=stream.total,
                           elapsed=elapsed, page=stream.fetch(0),
                           answer=answer, trace_id=trace_id)

    async def explain(self, tenant_name: str,
                      query: ConjunctiveQuery | str, *,
                      analyze: bool = False) -> dict:
        """The engine's plan explanation for ``tenant_name``'s query.

        With ``analyze=True`` the query actually executes (through the same
        admission control as :meth:`query`) and the document gains observed
        cardinalities, per-layer cache deltas and the full trace.
        """
        if self._closing:
            raise ServiceUnavailableError("service is shutting down")
        tenant = self.registry.get(tenant_name)
        parsed = self._parse(query)
        loop = asyncio.get_running_loop()
        try:
            async with self.admission.slot(tenant_name):
                return await loop.run_in_executor(
                    self._executor,
                    lambda: tenant.engine.explain(parsed, analyze=analyze))
        except AdmissionRejectedError:
            tenant.bump(rejected=1)
            raise
        except ServiceError:
            raise
        except Exception as exc:
            tenant.bump(failed=1)
            raise QueryExecutionError(
                f"explain failed: {exc}", cause=exc) from exc

    def fetch_page(self, tenant_name: str, stream_id: str, *,
                   offset: int = 0, page_size: int | None = None) -> ResultPage:
        """A later page of an earlier answer (streams are tenant-scoped)."""
        stream = self._streams.get(stream_id)
        if stream is None or stream.tenant != tenant_name:
            raise UnknownStreamError(
                f"no open stream {stream_id!r} for tenant {tenant_name!r}")
        return stream.fetch(offset, page_size)

    # ----------------------------------------------------------------- stats
    def stats(self) -> dict:
        """The ``/stats`` document: service, admission, tenants, totals.

        ``totals`` re-aggregates the per-tenant
        :class:`~repro.engine.core.EngineStats` snapshots; the process-global
        LP, kernel and storage counters ride along so one document answers
        "how much reuse did every cache layer see".
        """
        tenants = self.registry.snapshot()
        totals: dict[str, float] = {}
        for doc in tenants.values():
            for key, value in doc["engine"].items():
                totals[key] = totals.get(key, 0) + value
            for key, value in doc["outcomes"].items():
                totals[key] = totals.get(key, 0) + value
        return {
            "service": {
                "config": self.config.as_dict(),
                "uptime_seconds": time.time() - self.started_at,
                "closing": self._closing,
                "tenants": len(self.registry),
                "open_streams": len(self._streams),
                "active_queries": self._active,
            },
            "admission": self.admission.stats(),
            "tenants": tenants,
            "totals": totals,
            "lp_cache": lp_cache_stats(),
            "kernels": kernel_stats(),
            "storage": storage_stats(),
            "telemetry": {
                "tracer": get_tracer().stats(),
                "slow_log": self.slow_log.stats(),
            },
        }

    def metrics_text(self) -> str:
        """The Prometheus text exposition (``GET /metrics`` body)."""
        return get_registry().render_prometheus()

    def _metrics_samples(self) -> list[Sample]:
        """The registry pull source for service-level counters.

        Samples the *same* structures ``stats()`` reports, under the same
        keys — the admission controller's counter table and each tenant's
        outcome counters — so ``/metrics`` and ``/stats`` reconcile by
        construction.
        """
        samples = [Sample(f"service.admission.{key}", {}, value,
                          "gauge" if key.endswith("in_flight") else "counter")
                   for key, value in self.admission.counters.snapshot().items()]
        samples.append(Sample("service.open_streams", {},
                              len(self._streams), "gauge"))
        samples.append(Sample("service.active_queries", {},
                              self._active, "gauge"))
        for tenant in self.registry.tenants():
            samples.extend(tenant.metrics_samples())
        return samples

    # -------------------------------------------------------------- shutdown
    async def shutdown(self, drain: bool = True,
                       grace: float | None = None) -> None:
        """Stop serving: refuse new queries, settle in-flight ones, tear down.

        ``drain=True`` waits for in-flight queries; with a ``grace`` bound,
        queries still running when it elapses are cooperatively cancelled
        (their clients see ``query-aborted``).  ``drain=False`` cancels
        immediately.  Idempotent.
        """
        self._closing = True
        if not drain:
            self._cancel_active("service shutdown without drain")
        elif grace is not None:
            try:
                await asyncio.wait_for(self._wait_idle(), grace)
            except asyncio.TimeoutError:
                self._cancel_active(f"shutdown grace of {grace}s expired")
        await self._wait_idle()
        self._executor.shutdown(wait=True)

    def _cancel_active(self, reason: str) -> None:
        for token in list(self._active_tokens):
            token.cancel(reason)

    async def _wait_idle(self) -> None:
        await self._idle.wait()

    # ------------------------------------------------------------- dispatch
    async def handle(self, request: dict) -> dict:
        """Structured dispatch: one request document in, one response out.

        This is the seam the HTTP front and the fault-injection tests share:
        every outcome — including engine crashes — comes back as
        ``{"ok": bool, ...}``; no exception escapes.
        """
        try:
            return {"ok": True, "result": await self._dispatch(request)}
        except ServiceError as exc:
            return {"ok": False, "error": exc.to_dict()}
        except Exception as exc:  # pragma: no cover - defensive catch-all
            return {"ok": False,
                    "error": {"code": "internal", "message": str(exc)}}

    async def _dispatch(self, request: dict) -> dict:
        if not isinstance(request, dict) or "op" not in request:
            raise BadRequestError("a request document needs an 'op' field")
        op = request["op"]
        if op == "healthz":
            return {"status": "shutting-down" if self._closing else "ok"}
        if op == "stats":
            return self.stats()
        if op == "tenants":
            return {"tenants": self.registry.names()}
        if op == "create_tenant":
            self._require(request, "name", "relations")
            database = database_from_payload(request)
            tenant = self.create_tenant(request["name"], database,
                                        **_engine_options(request))
            return {"tenant": tenant.name,
                    "relations": database.summary()}
        if op == "drop_tenant":
            self._require(request, "name")
            self.drop_tenant(request["name"])
            return {"tenant": request["name"], "dropped": True}
        if op == "query":
            self._require(request, "tenant", "query",
                          optional=("timeout", "page_size"))
            result = await self.query(
                request["tenant"], request["query"],
                timeout=_timeout_field(request),
                page_size=_integer_field(request, "page_size", minimum=1))
            return result.to_dict()
        if op == "page":
            self._require(request, "tenant", "stream_id",
                          optional=("offset", "page_size"))
            page = self.fetch_page(
                request["tenant"], request["stream_id"],
                offset=_integer_field(request, "offset", minimum=0) or 0,
                page_size=_integer_field(request, "page_size", minimum=1))
            return page.to_dict()
        if op == "metrics":
            return {"content_type": "text/plain; version=0.0.4",
                    "text": self.metrics_text()}
        if op == "slow":
            return {"slow_queries": self.slow_log.entries(),
                    "log": self.slow_log.stats()}
        if op == "explain":
            self._require(request, "tenant", "query", optional=("analyze",))
            return await self.explain(
                request["tenant"], request["query"],
                analyze=bool(request.get("analyze", False)))
        raise BadRequestError(f"unknown op {op!r}")

    @staticmethod
    def _require(request: dict, *fields: str,
                 optional: tuple[str, ...] | None = None) -> None:
        """Reject a request missing any of ``fields``; with ``optional``
        given, also reject every field outside ``fields`` and ``optional``
        (a misspelled ``"timout"`` must not silently run with no deadline)."""
        missing = [name for name in fields if name not in request]
        if missing:
            raise BadRequestError(f"missing request fields: {missing}")
        if optional is not None:
            unknown = set(request) - {"op", *fields, *optional}
            if unknown:
                raise BadRequestError(
                    f"unknown request fields: {sorted(unknown)}")


def _integer_field(request: dict, name: str, minimum: int) -> int | None:
    """``request[name]`` as an integer ``>= minimum`` (``None`` if absent).

    A decimal string counts: ``GET /page`` carries its numbers in the query
    string.  Anything else is a bad request, never a 500 or, for a page size
    of 0, a cursor that stops moving.
    """
    value = request.get(name)
    if value is None:
        return None
    try:
        number = int(value) if isinstance(value, str) else value
    except ValueError:
        number = None
    if isinstance(number, bool) or not isinstance(number, int) \
            or number < minimum:
        raise BadRequestError(
            f"{name!r} must be an integer >= {minimum}, not {value!r}")
    return number


def _engine_options(request: dict) -> dict:
    """``request["engine"]`` checked into :meth:`QueryService.create_tenant`
    keyword arguments: ``plan_cache_size`` an integer ``>= 1`` and
    ``measure_degrees`` a bool, both optional."""
    options = request.get("engine", {})
    if not isinstance(options, dict):
        raise BadRequestError(
            f"'engine' must be an object of engine options, not {options!r}")
    unknown = set(options) - {"plan_cache_size", "measure_degrees"}
    if unknown:
        raise BadRequestError(f"unknown engine options: {sorted(unknown)}")
    checked = {}
    size = _integer_field(options, "plan_cache_size", minimum=1)
    if size is not None:
        checked["plan_cache_size"] = size
    if "measure_degrees" in options:
        if not isinstance(options["measure_degrees"], bool):
            raise BadRequestError(
                "'measure_degrees' must be true or false, "
                f"not {options['measure_degrees']!r}")
        checked["measure_degrees"] = options["measure_degrees"]
    return checked


def _timeout_field(request: dict) -> float | None:
    """``request["timeout"]`` in seconds: a finite number ``>= 0``, or
    ``None`` if absent."""
    value = request.get("timeout")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value < 0:
        raise BadRequestError(
            f"'timeout' must be a number of seconds >= 0, not {value!r}")
    return value


def database_from_payload(request: dict) -> Database:
    """Build a :class:`Database` from a JSON tenant-creation document.

    ``relations`` maps name → ``{"columns": [...], "rows": [[...], ...]}``;
    JSON arrays become the hashable row tuples relations require.
    """
    relations = request.get("relations")
    if not isinstance(relations, dict):
        raise BadRequestError("'relations' must map names to column/row docs")
    backend = request.get("backend")
    database = Database(backend=backend)
    for name, doc in relations.items():
        try:
            columns = tuple(doc["columns"])
            rows = [tuple(row) for row in doc["rows"]]
        except (TypeError, KeyError) as exc:
            raise BadRequestError(
                f"relation {name!r} needs 'columns' and 'rows'") from exc
        database.add(Relation(name, columns, rows, backend=backend), name=name)
    return database
