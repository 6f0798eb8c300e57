"""Trace integrity, metrics reconciliation, profiler accuracy — the
telemetry layer's test battery.

The invariants under test, layer by layer:

* **spans close exactly once**, on every exit path — normal return, raised
  exception, a blown deadline mid-execution — and parent ids always resolve
  within their trace;
* **one trace per request**: a query served over HTTP yields one trace
  holding the service, engine, LP and execution spans;
* **``/metrics`` reconciles with ``/stats``** by construction — the
  registry samples the same counter tables, under the same keys, that the
  stats document reports;
* **``explain(analyze=True)`` reconciles with the WorkCounter**: reported
  work totals equal a plain execution's counter, and every plan node gets
  an observed cardinality next to its polymatroid estimate.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.datagen import hard_four_cycle_instance, random_graph_database
from repro.engine import Engine
from repro.query import four_cycle_projected, triangle_query
from repro.query.cq import Atom, ConjunctiveQuery
from repro.service import DeadlineExceededError, QueryService, ServiceConfig, serve
from repro.lp.model import lp_cache_stats
from repro.relational.kernels import kernel_stats
from repro.relational.storage import storage_stats
from repro.telemetry import (
    SlowQueryLog,
    Tracer,
    get_registry,
    get_tracer,
    using_tracing,
)


@pytest.fixture(autouse=True)
def _fresh_tracer():
    get_tracer().reset()
    yield
    get_tracer().reset()


def _span_index(trace: dict) -> dict[str, dict]:
    return {doc["span_id"]: doc for doc in trace["spans"]}


def _assert_trace_integrity(trace: dict) -> None:
    """Every span closed, every parent id resolving within the trace."""
    assert trace["open_spans"] == 0, trace
    spans = _span_index(trace)
    for doc in trace["spans"]:
        assert doc["end"] is not None, doc
        if doc["parent_id"] is not None:
            assert doc["parent_id"] in spans, (
                f"dangling parent {doc['parent_id']!r} of {doc['span_id']!r}")


# ---------------------------------------------------------------------------
# tracer unit behaviour
# ---------------------------------------------------------------------------

def test_span_tree_ids_are_deterministic():
    tracer = Tracer()
    with tracer.span("root", {"k": 1}) as root:
        with tracer.span("child") as child:
            with tracer.span("grandchild") as grandchild:
                pass
        assert root.trace_id == "t1"
        assert (root.span_id, child.span_id, grandchild.span_id) == (
            "s1", "s2", "s3")
        assert child.parent_id == "s1" and grandchild.parent_id == "s2"
    trace = tracer.export_trace("t1")
    _assert_trace_integrity(trace)
    assert [doc["name"] for doc in trace["spans"]] == [
        "root", "child", "grandchild"]
    # A second trace starts a fresh serial but reuses span numbering.
    with tracer.span("again") as again:
        assert (again.trace_id, again.span_id) == ("t2", "s1")


def test_spans_close_exactly_once_even_on_exceptions():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom") as span:
            raise ValueError("injected")
    record = tracer.export_trace(span.trace_id)["spans"][0]
    assert record["status"] == "error: ValueError"
    assert tracer.stats()["open_spans"] == 0
    # finish() after the context exit is counted, never double-applied.
    span.finish(status="late")
    assert tracer.stats()["double_finishes"] == 1
    assert tracer.export_trace(span.trace_id)["spans"][0]["status"] == \
        "error: ValueError"


def test_disabled_tracer_returns_the_null_span():
    tracer = Tracer(enabled=False)
    span = tracer.span("anything")
    assert not span and span.context() is None
    with span:
        assert tracer.span("child") is span  # the shared NULL_SPAN
    assert tracer.stats()["traces"] == 0


def test_sampling_is_deterministic_and_suppresses_descendants():
    tracer = Tracer(sampling=0.5)
    kept = []
    for index in range(6):
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                if root:
                    kept.append(index)
                    assert child, "a sampled trace records its children"
                else:
                    assert not child, ("an unsampled trace must not leak "
                                       "children as fresh roots")
    assert kept == [1, 3, 5]  # the accumulator, not a PRNG
    assert tracer.stats()["traces"] == 3
    assert tracer.stats()["open_spans"] == 0


def test_ring_buffer_eviction_is_counted():
    tracer = Tracer(capacity=2)
    for _ in range(5):
        with tracer.span("root"):
            pass
    stats = tracer.stats()
    assert stats["traces"] == 2 and stats["dropped_traces"] == 3


# ---------------------------------------------------------------------------
# the counter surface: one table per layer, sampled under its own keys
# ---------------------------------------------------------------------------

def test_counter_tables_move_and_are_sampled_verbatim():
    query = triangle_query()
    database = random_graph_database(query, size=60, domain=12, seed=5,
                                     backend="columnar")
    registry = get_registry()
    built_before = registry.value("engine.stats.plans_built")
    lp_before, storage_before, kernel_before = (
        lp_cache_stats(), storage_stats(), kernel_stats())
    engine = Engine(database)
    engine.prepare(query).execute()

    def moved(after, before, suffix):
        return {key for key, count in after.items()
                if key.endswith(suffix) and count > before.get(key, 0)}

    assert moved(lp_cache_stats(), lp_before, "_builds")
    assert moved(storage_stats(), storage_before, "_builds")
    assert moved(kernel_stats(), kernel_before, "_kernels")
    assert engine.stats.plans_built == 1
    assert registry.value("engine.stats.plans_built") - built_before == \
        engine.stats.plans_built

    tables = {"lp": lp_cache_stats(), "kernel": kernel_stats(),
              "storage": storage_stats(),
              "engine.stats": registry.table("engine.stats").snapshot()}
    collected = {sample.name: sample.value for sample in registry.collect()
                 if not sample.labels}
    for prefix, table in tables.items():
        assert table
        for key, value in table.items():
            assert collected[f"{prefix}.{key}"] == value, (prefix, key)


# ---------------------------------------------------------------------------
# slow-query log (satellite)
# ---------------------------------------------------------------------------

def test_slow_log_threshold_ring_and_drop_accounting():
    log = SlowQueryLog(threshold_seconds=0.5, capacity=2)
    assert not log.record(tenant="a", query="q", elapsed=0.1)
    assert log.record(tenant="a", query="q1", elapsed=0.9, trace_id="t1")
    assert log.record(tenant="a", query="q2", elapsed=0.8, trace_id="t2")
    assert log.record(tenant="a", query="q3", elapsed=0.7, trace_id="t3")
    entries = log.entries()
    assert [e["query"] for e in entries] == ["q2", "q3"]  # oldest evicted
    assert [e["trace_id"] for e in entries] == ["t2", "t3"]
    stats = log.stats()
    assert stats["recorded"] == 3 and stats["dropped"] == 1
    disabled = SlowQueryLog(threshold_seconds=None)
    assert not disabled.record(tenant="a", query="q", elapsed=100.0)


# ---------------------------------------------------------------------------
# engine traces and the cardinality profiler
# ---------------------------------------------------------------------------

def _engine_fixture(**kwargs):
    query = triangle_query()
    database = random_graph_database(query, size=50, domain=12, seed=7)
    return query, Engine(database, **kwargs)


def test_explain_analyze_reconciles_with_the_work_counter():
    query, engine = _engine_fixture()
    doc = engine.explain(query, analyze=True)
    analyze = doc["analyze"]
    # The same (now cached) plan executed plainly does identical work.
    result = engine.execute(query)
    assert analyze["row_count"] == len(result.answer)
    assert analyze["work"]["intermediate_tuples"] == \
        result.counter.intermediate_tuples
    assert analyze["work"]["materializations"] == \
        result.counter.materializations
    # Every plan node reports an observed size next to its estimate.
    report = analyze["estimated_vs_observed"]
    assert report, "the profiler must cover every plan node"
    for node in report:
        assert node["observed_last"] is not None
        assert node["estimated_rows"] is None or node["estimated_rows"] >= 0
    output_nodes = [n for n in report if n["kind"] == "output"]
    assert len(output_nodes) == 1
    assert output_nodes[0]["observed_last"] == analyze["row_count"]
    _assert_trace_integrity(analyze["trace"])
    json.dumps(doc)  # the whole document must survive the HTTP seam


def test_profile_accumulates_across_runs_and_renamings():
    query, engine = _engine_fixture()
    engine.execute(query)
    prepared = engine.prepare(query)
    profile = prepared.plan.profile
    assert profile is not None
    runs_after_one = max(node["runs"] for node in
                         profile.estimated_vs_observed())
    assert runs_after_one >= 1
    # An alpha-renamed twin hits the same recipe — and the same profile.
    renamed = ConjunctiveQuery(
        name="triangle_renamed",
        atoms=tuple(Atom(a.relation, tuple(f"{v}_r" for v in a.variables))
                    for a in query.atoms),
        free_variables=tuple(f"{v}_r" for v in query.free_variables))
    engine.execute(renamed)
    twin = engine.prepare(renamed)
    assert twin.plan.profile is profile
    assert max(node["runs"] for node in profile.estimated_vs_observed()) \
        > runs_after_one


def test_engine_phase_spans_parent_under_one_trace():
    query, engine = _engine_fixture()
    tracer = get_tracer()
    with tracer.span("test.root") as root:
        engine.execute(query)
    trace = tracer.export_trace(root.trace_id)
    _assert_trace_integrity(trace)
    names = {doc["name"] for doc in trace["spans"]}
    assert {"test.root", "engine.statistics", "engine.lp_solve",
            "engine.plan_cache", "engine.execute"} <= names
    # The second execution hits the plan cache: no fresh LP solve span.
    with tracer.span("test.warm") as warm:
        engine.execute(query)
    warm_names = [doc["name"] for doc in
                  tracer.export_trace(warm.trace_id)["spans"]]
    assert "engine.plan_cache" in warm_names
    assert "engine.lp_solve" not in warm_names


# ---------------------------------------------------------------------------
# service layer: request spans, deadlines, slow log, /metrics vs /stats
# ---------------------------------------------------------------------------

def test_deadline_exceeded_closes_every_span(stepping_clock):
    database = hard_four_cycle_instance(1200)
    tracer = get_tracer()

    async def main():
        service = QueryService(ServiceConfig(max_concurrent=2,
                                             slow_query_seconds=0.0))
        service.create_tenant("acme", database)
        await service.query("acme", four_cycle_projected())
        with pytest.raises(DeadlineExceededError):
            await service.query("acme", four_cycle_projected(),
                                timeout=0.05)
        await service.shutdown()
        return service

    service = asyncio.run(main())
    assert tracer.stats()["open_spans"] == 0
    # The timed-out request's trace carries the failure status and lands in
    # the slow log with its trace id.
    entries = service.slow_log.entries()
    failed = [e for e in entries if e["outcome"] == "deadline-exceeded"]
    assert len(failed) == 1 and failed[0]["trace_id"]
    trace = tracer.export_trace(failed[0]["trace_id"])
    _assert_trace_integrity(trace)
    request_spans = [doc for doc in trace["spans"]
                     if doc["name"] == "service.request"]
    assert request_spans[0]["attrs"]["outcome"] == "deadline-exceeded"


async def _http(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP/1.1 exchange, reading the body by Content-Length."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n")
    writer.write(head.encode() + payload)
    await writer.drain()
    headers = await reader.readuntil(b"\r\n\r\n")
    status = int(headers.split(b" ", 2)[1])
    length = 0
    for line in headers.decode("latin-1").split("\r\n"):
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    body_bytes = await reader.readexactly(length)
    writer.close()
    if b"application/json" in headers:
        return status, json.loads(body_bytes)
    return status, body_bytes.decode()


def _prometheus_values(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        bare = name.split("{")[0]
        values[bare] = values.get(bare, 0.0) + float(value)
    return values


def test_traced_request_through_http_yields_one_trace():
    """The acceptance bar: one HTTP query yields one trace holding service,
    engine, LP and execution spans — and the observability endpoints
    (/metrics, /slow, /stats) agree about what happened."""
    query = triangle_query()
    database = random_graph_database(query, size=60, domain=12, seed=5)
    expected = set(Engine(database.copy()).execute(query).answer.rows)
    tracer = get_tracer()
    out: dict = {}

    async def main():
        service = QueryService(ServiceConfig(slow_query_seconds=0.0))
        service.create_tenant("acme", database)
        frontend = await serve(service)
        port = frontend.port
        out["query"] = await _http(
            port, "POST", "/query",
            {"tenant": "acme", "query": str(query)})
        out["explain"] = await _http(
            port, "POST", "/explain",
            {"tenant": "acme", "query": str(query), "analyze": True})
        out["metrics"] = await _http(port, "GET", "/metrics")
        out["slow"] = await _http(port, "GET", "/slow")
        out["stats"] = await _http(port, "GET", "/stats")
        await frontend.stop()

    asyncio.run(main())

    status, doc = out["query"]
    assert status == 200
    result = doc["result"]
    assert {tuple(r) for r in result["page"]["rows"]} <= expected
    assert result["row_count"] == len(expected)
    trace_id = result["trace_id"]
    assert trace_id

    # One trace with every layer's spans.
    trace = tracer.export_trace(trace_id)
    _assert_trace_integrity(trace)
    names = {doc["name"] for doc in trace["spans"]}
    assert {"service.request", "engine.plan_cache", "engine.lp_solve",
            "engine.verify", "engine.execute"} <= names

    # /slow indexes the trace ring by trace id (threshold 0 → everything).
    status, slow = out["slow"]
    assert status == 200
    logged = [e for e in slow["result"]["slow_queries"]
              if e["trace_id"] == trace_id]
    assert len(logged) == 1 and logged[0]["outcome"] == "completed"

    # /explain with analyze reports observed cardinalities for every node.
    status, explain = out["explain"]
    assert status == 200, explain
    report = explain["result"]["analyze"]["estimated_vs_observed"]
    assert report and all("observed_last" in node for node in report)

    # /metrics is raw Prometheus text and reconciles with /stats.
    status, text = out["metrics"]
    assert status == 200 and isinstance(text, str)
    values = _prometheus_values(text)
    status, stats = out["stats"]
    stats = stats["result"]
    admission = stats["admission"]
    assert values["repro_service_admission_admitted"] == \
        admission["admitted"]
    assert values["repro_service_admission_submitted"] == \
        admission["submitted"]
    assert values["repro_lp_region_hits"] == stats["lp_cache"]["region_hits"]
    acme = stats["tenants"]["acme"]
    assert values["repro_service_tenant_completed"] == \
        acme["outcomes"]["completed"]
    assert values["repro_engine_plan_builds"] == \
        acme["caches"]["plan_builds"]
    # Every engine's bump() also moved the process-wide engine.stats table.
    assert values.get("repro_engine_stats_executions", 0) >= \
        acme["engine"]["executions"]
    # And the stats document carries the tracer/slow-log health block.
    assert stats["telemetry"]["tracer"]["open_spans"] == 0
    assert stats["telemetry"]["slow_log"]["recorded"] >= 1


def test_tracing_disabled_keeps_the_service_flow_working():
    query = triangle_query()
    database = random_graph_database(query, size=40, domain=10, seed=3)

    async def main():
        service = QueryService()
        service.create_tenant("acme", database)
        with using_tracing(False):
            result = await service.query("acme", query)
        await service.shutdown()
        return result

    result = asyncio.run(main())
    assert result.trace_id == ""
    assert get_tracer().stats()["traces"] == 0
    assert result.row_count == len(
        set(Engine(database.copy()).execute(query).answer.rows))
