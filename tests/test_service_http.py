"""HTTP front, result streaming, ``/stats`` reconciliation, graceful shutdown.

The HTTP layer is a thin JSON shim over :meth:`QueryService.handle`, so these
tests speak raw HTTP/1.1 over ``asyncio.open_connection`` — no client
library — and assert both the status mapping and the document contents.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.datagen import hard_four_cycle_instance, random_graph_database
from repro.engine import Engine
from repro.query import four_cycle_projected, triangle_query
from repro.service import (
    QueryService,
    ServiceConfig,
    ServiceUnavailableError,
    UnknownStreamError,
    serve,
)
from repro.telemetry.metrics import get_registry


async def _request(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP/1.1 exchange; returns (status, parsed JSON document)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Content-Type: application/json\r\n\r\n")
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    document = json.loads(raw.split(b"\r\n\r\n", 1)[1])
    return status, document


def _tenant_payload(name: str, database) -> dict:
    return {"name": name,
            "relations": {rel: {"columns": list(database[rel].columns),
                                "rows": [list(r) for r in database[rel].rows]}
                          for rel in database.relation_names()}}


def test_http_round_trip_and_status_mapping():
    query = triangle_query()
    database = random_graph_database(query, size=50, domain=12, seed=5)
    expected = Engine(database.copy()).execute(query)

    async def main():
        service = QueryService(ServiceConfig(default_page_size=10))
        frontend = await serve(service)
        port = frontend.port
        out = {}
        out["health"] = await _request(port, "GET", "/healthz")
        out["create"] = await _request(port, "POST", "/tenants",
                                       _tenant_payload("acme", database))
        out["dup"] = await _request(port, "POST", "/tenants",
                                    _tenant_payload("acme", database))
        out["query"] = await _request(
            port, "POST", "/query",
            {"tenant": "acme", "query": "Q(X, Y, Z) :- R(X, Y), S(Y, Z), T(Z, X)"})
        stream_id = out["query"][1]["result"]["stream_id"]
        cursor = out["query"][1]["result"]["page"]["cursor"]
        out["page"] = await _request(
            port, "GET", f"/page?tenant=acme&stream_id={stream_id}"
                         f"&offset={cursor}&page_size=10")
        out["missing_tenant"] = await _request(
            port, "POST", "/query", {"tenant": "ghost", "query": "Q(x) :- R(x, y)"})
        out["bad_query"] = await _request(
            port, "POST", "/query", {"tenant": "acme", "query": "nonsense("})
        out["bad_json"] = await _request(port, "POST", "/query", None)
        # Unknown fields are rejected, not ignored: a misspelled timeout
        # would otherwise run with no deadline, and the retired shard and
        # executor options would silently run serially.
        for field in ({"timout": 0.1}, {"shards": 4}, {"executor": "cluster"}):
            out[f"unknown_{next(iter(field))}"] = await _request(
                port, "POST", "/query",
                {"tenant": "acme", "query": "Q(x) :- R(x, y)", **field})
        out["unknown_explain"] = await _request(
            port, "POST", "/explain",
            {"tenant": "acme", "query": "Q(x) :- R(x, y)", "shards": 2})
        out["bad_route"] = await _request(port, "GET", "/nope")
        out["tenants"] = await _request(port, "GET", "/tenants")
        out["stats"] = await _request(port, "GET", "/stats")
        await frontend.stop()
        return out

    out = asyncio.run(main())
    assert out["health"] == (200, {"ok": True, "result": {"status": "ok"}})
    assert out["create"][0] == 200
    assert out["dup"][0] == 409
    assert out["dup"][1]["error"]["code"] == "duplicate-tenant"

    status, doc = out["query"]
    assert status == 200
    result = doc["result"]
    assert result["row_count"] == len(expected.answer)
    assert tuple(result["columns"]) == expected.answer.columns
    first_rows = {tuple(row) for row in result["page"]["rows"]}
    assert len(result["page"]["rows"]) == min(10, result["row_count"])

    status, doc = out["page"]
    assert status == 200
    second_rows = {tuple(row) for row in doc["result"]["rows"]}
    assert not first_rows & second_rows  # pages never overlap

    assert out["missing_tenant"][0] == 404
    assert out["bad_query"][0] == 400
    assert out["bad_query"][1]["error"]["code"] == "invalid-query"
    assert out["bad_json"][0] == 400
    for field in ("timout", "shards", "executor"):
        status, doc = out[f"unknown_{field}"]
        assert status == 400, field
        assert doc["error"]["code"] == "bad-request"
        assert f"'{field}'" in doc["error"]["message"]
    status, doc = out["unknown_explain"]
    assert status == 400 and "'shards'" in doc["error"]["message"]
    assert out["bad_route"][0] == 405
    assert out["tenants"][1]["result"]["tenants"] == ["acme"]
    assert out["stats"][0] == 200


def test_create_tenant_rejects_an_unknown_executor():
    """Retired engine options (an executor, a shard count) are bad requests
    that name the option, not tenants created without them."""
    database = random_graph_database(triangle_query(), size=20, domain=6,
                                     seed=5)
    options = ({"executor": "process"}, {"shards": 2},
               {"shards": 2, "executor": "cluster"})

    async def main():
        service = QueryService(ServiceConfig())
        frontend = await serve(service)
        responses = []
        for engine in options:
            body = dict(_tenant_payload("acme", database), engine=engine)
            responses.append(
                await _request(frontend.port, "POST", "/tenants", body))
        await frontend.stop()
        return service, responses

    service, responses = asyncio.run(main())
    for engine, (status, doc) in zip(options, responses):
        assert status == 400
        assert doc["error"]["code"] == "bad-request"
        assert str(sorted(engine)) in doc["error"]["message"]
    assert "acme" not in service.registry


def test_malformed_request_numbers_are_bad_requests():
    """Offsets, page sizes and timeouts are checked where a request enters:
    a malformed one is a 400 naming the field, never a 500 after the query
    ran, and never a page of size 0 whose cursor stops moving."""
    text = "Q(X, Y, Z) :- R(X, Y), S(Y, Z), T(Z, X)"
    database = random_graph_database(triangle_query(), size=30, domain=8,
                                     seed=1)

    async def main():
        service = QueryService(ServiceConfig())
        service.create_tenant("acme", database)
        query = {"op": "query", "tenant": "acme", "query": text}
        first = await service.handle(dict(query, page_size=3))
        page = {"op": "page", "tenant": "acme",
                "stream_id": first["result"]["stream_id"]}
        cases = {
            ("offset", -1): dict(page, offset=-1),
            ("offset", "x"): dict(page, offset="x"),
            ("page_size", 0): dict(page, page_size=0),
            ("page_size", -3): dict(page, page_size=-3),
            ("offest", 3): dict(page, offest=3),
            ("timeout", "abc"): dict(query, timeout="abc"),
            ("page_size", "query 0"): dict(query, page_size=0),
        }
        responses = {case: await service.handle(request)
                     for case, request in cases.items()}
        # GET /page carries its numbers as query-string text.
        text_page = await service.handle(dict(page, offset="3",
                                              page_size="2"))
        executions = service.registry.get("acme").engine.stats.executions
        await service.shutdown()
        return responses, text_page, executions

    responses, text_page, executions = asyncio.run(main())
    for (field, value), response in responses.items():
        assert not response["ok"], (field, value)
        assert response["error"]["code"] == "bad-request", (field, value)
        assert f"'{field}'" in response["error"]["message"]
    assert text_page["ok"]
    assert (text_page["result"]["offset"], text_page["result"]["cursor"]) == (3, 5)
    assert executions == 1  # the query with page size 0 never ran


def test_streaming_is_lazy_and_pages_reassemble_the_answer():
    query = triangle_query()
    database = random_graph_database(query, size=80, domain=14, seed=9,
                                     backend="columnar")
    expected = Engine(database.copy()).execute(query)

    async def main():
        service = QueryService(ServiceConfig(default_page_size=7))
        service.create_tenant("acme", database)
        result = await service.query("acme", query)
        stream = service._streams[result.stream_id]
        consumed_after_first = stream.consumed
        pages = list(stream.pages())
        await service.shutdown()
        return result, consumed_after_first, pages

    result, consumed_after_first, pages = asyncio.run(main())
    total = len(expected.answer)
    assert result.row_count == total
    # Laziness: after serving one page of 7, at most one page's worth of
    # rows (plus the fetch-ahead probe) has been materialised.
    if total > 8:
        assert consumed_after_first <= 8
    reassembled = [tuple(row) for page in pages for row in page.rows]
    assert len(reassembled) == total
    assert set(reassembled) == set(expected.answer.rows)
    assert pages[-1].done and all(not p.done for p in pages[:-1])
    # Re-fetching an earlier offset replays identical rows (stable order).
    assert pages[0].rows == result.page.rows


def test_stats_totals_reconcile_with_tenant_engines():
    queries = (triangle_query(), four_cycle_projected())

    async def main():
        service = QueryService(ServiceConfig(max_concurrent=4))
        for index, name in enumerate(("acme", "globex")):
            service.create_tenant(name, random_graph_database(
                four_cycle_projected(), size=40, domain=10, seed=index))
        await asyncio.gather(*(
            service.query(name, query)
            for name in ("acme", "globex") for query in queries))
        stats = service.stats()
        collected = {sample.name: sample.value
                     for sample in get_registry().collect() if not sample.labels}
        await service.shutdown()
        return service, stats, collected

    service, stats, collected = asyncio.run(main())
    # /metrics samples the /stats keys verbatim, under their section's prefix.
    for key in ("open_streams", "active_queries"):
        assert collected[f"service.{key}"] == stats["service"][key], key
    for key in ("traces", "dropped_traces", "open_spans", "double_finishes",
                "orphan_spans"):
        assert collected[f"telemetry.{key}"] == \
            stats["telemetry"]["tracer"][key], key
    totals = stats["totals"]
    by_tenant = stats["tenants"]
    for key in ("executions", "plans_built", "plans_reused",
                "cancelled_executions"):
        assert totals[key] == sum(doc["engine"][key]
                                  for doc in by_tenant.values()), key
    # And the per-tenant documents agree with the live engine objects.
    for name, doc in by_tenant.items():
        assert doc["engine"] == service.registry.get(name).engine.stats.as_dict()
    assert totals["executions"] == 4
    assert stats["admission"]["completed"] == 4
    assert stats["service"]["tenants"] == 2
    assert stats["service"]["active_queries"] == 0
    assert "lp_cache" in stats and "kernels" in stats


def test_graceful_shutdown_drains_inflight_queries():
    """Queries already admitted finish; new ones are refused; ``shutdown``
    only returns once the service is idle."""
    database = hard_four_cycle_instance(600)

    async def main():
        service = QueryService(ServiceConfig(max_concurrent=2))
        service.create_tenant("acme", database)
        await service.query("acme", four_cycle_projected())  # warm the plan
        inflight = asyncio.create_task(
            service.query("acme", four_cycle_projected()))
        while service.stats()["service"]["active_queries"] == 0:
            await asyncio.sleep(0.005)  # wait until it is truly running
        await service.shutdown(drain=True)
        assert inflight.done(), "shutdown returned before draining"
        result = inflight.result()
        with pytest.raises(ServiceUnavailableError):
            await service.query("acme", four_cycle_projected())
        return result

    result = asyncio.run(main())
    assert result.row_count > 0


def test_shutdown_grace_cancels_stragglers():
    """Past the grace period, in-flight queries are cooperatively cancelled
    (the shutdown never hangs on a runaway query)."""
    database = hard_four_cycle_instance(1500)

    async def main():
        service = QueryService(ServiceConfig(max_concurrent=2))
        service.create_tenant("acme", database)
        await service.query("acme", four_cycle_projected())  # warm the plan
        straggler = asyncio.create_task(
            service.query("acme", four_cycle_projected()))
        while service.stats()["service"]["active_queries"] == 0:
            await asyncio.sleep(0.005)
        await service.shutdown(drain=True, grace=0.05)
        try:
            await straggler
            return None
        except Exception as exc:
            return exc

    error = asyncio.run(main())
    # Either the straggler was aborted by the grace expiry (the expected
    # path) or it squeaked in under 50ms on a fast box — never a hang.
    if error is not None:
        assert error.to_dict()["code"] == "query-aborted"


def test_drop_tenant_closes_its_streams():
    query = triangle_query()

    async def main():
        service = QueryService(ServiceConfig())
        service.create_tenant("acme", random_graph_database(
            query, size=40, domain=10, seed=2))
        result = await service.query("acme", query)
        service.drop_tenant("acme")
        with pytest.raises(UnknownStreamError):
            service.fetch_page("acme", result.stream_id)
        await service.shutdown()

    asyncio.run(main())
