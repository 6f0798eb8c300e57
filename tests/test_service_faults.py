"""Fault injection: failing storage backends.

The service contract under test: an engine blowing up mid-query surfaces as
one structured ``execution-failed`` document — never a hang, never a raw
traceback across the API — and the tenant stays fully serviceable
afterwards (plan cache intact, counters reconciled, next query succeeds).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.datagen import random_graph_database
from repro.query import four_cycle_projected, triangle_query
from repro.service import (
    QueryExecutionError,
    QueryService,
    ServiceConfig,
)
from repro.testing.faults import flaky_database as _flaky_database


def test_flaky_index_build_returns_structured_error_then_recovers():
    query = triangle_query()
    database, flaky = _flaky_database(query, after=1)

    async def main():
        service = QueryService(ServiceConfig(max_concurrent=2))
        service.create_tenant("acme", database)
        failed = await service.handle(
            {"op": "query", "tenant": "acme", "query": query})
        flaky.heal()
        healed = await service.handle(
            {"op": "query", "tenant": "acme", "query": query})
        await service.shutdown()
        return service, failed, healed

    service, failed, healed = asyncio.run(main())
    assert failed["ok"] is False
    assert failed["error"]["code"] == "execution-failed"
    assert failed["error"]["details"]["cause"] == "RuntimeError"
    assert "injected fault" in failed["error"]["message"]
    assert flaky.index_calls >= 1
    # Recovery: same tenant, same plan, now it serves.
    assert healed["ok"] is True
    assert healed["result"]["row_count"] > 0
    tenant = service.registry.get("acme")
    assert tenant.failed == 1 and tenant.completed == 1
    # The failure did not poison the plan cache: one build, then a hit.
    cache = tenant.engine.plan_cache.cache_stats()
    assert cache["plan_builds"] == 1 and cache["plan_hits"] == 1
    stats = tenant.engine.stats.as_dict()
    assert stats["executions"] == 1  # only the healed run completed


def test_kth_index_build_fails_midway():
    """``after=2``: the engine survives the first index build, then trips —
    the error path exercises partially-built evaluation state."""
    # At 80 rows both of PANDA's semijoins against the flaky relation have
    # non-empty bags, so the query builds two key sets on it.
    query = four_cycle_projected()
    database, flaky = _flaky_database(query, after=2, size=80)

    async def main():
        service = QueryService(ServiceConfig())
        service.create_tenant("acme", database)
        response = await service.handle(
            {"op": "query", "tenant": "acme", "query": query})
        await service.shutdown()
        return response

    response = asyncio.run(main())
    assert response["ok"] is False
    assert response["error"]["code"] == "execution-failed"
    assert "#2" in response["error"]["message"]
    assert flaky.index_calls == 2


def test_direct_query_raises_typed_error():
    """In-process callers get the typed exception, with the cause attached."""
    query = triangle_query()
    database, _ = _flaky_database(query, after=1)

    async def main():
        service = QueryService(ServiceConfig())
        service.create_tenant("acme", database)
        with pytest.raises(QueryExecutionError) as excinfo:
            await service.query("acme", query)
        await service.shutdown()
        return excinfo.value

    error = asyncio.run(main())
    assert isinstance(error.cause, RuntimeError)
    assert error.to_dict()["code"] == "execution-failed"


def test_fault_during_concurrent_load_leaves_other_tenants_unharmed():
    """One tenant's backend fault must not disturb a healthy neighbour
    running at the same time."""
    query = triangle_query()
    sick_db, _ = _flaky_database(query, after=1)
    healthy_db = random_graph_database(query, size=50, domain=12, seed=31)

    async def main():
        service = QueryService(ServiceConfig(max_concurrent=4))
        service.create_tenant("sick", sick_db)
        service.create_tenant("healthy", healthy_db)
        responses = await asyncio.gather(*(
            service.handle({"op": "query",
                            "tenant": "sick" if i % 2 else "healthy",
                            "query": query})
            for i in range(8)))
        await service.shutdown()
        return service, responses

    service, responses = asyncio.run(main())
    healthy = [r for i, r in enumerate(responses) if i % 2 == 0]
    sick = [r for i, r in enumerate(responses) if i % 2]
    assert all(r["ok"] for r in healthy)
    rows = {tuple(map(tuple, r["result"]["page"]["rows"])) for r in healthy}
    assert all(not r["ok"] and r["error"]["code"] == "execution-failed"
               for r in sick)
    healthy_tenant = service.registry.get("healthy")
    assert healthy_tenant.completed == 4 and healthy_tenant.failed == 0
