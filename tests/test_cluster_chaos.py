"""The chaos battery: injected faults vs. the cluster executor's invariant.

The invariant under test (the acceptance bar of this PR): with a worker
killed mid-run via ``os._exit`` *and* a delay-injected straggler, every
query-library shape on both storage backends returns rows bit-identical to
the serial answer, with the recovery observable in the stats —
``tasks_retried >= 1``, ``stragglers_redispatched >= 1`` and
``workers_respawned >= 1`` — and retry exhaustion degrades to the serial
fallback instead of failing the query.

All faults come from :class:`repro.testing.faults.FaultPlan` — deterministic
and seedable, so a failing run replays.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.datagen import random_graph_database
from repro.engine import ClusterConfig, Engine
from repro.query.library import (
    four_cycle_full,
    four_cycle_projected,
    loomis_whitney_query,
    path_query,
    star_query,
    triangle_query,
)
from repro.service import QueryService, ServiceConfig
from repro.testing.faults import FaultPlan
from repro.utils.cancellation import CancellationToken, QueryCancelledError
from repro.utils.retry import RetryPolicy

SHAPES = [
    ("triangle", triangle_query),
    ("four_cycle_full", four_cycle_full),
    ("four_cycle_projected", four_cycle_projected),
    ("path_3", lambda: path_query(3)),
    ("star_3", lambda: star_query(3)),
    ("loomis_whitney_3", lambda: loomis_whitney_query(3)),
]

FAULT_COUNTERS = ("tasks_retried", "stragglers_redispatched",
                  "workers_respawned", "degraded_executions")


def _chaos_config(**overrides) -> ClusterConfig:
    defaults = dict(
        max_workers=2,
        retry=RetryPolicy(max_attempts=3, base_delay=0.005, multiplier=2.0,
                          max_delay=0.05),
        straggler_factor=1.5,
        straggler_min_seconds=0.02,
        speculation_min_completed=2,
        poll_interval=0.01,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _serial_rows(query, database):
    return set(Engine(database).execute(query).answer.rows)


# ---------------------------------------------------------------------------
# the chaos invariant: kill + straggler, every shape, both backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["set", "columnar"])
@pytest.mark.parametrize("name, make_query", SHAPES,
                         ids=[name for name, _ in SHAPES])
def test_kill_and_straggler_stay_bit_identical(backend, name, make_query):
    query = make_query()
    database = random_graph_database(query, size=60, domain=12, seed=5,
                                     backend=backend)
    expected = _serial_rows(query, database)

    engine = Engine(database, shards=4, executor="cluster",
                    cluster_config=_chaos_config())
    try:
        # Dispatch 1 is the delayed straggler (shard 0); dispatch 2 carries
        # the exit directive, so whichever worker draws it dies mid-task.
        engine.cluster_coordinator().fault_plan = FaultPlan(
            kill_on_task=2, delay_shard=0, delay_seconds=0.8)
        result = engine.execute(query)
    finally:
        engine.close()

    assert set(result.answer.rows) == expected
    stats = engine.stats.as_dict()
    assert stats["tasks_retried"] >= 1, stats
    assert stats["workers_respawned"] >= 1, stats
    assert stats["stragglers_redispatched"] >= 1, stats
    # Recovery is not degradation: every shard finished on the cluster.
    assert stats["degraded_executions"] == 0, stats
    assert stats["parallel_executions"] == 1


# ---------------------------------------------------------------------------
# individual fault modes
# ---------------------------------------------------------------------------

def _triangle_fixture(seed=5):
    query = triangle_query()
    database = random_graph_database(query, size=60, domain=12, seed=seed)
    return query, database, _serial_rows(query, database)


def test_retry_exhaustion_degrades_to_serial_not_failure():
    query, database, expected = _triangle_fixture()
    engine = Engine(database, shards=3, executor="cluster",
                    cluster_config=_chaos_config(
                        retry=RetryPolicy(max_attempts=2, base_delay=0.001,
                                          max_delay=0.002)))
    try:
        engine.cluster_coordinator().fault_plan = FaultPlan(
            flaky_shard=0, flaky_failures=99)
        result = engine.execute(query)  # must NOT raise
    finally:
        engine.close()
    assert set(result.answer.rows) == expected
    stats = engine.stats.as_dict()
    assert stats["degraded_executions"] == 1
    assert stats["tasks_retried"] >= 1
    assert stats["executions"] == 1


def test_flaky_payload_recovers_within_budget():
    query, database, expected = _triangle_fixture()
    engine = Engine(database, shards=3, executor="cluster",
                    cluster_config=_chaos_config())
    try:
        engine.cluster_coordinator().fault_plan = FaultPlan(
            flaky_shard=1, flaky_failures=1)  # fails once, then succeeds
        result = engine.execute(query)
    finally:
        engine.close()
    assert set(result.answer.rows) == expected
    stats = engine.stats.as_dict()
    assert stats["tasks_retried"] >= 1
    assert stats["degraded_executions"] == 0


def test_dropped_ack_triggers_retry_and_identical_answer():
    query, database, expected = _triangle_fixture()
    engine = Engine(database, shards=3, executor="cluster",
                    cluster_config=_chaos_config(
                        straggler_min_seconds=30.0))  # no speculation escape
    try:
        coordinator = engine.cluster_coordinator()
        coordinator.fault_plan = FaultPlan(drop_ack_shard=1)
        result = engine.execute(query)
    finally:
        engine.close()
    assert set(result.answer.rows) == expected
    assert engine.stats.as_dict()["tasks_retried"] >= 1
    assert coordinator.counters["acks_dropped"] == 1


def test_deadline_during_injected_straggler_cancels_cooperatively():
    """A deadline expiring while a shard is stuck (and retries are in the
    air) must surface as a cancelled execution — never a hang, never a
    degraded serial run that overshoots the deadline."""
    query, database, _ = _triangle_fixture()
    engine = Engine(database, shards=3, executor="cluster",
                    cluster_config=_chaos_config(
                        straggler_min_seconds=30.0))  # no speculation escape
    try:
        engine.cluster_coordinator().fault_plan = FaultPlan(
            delay_shard=0, delay_seconds=5.0)
        token = CancellationToken.with_timeout(0.4)
        with pytest.raises(QueryCancelledError):
            engine.execute(query, cancellation=token)
    finally:
        engine.close()
    stats = engine.stats.as_dict()
    assert stats["cancelled_executions"] == 1
    assert stats["executions"] == 0


def test_seeded_raise_rate_chaos_replays_identically():
    """The probabilistic fault mode is hash-deterministic: two engines with
    the same seeded plan observe the same retry count and the same rows."""
    query, database, expected = _triangle_fixture()
    observed = []
    for _ in range(2):
        engine = Engine(database, shards=4, executor="cluster",
                        cluster_config=_chaos_config())
        try:
            engine.cluster_coordinator().fault_plan = FaultPlan(
                raise_rate=0.4, seed=9)
            result = engine.execute(query)
        finally:
            engine.close()
        assert set(result.answer.rows) == expected
        observed.append(engine.stats.as_dict()["tasks_retried"])
    assert observed[0] == observed[1]


# ---------------------------------------------------------------------------
# service-level observability
# ---------------------------------------------------------------------------

def test_cluster_fault_counters_flow_through_service_stats():
    query, database, expected = _triangle_fixture()

    async def main():
        service = QueryService(ServiceConfig(max_concurrent=2))
        tenant = service.create_tenant("acme", database, shards=4,
                                       executor="cluster",
                                       cluster_config=_chaos_config())
        tenant.engine.cluster_coordinator().fault_plan = FaultPlan(
            kill_on_task=2, delay_shard=0, delay_seconds=0.8)
        response = await service.handle(
            {"op": "query", "tenant": "acme", "query": query})
        stats = await service.handle({"op": "stats"})
        await service.shutdown()
        return response, stats

    response, stats = asyncio.run(main())
    assert response["ok"] is True
    rows = {tuple(row) for row in response["result"]["page"]["rows"]}
    assert rows <= expected and response["result"]["row_count"] == len(expected)

    totals = stats["result"]["totals"]
    engine_doc = stats["result"]["tenants"]["acme"]["engine"]
    for counters in (totals, engine_doc):
        assert counters["tasks_retried"] >= 1
        assert counters["workers_respawned"] >= 1
        assert counters["stragglers_redispatched"] >= 1
        assert counters["degraded_executions"] == 0
