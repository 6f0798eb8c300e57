"""Timeout and cooperative-cancellation regressions.

The property under test: a cancelled query stops *mid-plan* with bounded
overshoot — it does not run the join to completion and then notice.  The
bound is checked from :class:`~repro.relational.operators.WorkCounter`
tallies (the generic join checks its token every ``CHECK_INTERVAL`` explored
partial assignments, so work past the trip point is at most one interval per
DFS level), and end-to-end through the engine and the asyncio service.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.algorithms import evaluate_faq, generic_join
from repro.algorithms.generic_join import CHECK_INTERVAL
from repro.datagen import hard_four_cycle_instance, random_graph_database
from repro.engine import Engine
from repro.engine import core as engine_core
from repro.query import four_cycle_full, four_cycle_projected, triangle_query
from repro.relational import MIN_PLUS_SEMIRING, WorkCounter
from repro.service import (
    DeadlineExceededError,
    QueryService,
    ServiceConfig,
)
from repro.utils.cancellation import CancellationToken, QueryCancelledError


class TripAfter(CancellationToken):
    """A token that cancels itself after N ``check()`` consultations."""

    def __init__(self, trips: int) -> None:
        super().__init__()
        self.trips = trips
        self.checks = 0

    def check(self) -> None:
        self.checks += 1
        if self.checks > self.trips and not self.cancelled:
            self.cancel(f"tripped after {self.trips} checks")
        super().check()


def test_token_deadline_and_explicit_cancel(stepping_clock):
    """Each deadline reading is one second later: the 60 s token is far from
    its deadline, the 0 s token has passed it by its first check."""
    token = CancellationToken.with_timeout(60.0)
    token.check()  # far-future deadline: no trip
    assert token.remaining() > 0
    token.cancel("operator asked")
    with pytest.raises(QueryCancelledError, match="operator asked"):
        token.check()
    assert token.cancelled and not token.deadline_exceeded

    expired = CancellationToken.with_timeout(0.0)
    # The reason names the timeout given, not the reading it fell on.
    with pytest.raises(QueryCancelledError,
                       match=r"^deadline exceeded after 0 s$"):
        expired.check()
    assert expired.deadline_exceeded


def test_generic_join_overshoot_is_bounded_by_check_interval():
    """Work tallied past the trip point ≤ one CHECK_INTERVAL per DFS level."""
    query = four_cycle_full()
    # Ω(N²) full join: 40k answers.  Set-backed, so the DFS path, whose
    # bound we assert.
    database = hard_four_cycle_instance(400)
    trips = 4
    token = TripAfter(trips)
    counter = WorkCounter(cancellation=token)
    with pytest.raises(QueryCancelledError):
        generic_join(query, database, counter=counter)
    # The join checks once per CHECK_INTERVAL explored assignments (plus one
    # entry check), so exploration stops within trips * CHECK_INTERVAL work;
    # the full join would have been ~40000.
    assert counter.intermediate_tuples <= trips * CHECK_INTERVAL
    assert counter.intermediate_tuples < 40_000 // 4
    assert any("cancelled after exploring" in note for note in counter.notes)


def test_kernel_path_cancels_per_level():
    """The vectorized kernel consults the token between levels too."""
    query = four_cycle_full()
    database = hard_four_cycle_instance(400, backend="columnar")
    token = TripAfter(2)
    counter = WorkCounter(cancellation=token)
    with pytest.raises(QueryCancelledError):
        generic_join(query, database, counter=counter)
    assert token.checks >= 2


def test_engine_deadline_cancels_within_bound(stepping_clock, monkeypatch):
    """A deadline on a huge intermediate join trips mid-plan, within bounded
    work.  The stepping clock reads one second later at every check, so a
    1.5 s deadline passes the engine's entry check and trips at the plan's
    first check, without racing wall time."""
    database = hard_four_cycle_instance(1200)
    engine = Engine(database)
    query = four_cycle_projected()
    prepared = engine.prepare(query)
    full_run = prepared.execute().counter.intermediate_tuples
    counters = []

    def recording_counter(**kwargs):
        counters.append(WorkCounter(**kwargs))
        return counters[-1]

    monkeypatch.setattr(engine_core, "WorkCounter", recording_counter)
    with pytest.raises(QueryCancelledError):
        prepared.execute(cancellation=CancellationToken.with_timeout(1.5))
    [counter] = counters
    # The work done before the trip is bounded: far below finishing the run.
    assert counter.intermediate_tuples < full_run * 0.75
    assert engine.stats.cancelled_executions == 1
    assert engine.stats.executions == 1  # only the uncancelled run counted


def test_engine_counts_already_cancelled_execution():
    engine = Engine(random_graph_database(triangle_query(), size=30,
                                          domain=10, seed=1))
    token = CancellationToken()
    token.cancel("gave up before starting")
    with pytest.raises(QueryCancelledError):
        engine.execute(triangle_query(), cancellation=token)
    assert engine.stats.cancelled_executions == 1
    assert engine.stats.executions == 0


def test_faq_evaluation_cancels():
    query = four_cycle_projected()
    database = hard_four_cycle_instance(200)
    token = TripAfter(1)
    with pytest.raises(QueryCancelledError):
        evaluate_faq(query, database, MIN_PLUS_SEMIRING,
                     counter=WorkCounter(cancellation=token))


def test_service_deadline_maps_to_typed_error_and_counters(stepping_clock):
    database = hard_four_cycle_instance(1200)

    async def main():
        service = QueryService(ServiceConfig(max_concurrent=2))
        service.create_tenant("acme", database)
        # Warm the plan cache so the deadline bites execution, not planning.
        await service.query("acme", four_cycle_projected())
        with pytest.raises(DeadlineExceededError):
            await service.query("acme", four_cycle_projected(),
                                timeout=0.05)
        response = await service.handle(
            {"op": "query", "tenant": "acme",
             "query": four_cycle_projected(), "timeout": 0.05})
        await service.shutdown()
        return service, response

    service, response = asyncio.run(main())
    assert response["ok"] is False
    assert response["error"]["code"] == "deadline-exceeded"
    assert response["error"]["message"] == "deadline exceeded after 0.05 s"
    tenant = service.registry.get("acme")
    assert tenant.cancelled == 2 and tenant.completed == 1
    assert tenant.engine.stats.cancelled_executions == 2
    # The tenant stays healthy: plan cache intact, counters reconciled.
    snapshot = tenant.snapshot()
    assert snapshot["caches"]["plan_builds"] == 1
    assert snapshot["engine"]["executions"] == 1
