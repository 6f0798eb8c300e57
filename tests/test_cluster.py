"""The fault-tolerant cluster executor: parity, healing, verification.

The chaos battery proper (injected kills, stragglers, dropped acks) lives in
``test_cluster_chaos.py``; this file covers the executor's steady state —
answers bit-identical to serial on both backends, lazy pool healing after a
hard worker crash, stats plumbing, and the static task verifier.
"""

from __future__ import annotations

import pytest

from repro.analysis.plan_verifier import (
    PlanVerificationError,
    verify_cluster_task,
)
from repro.datagen import random_graph_database
from repro.engine import ClusterConfig, Engine
from repro.engine.parallel import EXECUTORS
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.library import (
    four_cycle_projected,
    star_query,
    triangle_query,
)


def _database(query, seed=7, size=70, domain=13, backend=None):
    return random_graph_database(query, size=size, domain=domain, seed=seed,
                                 backend=backend)


def test_cluster_is_a_registered_executor():
    assert "cluster" in EXECUTORS


@pytest.mark.parametrize("backend", ["set", "columnar"])
@pytest.mark.parametrize("make_query", [triangle_query, four_cycle_projected,
                                        lambda: star_query(3)])
def test_cluster_matches_serial_on_both_backends(backend, make_query):
    query = make_query()
    database = _database(query, backend=backend)
    serial = Engine(database).execute(query)
    engine = Engine(database, shards=4, executor="cluster")
    try:
        result = engine.execute(query)
    finally:
        engine.close()
    assert set(result.answer.rows) == set(serial.answer.rows)
    assert result.answer.columns == serial.answer.columns
    stats = engine.stats.as_dict()
    assert stats["parallel_executions"] == 1
    assert stats["shards_run"] == 4
    assert stats["degraded_executions"] == 0


def test_cluster_falls_back_serially_on_self_joins():
    query = ConjunctiveQuery([Atom("R", ("X", "Y")), Atom("R", ("Y", "Z"))])
    database = _database(query, size=30, domain=6)
    engine = Engine(database, shards=4, executor="cluster")
    try:
        result = engine.execute(query)
    finally:
        engine.close()
    assert len(result.answer.rows) > 0
    assert engine.stats.parallel_executions == 0
    assert engine.stats.serial_executions == 1
    # No partitionable atom means no worker was ever forked.
    assert engine._cluster is None or engine._cluster._spawned_ever == 0


def test_new_stats_fields_flow_through_as_dict_and_describe():
    stats = Engine(_database(triangle_query())).stats
    snapshot = stats.as_dict()
    for field in ("tasks_retried", "stragglers_redispatched",
                  "workers_respawned", "degraded_executions"):
        assert snapshot[field] == 0
    stats.bump(tasks_retried=2, workers_respawned=1, degraded_executions=1,
               stragglers_redispatched=3)
    assert stats.as_dict()["tasks_retried"] == 2
    described = stats.describe()
    assert "2 tasks retried" in described
    assert "3 stragglers re-dispatched" in described
    assert "1 workers respawned" in described
    assert "1 degraded executions" in described


def test_coordinator_reuses_workers_across_queries():
    query = triangle_query()
    database = _database(query)
    engine = Engine(database, shards=3, executor="cluster")
    try:
        for _ in range(3):
            engine.execute(query)
        coordinator = engine.cluster_coordinator()
        # Three queries, one pool: nothing died, nothing respawned.
        assert coordinator._spawned_ever == 3
        assert engine.stats.as_dict()["workers_respawned"] == 0
        assert "3/3 workers live" in coordinator.describe()
    finally:
        engine.close()


def test_coordinator_heals_after_externally_killed_worker():
    """A worker killed between queries (exactly how an OOM killer strikes)
    must be replaced transparently on the next run."""
    query = triangle_query()
    database = _database(query)
    serial = Engine(database).execute(query)
    engine = Engine(database, shards=3, executor="cluster")
    try:
        engine.execute(query)
        coordinator = engine.cluster_coordinator()
        victim = coordinator._workers[0].process
        victim.terminate()
        victim.join(timeout=5)
        result = engine.execute(query)
        assert set(result.answer.rows) == set(serial.answer.rows)
        assert engine.stats.as_dict()["workers_respawned"] >= 1
        assert all(worker.alive for worker in coordinator._workers)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# static task verification
# ---------------------------------------------------------------------------

def _valid_task():
    return {"task_id": "task-1", "shard": 0, "attempt": 1,
            "payload": {"kind": "yannakakis", "deadline": None}}


def test_verify_cluster_task_accepts_well_formed_tasks():
    assert verify_cluster_task(_valid_task()) == []
    with_fault = dict(_valid_task(), fault={"kind": "sleep", "seconds": 0.1})
    assert verify_cluster_task(with_fault) == []


@pytest.mark.parametrize("corruption, fragment", [
    ({"task_id": ""}, "task_id"),
    ({"shard": "zero"}, "shard"),
    ({"attempt": 0}, "attempt"),
    ({"payload": None}, "payload"),
    ({"fault": {"kind": "segfault"}}, "segfault"),
    ({"fault": ["exit"]}, "plain dict"),
])
def test_verify_cluster_task_rejects_malformed_tasks(corruption, fragment):
    task = dict(_valid_task(), **corruption)
    problems = verify_cluster_task(task)
    assert problems and any(fragment in problem for problem in problems)


def test_verify_cluster_task_rejects_unpicklable_payloads():
    task = dict(_valid_task(),
                payload={"kind": "yannakakis", "callback": lambda: None})
    problems = verify_cluster_task(task)
    assert any("callable" in problem for problem in problems)


def test_first_dispatched_task_is_verified(monkeypatch):
    """The coordinator statically verifies the first task of every run; a
    corrupted fault directive dies by name before reaching a worker."""
    from repro.testing.faults import FaultPlan

    query = triangle_query()
    database = _database(query)
    engine = Engine(database, shards=2, executor="cluster")
    try:
        coordinator = engine.cluster_coordinator()
        plan = FaultPlan()
        # Sabotage the plan to emit an unknown directive kind.
        monkeypatch.setattr(plan, "task_fault",
                            lambda shard, attempt, speculative=False:
                            {"kind": "segfault"})
        coordinator.fault_plan = plan
        with pytest.raises(PlanVerificationError):
            engine.execute(query)
    finally:
        engine.close()
