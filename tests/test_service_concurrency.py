"""Concurrency battery for the multi-tenant query service.

The core guarantees under concurrent load:

* **correctness** — N async clients hammering ≥3 tenants with a mixed
  workload get *bit-identical* answers to a serial engine run per tenant;
* **isolation** — each tenant's plan cache sees only that tenant's query
  shapes (no cross-tenant hits, builds equal distinct shapes);
* **accounting** — admission counters balance exactly and
  :class:`~repro.engine.core.EngineStats` loses no increments when two
  executions finish simultaneously (the historical read-modify-write race).
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.datagen import random_graph_database
from repro.engine import Engine
from repro.engine.core import EngineStats
from repro.lp import model as lp_model
from repro.telemetry import CounterTable
from repro.query import (
    four_cycle_projected,
    path_query,
    triangle_query,
    two_path_projected,
)
from repro.service import (
    AdmissionRejectedError,
    QueryService,
    ServiceConfig,
)

#: The mixed workload: a cyclic WCOJ/adaptive shape, an acyclic Yannakakis
#: shape, and another cyclic shape — three distinct plan-cache entries.
WORKLOAD = (four_cycle_projected(), path_query(3), triangle_query())


def _tenant_databases(backend: str | None = None):
    """Three tenants over structurally different random databases."""
    databases = {}
    for index, name in enumerate(("acme", "globex", "initech")):
        databases[name] = random_graph_database(
            four_cycle_projected(), size=60 + 10 * index, domain=14 + index,
            seed=7 + index, backend=backend)
        # The path query needs R1..R3; reuse the same edge sets under the
        # names every workload query mentions.
        db = databases[name]
        for i, source in enumerate(("R", "S", "T"), start=1):
            db.add(db[source].copy(), name=f"R{i}")
    return databases


def _serial_answers(databases):
    """Ground truth: one fresh serial engine per tenant, same workload."""
    answers = {}
    for name, db in databases.items():
        engine = Engine(db.copy())
        for query in WORKLOAD:
            result = engine.execute(query)
            answers[name, query.name] = (result.answer.columns,
                                         result.answer.rows)
    return answers


def test_mixed_workload_matches_serial_engine_bit_for_bit():
    databases = _tenant_databases(backend="columnar")
    expected = _serial_answers(databases)
    clients, rounds = 8, 3

    async def main():
        service = QueryService(ServiceConfig(max_concurrent=6, max_per_tenant=4,
                                             queue_depth=200,
                                             tenant_queue_depth=100))
        for name, db in databases.items():
            service.create_tenant(name, db)

        async def client(client_id: int):
            received = []
            names = sorted(databases)
            for round_no in range(rounds):
                tenant = names[(client_id + round_no) % len(names)]
                query = WORKLOAD[(client_id + round_no) % len(WORKLOAD)]
                result = await service.query(tenant, query)
                received.append((tenant, query.name,
                                 result.answer.columns, result.answer.rows))
            return received

        results = await asyncio.gather(*(client(i) for i in range(clients)))
        await service.shutdown()
        return service, [item for batch in results for item in batch]

    service, observed = asyncio.run(main())
    assert len(observed) == clients * rounds
    for tenant, query_name, columns, rows in observed:
        exp_columns, exp_rows = expected[tenant, query_name]
        assert columns == exp_columns
        assert rows == exp_rows


def test_plan_caches_are_tenant_isolated():
    databases = _tenant_databases()

    async def main():
        service = QueryService(ServiceConfig(max_concurrent=4))
        for name, db in databases.items():
            service.create_tenant(name, db)
        # acme sees all three shapes twice; globex sees one shape four times;
        # initech sees two shapes once each.
        jobs = []
        for query in WORKLOAD * 2:
            jobs.append(service.query("acme", query))
        for _ in range(4):
            jobs.append(service.query("globex", triangle_query()))
        jobs.append(service.query("initech", path_query(3)))
        jobs.append(service.query("initech", two_path_projected()))
        await asyncio.gather(*jobs)
        await service.shutdown()
        return service

    service = asyncio.run(main())
    caches = {name: service.registry.get(name).engine.plan_cache.cache_stats()
              for name in databases}
    # builds == the number of distinct shapes *that tenant* submitted: a
    # shape another tenant already planned still builds here (no sharing).
    assert caches["acme"]["plan_builds"] == 3
    assert caches["acme"]["plan_hits"] == 3
    assert caches["globex"]["plan_builds"] == 1
    assert caches["globex"]["plan_hits"] == 3
    assert caches["initech"]["plan_builds"] == 2
    assert caches["initech"]["plan_hits"] == 0
    # Engine-level stats agree with the cache counters.
    for name, cache in caches.items():
        stats = service.registry.get(name).engine.stats
        assert stats.plans_built == cache["plan_builds"]
        assert stats.plans_reused == cache["plan_hits"]


def test_admission_counters_balance_after_mixed_outcomes():
    databases = _tenant_databases()

    async def main():
        service = QueryService(ServiceConfig(
            max_concurrent=2, max_per_tenant=1,
            queue_depth=3, tenant_queue_depth=2))
        for name, db in databases.items():
            service.create_tenant(name, db)

        async def one(tenant, query):
            try:
                await service.query(tenant, query)
                return "ok"
            except AdmissionRejectedError as exc:
                return f"rejected-{exc.scope}"

        names = sorted(databases)
        outcomes = await asyncio.gather(
            *(one(names[i % 3], WORKLOAD[i % 3]) for i in range(24)))
        await service.shutdown()
        return service, outcomes

    service, outcomes = asyncio.run(main())
    stats = service.admission.stats()
    assert stats["submitted"] == 24
    assert (stats["submitted"]
            == stats["admitted"] + stats["rejected_global"]
            + stats["rejected_tenant"])
    assert stats["completed"] == stats["admitted"] == outcomes.count("ok")
    assert stats["in_flight"] == 0 and stats["waiting"] == 0
    assert 0 < stats["peak_in_flight"] <= 2
    rejected = [o for o in outcomes if o.startswith("rejected")]
    assert stats["rejected_global"] + stats["rejected_tenant"] == len(rejected)
    # Tenant-level outcome counters agree with what clients observed.
    totals = service.stats()["totals"]
    assert totals["completed"] == outcomes.count("ok")
    assert totals["rejected"] == len(rejected)


def test_admission_fast_rejects_past_queue_depth():
    async def main():
        service = QueryService(ServiceConfig(
            max_concurrent=1, max_per_tenant=1,
            queue_depth=1, tenant_queue_depth=1))
        service.create_tenant(
            "acme", random_graph_database(triangle_query(), size=200,
                                          domain=25, seed=3))
        results = await asyncio.gather(
            *(service.query("acme", triangle_query()) for _ in range(6)),
            return_exceptions=True)
        await service.shutdown()
        return results

    results = asyncio.run(main())
    rejections = [r for r in results if isinstance(r, AdmissionRejectedError)]
    completions = [r for r in results if not isinstance(r, Exception)]
    assert completions, "at least one query must be admitted"
    assert rejections, "a queue of depth 1 must fast-reject a burst of 6"
    assert len(completions) + len(rejections) == 6
    for exc in rejections:
        assert exc.scope in ("global", "tenant")


# ---------------------------------------------------------------------------
# the EngineStats aggregation race (regression)
# ---------------------------------------------------------------------------

def test_engine_stats_double_finish_is_atomic():
    """Two executions finishing at the same instant must both be counted.

    Before stats updates went through :meth:`EngineStats.bump`, the
    ``executions += 1`` read-modify-write could lose one of two simultaneous
    finishes.  A barrier forces maximal interleaving every iteration; the
    totals must come out exact.  A bare :class:`CounterTable`, the store
    under every layer's counters, gets the same interleaving.
    """
    stats = EngineStats()
    table = CounterTable()
    iterations, workers = 300, 2
    barrier = threading.Barrier(workers)

    def finisher():
        for _ in range(iterations):
            barrier.wait()
            stats.bump(executions=1, plans_reused=1,
                       wall_time_seconds=0.25)
            table.add("hits")
            table.add_many({"builds": 1, "index_builds": 1, "seconds": 0.25})

    threads = [threading.Thread(target=finisher) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    snapshot = stats.as_dict()
    assert snapshot["executions"] == iterations * workers
    assert snapshot["plans_reused"] == iterations * workers
    assert snapshot["wall_time_seconds"] == pytest.approx(0.25 * iterations * workers)
    assert table.snapshot() == {"hits": iterations * workers,
                                "builds": iterations * workers,
                                "index_builds": iterations * workers,
                                "seconds": pytest.approx(0.25 * iterations * workers)}


def test_engine_stats_snapshot_is_consistent_under_writers():
    """``as_dict`` snapshots under the same lock writers use: every snapshot
    must show the paired counters equal (they only ever move together).  The
    same holds for a bare :class:`CounterTable`'s ``add_many`` batches."""
    stats = EngineStats()
    table = CounterTable()
    stop = threading.Event()
    inconsistencies = []

    def writer():
        while not stop.is_set():
            stats.bump(executions=1, plans_reused=1)
            table.add_many({"builds": 1, "hits": 1})

    def reader():
        for _ in range(2000):
            snap = stats.as_dict()
            if snap["executions"] != snap["plans_reused"]:
                inconsistencies.append(snap)
            counts = table.snapshot()
            if counts.get("builds") != counts.get("hits"):
                inconsistencies.append(counts)

    writer_thread = threading.Thread(target=writer)
    reader_thread = threading.Thread(target=reader)
    writer_thread.start()
    reader_thread.start()
    reader_thread.join()
    stop.set()
    writer_thread.join()
    assert not inconsistencies



# ---------------------------------------------------------------------------
# the LP memos' LRU race (regression)
# ---------------------------------------------------------------------------

class _HookedKey:
    """A cache key that runs ``hook`` on its ``on_hash``-th hash after
    :meth:`arm`: a way to stop a thread between two dictionary steps."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.hashes = 0
        self.hook = None
        self.on_hash = 0

    def arm(self, hook, on_hash: int) -> None:
        self.hashes, self.hook, self.on_hash = 0, hook, on_hash

    def __hash__(self) -> int:
        self.hashes += 1
        if self.hook is not None and self.hashes == self.on_hash:
            self.hook()
        return hash(self.name)

    def __eq__(self, other) -> bool:
        return isinstance(other, _HookedKey) and other.name == self.name


def test_lp_memo_lookup_survives_a_concurrent_eviction(monkeypatch):
    """A store on another worker thread that evicts the key a lookup has just
    found must wait for that lookup.

    ``BoundedCache.lookup`` finds the key, then marks it most recently used,
    and each step hashes the probe (an equal key, not the stored object).
    The probe's second hash falls between the two steps, and there it starts
    a store of another key on a second thread and gives it half a second to
    finish.  Without the LRU's lock that store evicts the key (capacity 1) and
    the lookup raises ``KeyError``, which the service reports as a failed
    query.  A random hammer hits this window about once per 100k lookups, so
    the interleaving is forced instead, as the barrier forces it above.
    """
    monkeypatch.setattr(lp_model, "LP_STATS", CounterTable())
    monkeypatch.setattr(lp_model, "_CACHE_CLEARERS", [])
    cache = lp_model.BoundedCache("memo", 1)
    probe, evictor = _HookedKey("found"), _HookedKey("evictor")
    cache.store(_HookedKey("found"), "plan")
    storer = threading.Thread(target=cache.store, args=(evictor, "other"))

    def evict_meanwhile():
        storer.start()
        storer.join(timeout=0.5)

    probe.arm(evict_meanwhile, on_hash=2)
    assert cache.lookup(probe) == "plan"
    storer.join(timeout=30)
    assert not storer.is_alive()
    assert cache.lookup(evictor) == "other"
    assert cache.lookup(probe) is None  # evicted after the lookup
    assert lp_model.LP_STATS.snapshot() == {"memo_builds": 2, "memo_hits": 2}
