"""Admission control: bounded concurrency, bounded queueing, fast rejection.

Two nested limits govern every query:

* a **global** limit (``max_concurrent``) caps how many queries execute at
  once across all tenants — the engine work happens on a thread pool, so this
  is also the bound on concurrently-running worker threads;
* a **per-tenant** limit (``max_per_tenant``) stops one chatty tenant from
  occupying every global slot.

Waiting is bounded too: at most ``queue_depth`` queries may be queued behind
the global limit and ``tenant_queue_depth`` behind any one tenant's limit.
A query arriving past either bound is rejected *immediately* with a typed
:class:`~repro.service.errors.AdmissionRejectedError` — clients get fast
backpressure instead of unbounded latency.

The counts live in a :class:`~repro.telemetry.metrics.CounterTable`, and
every update happens on the event loop with no ``await`` between the
updates of one event, so a snapshot taken there holds the invariants the
concurrency tests assert:
``submitted == admitted + rejected_global + rejected_tenant`` and
``admitted == completed + in_flight + waiting``.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

from repro.service.errors import AdmissionRejectedError
from repro.telemetry.metrics import CounterTable


class AdmissionController:
    """Semaphore-backed two-level admission with bounded queues."""

    def __init__(self, max_concurrent: int = 8, max_per_tenant: int = 4,
                 queue_depth: int = 16, tenant_queue_depth: int = 8) -> None:
        if max_concurrent < 1 or max_per_tenant < 1:
            raise ValueError("admission limits must allow at least one query")
        self.max_concurrent = max_concurrent
        self.max_per_tenant = max_per_tenant
        self.queue_depth = queue_depth
        self.tenant_queue_depth = tenant_queue_depth
        self._global = asyncio.Semaphore(max_concurrent)
        self._per_tenant: dict[str, asyncio.Semaphore] = {}
        self._waiting_global = 0
        self._waiting_tenant: dict[str, int] = {}
        self.counters = CounterTable({
            "submitted": 0, "admitted": 0, "completed": 0,
            "rejected_global": 0, "rejected_tenant": 0,
            "in_flight": 0, "peak_in_flight": 0,
        })

    def _tenant_sem(self, tenant: str) -> asyncio.Semaphore:
        sem = self._per_tenant.get(tenant)
        if sem is None:
            sem = self._per_tenant[tenant] = asyncio.Semaphore(self.max_per_tenant)
        return sem

    @asynccontextmanager
    async def slot(self, tenant: str):
        """Hold one execution slot for ``tenant``; raises instead of queueing
        past the configured depths.

        The per-tenant semaphore is acquired *before* the global one, so a
        tenant already at its own limit queues (or rejects) without pinning a
        global slot that another tenant could use.
        """
        counters = self.counters
        counters.add("submitted")
        waiting_here = self._waiting_tenant.get(tenant, 0)
        if waiting_here >= self.tenant_queue_depth:
            counters.add("rejected_tenant")
            raise AdmissionRejectedError(
                f"tenant {tenant!r} already has {waiting_here} queries queued "
                f"(limit {self.tenant_queue_depth})", scope="tenant", tenant=tenant)
        if self._waiting_global >= self.queue_depth:
            counters.add("rejected_global")
            raise AdmissionRejectedError(
                f"{self._waiting_global} queries already queued globally "
                f"(limit {self.queue_depth})", scope="global", tenant=tenant)

        self._waiting_tenant[tenant] = waiting_here + 1
        self._waiting_global += 1
        acquired_tenant = acquired_global = False
        try:
            await self._tenant_sem(tenant).acquire()
            acquired_tenant = True
            await self._global.acquire()
            acquired_global = True
        finally:
            self._waiting_tenant[tenant] -= 1
            self._waiting_global -= 1
            if not acquired_global:
                # Cancelled (or failed) while queued: give back whatever we
                # did acquire so the slot accounting stays exact.
                if acquired_tenant:
                    self._tenant_sem(tenant).release()
        counters.add_many({"admitted": 1, "in_flight": 1})
        now = counters.snapshot()
        counters.add("peak_in_flight",
                     max(0, now["in_flight"] - now["peak_in_flight"]))
        try:
            yield
        finally:
            counters.add_many({"in_flight": -1, "completed": 1})
            self._global.release()
            self._tenant_sem(tenant).release()

    def waiting(self, tenant: str | None = None) -> int:
        """Currently queued queries — globally, or for one tenant."""
        if tenant is None:
            return self._waiting_global
        return self._waiting_tenant.get(tenant, 0)

    def stats(self) -> dict:
        """Counters plus the live queue depths (an internally consistent
        snapshot: taken on the event loop, where all updates happen)."""
        return {
            **self.counters.snapshot(),
            "waiting": self._waiting_global,
            "limits": {
                "max_concurrent": self.max_concurrent,
                "max_per_tenant": self.max_per_tenant,
                "queue_depth": self.queue_depth,
                "tenant_queue_depth": self.tenant_queue_depth,
            },
        }
