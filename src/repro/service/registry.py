"""Per-tenant engine registry: isolated databases, plan caches and stats.

Tenancy in the service is engine-granular: every tenant owns a full
:class:`~repro.engine.Engine` (its database, plan cache, measured-statistics
memo and :class:`~repro.engine.core.EngineStats`), so one tenant's cached
plans can never serve — or leak query shapes to — another tenant.  The
concurrency tests assert exactly this: after a mixed workload, each tenant's
``plan_builds`` equals the number of distinct query shapes *that tenant*
submitted.

The registry itself is a small locked dict; engines are built here so every
creation path (in-process API, HTTP front, tests) applies the same defaults.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.engine import Engine
from repro.relational.database import Database
from repro.service.errors import DuplicateTenantError, UnknownTenantError
from repro.telemetry.metrics import Sample


@dataclass
class Tenant:
    """One tenant: a name, its engine, and service-level counters."""

    name: str
    engine: Engine
    #: Service-level outcome counters (engine-level detail lives in
    #: ``engine.stats``): queries that returned, failed, or were cancelled.
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def bump(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def outcomes(self) -> dict[str, int]:
        with self._lock:
            return {"completed": self.completed, "failed": self.failed,
                    "cancelled": self.cancelled, "rejected": self.rejected}

    def snapshot(self) -> dict:
        """The tenant's slice of the ``/stats`` document."""
        return {
            "outcomes": self.outcomes(),
            "engine": self.engine.stats.as_dict(),
            "caches": self.engine.plan_cache.cache_stats(),
            "database": self.engine.database.summary(),
        }

    def metrics_samples(self) -> list[Sample]:
        """This tenant's counters as registry samples, labelled by tenant.

        Reads the same outcome counters and plan-cache counters, under the
        same keys, that :meth:`snapshot` reports, so ``/metrics`` and
        ``/stats`` agree.
        """
        labels = {"tenant": self.name}
        samples = [Sample(f"service.tenant.{key}", labels, value)
                   for key, value in self.outcomes().items()]
        samples += [Sample(f"engine.{key}", labels, value,
                           "gauge" if key == "plan_entries" else "counter")
                    for key, value in self.engine.plan_cache.cache_stats().items()]
        return samples


class TenantRegistry:
    """Thread-safe name → :class:`Tenant` mapping."""

    def __init__(self) -> None:
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def create(self, name: str, database: Database, *,
               plan_cache_size: int = 128,
               measure_degrees: bool = False) -> Tenant:
        """Register ``name`` with a fresh engine over ``database``."""
        engine = Engine(database, plan_cache_size=plan_cache_size,
                        measure_degrees=measure_degrees)
        tenant = Tenant(name=name, engine=engine)
        with self._lock:
            if name in self._tenants:
                raise DuplicateTenantError(f"tenant {name!r} already exists")
            self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        return tenant

    def drop(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.pop(name, None)
        if tenant is None:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        return tenant

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def tenants(self) -> list[Tenant]:
        """A snapshot list of the live tenant objects."""
        with self._lock:
            return list(self._tenants.values())

    def snapshot(self) -> dict[str, dict]:
        """Per-tenant stats documents, keyed by tenant name."""
        with self._lock:
            tenants = list(self._tenants.values())
        return {tenant.name: tenant.snapshot() for tenant in tenants}
