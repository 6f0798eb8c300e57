"""The LRU plan cache: canonical plan decisions, reusable across renamings.

The cache stores :class:`PlanRecipe` objects — a plan *decision* expressed in
the canonical variable space of :mod:`repro.engine.fingerprint` — keyed by
``(query fingerprint, statistics fingerprint, planner configuration)``.  A
recipe carries everything needed to rebuild an executable
:class:`~repro.optimizer.planner.QueryPlan` without touching the width
machinery: the plan kind, the winning decomposition's bags, the adaptive
plan's decomposition list and the cost figures, all with canonically named
variables so one entry serves every alpha-renaming of the query.

Build/hit/eviction counters live in a
:class:`~repro.telemetry.metrics.CounterTable` under the same
``<cache>_builds``/``<cache>_hits`` keys as the storage and LP layers, so
the engine reports reuse across all three cache layers uniformly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.optimizer.planner import PlanKind
from repro.telemetry.metrics import CounterTable


@dataclass(frozen=True)
class PlanRecipe:
    """One cached plan decision, in canonical variable space."""

    kind: PlanKind
    reason: str
    fhtw_width: float
    subw_width: float
    is_acyclic: bool
    is_free_connex: bool
    #: Bags of the winning static decomposition (``STATIC_TD`` only).
    best_bags: tuple[frozenset[str], ...]
    #: Bags of every enumerated free-connex decomposition (adaptive plans).
    decomposition_bags: tuple[tuple[frozenset[str], ...], ...]
    #: ``query digest x statistics digest`` — the entry's identity.
    fingerprint: str
    #: The entry's cardinality profile
    #: (:class:`repro.telemetry.profiler.CardinalityProfile`): estimated vs
    #: observed sizes per plan node, in canonical variable space.  Mutable
    #: telemetry riding inside a frozen decision — it accumulates across
    #: every execution (and every alpha-renaming) served from this entry,
    #: and is excluded from the recipe's value semantics.
    profile: object | None = field(default=None, repr=False, compare=False)


class LruDict:
    """A bounded mapping with least-recently-used eviction.

    The one LRU policy in the engine: the plan cache and the engine's
    measured-statistics memo both delegate here, so eviction semantics
    cannot drift between them.

    Operations are individually atomic (an internal lock): the multi-tenant
    service executes queries of one engine from several worker threads at
    once, and ``OrderedDict``'s move-to-end bookkeeping is not safe under
    concurrent mutation.  Lookups of a missing key and concurrent ``put`` of
    the same key remain benign races (the last writer wins, which for
    idempotent recipe/statistics entries is the same value).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("an LRU cache needs capacity for at least one entry")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        """The entry for ``key`` (marked most recently used), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> int:
        """Store ``key -> value``; returns how many entries were evicted."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evictions = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evictions += 1
            return evictions

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class PlanCache:
    """A bounded LRU mapping plan-cache keys to :class:`PlanRecipe` entries."""

    def __init__(self, capacity: int = 128) -> None:
        self._entries = LruDict(capacity)
        self.stats = CounterTable(
            {"plan_builds": 0, "plan_hits": 0, "plan_evictions": 0})

    @property
    def capacity(self) -> int:
        return self._entries.capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple) -> PlanRecipe | None:
        """The cached recipe for ``key`` (marks it most recently used)."""
        recipe = self._entries.get(key)
        if recipe is not None:
            self.stats.add("plan_hits")
        return recipe

    def put(self, key: tuple, recipe: PlanRecipe) -> None:
        """Store a freshly built recipe, evicting the least recently used."""
        evictions = self._entries.put(key, recipe)
        self.stats.add_many({"plan_builds": 1, "plan_evictions": evictions})

    def clear(self) -> None:
        """Drop every entry (counters are preserved — they tell the story)."""
        self._entries.clear()

    def cache_stats(self) -> dict[str, int]:
        """Build/hit/eviction counters plus the current entry count."""
        return {**self.stats.snapshot(), "plan_entries": len(self._entries)}
