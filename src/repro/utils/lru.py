"""A bounded, thread-safe mapping with least-recently-used eviction."""

from __future__ import annotations

import threading
from collections import OrderedDict


class LruDict:
    """A bounded mapping with least-recently-used eviction.

    The one LRU policy in the library: the engine's plan cache and
    measured-statistics memo and the LP layer's
    :class:`~repro.lp.model.BoundedCache` memos all delegate here, so
    eviction semantics cannot drift between them.

    Operations are individually atomic (an internal lock): the multi-tenant
    service executes queries from several worker threads at once, and
    ``OrderedDict``'s move-to-end bookkeeping is not safe under concurrent
    mutation — an unlocked ``get`` followed by ``move_to_end`` raises
    ``KeyError`` when a concurrent ``put`` evicts the key in between.
    Lookups of a missing key and concurrent ``put`` of the same key remain
    benign races (the last writer wins, which for idempotent memo entries is
    the same value).
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
