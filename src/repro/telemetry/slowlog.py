"""A ring-buffered slow-query log with explicit drop accounting.

Every query slower than the configured threshold is recorded: tenant, query
name, elapsed seconds, outcome, row count, and — the reason this lives in the
telemetry package — the query's **trace id**, so ``GET /slow`` is a direct
index into the tracer's ring buffer (``GET /slow`` → pick a trace id →
``tracer.export_trace`` shows where the time went).

The buffer is bounded (oldest-out) and never truncates silently: evicting an
entry increments ``dropped``, which the stats document and the ``/slow``
response both expose, so "the log looks short" is always distinguishable
from "few queries were slow".
"""

from __future__ import annotations

import threading
import time
from collections import deque


class SlowQueryLog:
    """Threshold filter + bounded ring of slow-query records."""

    def __init__(self, threshold_seconds: float | None = 1.0,
                 capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("the slow-query log needs room for at least "
                             "one entry")
        self.threshold_seconds = threshold_seconds
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: deque[dict] = deque()
        self.recorded = 0
        self.dropped = 0

    def record(self, *, tenant: str, query: str, elapsed: float,
               trace_id: str = "", row_count: int | None = None,
               outcome: str = "completed") -> bool:
        """Record the query if it crossed the threshold; returns whether it
        did.  ``threshold_seconds=None`` disables the log entirely."""
        if self.threshold_seconds is None or elapsed < self.threshold_seconds:
            return False
        entry = {
            "tenant": tenant,
            "query": query,
            "elapsed": elapsed,
            "trace_id": trace_id,
            "row_count": row_count,
            "outcome": outcome,
            "at": time.time(),
        }
        with self._lock:
            self.recorded += 1
            while len(self._entries) >= self.capacity:
                self._entries.popleft()
                self.dropped += 1
            self._entries.append(entry)
        return True

    def entries(self) -> list[dict]:
        """Newest-last snapshot of the retained entries."""
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def stats(self) -> dict:
        with self._lock:
            return {
                "threshold_seconds": self.threshold_seconds,
                "capacity": self.capacity,
                "entries": len(self._entries),
                "recorded": self.recorded,
                "dropped": self.dropped,
            }
