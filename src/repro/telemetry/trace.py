"""Lightweight query tracing: spans, deterministic ids, explicit hops.

A *span* is one timed step of serving a query — the service request, the
engine's plan-cache lookup, an LP solve, a Yannakakis semijoin pass, a PANDA
proof step.  Spans form a tree:
each records its parent's id, and the tree for one request is a *trace*.

Design constraints, in order:

* **Determinism** — span ids are per-trace sequence numbers (``s1``,
  ``s2``, …) and trace ids a process-wide serial (``t1``, ``t2``, …), never
  random.
* **Bounded memory** — finished traces live in a ring buffer
  (:data:`DEFAULT_TRACE_CAPACITY` traces); evictions are *counted*
  (``dropped_traces``), never silent.
* **Closed exactly once** — ``finish()`` is idempotent (double finishes are
  counted, not applied), and the context-manager form closes on every exit
  path including exceptions, which it records as the span's status.

Timing uses ``time.perf_counter`` (CLOCK_MONOTONIC), monotonic within the
process.

Propagation is contextvar-based (``with tracer.span(...)`` makes the span
the ambient parent).  Contextvars do **not** cross thread-pool boundaries
on their own, so callers hop them explicitly: capture ``span.context()``
before the hop and wrap the work in ``tracer.attach(ctx)``.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.telemetry.metrics import Sample, get_registry

DEFAULT_TRACE_CAPACITY = 256

#: The ambient span of the current logical context: a :class:`Span`, a
#: :class:`SpanContext` (after an explicit ``attach``), or ``None``.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_current_span", default=None)


@dataclass(frozen=True)
class SpanContext:
    """The identity of a span, for crossing thread hops."""

    trace_id: str
    span_id: str


class Span:
    """One timed step; use as a context manager or finish manually."""

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name",
                 "attrs", "started", "ended", "status", "finished",
                 "_token")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: str,
                 parent_id: str | None, name: str,
                 attrs: dict | None) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.started = time.perf_counter()
        self.ended: float | None = None
        self.status = "ok"
        self.finished = False
        self._token = None

    def set(self, key: str, value) -> "Span":
        """Attach (or overwrite) one attribute; a no-op after ``finish``."""
        if not self.finished:
            self.attrs[key] = value
        return self

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def finish(self, status: str | None = None, **attrs) -> None:
        self._tracer._finish(self, status, attrs)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        status = None
        if exc_type is not None and self.status == "ok":
            status = f"error: {exc_type.__name__}"
        self.finish(status=status)
        return False

    def as_record(self) -> dict:
        """The span as a plain JSON-able dict."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.started,
            "end": self.ended,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class _TraceRecord:
    """The state of one trace: finished spans + open count."""

    __slots__ = ("trace_id", "spans", "open_spans", "serial")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.open_spans = 0
        #: The last span sequence number allocated in this trace.
        self.serial = 0


class Tracer:
    """The span factory and per-process trace store (ring-buffered)."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._records: OrderedDict[str, _TraceRecord] = OrderedDict()
        self.capacity = capacity
        self._trace_serial = 0
        self.dropped_traces = 0
        self.double_finishes = 0
        #: Finished spans whose trace had already been evicted — counted,
        #: never silently lost.
        self.orphan_spans = 0

    def span(self, name: str, attrs: dict | None = None) -> Span:
        """Open a span under the ambient span of the current context, or
        root a new trace here when there is none."""
        parent = _CURRENT.get()
        with self._lock:
            if parent is None:
                self._trace_serial += 1
                trace_id = f"t{self._trace_serial}"
                record = self._new_record_locked(trace_id)
            else:
                trace_id = parent.trace_id
                record = self._records.get(trace_id)
                if record is None:
                    record = self._new_record_locked(trace_id)
            span_id = self._next_id_locked(record)
            record.open_spans += 1
        return Span(self, trace_id, span_id,
                    None if parent is None else parent.span_id, name, attrs)

    def _new_record_locked(self, trace_id: str) -> _TraceRecord:
        record = _TraceRecord(trace_id)
        self._records[trace_id] = record
        while len(self._records) > self.capacity:
            _, evicted = self._records.popitem(last=False)
            self.dropped_traces += 1
            self.orphan_spans += max(0, evicted.open_spans)
        return record

    @staticmethod
    def _next_id_locked(record: _TraceRecord) -> str:
        record.serial += 1
        return f"s{record.serial}"

    def _finish(self, span: Span, status: str | None, attrs: dict) -> None:
        ended = time.perf_counter()
        with self._lock:
            if span.finished:
                self.double_finishes += 1
                return
            span.finished = True
            span.ended = ended
            if status is not None:
                span.status = status
            if attrs:
                span.attrs.update(attrs)
            record = self._records.get(span.trace_id)
            if record is None:
                self.orphan_spans += 1
                return
            record.spans.append(span.as_record())
            record.open_spans -= 1

    # ---------------------------------------------------------- propagation
    @contextmanager
    def attach(self, context: SpanContext):
        """Make ``context`` the ambient parent inside the block (explicit
        hop across a thread/executor boundary)."""
        token = _CURRENT.set(context)
        try:
            yield
        finally:
            _CURRENT.reset(token)

    # -------------------------------------------------------------- export
    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._records)

    def open_spans(self, trace_id: str | None = None) -> int:
        with self._lock:
            if trace_id is not None:
                record = self._records.get(trace_id)
                return record.open_spans if record is not None else 0
            return sum(record.open_spans for record in self._records.values())

    def export_trace(self, trace_id: str) -> dict | None:
        """The trace as a JSON-able document (spans sorted by start time,
        durations and start offsets precomputed)."""
        with self._lock:
            record = self._records.get(trace_id)
            if record is None:
                return None
            spans = [dict(doc) for doc in record.spans]
            open_spans = record.open_spans
        spans.sort(key=lambda doc: doc["start"])
        origin = spans[0]["start"] if spans else 0.0
        for doc in spans:
            doc["start_offset"] = doc["start"] - origin
            doc["duration"] = ((doc["end"] - doc["start"])
                               if doc.get("end") is not None else None)
        return {"trace_id": trace_id, "spans": spans,
                "open_spans": open_spans}

    def export_all(self) -> list[dict]:
        docs = [self.export_trace(tid) for tid in self.trace_ids()]
        return [doc for doc in docs if doc is not None]

    def stats(self) -> dict:
        """Ring-buffer and integrity counters (for ``/stats`` and tests)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "traces": len(self._records),
                "open_spans": sum(r.open_spans for r in self._records.values()),
                "dropped_traces": self.dropped_traces,
                "double_finishes": self.double_finishes,
                "orphan_spans": self.orphan_spans,
            }

    def reset(self) -> None:
        """Drop every trace and zero the integrity counters (tests only)."""
        with self._lock:
            self._records.clear()
            self.dropped_traces = 0
            self.double_finishes = 0
            self.orphan_spans = 0


#: The process-wide tracer every layer shares.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


#: The tracer's ``stats()`` keys sampled as ``telemetry.<key>``, with their
#: kinds: the buffered and open counts are levels, the rest only grow.
_TRACER_SAMPLED = {"traces": "gauge", "dropped_traces": "counter",
                   "open_spans": "gauge", "double_finishes": "counter",
                   "orphan_spans": "counter"}


def _tracer_samples() -> list[Sample]:
    stats = _TRACER.stats()
    return [Sample(f"telemetry.{key}", {}, stats[key], kind)
            for key, kind in _TRACER_SAMPLED.items()]


get_registry().register_source("tracer", _tracer_samples)

