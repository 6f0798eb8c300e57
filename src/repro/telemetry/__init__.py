"""Unified telemetry: tracing, the metrics registry, the cardinality
profiler and the slow-query log.

The four modules import only the standard library, so every layer of the
engine can import :mod:`repro.telemetry` (the LP, kernel and storage layers
keep their counters in its tables) without cycles.
"""

from repro.telemetry.metrics import (
    CounterTable,
    MetricsRegistry,
    Sample,
    counter_delta,
    get_registry,
)
from repro.telemetry.profiler import CardinalityProfile, NodeProfile, plan_nodes
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.trace import (
    NULL_SPAN,
    Span,
    SpanContext,
    Tracer,
    get_tracer,
    set_tracing_enabled,
    tracing_enabled,
    using_tracing,
)

__all__ = [
    "NULL_SPAN",
    "CardinalityProfile",
    "CounterTable",
    "MetricsRegistry",
    "NodeProfile",
    "Sample",
    "SlowQueryLog",
    "Span",
    "SpanContext",
    "Tracer",
    "counter_delta",
    "get_registry",
    "get_tracer",
    "plan_nodes",
    "set_tracing_enabled",
    "tracing_enabled",
    "using_tracing",
]
