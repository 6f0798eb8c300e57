"""Telemetry overhead on the warm serving workload: traced vs untraced.

The observability layer (span tracing, the metrics registry, the
cardinality profiler) instruments the hot path of every query — the
engine's phase spans, the evaluators' spans and the per-node
observed-cardinality recording all run inside ``Engine.execute``.  The
deal the telemetry PR makes is that all of it together costs at most 10%
on the workload the engine is optimized for: warm, plan-cache-hitting
repeated queries (the same mixed E2/E6/E9 family ``bench_engine.py``
times).

Asserted: bit-identical answers with tracing on and off, a nonzero trace
count when enabled (so the "enabled" loop demonstrably paid for real
instrumentation, not a disabled no-op), and ``traced / untraced`` wall
time ≤ ``MAX_OVERHEAD`` (best-of-``REPETITIONS`` loop timings, so one
scheduler hiccup cannot flip the verdict).  Timings are appended to the
JSON file named by ``$BENCH_TELEMETRY_JSON`` for the CI perf trajectory.
"""

from __future__ import annotations

import json
import os
import time

from repro.datagen import random_graph_database
from repro.engine import Engine
from repro.query.library import (
    four_cycle_projected,
    loomis_whitney_query,
    path_query,
    triangle_query,
)
from repro.telemetry import get_tracer, using_tracing

RUNS = 10
REPETITIONS = 5  # best-of, for noise immunity
MAX_OVERHEAD = 1.10
BACKEND = "columnar"


def _workload() -> list:
    shapes = [
        (four_cycle_projected(), 30, 10, 7),
        (path_query(3, free_variables=("X1", "X2")), 40, 10, 13),
        (triangle_query(), 40, 9, 11),
        (loomis_whitney_query(3), 24, 6, 29),
    ]
    return [(query, random_graph_database(query, size, domain, seed=seed,
                                          backend=BACKEND))
            for query, size, domain, seed in shapes]


def _persist_timings(entry: dict) -> None:
    path = os.environ.get("BENCH_TELEMETRY_JSON")
    if not path:
        return
    existing = {}
    if os.path.exists(path):
        with open(path) as handle:
            existing = json.load(handle)
    existing.update(entry)
    with open(path, "w") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)


def test_tracing_overhead_within_ten_percent(report_table):
    cases = _workload()
    engines = [Engine(database) for _, database in cases]
    prepared = [engine.prepare(query)
                for engine, (query, _) in zip(engines, cases)]

    def round_trip() -> list:
        return [p.execute().answer for p in prepared]

    def timed_loop() -> tuple[float, list]:
        start = time.perf_counter()
        for _ in range(RUNS):
            answers = round_trip()
        return time.perf_counter() - start, answers

    # Warm everything (plan caches, LP caches, profiler) under both modes
    # before any timed loop, so neither path pays one-time costs.
    with using_tracing(False):
        reference = round_trip()
    with using_tracing(True):
        round_trip()
        traces_before = get_tracer().stats()["traces"]

    # Interleave the two modes rep by rep so CPU-frequency drift over the
    # benchmark's lifetime lands on both equally, then take the best of
    # each; measuring the modes in separate back-to-back blocks shows the
    # drift as phantom overhead.
    untraced_time = traced_time = float("inf")
    untraced_answers = traced_answers = None
    for _ in range(REPETITIONS):
        with using_tracing(False):
            elapsed, untraced_answers = timed_loop()
            untraced_time = min(untraced_time, elapsed)
        with using_tracing(True):
            elapsed, traced_answers = timed_loop()
            traced_time = min(traced_time, elapsed)
    traces_after = get_tracer().stats()["traces"]

    for expected, off_answer, on_answer in zip(reference, untraced_answers,
                                               traced_answers):
        assert off_answer.rows == expected.rows
        assert on_answer.rows == expected.rows

    # The enabled loop really traced: every execute starts a fresh trace
    # (subject to the ring buffer retaining only the newest ones).
    assert traces_after > traces_before or \
        get_tracer().stats()["dropped_traces"] > 0

    requests = RUNS * len(cases)
    overhead = traced_time / untraced_time
    report_table(
        f"Telemetry: {requests} warm mixed requests per loop, best of "
        f"{REPETITIONS} (overhead {overhead:.3f}x, required <= "
        f"{MAX_OVERHEAD:.2f}x)",
        ["mode", "loop seconds", "per request (ms)"],
        [["tracing disabled", f"{untraced_time:.4f}",
          f"{1000 * untraced_time / requests:.2f}"],
         ["tracing enabled", f"{traced_time:.4f}",
          f"{1000 * traced_time / requests:.2f}"]])
    _persist_timings({"warm_workload": {
        "runs": RUNS,
        "requests": requests,
        "untraced_seconds": untraced_time,
        "traced_seconds": traced_time,
        "overhead": overhead,
    }})
    assert overhead <= MAX_OVERHEAD, (
        f"telemetry costs {overhead:.3f}x on the warm workload "
        f"(allowed {MAX_OVERHEAD:.2f}x)")
