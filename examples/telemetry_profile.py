"""The telemetry layer end to end: traces, metrics and the profiler.

One warm engine serves a few query shapes repeatedly while the unified
telemetry layer watches:

* every execution opens a **trace** — engine phase spans (statistics,
  LP solve, plan cache) around the execution-pass spans — exported here
  as an indented tree with per-span durations;
* the **cardinality profiler** compares, for every plan node, the
  polymatroid bound the optimizer *predicted* with the sizes the
  executions actually *observed* (``estimated_vs_observed``, the same
  report ``Engine.explain(analyze=True)`` embeds);
* the **metrics registry** renders the cross-layer counters in
  Prometheus text exposition format (what ``GET /metrics`` serves).

Run with:  python examples/telemetry_profile.py
"""

from repro.datagen import random_graph_database
from repro.engine import Engine
from repro.query import four_cycle_projected, path_query, triangle_query
from repro.telemetry import get_registry, get_tracer

RUNS = 5


def print_trace(trace: dict) -> None:
    children: dict[str | None, list[dict]] = {}
    for span in trace["spans"]:
        children.setdefault(span["parent_id"], []).append(span)

    def walk(parent_id: str | None, depth: int) -> None:
        for span in children.get(parent_id, []):
            duration = span["duration"]
            millis = f"{1000 * duration:.2f}ms" if duration is not None else "?"
            print(f"    {'  ' * depth}{span['name']} [{span['span_id']}] "
                  f"{millis} {span['attrs'] or ''}")
            walk(span["span_id"], depth + 1)

    print(f"  trace {trace['trace_id']}: {len(trace['spans'])} spans")
    walk(None, 0)


def main() -> None:
    queries = [triangle_query(), four_cycle_projected(),
               path_query(3, free_variables=("X1", "X2"))]

    print("=== one trace per query (cold run: plan build + LP solves) ===")
    engines = {}
    for query in queries:
        database = random_graph_database(query, size=80, domain=16, seed=11)
        engine = engines[query.name] = Engine(database)
        result = engine.execute(query)
        trace_id = get_tracer().trace_ids()[-1]
        print_trace(get_tracer().export_trace(trace_id))
        print(f"    -> {len(result.answer)} rows\n")

    # Warm repetitions: the plan cache serves every later run, and each
    # run folds its observed node sizes into the per-fingerprint profile.
    for _ in range(RUNS - 1):
        for query in queries:
            engines[query.name].execute(query)

    print("=== estimated vs observed, per plan node "
          f"(after {RUNS} executions) ===")
    for query in queries:
        engine = engines[query.name]
        profile = engine.prepare(query).plan.profile
        print(profile.describe())
        print()

    print("=== the same numbers, machine-readable "
          "(explain(analyze=True)) ===")
    query = queries[0]
    doc = engines[query.name].explain(query, analyze=True)
    for node in doc["analyze"]["estimated_vs_observed"]:
        print(f"  {node['node']:<28} estimated {node['estimated_rows']:>10.1f}"
              f"  observed(last) {node['observed_last']:>6}")

    print("\n=== GET /metrics (Prometheus exposition, excerpt) ===")
    # Plan-cache reuse (``engine.stats.plans_*``) and the LP layer's caches.
    text = get_registry().render_prometheus()
    for line in text.splitlines():
        if "repro_engine_stats_plans" in line or "repro_lp_" in line:
            print(f"  {line}")


if __name__ == "__main__":
    main()
