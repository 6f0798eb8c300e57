"""Per-layer timing for the ``--trace 1`` run, from the benchmark's own files.

:class:`LayerTracer` replaces public functions at the import site their
callers use (``repro.engine.core.estimate_costs``, the ``kernels.join_encoded``
module attribute, ``Engine.prepare`` ...) with timing wrappers.  A per-thread
stack of open calls turns inclusive times into self times: a call's self time
is its duration minus the time of the wrapped calls it made on the same
thread.  The program's own tracer and counters are left as shipped; its public
counters are read before and after the traced phase.

Every metric name is ``<module>.<metric>``.  Times are milliseconds per timed
operation; counts are per run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

#: metric stem -> the import sites wrapped for it (``module:attribute`` or
#: ``module:Class.method``).  Several sites may feed one stem.
TARGETS: dict[str, tuple[str, ...]] = {
    "panda.adaptive": ("repro.optimizer.planner:evaluate_adaptive",),
    "panda.ddr": ("repro.panda.adaptive:evaluate_ddr",),
    "panda.compose": ("repro.panda.executor:compose",),
    "relational.kernel_join": ("repro.relational.kernels:join_encoded",),
    "relational.kernel_semijoin": ("repro.relational.kernels:semijoin_keep",),
    "relational.kernel_wcoj": ("repro.relational.kernels:wcoj",),
    "relational.kernel_distinct": ("repro.relational.kernels:distinct_encoded",),
    "algorithms.generic_join": ("repro.algorithms.static_plan:generic_join",),
    "algorithms.static_plan": ("repro.optimizer.planner:evaluate_static_plan",),
    "algorithms.yannakakis": ("repro.optimizer.planner:evaluate_yannakakis",),
    "optimizer.estimate": ("repro.engine.core:estimate_costs",),
    "optimizer.choose": ("repro.engine.core:choose_plan",),
    "lp.solve": ("repro.lp.model:linprog",),
    "flows.shannon_flow": ("repro.panda.executor:find_shannon_flow",),
    "flows.proof_sequence": ("repro.panda.executor:construct_proof_sequence",),
    "analysis.verify": ("repro.engine.core:verify_recipe",),
    "stats.collect": ("repro.engine.core:collect_statistics",),
    "engine.prepare": ("repro.engine.core:Engine.prepare",),
    "engine.execute": ("repro.engine.core:Engine._execute_plan",),
    "service.handle": ("repro.service.core:QueryService.handle",),
    "service.query": ("repro.service.core:QueryService.query",),
    "service.create_tenant": ("repro.service.core:database_from_payload",
                              "repro.service.core:QueryService.create_tenant"),
}

#: Stems whose time is reported as self time; the rest report inclusive time.
SELF_TIMED = frozenset({"engine.prepare", "engine.execute", "service.handle"})

#: Stems whose call count is a metric of its own (``<stem>_calls``).
COUNTED = frozenset({"panda.compose", "lp.solve"})

#: Which workload must call each stem at least once; a stem its workload never
#: calls means a wrapper sits on an alias no caller uses.
EXPECTED_ON = {
    "panda.adaptive": "adaptive_hard", "panda.ddr": "adaptive_hard",
    "panda.compose": "adaptive_hard",
    "relational.kernel_join": "join_large",
    "relational.kernel_semijoin": "join_large",
    "relational.kernel_wcoj": "join_large",
    "relational.kernel_distinct": "serve_http_rw",
    "algorithms.generic_join": "join_large",
    "algorithms.static_plan": "join_large",
    "algorithms.yannakakis": "join_large",
    "optimizer.estimate": "plan_cold", "optimizer.choose": "plan_cold",
    "lp.solve": "plan_cold", "flows.shannon_flow": "plan_cold",
    "flows.proof_sequence": "plan_cold", "analysis.verify": "plan_cold",
    "stats.collect": "plan_cold",
    "engine.prepare": "serve_http_rw", "engine.execute": "serve_http_rw",
    "service.handle": "serve_http_rw", "service.query": "serve_http_rw",
    "service.create_tenant": "serve_http_rw",
}


def counter_snapshot() -> dict[str, float]:
    """The program's public process-wide counters, flattened."""
    from repro.lp.model import lp_cache_stats
    from repro.relational.kernels import kernel_stats
    from repro.relational.storage import storage_stats
    from repro.telemetry.metrics import get_registry

    registry = get_registry()
    flat: dict[str, float] = {}
    for prefix, stats in (("lp", lp_cache_stats()), ("kernel", kernel_stats()),
                          ("storage", storage_stats())):
        for event, count in stats.items():
            flat[f"{prefix}.{event}"] = count
    for event in ("plans_built", "plans_reused"):
        flat[f"engine.{event}"] = registry.value(f"engine.stats.{event}")
    return flat


def _resolve(site: str):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class LayerTracer:
    """Timing wrappers over :data:`TARGETS`, installed as a context manager."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = dict.fromkeys(TARGETS, 0)
        self.total: dict[str, float] = dict.fromkeys(TARGETS, 0.0)
        self.self_time: dict[str, float] = dict.fromkeys(TARGETS, 0.0)
        self.work: dict[str, int] = {"intermediate_tuples": 0,
                                     "max_intermediate": 0}
        self._stacks = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._counters_before: dict[str, float] = {}

    # --------------------------------------------------------------- install
    def __enter__(self) -> "LayerTracer":
        for stem, sites in TARGETS.items():
            for site in sites:
                owner, attribute = _resolve(site)
                original = inspect.getattr_static(owner, attribute)
                self._patched.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(stem, original))
        self.reset()
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def reset(self) -> None:
        """Zero the table and take the counter baseline (start of timing)."""
        with self._lock:
            for stem in TARGETS:
                self.calls[stem] = 0
                self.total[stem] = 0.0
                self.self_time[stem] = 0.0
            self.work = {"intermediate_tuples": 0, "max_intermediate": 0}
            self._counters_before = counter_snapshot()

    def _stack(self) -> list:
        stack = getattr(self._stacks, "frames", None)
        if stack is None:
            stack = self._stacks.frames = []
        return stack

    def _enter(self) -> list:
        frame = [time.perf_counter(), 0.0]  # start, time of wrapped children
        self._stack().append(frame)
        return frame

    def _leave(self, stem: str, frame: list) -> None:
        elapsed = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        with self._lock:
            self.calls[stem] += 1
            self.total[stem] += elapsed
            self.self_time[stem] += elapsed - frame[1]

    def _observe(self, stem: str, result) -> None:
        counter = getattr(result, "counter", None)
        if stem != "engine.execute" or counter is None:
            return
        with self._lock:
            self.work["intermediate_tuples"] += counter.intermediate_tuples
            self.work["max_intermediate"] = max(self.work["max_intermediate"],
                                                counter.max_intermediate)

    def _wrap(self, stem: str, original):
        if inspect.iscoroutinefunction(original):
            # Sound for one request at a time: nothing else wrapped runs on
            # the event-loop thread while the awaited call is suspended.
            @functools.wraps(original)
            async def traced_async(*args, **kwargs):
                frame = self._enter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    self._leave(stem, frame)
            return traced_async

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._leave(stem, frame)
            self._observe(stem, result)
            return result
        return traced

    # ---------------------------------------------------------------- report
    def table(self) -> dict:
        """Raw totals (seconds, calls, counter deltas), mergeable across
        processes by :func:`merge_tables`."""
        after = counter_snapshot()
        counters = {key: after.get(key, 0) - self._counters_before.get(key, 0)
                    for key in set(after) | set(self._counters_before)}
        with self._lock:
            return {"calls": dict(self.calls), "total": dict(self.total),
                    "self": dict(self.self_time), "work": dict(self.work),
                    "counters": counters}


def merge_tables(first: dict, second: dict) -> dict:
    """Add two :meth:`LayerTracer.table` results (client + server process)."""
    merged = {}
    for part in ("calls", "total", "self", "counters"):
        keys = set(first[part]) | set(second[part])
        merged[part] = {key: first[part].get(key, 0) + second[part].get(key, 0)
                        for key in keys}
    merged["work"] = {
        "intermediate_tuples": (first["work"]["intermediate_tuples"]
                                + second["work"]["intermediate_tuples"]),
        "max_intermediate": max(first["work"]["max_intermediate"],
                                second["work"]["max_intermediate"]),
    }
    return merged


def _ratio(hits: float, attempts: float) -> float:
    return hits / attempts if attempts else 0.0


def layer_metrics(table: dict, operations: int,
                  client_seconds: float = 0.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from a merged table.

    ``client_seconds`` is the HTTP client's total request latency, from which
    the transport's own share is derived.
    """
    per_op = 1000.0 / operations
    metrics: dict[str, tuple[float, str]] = {}
    for stem in TARGETS:
        if stem == "service.query":
            continue
        seconds = (table["self"] if stem in SELF_TIMED else table["total"])[stem]
        metrics[f"{stem}_ms"] = (seconds * per_op, "ms")
        if stem in COUNTED:
            metrics[f"{stem}_calls"] = (table["calls"][stem], "count")

    engine_time = (table["total"]["engine.prepare"]
                   + table["total"]["engine.execute"])
    service_query = table["total"]["service.query"]
    metrics["service.query_wait_ms"] = (
        max(service_query - engine_time, 0.0) * per_op, "ms")
    metrics["http.self_ms"] = (
        max(client_seconds - table["total"]["service.handle"], 0.0) * per_op,
        "ms")

    def counted(prefix: str, suffix: str) -> float:
        return sum(value for key, value in table["counters"].items()
                   if key.startswith(prefix) and key.endswith(suffix))

    index_hits, index_builds = counted("storage.", "_hits"), counted("storage.", "_builds")
    lp_hits, lp_builds = counted("lp.", "_hits"), counted("lp.", "_builds")
    counters = table["counters"]
    plan_hits = counters.get("engine.plans_reused", 0)
    plan_builds = counters.get("engine.plans_built", 0)
    metrics.update({
        "relational.kernel_fallbacks": (counted("kernel.", "_fallbacks"), "count"),
        "relational.index_hits": (index_hits, "count"),
        "relational.index_builds": (index_builds, "count"),
        "relational.index_hit_ratio": (_ratio(index_hits, index_hits + index_builds),
                                       "ratio"),
        "relational.intermediate_tuples": (table["work"]["intermediate_tuples"],
                                           "count"),
        "relational.max_intermediate": (table["work"]["max_intermediate"], "count"),
        "lp.cache_hit_ratio": (_ratio(lp_hits, lp_hits + lp_builds), "ratio"),
        "engine.plan_hits": (plan_hits, "count"),
        "engine.plan_builds": (plan_builds, "count"),
        "engine.plan_cache_hit_ratio": (_ratio(plan_hits, plan_hits + plan_builds),
                                        "ratio"),
    })
    return metrics


def uncalled(table: dict, workload: str) -> list[str]:
    """Stems assigned to ``workload`` that the traced phase never called."""
    return sorted(stem for stem, owner in EXPECTED_ON.items()
                  if owner == workload and not table["calls"][stem])
