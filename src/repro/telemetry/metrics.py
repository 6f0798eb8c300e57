"""One counter store for every layer, and the registry that exposes it.

Every layer counts into a :class:`CounterTable`: the LP substrate
(:func:`repro.lp.model.lp_cache_stats`), the vectorized kernels
(:func:`repro.relational.kernels.kernel_stats`), each storage backend and
their process-wide sum (:func:`repro.relational.storage.storage_stats`), the
plan cache, and :class:`~repro.engine.core.EngineStats` with its
process-wide totals.

The process-wide tables belong to the :class:`MetricsRegistry`
(:meth:`MetricsRegistry.table`), which samples each one under its prefix
with the key verbatim: the LP table's ``region_builds`` is
``lp.region_builds``, the kernels' ``join_kernels`` is
``kernel.join_kernels``.  Per-object tables (a tenant's plan cache) and
structures that are not tables (the tracer, admission control) join through
pull sources (``register_source(name, collect, owner=...)``); ``owner`` is
held by weak reference, so a dropped service never leaks a dead collector.
:meth:`MetricsRegistry.render_prometheus` emits the Prometheus text format
(dots become underscores under a ``repro_`` prefix) for ``GET /metrics``.

Because ``/metrics`` samples the same tables, under the same keys, that
``/stats`` reports, the two endpoints agree by construction — the telemetry
tests assert it.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Iterable, Mapping, NamedTuple


class Sample(NamedTuple):
    """One scraped value: name, label dict, value, ``counter``/``gauge``."""

    name: str
    labels: dict
    value: float
    kind: str = "counter"


def counter_delta(after: Mapping[str, float],
                  before: Mapping[str, float]) -> dict[str, float]:
    """The nonzero movements from counter snapshot ``before`` to ``after``."""
    moved = {event: count - before.get(event, 0)
             for event, count in after.items()}
    return {event: delta for event, delta in moved.items() if delta}


class CounterTable:
    """A lock-guarded ``dict[str, int | float]`` of event counts.

    Every update is atomic: :meth:`add` moves one key, :meth:`add_many` a
    whole batch under one acquisition, so a snapshot never sees half a
    batch.  Zero amounts are skipped and never create a key.
    """

    def __init__(self, initial: Mapping[str, int | float] | None = None) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int | float] = dict(initial or {})

    def add(self, key: str, amount: int | float = 1) -> None:
        if amount:
            with self._lock:
                self._counts[key] = self._counts.get(key, 0) + amount

    def add_many(self, deltas: Mapping[str, int | float]) -> None:
        with self._lock:
            for key, amount in deltas.items():
                if amount:
                    self._counts[key] = self._counts.get(key, 0) + amount

    def snapshot(self) -> dict[str, int | float]:
        with self._lock:
            return dict(self._counts)

    def delta(self, before: Mapping[str, int | float]) -> dict[str, int | float]:
        """The nonzero movements since a :meth:`snapshot`."""
        return counter_delta(self.snapshot(), before)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()


class MetricsRegistry:
    """Process-wide counter tables plus weakly-owned pull sources."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: dict[str, CounterTable] = {}
        #: name → (owner weakref | None, collect callable).
        self._sources: dict[str, tuple[weakref.ref | None,
                                       Callable[[], Iterable[Sample]]]] = {}

    def table(self, prefix: str) -> CounterTable:
        """The process-wide table sampled as ``<prefix>.<key>``."""
        with self._lock:
            table = self._tables.get(prefix)
            if table is None:
                table = self._tables[prefix] = CounterTable()
            return table

    def register_source(self, name: str,
                        collect: Callable[[], Iterable[Sample]],
                        owner: object | None = None) -> None:
        """Add (or replace) a source of :class:`Sample` s read at every
        ``collect()``; with an ``owner``, it is dropped once the owner is
        garbage collected."""
        ref = weakref.ref(owner) if owner is not None else None
        with self._lock:
            self._sources[name] = (ref, collect)

    def collect(self) -> list[Sample]:
        with self._lock:
            tables = list(self._tables.items())
            sources = list(self._sources.items())
        samples: list[Sample] = []
        for prefix, table in tables:
            samples.extend(Sample(f"{prefix}.{key}", {}, value)
                           for key, value in table.snapshot().items())
        dead: list[str] = []
        for name, (ref, collect) in sources:
            if ref is not None and ref() is None:
                dead.append(name)
                continue
            samples.extend(collect())
        if dead:
            with self._lock:
                for name in dead:
                    self._sources.pop(name, None)
        return samples

    def value(self, name: str, **labels) -> float:
        """Sum of every collected sample matching ``name`` and ``labels``
        (labels are a filter: a sample matches when it carries them all)."""
        total = 0.0
        for sample in self.collect():
            if sample.name != name:
                continue
            if all(sample.labels.get(k) == v for k, v in labels.items()):
                total += sample.value
        return total

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every sample."""
        by_name: dict[str, list[Sample]] = {}
        for sample in self.collect():
            by_name.setdefault(sample.name, []).append(sample)
        lines: list[str] = []
        for name in sorted(by_name):
            group = by_name[name]
            metric = _prometheus_name(name)
            lines.append(f"# TYPE {metric} {group[0].kind}")
            for sample in group:
                if sample.labels:
                    rendered = ",".join(
                        f'{_prometheus_name(key, bare=True)}="{value}"'
                        for key, value in sorted(sample.labels.items()))
                    lines.append(f"{metric}{{{rendered}}} {sample.value:g}")
                else:
                    lines.append(f"{metric} {sample.value:g}")
        return "\n".join(lines) + "\n"


def _prometheus_name(name: str, bare: bool = False) -> str:
    cleaned = name.replace(".", "_").replace("-", "_")
    return cleaned if bare else f"repro_{cleaned}"


#: The process-wide registry every layer shares.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY
