"""Deterministic fault injection: one seedable API for every chaos test.

Two injection surfaces, matching where real systems break:

* **Storage faults** — :class:`FlakyBackend` wraps a real backend and raises
  on the k-th index build, reproducing a failing disk/page mid-query.  It
  grew up inside ``tests/test_service_faults.py``; it lives here so the
  service tests, the cluster chaos battery and future PRs inject the same
  fault through the same object.
* **Dispatch faults** — :class:`FaultPlan` is the coordinator-side schedule
  of worker-level faults for :mod:`repro.engine.cluster`.  The coordinator
  consults it at every dispatch and ack; the plan answers with picklable
  *directives* (plain dicts) that ride inside the task payload, and
  :func:`perform_fault` interprets them inside the worker process.  All four
  classic faults are covered: **kill-on-nth-task** (hard worker crash via
  ``os._exit``), **delay-shard** (a straggler), **drop-ack** (a lost result
  message) and **flaky-payload** (a task that raises on its first attempts).

Every decision a plan makes is a pure function of its configuration and the
dispatch order, so a chaos run replays identically — there is no wall-clock
or RNG state hidden in the plan.  The optional ``seed`` feeds
:func:`repro.utils.retry.seeded_fraction` for the probabilistic
``raise_rate`` mode, which is likewise hash-deterministic per (shard,
attempt).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.relational.storage import StorageBackend
from repro.utils.retry import seeded_fraction

#: The index-building methods FlakyBackend can be told to fail.
ALL_INDEX_METHODS = ("hash_index", "key_set", "group_index", "trie")

#: Fault directive kinds perform_fault understands (also the set the plan
#: verifier accepts inside cluster task payloads).
FAULT_KINDS = ("exit", "sleep", "raise")


class FaultInjected(RuntimeError):
    """The error raised by an injected ``raise`` fault — a distinct type, so
    tests can tell an injected failure from a real bug in the path under
    test."""


def perform_fault(directive: dict) -> None:
    """Interpret a fault directive inside a worker (or any victim).

    ``{"kind": "exit"}`` kills the process outright (``os._exit`` — no
    cleanup, no exception, exactly like a segfault or OOM kill);
    ``{"kind": "sleep", "seconds": s}`` delays, manufacturing a straggler;
    ``{"kind": "raise"}`` raises :class:`FaultInjected`, the soft task
    failure.  Unknown kinds raise ``ValueError`` so a typo in a chaos test
    cannot silently disable its fault.
    """
    kind = directive.get("kind")
    if kind == "exit":
        os._exit(int(directive.get("code", 17)))
    elif kind == "sleep":
        time.sleep(float(directive.get("seconds", 0.1)))
    elif kind == "raise":
        raise FaultInjected(directive.get("message", "injected task fault"))
    else:
        raise ValueError(f"unknown fault directive kind {kind!r}")


@dataclass
class FaultPlan:
    """A deterministic, seedable schedule of dispatch-level faults.

    The cluster coordinator calls :meth:`task_fault` once per dispatched
    task (in dispatch order) and :meth:`drop_ack` once per received result.
    Configuration:

    ``kill_on_task``
        The 1-based dispatch ordinal whose task carries an ``exit``
        directive — whichever worker draws that task dies mid-task.  Fires
        exactly once; the retried task is clean, so the query recovers.
    ``delay_shard`` / ``delay_seconds``
        The shard whose *first* dispatch sleeps before executing — the
        deterministic straggler.  Speculative re-dispatches of the same
        shard are never delayed, so speculation observably wins.
    ``flaky_shard`` / ``flaky_failures``
        The shard whose first ``flaky_failures`` attempts raise
        :class:`FaultInjected`; set it ``>= max_attempts`` to force retry
        exhaustion and exercise the serial-degradation path.
    ``drop_ack_shard``
        The shard whose first successful result message is discarded by the
        coordinator, as if the ack were lost in transit; the shard retries.
    ``raise_rate`` / ``seed``
        Hash-deterministic probabilistic failures for soak-style tests:
        attempt ``a`` of shard ``s`` raises iff
        ``seeded_fraction(seed, s, a) < raise_rate``.

    The mutable counters (`dispatched`, fired flags) are guarded by a lock
    so a plan shared with speculative dispatch paths stays consistent.
    """

    kill_on_task: int | None = None
    kill_exit_code: int = 17
    delay_shard: int | None = None
    delay_seconds: float = 0.4
    flaky_shard: int | None = None
    flaky_failures: int = 1
    drop_ack_shard: int | None = None
    raise_rate: float = 0.0
    seed: int = 0
    #: Dispatch ordinal counter (1-based after the first call).
    dispatched: int = 0
    _kill_fired: bool = False
    _drop_fired: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def task_fault(self, shard: int, attempt: int,
                   speculative: bool = False) -> dict | None:
        """The directive (or ``None``) for one dispatch of ``shard``."""
        with self._lock:
            self.dispatched += 1
            ordinal = self.dispatched
            if (self.kill_on_task is not None and not self._kill_fired
                    and ordinal >= self.kill_on_task):
                self._kill_fired = True
                return {"kind": "exit", "code": self.kill_exit_code}
        if speculative:
            # Speculative copies run clean: the harness measures whether the
            # coordinator routes around the fault, not whether it can be
            # re-injected forever.
            return None
        if shard == self.delay_shard and attempt == 1:
            return {"kind": "sleep", "seconds": self.delay_seconds}
        if shard == self.flaky_shard and attempt <= self.flaky_failures:
            return {"kind": "raise",
                    "message": f"flaky payload: shard {shard} attempt {attempt}"}
        if self.raise_rate > 0 and \
                seeded_fraction(self.seed, shard, attempt) < self.raise_rate:
            return {"kind": "raise",
                    "message": f"seeded fault: shard {shard} attempt {attempt}"}
        return None

    def drop_ack(self, shard: int, speculative: bool = False) -> bool:
        """True when the coordinator should pretend this ack never arrived."""
        if speculative or shard != self.drop_ack_shard:
            return False
        with self._lock:
            if self._drop_fired:
                return False
            self._drop_fired = True
            return True


# ---------------------------------------------------------------------------
# storage-level faults
# ---------------------------------------------------------------------------

class FlakyBackend(StorageBackend):
    """A delegating backend that raises on the k-th index build.

    ``share()`` returns the wrapper itself (mirroring the base-class
    contract), so the failure follows the relation through every renamed
    facade the evaluator creates.  ``supports_kernels`` stays ``False``: the
    point is to fail inside the tuple-at-a-time index machinery.
    """

    supports_kernels = False

    def __init__(self, inner: StorageBackend, fail_on: tuple[str, ...],
                 after: int = 1) -> None:
        super().__init__()
        self._inner = inner
        self._fail_on = fail_on
        self._after = after
        self.index_calls = 0

    @property
    def kind(self) -> str:
        # Derived relations inherit the wrapped engine's kind, so answers
        # built from a flaky relation resolve to a real backend.
        return self._inner.kind

    def _maybe_fail(self, method: str) -> None:
        if method in self._fail_on:
            self.index_calls += 1
            if self.index_calls >= self._after:
                raise RuntimeError(
                    f"injected fault: {method} build #{self.index_calls}")

    def share(self) -> "FlakyBackend":
        self.shared = True
        self._inner.share()
        return self

    def heal(self) -> None:
        """Stop injecting faults (the 'operator replaced the disk' event)."""
        self._fail_on = ()

    # -- delegation ---------------------------------------------------------
    def __len__(self):
        return len(self._inner)

    def iter_rows(self):
        return self._inner.iter_rows()

    def row_set(self):
        return self._inner.row_set()

    def contains(self, row):
        return self._inner.contains(row)

    def add(self, row):
        self._inner.add(row)

    def fork(self):
        return FlakyBackend(self._inner.fork(), self._fail_on, self._after)

    def spawn(self, rows, assume_unique=False):
        return self._inner.spawn(rows, assume_unique=assume_unique)

    def hash_index(self, key_positions):
        self._maybe_fail("hash_index")
        return self._inner.hash_index(key_positions)

    def key_set(self, key_positions):
        self._maybe_fail("key_set")
        return self._inner.key_set(key_positions)

    def degree_index(self, given_positions, value_position):
        return self._inner.degree_index(given_positions, value_position)

    def group_index(self, given_positions, value_positions):
        self._maybe_fail("group_index")
        return self._inner.group_index(given_positions, value_positions)

    def trie(self, positions):
        self._maybe_fail("trie")
        return self._inner.trie(positions)

    def project_backend(self, positions):
        return self._inner.project_backend(positions)


def flaky_database(query, *, after: int = 1, size: int = 50, domain: int = 12,
                   seed: int = 11,
                   methods: tuple[str, ...] = ALL_INDEX_METHODS):
    """A random database whose first relation fails its ``after``-th index
    build — the shared fixture behind the service fault tests."""
    from repro.datagen import random_graph_database

    database = random_graph_database(query, size=size, domain=domain, seed=seed)
    name = database.relation_names()[0]
    flaky = FlakyBackend(database[name]._backend, methods, after)
    database[name]._backend = flaky
    return database, flaky
