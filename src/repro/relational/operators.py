"""Free-standing relational operators used by the evaluation algorithms.

These functions complement the methods on :class:`~repro.relational.relation.Relation`
with multi-way variants (joining a list of relations, semijoin-reducing a set
of relations to global consistency) and with an instrumented join that counts
intermediate tuples — the quantity the paper's cost model bounds.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.relational.relation import Relation


@dataclass
class WorkCounter:
    """Counts the work performed by an evaluation algorithm.

    ``intermediate_tuples`` accumulates the sizes of every materialised
    intermediate relation; ``max_intermediate`` tracks the largest one, which
    is exactly the cost measure of Section 4.1 of the paper.

    Counters are thread-safe: every update happens under an internal lock,
    so a counter shared between threads never loses counts, and
    :meth:`merge` (how the binary-join and static-plan runners fold a
    sub-plan's counter into their report) snapshots the source under its own
    lock.

    ``cancellation`` optionally carries a cooperative cancellation token
    (:class:`~repro.utils.cancellation.CancellationToken`).  The evaluation
    algorithms call :meth:`check` inside their inner loops — the generic
    join every few hundred explored partial assignments, Yannakakis and the
    FAQ evaluator at every operator step — so a cancelled or
    deadline-exceeded query raises
    :class:`~repro.utils.cancellation.QueryCancelledError` mid-plan, with the
    work performed up to that point still tallied.  :meth:`check` is explicit
    and never called by :meth:`tally`/:meth:`record`, so accounting stays
    pure: a cancelled algorithm can tally its partial work before re-raising.
    """

    intermediate_tuples: int = 0
    max_intermediate: int = 0
    materializations: int = 0
    notes: list[str] = field(default_factory=list)
    #: Per-plan-node observed sizes, ``(kind, variables, rows)`` triples
    #: recorded by the runners and consumed by the telemetry cardinality
    #: profiler.  Plain tuples, so they merge exactly like the scalar
    #: counters.
    observations: list[tuple[str, tuple[str, ...], int]] = \
        field(default_factory=list)
    #: Optional cooperative-cancellation token (anything with ``check()``).
    cancellation: object | None = field(default=None, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def check(self) -> None:
        """Consult the cancellation token, raising if the query should stop."""
        token = self.cancellation
        if token is not None:
            token.check()

    def record(self, relation: Relation, note: str | None = None) -> Relation:
        size = len(relation)
        self.tally(size, size, note=f"{note}: {size} tuples" if note else None)
        return relation

    def tally(self, tuples: int, largest: int, note: str | None = None) -> None:
        """Account one batch of work (e.g. a whole join's exploration) atomically."""
        with self._lock:
            self.intermediate_tuples += tuples
            self.max_intermediate = max(self.max_intermediate, largest)
            self.materializations += 1
            if note:
                self.notes.append(note)

    def observe_node(self, kind: str, variables: Iterable[str],
                     rows: int) -> None:
        """Record one plan node's observed size for the cardinality profiler.

        Deliberately separate from :meth:`tally`: a node observation is a
        *label-resolved* fact ("bag {x,y,z} materialised 412 rows"), not a
        work total, so it must not double-count into ``intermediate_tuples``.
        """
        with self._lock:
            self.observations.append((str(kind), tuple(variables), int(rows)))

    def observe_max(self, largest: int) -> None:
        """Raise ``max_intermediate`` to at least ``largest``, atomically.

        The adaptive runner folds a report's peak intermediate back into a
        counter that another thread may be moving concurrently; a
        bare ``counter.max_intermediate = max(...)`` here is the same
        read-modify-write race :meth:`tally` exists to prevent (lint rule
        REP101), so the fold gets its own locked method.
        """
        with self._lock:
            self.max_intermediate = max(self.max_intermediate, largest)

    def merge(self, other: "WorkCounter") -> None:
        # Snapshot under the source lock, apply under ours: never nested, so
        # two threads merging in opposite directions cannot deadlock.
        with other._lock:
            tuples = other.intermediate_tuples
            largest = other.max_intermediate
            materializations = other.materializations
            notes = list(other.notes)
            observations = list(other.observations)
        with self._lock:
            self.intermediate_tuples += tuples
            self.max_intermediate = max(self.max_intermediate, largest)
            self.materializations += materializations
            self.notes.extend(notes)
            self.observations.extend(observations)


def join_all(relations: Sequence[Relation],
             counter: WorkCounter | None = None,
             name: str = "⋈") -> Relation:
    """Natural join of a list of relations, left to right.

    The result of an empty list is the nullary relation with a single empty
    tuple (the unit of natural join).
    """
    if not relations:
        return Relation(name, (), [()])
    result = relations[0]
    for relation in relations[1:]:
        result = result.hash_join(relation)
        if counter is not None:
            counter.record(result, note=f"join step -> {result.columns}")
    return result.copy(name)


def project(relation: Relation, columns: Iterable[str], name: str | None = None) -> Relation:
    """Projection preserving the relation's column order.

    Requesting a column the relation does not have is an immediate, clearly
    attributed error (rather than a deferred ``KeyError`` from deep inside
    :meth:`Relation.project`).
    """
    columns = list(columns)
    missing = [c for c in columns if c not in relation.column_set]
    if missing:
        raise KeyError(
            f"cannot project relation {relation.name!r} onto {columns}: "
            f"missing columns {missing} (available: {list(relation.columns)})"
        )
    ordered = [c for c in relation.columns if c in set(columns)]
    return relation.project(ordered, name=name)


def semijoin_reduce(relations: Sequence[Relation],
                    counter: WorkCounter | None = None) -> list[Relation]:
    """Full semijoin reduction to (pairwise) consistency.

    Semijoins relations against their schema-overlapping neighbours until no
    relation shrinks.  For acyclic joins arranged along a join tree the
    classical Yannakakis algorithm needs only two passes; this generic version
    is used when no join tree is available (e.g. to clean up PANDA's bag
    relations) and always terminates because sizes only decrease.

    Instead of re-scanning all pairs after every change (O(n²) per pass), a
    worklist tracks which relations may still shrink: when relation ``j``
    shrinks, only the neighbours of ``j`` — the relations ``j`` can filter —
    are revisited.  The fixpoint (the unique maximal pairwise-consistent
    sub-instance) is the same as the all-pairs version's.
    """
    current = [relation.copy() for relation in relations]
    neighbours: list[list[int]] = [
        [j for j, other in enumerate(relations)
         if j != i and (relations[i].column_set & other.column_set)]
        for i in range(len(relations))
    ]
    pending = deque(range(len(current)))
    queued = set(pending)
    while pending:
        i = pending.popleft()
        queued.discard(i)
        for j in neighbours[i]:
            reduced = current[i].semijoin(current[j])
            if len(reduced) < len(current[i]):
                current[i] = reduced
                if counter is not None:
                    counter.record(reduced, note=f"semijoin {reduced.name}")
                # i shrank, so every relation i can filter may shrink too.
                for k in neighbours[i]:
                    if k not in queued:
                        pending.append(k)
                        queued.add(k)
    return current


def cartesian_product(left: Relation, right: Relation,
                      name: str | None = None) -> Relation:
    """Cartesian product of two relations over disjoint schemas."""
    if left.column_set & right.column_set:
        raise ValueError("cartesian_product requires disjoint schemas")
    rows = [l + r for l in left for r in right]
    return Relation(name or f"({left.name} × {right.name})",
                    left.columns + right.columns, rows)


def empty_like(relation: Relation, name: str | None = None) -> Relation:
    """An empty relation with the same schema."""
    return Relation(name or relation.name, relation.columns, [])


def union_all(relations: Sequence[Relation], columns: Sequence[str],
              name: str = "∪") -> Relation:
    """Union of relations projected onto a common column list."""
    result = Relation(name, tuple(columns), [])
    for relation in relations:
        projected = relation.project(columns)
        for row in projected:
            result.add(row)
    return result
