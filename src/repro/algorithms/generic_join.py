"""A worst-case optimal join in the Generic-Join / LeapFrog-TrieJoin style.

Worst-case optimal joins (Section 2.1, [52, 54, 56]) evaluate a *full* CQ one
variable at a time: at each level the candidate values of the current variable
are the intersection of the values compatible with the partial assignment in
every relation that contains the variable.  The total running time is
proportional to the AGM bound of the query (up to log factors), which is what
experiment E9 measures.

This implementation indexes each relation by every prefix of the global
variable order restricted to the relation's variables, so candidate lookups
are hash probes rather than scans.  The prefix tries come from the
relations' storage backends (:meth:`Relation.prefix_trie`).

The enumeration itself runs off a precomputed per-level probe plan.  Because
each relation's variables are kept sorted by the global order, the set of
relations constraining a level — and the trie depth and prefix positions each
one is probed at — depends only on the level, never on the values bound so
far, so all of it is resolved once before the recursion starts.

When every bound relation lives on a kernel-capable backend (see
:mod:`repro.relational.kernels`), the recursion is replaced wholesale by a
breadth-first vectorized frontier over dictionary-encoded code arrays — same
answers, same reported work count, but the per-level intersection probes run
as NumPy ``searchsorted`` batches instead of per-tuple hash lookups.  The
``set`` backend, and a columnar join whose kernel declines (a packed key
space past its limit), take the depth-first trie path.
"""

from __future__ import annotations

from typing import Sequence

from repro.query.cq import ConjunctiveQuery
from repro.relational import kernels
from repro.relational.database import Database
from repro.relational.operators import WorkCounter
from repro.relational.relation import Relation
from repro.relational.storage import ColumnarBackend
from repro.telemetry.trace import get_tracer
from repro.utils.cancellation import QueryCancelledError

#: How many explored partial assignments the depth-first enumeration may
#: process between two cancellation checks.  This bounds the cooperative
#: cancellation overshoot: once a :class:`WorkCounter`'s token trips, the
#: recursion performs at most ``CHECK_INTERVAL`` further extensions before
#: raising (the vectorized path checks once per frontier level instead).
CHECK_INTERVAL = 256


class _IndexedRelation:
    """One relation's trie view for a fixed global variable order."""

    def __init__(self, relation: Relation, order: Sequence[str]) -> None:
        self.variables = [v for v in order if v in relation.column_set]
        positions = tuple(relation.column_index(v) for v in self.variables)
        # index[k] maps a length-k prefix of this relation's variables to the
        # set of values of variable k+1 compatible with it.  Built by the
        # relation's storage backend.
        self.index: list[dict[tuple, set]] = relation.prefix_trie(positions)


def _probe_plans(indexed: Sequence[_IndexedRelation],
                 order: Sequence[str]) -> list[list[tuple[list[dict], int, tuple[int, ...]]]]:
    """Per level: ``(trie, depth, prefix levels)`` for every constraining relation.

    At level ``L`` exactly the variables ``order[:L]`` are bound, so a
    relation constrains ``order[L]`` iff it contains that variable; the probe
    then happens at depth ``d`` = the variable's rank within the relation,
    with a prefix read from the levels its first ``d`` variables live at.
    """
    order_index = {variable: level for level, variable in enumerate(order)}
    plans: list[list[tuple[list[dict], int, tuple[int, ...]]]] = []
    for variable in order:
        entries = []
        for rel in indexed:
            if variable not in rel.variables:
                continue
            depth = rel.variables.index(variable)
            prefix_levels = tuple(order_index[v] for v in rel.variables[:depth])
            entries.append((rel.index, depth, prefix_levels))
        plans.append(entries)
    return plans


def generic_join(query: ConjunctiveQuery, database: Database,
                 variable_order: Sequence[str] | None = None,
                 counter: WorkCounter | None = None) -> Relation:
    """Evaluate a CQ with the generic worst-case-optimal join.

    The result is the projection onto the free variables of the full join; the
    enumeration itself always walks the full variable space, so the guarantee
    is the worst-case-optimality of the *full* query (as in the literature).
    """
    order = list(variable_order) if variable_order else sorted(query.variables)
    if set(order) != set(query.variables):
        raise ValueError("variable_order must mention every query variable exactly once")
    if counter is not None:
        counter.check()
    with get_tracer().span("wcoj.generic_join",
                           {"query": query.name,
                            "variables": len(order)}) as span:
        return _generic_join_traced(query, database, order, counter, span)


def _generic_join_traced(query: ConjunctiveQuery, database: Database,
                         order: list[str], counter: WorkCounter | None,
                         span) -> Relation:
    bound = database.bind_query(query)
    free = sorted(query.free_variables)
    order_index = {variable: level for level, variable in enumerate(order)}
    free_levels = tuple(order_index[v] for v in free)
    depth_total = len(order)
    if bound and kernels.kernel_ready(*[r._backend for r in bound]):
        # Breadth-first vectorized enumeration: the frontier of partial
        # assignments lives as per-level int64 code arrays, extended and
        # intersected with array kernels.  The per-level frontier sizes sum to
        # exactly the number of partial assignments the depth-first reference
        # enters, so the reported work count is identical.
        specs = []
        for relation in bound:
            rel_vars = [v for v in order if v in relation.column_set]
            specs.append((relation._backend,
                          tuple(relation.column_index(v) for v in rel_vars),
                          tuple(order_index[v] for v in rel_vars)))
        if counter is not None:
            def level_check(explored_so_far: int,
                            counter: WorkCounter = counter) -> None:
                try:
                    counter.check()
                except QueryCancelledError:
                    counter.tally(explored_so_far, 0,
                                  note=f"generic join cancelled after exploring "
                                       f"{explored_so_far} partial assignments")
                    raise
        else:
            level_check = None
        kernel_result = kernels.wcoj(specs, depth_total, free_levels,
                                     check=level_check)
        if kernel_result is not None:
            encoded, kernel_explored = kernel_result
            result = Relation._from_backend(
                query.name, tuple(free), ColumnarBackend.from_encoded(*encoded))
            if counter is not None:
                counter.tally(kernel_explored, len(result),
                              note=f"generic join explored {kernel_explored} "
                                   "partial assignments")
            span.set("explored", kernel_explored)
            span.set("rows_out", len(result))
            return result
    indexed = [_IndexedRelation(relation, order) for relation in bound]
    plans = _probe_plans(indexed, order)
    output_rows: set[tuple] = set()
    values: list = [None] * depth_total
    explored = 0
    check = counter.check if counter is not None else None

    def recurse(level: int) -> None:
        nonlocal explored
        if level == depth_total:
            output_rows.add(tuple(values[i] for i in free_levels))
            return
        candidate_sets = []
        for trie, depth, prefix_levels in plans[level]:
            found = trie[depth].get(tuple(values[i] for i in prefix_levels))
            if not found:
                return
            candidate_sets.append(found)
        if not candidate_sets:
            return
        if len(candidate_sets) == 1:
            candidates = candidate_sets[0]
        else:
            candidate_sets.sort(key=len)
            candidates = set.intersection(*candidate_sets)
        for value in candidates:
            values[level] = value
            explored += 1
            if check is not None and explored % CHECK_INTERVAL == 0:
                check()
            recurse(level + 1)

    try:
        recurse(0)
    except QueryCancelledError:
        # Account the partial exploration before propagating, so cancellation
        # overshoot stays observable through the counter's tally deltas.
        if counter is not None:
            counter.tally(explored, 0,
                          note=f"generic join cancelled after exploring "
                               f"{explored} partial assignments")
        raise
    backend_kind = bound[0].backend_kind if bound else None
    result = Relation(query.name, tuple(free), output_rows, backend=backend_kind)
    if counter is not None:
        # One atomic batch update: safe when the caller shares a counter
        # across threads.
        counter.tally(explored, len(result),
                      note=f"generic join explored {explored} partial assignments")
    span.set("explored", explored)
    span.set("rows_out", len(result))
    return result


def generic_join_full(query: ConjunctiveQuery, database: Database,
                      variable_order: Sequence[str] | None = None,
                      counter: WorkCounter | None = None) -> Relation:
    """The full join of the query's atoms computed with generic join."""
    return generic_join(query.full_version(), database,
                        variable_order=variable_order, counter=counter)
