"""Functional aggregate queries: semiring evaluation by variable elimination (Section 9.1).

An FAQ computes ``⊕_{bound variables} ⊗_{atoms} annotation`` over a commutative
semiring.  For the Boolean semiring this is CQ evaluation; for the counting
semiring it is #CQ; for min-plus it finds minimum-weight assignments.  The
evaluation here is classical variable elimination along an elimination order
of the bound variables (equivalently, dynamic programming over a tree
decomposition), which is exact for every semiring.  PANDA-style adaptive
partitioning is only sound for idempotent semirings — the paper's Section 9.1
point — so the adaptive path (``repro.panda``) refuses non-idempotent
semirings and this module is the reference evaluator for counting.

The evaluator runs on the annotated storage engine
(:mod:`repro.relational.storage`): factors come from the database's memoized
annotated bindings, eliminations go through each factor's per-variable
probe indexes, and the eliminated variable is ⊕-aggregated *on the fly*
during its last join (aggregation pushdown) instead of being projected out
of a materialised intermediate.  Under the columnar annotated engine,
repeated evaluation of the same query family against the same database
reuses every base factor's memoized kernel structures.

Each elimination step is a :meth:`AnnotatedRelation.join_marginalize`, which
on kernel-capable backends (:mod:`repro.relational.kernels`) fuses the
⊗-join and the ⊕-fold into vectorized grouped reductions
(``np.add/minimum/maximum.reduceat``) for the exactly-representable
semirings (counting, boolean, min-plus, max-min, max-times); anything else
— e.g. the top-k min-plus semiring — falls back to the reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.query.cq import ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.operators import WorkCounter
from repro.relational.semiring import AnnotatedRelation, Semiring
from repro.telemetry.trace import get_tracer


@dataclass
class FAQResult:
    """Result of an FAQ evaluation: a relation over the free variables with
    semiring annotations, plus the largest intermediate factor size."""

    output: AnnotatedRelation
    max_intermediate: int

    def scalar(self):
        """The single aggregate value (for Boolean queries)."""
        return self.output.total()

    def as_dict(self) -> dict[tuple, object]:
        return {row: value for row, value in self.output.items()}


def evaluate_faq(query: ConjunctiveQuery, database: Database, semiring: Semiring,
                 weight: Callable[[str, dict], object] | None = None,
                 weight_key: str | None = None,
                 elimination_order: Sequence[str] | None = None,
                 counter: WorkCounter | None = None) -> FAQResult:
    """Evaluate the FAQ version of ``query`` over ``semiring``.

    Parameters
    ----------
    weight:
        Optional function ``(relation_name, tuple_as_dict) -> annotation``
        giving each input tuple its annotation; by default every tuple is
        annotated with the semiring's ``one`` (so counting counts solutions).
    weight_key:
        Stable name for ``weight``; when given, the annotated factors it
        produces are memoized on the database (and their join indexes stay
        warm across repeated evaluations) just like the default annotation.
    elimination_order:
        Order in which the bound (existential) variables are eliminated;
        defaults to a greedy min-degree-style order.
    counter:
        Optional :class:`~repro.relational.operators.WorkCounter`: each
        elimination step tallies the combined factor's size, and the
        counter's cancellation token is consulted before every elimination
        and every trailing join, so a deadline-exceeded FAQ raises
        :class:`~repro.utils.cancellation.QueryCancelledError` mid-plan.
    """
    factors: list[AnnotatedRelation] = []
    for atom in query.atoms:
        if weight is None:
            factors.append(database.annotated_atom(atom, semiring))
        else:
            factors.append(database.annotated_atom(
                atom, semiring,
                weight=lambda row, name=atom.relation: weight(name, row),
                weight_key=weight_key))
    order = list(elimination_order) if elimination_order \
        else greedy_elimination_order(query)
    unknown = set(order) - query.bound_variables
    if unknown:
        raise ValueError(f"cannot eliminate free or unknown variables: {sorted(unknown)}")
    max_intermediate = max((len(f) for f in factors), default=0)

    for variable in order:
        touching = [f for f in factors if variable in f.column_set]
        untouched = [f for f in factors if variable not in f.column_set]
        if not touching:
            continue
        if counter is not None:
            counter.check()
        with get_tracer().span("faq.eliminate",
                               {"variable": variable,
                                "factors": len(touching)}) as span:
            combined, peak = _eliminate(touching, variable)
            span.set("rows_out", len(combined))
        max_intermediate = max(max_intermediate, peak)
        if counter is not None:
            counter.tally(len(combined), peak,
                          note=f"eliminate {variable}: {len(combined)} tuples")
        factors = untouched + [combined]

    result = factors[0]
    for factor in factors[1:]:
        if counter is not None:
            counter.check()
        result = result.join(factor)
        max_intermediate = max(max_intermediate, len(result))
        if counter is not None:
            counter.tally(len(result), len(result),
                          note=f"join remaining factor -> {len(result)} tuples")
    remaining_bound = [c for c in result.columns if c in query.bound_variables]
    if remaining_bound:
        result = result.marginalize([c for c in result.columns
                                     if c not in set(remaining_bound)])
    result = result.marginalize(sorted(query.free_variables))
    max_intermediate = max(max_intermediate, len(result))
    return FAQResult(output=result, max_intermediate=max_intermediate)


def _eliminate(touching: Sequence[AnnotatedRelation],
               variable: str) -> tuple[AnnotatedRelation, int]:
    """⊕-eliminate ``variable`` from the factors that mention it.

    A single touching factor is marginalized directly (served by the
    backend's memoized marginal group-by).  With several, the factors are
    joined left to right and the last join aggregates the variable away on
    the fly — the full join over the eliminated variable is never
    materialised.  Returns the combined factor together with the size of the
    largest relation materialised along the way (with three or more touching
    factors the leading joins are still full joins).
    """
    if len(touching) == 1:
        factor = touching[0]
        combined = factor.marginalize([c for c in factor.columns if c != variable])
        return combined, len(combined)
    combined = touching[0]
    peak = 0
    for factor in touching[1:-1]:
        combined = combined.join(factor)
        peak = max(peak, len(combined))
    combined = combined.join_marginalize(touching[-1], drop=(variable,))
    return combined, max(peak, len(combined))


def greedy_elimination_order(query: ConjunctiveQuery) -> list[str]:
    """Min-fill-style greedy order over the bound variables.

    At each step the bound variable whose elimination creates the smallest
    clique (fewest neighbours in the current hypergraph) is chosen.
    """
    edges = [set(atom.varset) for atom in query.atoms]
    remaining = set(query.bound_variables)
    order: list[str] = []
    while remaining:
        def neighbour_count(variable: str) -> int:
            neighbours: set[str] = set()
            for edge in edges:
                if variable in edge:
                    neighbours.update(edge)
            neighbours.discard(variable)
            return len(neighbours)

        best = min(sorted(remaining), key=neighbour_count)
        neighbours: set[str] = set()
        new_edges = []
        for edge in edges:
            if best in edge:
                neighbours.update(edge - {best})
            else:
                new_edges.append(edge)
        if neighbours:
            new_edges.append(neighbours)
        edges = new_edges
        order.append(best)
        remaining.remove(best)
    return order


def count_query_answers(query: ConjunctiveQuery, database: Database) -> int:
    """#CQ under *bag* semantics: the number of satisfying assignments to all variables.

    This counts assignments of every variable (the quantity probabilistic and
    counting applications care about); for the number of *distinct output
    tuples* use set-semantics evaluation instead.
    """
    from repro.relational.semiring import COUNTING_SEMIRING

    full = query.full_version()
    result = evaluate_faq(full, database, COUNTING_SEMIRING)
    total = result.output.marginalize([]).total() if len(result.output) else 0
    return int(total)
