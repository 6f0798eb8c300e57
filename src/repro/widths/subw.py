"""The submodular width under arbitrary statistics (Section 5.3, Eq. (41)-(42)).

    subw(Q, S) = max over bag selectors B ∈ BS(Q) of
                 max over polymatroids h |= S of
                 min over bags B ∈ B of h(B)
               = max over polymatroids h |= S of
                 min over TDs T of
                 max over bags B of T of h(B).

Each inner max-min is the polymatroid bound of a disjunctive datalog rule
(Theorem 5.1); the outer max ranges over bag selectors.  The min-max
inequality gives ``subw(Q, S) <= fhtw(Q, S)`` for every query and statistics,
and the 4-cycle under identical cardinalities is the paper's example of a
strict gap (3/2 vs 2).

All the selector LPs share the same feasible region ``Γ_n ∧ S``; only the
min-target rows differ.  The DDR bound therefore re-solves one compiled
shared :class:`~repro.bounds.polymatroid.PolymatroidProgram` per selector
(the selector's rows are stacked ephemerally), which is where the
``region_hits`` counted by :func:`repro.lp.model.lp_cache_stats` come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bounds.polymatroid import BoundResult, ddr_polymatroid_bound
from repro.ddr.rule import bag_selectors
from repro.decompositions.enumerate import enumerate_tree_decompositions
from repro.decompositions.treedecomp import TreeDecomposition
from repro.query.cq import ConjunctiveQuery
from repro.stats.constraints import ConstraintSet


@dataclass
class SelectorBound:
    """The DDR bound of one bag selector."""

    selector: tuple[frozenset[str], ...]
    bound: BoundResult


@dataclass
class SubwResult:
    """The submodular width, its witnessing selector, and all selector bounds."""

    width: float
    decompositions: list[TreeDecomposition]
    selector_bounds: list[SelectorBound]

    @property
    def witness(self) -> SelectorBound:
        """The bag selector (and polymatroid) attaining the width."""
        return max(self.selector_bounds, key=lambda s: s.bound.exponent)

    def size_bound(self, statistics: ConstraintSet) -> float:
        return statistics.size_from_exponent(self.width)


def submodular_width(query: ConjunctiveQuery, statistics: ConstraintSet,
                     decompositions: Sequence[TreeDecomposition] | None = None
                     ) -> SubwResult:
    """Compute ``subw(Q, S)``: one objective per bag selector, one shared region."""
    if decompositions is None:
        decompositions = enumerate_tree_decompositions(query)
    decompositions = list(decompositions)
    if not decompositions:
        raise ValueError("the query admits no free-connex tree decomposition")
    selectors = bag_selectors(decompositions)
    bounds: list[SelectorBound] = []
    for selector in selectors:
        bound = ddr_polymatroid_bound(selector, statistics, variables=query.variables)
        bounds.append(SelectorBound(selector=selector, bound=bound))
    width = max(entry.bound.exponent for entry in bounds)
    return SubwResult(width=width, decompositions=decompositions,
                      selector_bounds=bounds)


def width_gap(query: ConjunctiveQuery, statistics: ConstraintSet
              ) -> tuple[float, float]:
    """Convenience helper returning ``(subw, fhtw)``; subw <= fhtw always holds."""
    from repro.widths.fhtw import fractional_hypertree_width

    decompositions = enumerate_tree_decompositions(query)
    sub = submodular_width(query, statistics, decompositions=decompositions)
    frac = fractional_hypertree_width(query, statistics, decompositions=decompositions)
    return sub.width, frac.width
