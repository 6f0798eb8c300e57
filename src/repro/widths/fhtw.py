"""The fractional hypertree width under arbitrary statistics (Section 4.3, Eq. (22)).

    fhtw(Q, S) = min over free-connex TDs T of
                 max over bags B of T of
                 the polymatroid bound of B under S.

The classical fractional hypertree width of Grohe and Marx is the special case
of identical cardinality constraints and Boolean queries; the definition here
(following the paper) works for any statistics and any CQ.

Every bag bound is a ``max h(B)`` solve over the same feasible region
``Γ_n ∧ S``, so the computation fetches one shared compiled
:class:`~repro.bounds.polymatroid.PolymatroidProgram` (see
``PolymatroidProgram.shared``) and solves one objective per bag against it —
and because ``subw`` keys the region cache identically, a planner that
computes both widths builds the region once for the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.bounds.polymatroid import PolymatroidProgram
from repro.decompositions.enumerate import enumerate_tree_decompositions
from repro.decompositions.treedecomp import TreeDecomposition
from repro.query.cq import ConjunctiveQuery
from repro.stats.constraints import ConstraintSet
from repro.utils.varsets import format_varset


@dataclass
class DecompositionCost:
    """The cost (Eq. (21)) of one static plan: the worst bag bound."""

    decomposition: TreeDecomposition
    bag_exponents: dict[frozenset[str], float] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        return max(self.bag_exponents.values(), default=0.0)

    @property
    def worst_bag(self) -> frozenset[str]:
        return max(self.bag_exponents, key=self.bag_exponents.get)

    def describe(self) -> str:
        bags = ", ".join(f"{format_varset(bag)}: {value:.4g}"
                         for bag, value in sorted(self.bag_exponents.items(),
                                                  key=lambda kv: sorted(kv[0])))
        return f"cost {self.cost:.4g} ({bags})"


@dataclass
class FhtwResult:
    """The fractional hypertree width and the static plan that attains it."""

    width: float
    best: DecompositionCost
    all_costs: list[DecompositionCost]

    @property
    def best_decomposition(self) -> TreeDecomposition:
        return self.best.decomposition

    def size_bound(self, statistics: ConstraintSet) -> float:
        return statistics.size_from_exponent(self.width)

    def describe(self) -> str:
        lines = [f"fhtw = {self.width:.4g} attained by {self.best.decomposition}"]
        for cost in self.all_costs:
            lines.append(f"  {cost.decomposition}: {cost.describe()}")
        return "\n".join(lines)


def decomposition_cost(decomposition: TreeDecomposition,
                       statistics: ConstraintSet,
                       query: ConjunctiveQuery | None = None,
                       builder: PolymatroidProgram | None = None) -> DecompositionCost:
    """``cost(T, S)`` from Eq. (21): the largest polymatroid bound over the bags.

    All bag bounds are solved against one shared compiled region; pass
    ``builder`` to reuse a region the caller already holds.
    """
    variables = query.variables if query is not None else decomposition.variables
    if builder is None:
        builder = PolymatroidProgram.shared(variables, statistics)
    result = DecompositionCost(decomposition=decomposition)
    bags = list(decomposition.bags)
    for bag, solution in zip(bags, builder.maximize_each(bags)):
        result.bag_exponents[bag] = solution.objective
    return result


def fractional_hypertree_width(query: ConjunctiveQuery, statistics: ConstraintSet,
                               decompositions: Sequence[TreeDecomposition] | None = None
                               ) -> FhtwResult:
    """Compute ``fhtw(Q, S)`` by enumerating free-connex tree decompositions.

    One shared ``Γ_n ∧ S`` region serves every bag of every decomposition.
    """
    if decompositions is None:
        decompositions = enumerate_tree_decompositions(query)
    if not decompositions:
        raise ValueError("the query admits no free-connex tree decomposition")
    builder = PolymatroidProgram.shared(query.variables, statistics)
    costs = [decomposition_cost(td, statistics, query=query, builder=builder)
             for td in decompositions]
    best = min(costs, key=lambda c: c.cost)
    return FhtwResult(width=best.cost, best=best, all_costs=costs)
