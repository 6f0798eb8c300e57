"""Tree decompositions of conjunctive queries (Section 3.4).

Following the paper, a tree decomposition (TD) of a query ``Q`` is specified
by its set of *bags*: variable sets that (1) form an acyclic query and
(2) jointly cover every atom of ``Q``.  A TD is *free-connex* when the acyclic
query over the bags remains acyclic after an extra atom over the free
variables is added; for Boolean and full queries every TD is free-connex.
"""

from __future__ import annotations

from typing import Iterable

from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import JoinTree, gyo_reduction, is_acyclic, is_free_connex
from repro.utils.varsets import format_varset


class TreeDecomposition:
    """A tree decomposition identified by its set of bags.

    Bags are stored canonically: as a sorted tuple of frozensets with bags
    that are subsets of other bags removed (they carry no information for the
    cost model, which only looks at the maximum bag).
    """

    def __init__(self, bags: Iterable[Iterable[str]]) -> None:
        raw = [frozenset(bag) for bag in bags if frozenset(bag)]
        if not raw:
            raise ValueError("a tree decomposition needs at least one non-empty bag")
        maximal = [bag for bag in raw
                   if not any(bag < other for other in raw)]
        unique = sorted(set(maximal), key=lambda bag: (len(bag), sorted(bag)))
        self.bags: tuple[frozenset[str], ...] = tuple(unique)

    @property
    def variables(self) -> frozenset[str]:
        result: set[str] = set()
        for bag in self.bags:
            result.update(bag)
        return frozenset(result)

    @property
    def width_hint(self) -> int:
        """Size of the largest bag minus one (the classical tree width proxy)."""
        return max(len(bag) for bag in self.bags) - 1

    # ------------------------------------------------------------ validation
    def is_acyclic(self) -> bool:
        """True when the bags form an acyclic hypergraph."""
        return is_acyclic(self.bags)

    def covers_query(self, query: ConjunctiveQuery) -> bool:
        """True when every atom of the query fits in some bag."""
        return all(any(atom.varset <= bag for bag in self.bags)
                   for atom in query.atoms)

    def is_valid_for(self, query: ConjunctiveQuery) -> bool:
        """Conditions (1) and (2) of Section 3.4."""
        return (self.variables <= query.variables
                and self.is_acyclic()
                and self.covers_query(query))

    def is_free_connex_for(self, free_variables: Iterable[str]) -> bool:
        """Free-connex condition: bags plus an atom over the free variables stay acyclic."""
        return is_free_connex(self.bags, free_variables)

    # -------------------------------------------------------------- structure
    def join_tree(self) -> JoinTree:
        """A join tree over the bags (the bags are acyclic by construction)."""
        tree = gyo_reduction(self.bags)
        if tree is None:
            raise ValueError("the bags of this decomposition are not acyclic")
        return tree

    def dominates(self, other: "TreeDecomposition") -> bool:
        """Domination order used to prune redundant decompositions.

        ``self`` dominates ``other`` when every bag of ``self`` is contained
        in some bag of ``other``.  For any monotone set function ``h`` this
        implies ``max_B∈self h(B) <= max_B∈other h(B)``, so dominated TDs can
        never improve either the fractional hypertree width or the submodular
        width.
        """
        return all(any(bag <= other_bag for other_bag in other.bags)
                   for bag in self.bags)

    # --------------------------------------------------------------- dunders
    def __len__(self) -> int:
        return len(self.bags)

    def __iter__(self):
        return iter(self.bags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeDecomposition):
            return NotImplemented
        return set(self.bags) == set(other.bags)

    def __hash__(self) -> int:
        return hash(frozenset(self.bags))

    def __str__(self) -> str:
        return "TD[" + ", ".join(format_varset(bag) for bag in self.bags) + "]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


def trivial_decomposition(query: ConjunctiveQuery) -> TreeDecomposition:
    """The one-bag decomposition that puts every variable together."""
    return TreeDecomposition([query.variables])
