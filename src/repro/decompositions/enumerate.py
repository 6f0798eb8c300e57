"""Enumeration of (free-connex) tree decompositions.

The width measures of Sections 4 and 5 minimise or maximise over the set
``TD(Q)`` of free-connex tree decompositions.  Up to redundancy, every tree
decomposition is refined by one induced by a *variable elimination order*:
eliminating a variable creates a bag containing the variable and its current
neighbours, after which the neighbours are connected and the variable removed.
This module enumerates exactly those decompositions (restricting elimination
orders to put the existential variables first, which yields free-connex TDs
for queries with projections) and prunes dominated ones, since dominated TDs
can change neither ``fhtw`` nor ``subw``.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Sequence

from repro.decompositions.treedecomp import TreeDecomposition, trivial_decomposition
from repro.query.cq import ConjunctiveQuery


class TooManyVariablesError(ValueError):
    """Raised when a query is too large for exhaustive TD enumeration."""


def decomposition_from_elimination_order(query: ConjunctiveQuery,
                                         order: Sequence[str]) -> TreeDecomposition:
    """The tree decomposition induced by eliminating variables in ``order``.

    Variables not listed in ``order`` are placed in a single final bag (this
    is how the free variables of a non-full query are handled: they are never
    eliminated, and the final bag keeps them together, which makes the
    decomposition free-connex).
    """
    remaining_edges: list[frozenset[str]] = [atom.varset for atom in query.atoms]
    bags: list[frozenset[str]] = []
    eliminated: set[str] = set()
    for variable in order:
        if variable in eliminated:
            continue
        touching = [edge for edge in remaining_edges if variable in edge]
        if touching:
            bag = frozenset().union(*touching)
        else:
            bag = frozenset({variable})
        bags.append(bag)
        eliminated.add(variable)
        new_edge = bag - {variable}
        remaining_edges = [edge for edge in remaining_edges if variable not in edge]
        if new_edge:
            remaining_edges.append(new_edge)
    leftover = query.variables - eliminated
    if leftover:
        bags.append(frozenset(leftover))
    return TreeDecomposition(bags)


def enumerate_tree_decompositions(query: ConjunctiveQuery,
                                  max_variables: int = 9,
                                  include_trivial: bool = True,
                                  only_nonredundant: bool = True) -> list[TreeDecomposition]:
    """All free-connex tree decompositions of ``query`` (up to redundancy).

    Elimination orders permute the existential variables; the free variables
    stay in the final bag, which guarantees the free-connex property.  For
    Boolean and full queries all variables are permuted.  Decompositions that
    are dominated by another decomposition are removed when
    ``only_nonredundant`` is set (the default), because they cannot affect any
    width computed in this library.
    """
    variables = query.variables
    if len(variables) > max_variables:
        raise TooManyVariablesError(
            f"query has {len(variables)} variables; exhaustive TD enumeration is "
            f"limited to {max_variables} (raise max_variables to override)")
    if query.is_boolean or query.is_full:
        to_eliminate = sorted(variables)
    else:
        to_eliminate = sorted(query.bound_variables)

    found: set[TreeDecomposition] = set()
    # Many orders induce the same decomposition (Star4's 120 give 12), and
    # the checks below depend on the decomposition alone: run them once each.
    checked: set[TreeDecomposition] = set()
    if to_eliminate:
        for order in permutations(to_eliminate):
            decomposition = decomposition_from_elimination_order(query, order)
            if decomposition in checked:
                continue
            checked.add(decomposition)
            if not decomposition.is_valid_for(query):
                continue
            if not decomposition.is_free_connex_for(query.free_variables):
                continue
            found.add(decomposition)
    if include_trivial or not found:
        trivial = trivial_decomposition(query)
        if trivial.is_free_connex_for(query.free_variables):
            found.add(trivial)
    decompositions = sorted(found, key=lambda td: (len(td.bags), str(td)))
    if only_nonredundant:
        decompositions = nonredundant_decompositions(decompositions)
    return decompositions


def nonredundant_decompositions(decompositions: Iterable[TreeDecomposition]) -> list[TreeDecomposition]:
    """Keep only decompositions that are minimal under the domination order.

    A decomposition dominated by a *different* decomposition is dropped; among
    decompositions that dominate each other (identical bag sets are already
    collapsed by ``TreeDecomposition``) one representative is kept.
    """
    decompositions = list(dict.fromkeys(decompositions))
    kept: list[TreeDecomposition] = []
    for candidate in decompositions:
        dominated_by_other = any(
            other is not candidate and other.dominates(candidate) and not candidate.dominates(other)
            for other in decompositions)
        if dominated_by_other:
            continue
        mutually_dominating_kept = any(
            other.dominates(candidate) and candidate.dominates(other) for other in kept)
        if mutually_dominating_kept:
            continue
        kept.append(candidate)
    return kept


def free_connex_decompositions(query: ConjunctiveQuery,
                               max_variables: int = 9) -> list[TreeDecomposition]:
    """Alias matching the paper's ``TD(Q)`` notation."""
    return enumerate_tree_decompositions(query, max_variables=max_variables)
