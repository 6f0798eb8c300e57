"""The AGM bound via fractional edge covers (Section 2.1, [12]).

When the statistics contain only cardinality constraints — one size ``N_R``
per atom — the polymatroid bound collapses to the AGM bound

    |Q(D)|  <=  Π_R N_R^{x_R}

where ``x`` is a fractional edge cover of the free variables by the atoms.
This module computes the optimal cover directly (a much smaller LP than the
polymatroid program) and exposes both the cover and the bound; the test suite
checks that it agrees with the polymatroid LP, as Theorem 4.1 promises.

Cover programs are memoized per (atom structure, sizes, cover variables):
cardinality estimation loops call the AGM bound for the same query shape over
and over, and on a hit the compiled sparse matrices are re-solved directly
(``edge_cover_builds`` / ``edge_cover_hits`` in
:func:`repro.lp.model.lp_cache_stats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.lp.model import BoundedCache, LinearProgram
from repro.query.cq import ConjunctiveQuery
from repro.stats.constraints import ConstraintSet, guarding_atoms, log_with_base


@dataclass
class EdgeCoverResult:
    """Optimal fractional edge cover and the induced AGM bound."""

    exponent: float
    size_bound: float
    weights: dict[int, float]  # atom index -> cover weight

    def weight_by_atom(self, query: ConjunctiveQuery) -> dict[str, float]:
        """Cover weights keyed by a readable atom rendering."""
        return {str(query.atoms[index]): weight
                for index, weight in self.weights.items() if weight > 1e-9}


def _atom_sizes(query: ConjunctiveQuery, statistics: ConstraintSet) -> dict[int, float]:
    """The cardinality bound of each atom, from the statistics.

    An atom picks up the smallest cardinality constraint that covers all of
    its variables and is either unguarded or guards that atom
    (:func:`~repro.stats.constraints.guarding_atoms`).
    """
    sizes: dict[int, float] = {}
    cardinalities = [(constraint, guarding_atoms(query, constraint))
                     for constraint in statistics.cardinality_constraints()]
    for index, atom in enumerate(query.atoms):
        candidates = [constraint.bound for constraint, atoms in cardinalities
                      if atom.varset <= constraint.target
                      and (constraint.guard is None or atom in atoms)]
        if not candidates:
            raise ValueError(
                f"no cardinality constraint covers atom {atom}; "
                "the AGM bound needs one size per atom")
        sizes[index] = min(candidates)
    return sizes


#: Compiled cover programs keyed by (per-atom varsets and sizes, cover set, base).
_COVER_CACHE = BoundedCache("edge_cover", 128)


def _cover_program(query: ConjunctiveQuery, sizes: Mapping[int, float],
                   cover_variables: frozenset[str], base: float) -> LinearProgram:
    """Build (or fetch) the compiled fractional-edge-cover LP."""
    key = (tuple((tuple(sorted(atom.varset)), sizes[index])
                 for index, atom in enumerate(query.atoms)),
           tuple(sorted(cover_variables)), base)
    cached = _COVER_CACHE.lookup(key)
    if cached is not None:
        return cached
    program = LinearProgram("fractional-edge-cover")
    objective: dict[str, float] = {}
    for index, atom in enumerate(query.atoms):
        name = f"x{index}"
        program.add_variable(name, lower=0.0)
        objective[name] = log_with_base(sizes[index], base)
    for variable in sorted(cover_variables):
        row = {f"x{index}": 1.0
               for index, atom in enumerate(query.atoms) if variable in atom.varset}
        if not row:
            raise ValueError(f"variable {variable!r} is not covered by any atom")
        program.add_ge(row, 1.0)
    program.set_objective(objective, maximize=False)
    return _COVER_CACHE.store(key, program)


def fractional_edge_cover(query: ConjunctiveQuery, statistics: ConstraintSet,
                          cover_variables: frozenset[str] | None = None) -> EdgeCoverResult:
    """Minimise ``Σ x_R log_N(N_R)`` over fractional covers of ``cover_variables``.

    ``cover_variables`` defaults to the query's free variables (Shearer's
    lemma only needs the output variables to be covered).
    """
    if cover_variables is None:
        cover_variables = query.free_variables
    sizes = _atom_sizes(query, statistics)
    program = _cover_program(query, sizes, frozenset(cover_variables),
                             statistics.base)
    solution = program.solve()
    weights = {index: solution.value(f"x{index}") for index in range(len(query.atoms))}
    exponent = solution.objective
    return EdgeCoverResult(exponent=exponent,
                           size_bound=statistics.size_from_exponent(exponent),
                           weights=weights)


def agm_bound(query: ConjunctiveQuery, statistics: ConstraintSet) -> EdgeCoverResult:
    """The AGM bound of a query under cardinality statistics.

    For a full CQ this is the classical bound of Atserias, Grohe and Marx;
    for queries with projections the cover only needs to span the free
    variables (the bound remains valid by Shearer's lemma).  Boolean queries
    get the trivial bound of one tuple.
    """
    if query.is_boolean:
        return EdgeCoverResult(exponent=0.0, size_bound=1.0, weights={})
    return fractional_edge_cover(query, statistics)


def agm_bound_from_sizes(query: ConjunctiveQuery,
                         sizes: Mapping[str, float],
                         base: float | None = None) -> EdgeCoverResult:
    """AGM bound given a plain ``{relation name: size}`` mapping."""
    reference = base if base is not None else max(2.0, max(sizes.values()))
    statistics = ConstraintSet(base=reference)
    for atom in query.atoms:
        if atom.relation not in sizes:
            raise KeyError(f"no size given for relation {atom.relation!r}")
        statistics.add_cardinality(atom.varset, sizes[atom.relation],
                                   guard=atom.relation)
    return agm_bound(query, statistics)
