"""Bounds from ℓp-norm statistics on degree sequences (Section 9.2).

ℓk-norm constraints strictly generalise degree constraints (the max degree is
the ℓ∞ norm) and plug into the polymatroid bound through Eq. (73):

    h(X)/k + h(Y|X)  <=  log_N ||deg_R(Y|X=·)||_k .

The heavy lifting lives in :mod:`repro.bounds.polymatroid`; this module adds
the data-facing helpers: measuring norms on a database, building norm-enriched
statistics and comparing the resulting bound with the degree-only bound (the
comparison reproduced by experiment E7).

Because the polymatroid-region cache keys on the statistics' *content*
fingerprint, the degree-only :class:`ConstraintSet` rebuilt by
:func:`compare_with_and_without_norms` on every call still maps to one shared
compiled region — repeated E7-style comparisons re-solve two cached regions
(with and without the norm rows) instead of rebuilding four LPs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bounds.polymatroid import BoundResult, polymatroid_bound
from repro.query.cq import ConjunctiveQuery
from repro.relational.database import Database
from repro.stats.constraints import ConstraintSet


@dataclass
class NormBoundComparison:
    """Side-by-side polymatroid bounds with and without ℓp-norm constraints."""

    without_norms: BoundResult
    with_norms: BoundResult

    @property
    def improvement_exponent(self) -> float:
        """How much the norm constraints lower the bound, on the log_N scale."""
        return self.without_norms.exponent - self.with_norms.exponent


def add_measured_lp_norms(statistics: ConstraintSet, database: Database,
                          query: ConjunctiveQuery, order: float = 2.0) -> ConstraintSet:
    """Return a copy of ``statistics`` enriched with measured ℓ_order norms.

    For every binary atom ``R(A, B)`` both directional norms
    ``||deg_R(B | A=·)||_order`` and ``||deg_R(A | B=·)||_order`` are added.
    Larger-arity atoms get one norm per single conditioning variable.
    """
    enriched = ConstraintSet(list(statistics), base=statistics.base)
    for atom in query.atoms:
        relation = database.bind_atom(atom)
        for given in sorted(atom.varset):
            target = atom.varset - {given}
            if not target:
                continue
            norm = relation.lp_norm_of_degrees(target, {given}, order)
            enriched.add_lp_norm(target, {given}, order, max(1.0, norm),
                                 guard=atom)
    return enriched


def compare_with_and_without_norms(query: ConjunctiveQuery,
                                   statistics: ConstraintSet) -> NormBoundComparison:
    """Compare the bound using all constraints vs. dropping the norm constraints.

    Both bounds hit the shared polymatroid-region cache: the degree-only
    statistics are reconstructed here, but their fingerprint matches any
    previous call with the same content, so only the first comparison builds.
    """
    degree_only = ConstraintSet(statistics.degree_constraints, base=statistics.base)
    return NormBoundComparison(
        without_norms=polymatroid_bound(query, degree_only),
        with_norms=polymatroid_bound(query, statistics),
    )
