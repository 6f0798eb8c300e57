"""Collecting statistics from a concrete database and validating ``D |= S``.

The paper treats statistics as *given*; a real optimizer has to measure them.
:func:`collect_statistics` computes, for every atom of a query, the
cardinality of the bound relation and the maximum degrees (and optionally the
ℓ2 norms) for every split of the atom's variables into a "given" and a
"target" part.  :func:`validate` checks that a database satisfies a constraint
set, which the tests use to confirm that worst-case bounds really are upper
bounds on real instances.
"""

from __future__ import annotations

from itertools import combinations

from repro.query.cq import ConjunctiveQuery
from repro.relational.database import Database
from repro.stats.constraints import (
    ConstraintSet,
    DegreeConstraint,
    LpNormConstraint,
    guarding_atoms,
)


def collect_statistics(database: Database, query: ConjunctiveQuery,
                       include_degrees: bool = True,
                       include_l2_norms: bool = False,
                       base: float | None = None) -> ConstraintSet:
    """Measure statistics of ``database`` relevant to ``query``.

    Parameters
    ----------
    include_degrees:
        When true (the default), add a max-degree constraint for every
        non-trivial split of each atom's variables.
    include_l2_norms:
        When true, also add ℓ2-norm constraints for single-variable splits of
        binary atoms (the case worked out in Section 9.2).
    base:
        The reference size ``N``; defaults to the largest relation size (at
        least 2 so the log scale is well defined).

    Degree probes go through each bound relation's storage backend, so under
    a caching backend the group-by structures built here are the same ones
    the executor's partitioning and measure initialisation consume — and a
    second collection over the same database is served entirely from cache.
    """
    if base is None:
        base = max(2.0, float(database.max_relation_size()))
    statistics = ConstraintSet(base=base)
    for atom, bound_relation in zip(query.atoms, database.bind_query(query)):
        variables = sorted(atom.varset)
        # Record the *true* cardinality — including 0 for an empty relation.
        # The seed clamped here (``max(1, len)``), which made an empty atom
        # report cardinality 1 and degree 1, inflating PANDA's size bound and
        # hiding guaranteed-empty queries from the planner.  Clamping belongs
        # in log space only, where ``log_with_base`` already maps any bound
        # <= 1 to exponent 0 for the polymatroid LP.
        statistics.add_cardinality(atom.varset, len(bound_relation),
                                   guard=atom)
        if not include_degrees or len(variables) < 2:
            continue
        for given_size in range(1, len(variables)):
            for given in combinations(variables, given_size):
                given_set = frozenset(given)
                target_set = atom.varset - given_set
                degree = bound_relation.degree(target_set, given_set)
                statistics.add_degree(target_set, given_set, degree,
                                      guard=atom)
                if include_l2_norms and len(given_set) == 1:
                    norm = bound_relation.lp_norm_of_degrees(target_set, given_set, 2.0)
                    statistics.add_lp_norm(target_set, given_set, 2.0, norm,
                                           guard=atom)
    return statistics


def validate(database: Database, query: ConjunctiveQuery,
             statistics: ConstraintSet) -> list[str]:
    """Return a list of violated constraints (empty when ``D |= S``).

    Each constraint is checked against every atom it speaks about
    (:func:`~repro.stats.constraints.guarding_atoms`): the atom it was
    measured on, the atoms of its guard relation, or, unguarded, every atom
    whose variables contain the constraint's variables.
    """
    violations: list[str] = []
    for constraint in statistics:
        for atom in guarding_atoms(query, constraint):
            relation = database.bind_atom(atom)
            if isinstance(constraint, DegreeConstraint):
                actual = relation.degree(constraint.target, constraint.given)
                if actual > constraint.bound + 1e-9:
                    violations.append(
                        f"{constraint} violated on {atom}: actual degree {actual}")
            elif isinstance(constraint, LpNormConstraint):
                actual = relation.lp_norm_of_degrees(constraint.target,
                                                     constraint.given,
                                                     constraint.order)
                if actual > constraint.bound + 1e-6:
                    violations.append(
                        f"{constraint} violated on {atom}: actual norm {actual:.4f}")
    return violations


def satisfies(database: Database, query: ConjunctiveQuery,
              statistics: ConstraintSet) -> bool:
    """``True`` when the database satisfies every constraint (``D |= S``)."""
    return not validate(database, query, statistics)

