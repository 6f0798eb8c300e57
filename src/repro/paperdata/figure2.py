"""The running example of the paper: Figure 2's instance and the statistics
``S□`` (Eq. (23)) and ``S□full`` (Eq. (16)).

Figure 2 gives a concrete database for the 4-cycle query ``Q□full`` together
with its three output tuples and, in red, the probability annotations of the
uniform distribution over the output.  These exact values are reproduced by
experiment F2 and reused throughout the unit tests, because the paper derives
every entropy argument from this instance.
"""

from __future__ import annotations

from fractions import Fraction

from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.stats.constraints import ConstraintSet


def figure2_database() -> Database:
    """The exact instance of Figure 2.

    ``R(X,Y)``, ``S(Y,Z)``, ``T(Z,W)``, ``U(W,X)`` with the paper's values
    (1, 2, p, q, 3, 4, 5, i, j, k kept verbatim as ints and strings).
    """
    database = Database()
    database.add(Relation("R", ("x", "y"), [(1, "p"), (1, "q"), (2, "p")]))
    database.add(Relation("S", ("y", "z"), [("p", 3), ("q", 4), ("q", 5)]))
    database.add(Relation("T", ("z", "w"), [(3, "i"), (5, "i"), (5, "j")]))
    database.add(Relation("U", ("w", "x"), [("i", 1), ("j", 1), ("k", 2)]))
    return database


def figure2_expected_output() -> list[tuple]:
    """The output of ``Q□full`` on the Figure 2 instance, as (X, Y, Z, W) tuples."""
    return [(1, "p", 3, "i"), (1, "q", 5, "i"), (1, "q", 5, "j")]


def figure2_marginal_probabilities() -> dict[str, dict[tuple, Fraction]]:
    """The red marginal annotations of Figure 2, per input relation.

    Tuples that never participate in the output have marginal probability 0.
    """
    return {
        "R": {(1, "p"): Fraction(1, 3), (1, "q"): Fraction(2, 3), (2, "p"): Fraction(0)},
        "S": {("p", 3): Fraction(1, 3), ("q", 4): Fraction(0), ("q", 5): Fraction(2, 3)},
        "T": {(3, "i"): Fraction(1, 3), (5, "i"): Fraction(1, 3), (5, "j"): Fraction(1, 3)},
        "U": {("i", 1): Fraction(2, 3), ("j", 1): Fraction(1, 3), ("k", 2): Fraction(0)},
    }


def four_cycle_cardinality_statistics(size: float) -> ConstraintSet:
    """``S□`` from Eq. (23): every edge relation of the 4-cycle has size at most N."""
    statistics = ConstraintSet(base=size)
    statistics.add_cardinality("XY", size, guard="R")
    statistics.add_cardinality("YZ", size, guard="S")
    statistics.add_cardinality("ZW", size, guard="T")
    statistics.add_cardinality("WX", size, guard="U")
    return statistics


def four_cycle_full_statistics(size: float, degree_bound: float) -> ConstraintSet:
    """``S□full`` from Eq. (16): cardinalities N, the FD W→X on U, and deg_U(W|X) ≤ C."""
    statistics = four_cycle_cardinality_statistics(size)
    statistics.add_functional_dependency("W", "X", guard="U")
    statistics.add_degree("W", "X", degree_bound, guard="U")
    return statistics
