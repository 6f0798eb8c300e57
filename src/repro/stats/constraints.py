"""Input statistics: degree constraints and ℓp-norm constraints (Sections 3.2, 9.2).

A *degree constraint* ``deg_R(Y | X) <= N_{Y|X}`` bounds, for every fixed value
of the variables ``X``, the number of distinct ``Y`` values that co-occur with
it in the guard relation ``R``.  Cardinality constraints (``X = ∅``) and
functional dependencies (``N_{Y|X} = 1``) are special cases.  ℓp-norm
constraints bound the ℓk norm of the whole degree vector and strictly
generalise degree constraints (the max degree is the ℓ∞ norm).

All bound computations in this library work on a *log_N scale*: a constraint
with bound ``b`` contributes the linear inequality ``h(Y|X) <= log_N(b)`` (or
``h(X)/k + h(Y|X) <= log_N(b)`` for an ℓk-norm constraint) to the polymatroid
LP, where ``N`` is the reference input size stored on the
:class:`ConstraintSet`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.utils.varsets import format_varset, varset


@dataclass(frozen=True)
class DegreeConstraint:
    """``deg_guard(target | given) <= bound``.

    ``given`` may be empty, in which case this is the cardinality constraint
    ``|π_target(guard)| <= bound``.  ``guard`` is the name of the relation the
    statistic was measured on; it is optional for purely symbolic statistics
    but required by the PANDA executor (which needs to know which relation to
    read the initial sub-probability measure from).  ``guard_variables`` is
    the variable tuple of the atom it was measured on, when known: a relation
    that appears in several atoms (a self-join) has different degrees in
    each, and :func:`guarding_atoms` resolves the guard to that atom alone.
    """

    target: frozenset[str]
    given: frozenset[str]
    bound: float
    guard: str | None = None
    guard_variables: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.target & self.given:
            raise ValueError("target and given variable sets must be disjoint")
        if not self.target:
            raise ValueError("a degree constraint needs a non-empty target set")
        if self.bound < 0:
            raise ValueError("a degree bound cannot be negative")

    @property
    def variables(self) -> frozenset[str]:
        return self.target | self.given

    @property
    def is_cardinality(self) -> bool:
        return not self.given

    @property
    def is_functional_dependency(self) -> bool:
        return bool(self.given) and self.bound <= 1

    def exponent(self, base: float) -> float:
        """``log_base(bound)``, the right-hand side in the polymatroid LP."""
        return log_with_base(self.bound, base)

    def __str__(self) -> str:
        guard = f" in {self.guard}" if self.guard else ""
        if self.is_cardinality:
            return f"|{format_varset(self.target)}| <= {self.bound:g}{guard}"
        return (f"deg({format_varset(self.target)} | {format_varset(self.given)})"
                f" <= {self.bound:g}{guard}")


@dataclass(frozen=True)
class LpNormConstraint:
    """``||deg_guard(target | given = ·)||_order <= bound`` (Eq. (72)).

    Contributes ``h(given)/order + h(target|given) <= log_N(bound)`` to the
    polymatroid LP (Eq. (73)).  ``order = inf`` degenerates to a plain degree
    constraint.
    """

    target: frozenset[str]
    given: frozenset[str]
    order: float
    bound: float
    guard: str | None = None
    guard_variables: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.target & self.given:
            raise ValueError("target and given variable sets must be disjoint")
        if not self.target:
            raise ValueError("an lp-norm constraint needs a non-empty target set")
        if self.order < 1:
            raise ValueError("the norm order must be at least 1")

    @property
    def variables(self) -> frozenset[str]:
        return self.target | self.given

    def exponent(self, base: float) -> float:
        return log_with_base(self.bound, base)

    def as_degree_constraint(self) -> DegreeConstraint:
        """The equivalent degree constraint when ``order == inf``."""
        if self.order != float("inf"):
            raise ValueError("only the ℓ∞ norm is a plain degree constraint")
        return DegreeConstraint(self.target, self.given, self.bound, self.guard,
                                self.guard_variables)

    def __str__(self) -> str:
        guard = f" in {self.guard}" if self.guard else ""
        order = "∞" if self.order == float("inf") else f"{self.order:g}"
        return (f"||deg({format_varset(self.target)} | {format_varset(self.given)})"
                f"||_{order} <= {self.bound:g}{guard}")


def guarding_atoms(query, constraint) -> list:
    """The atoms of ``query`` a constraint speaks about.

    A constraint measured on an atom (``guard_variables`` set) resolves to
    exactly that atom; a guard given only as a relation name (hand-written
    statistics) to every atom of that relation containing the constraint's
    variables; an unguarded constraint to every atom containing them.
    """
    def guards(atom) -> bool:
        if constraint.guard is None:
            return True
        return constraint.guard == atom.relation and (
            constraint.guard_variables is None
            or constraint.guard_variables == atom.variables)

    return [atom for atom in query.atoms
            if constraint.variables <= atom.varset and guards(atom)]


def _guard_fields(guard) -> tuple[str | None, tuple[str, ...] | None]:
    """``(relation name, atom variables)`` of a guard given as a relation
    name, an :class:`~repro.query.cq.Atom`, or ``None``."""
    if guard is None or isinstance(guard, str):
        return guard, None
    return guard.relation, tuple(guard.variables)


def log_with_base(value: float, base: float) -> float:
    """``log_base(value)`` with the conventions used throughout the paper.

    ``value <= 1`` maps to 0 (a functional dependency has exponent 0); a base
    of 1 or less would make the scale meaningless, so it is rejected.
    """
    if base <= 1:
        raise ValueError("the log base N must be larger than 1")
    if value <= 1:
        return 0.0
    return math.log(value) / math.log(base)


class ConstraintSet:
    """A set of statistics ``S`` together with the reference input size ``N``.

    The reference size fixes the log scale used by every bound and width
    computation: a cardinality constraint of ``N`` has exponent 1, one of
    ``N^{3/2}`` has exponent 1.5, and so on.
    """

    def __init__(self,
                 constraints: Iterable[DegreeConstraint | LpNormConstraint] = (),
                 base: float = 2.0) -> None:
        if base <= 1:
            raise ValueError("the reference size N must be larger than 1")
        self.base = float(base)
        self._degree: list[DegreeConstraint] = []
        self._lp_norm: list[LpNormConstraint] = []
        for constraint in constraints:
            self.add(constraint)

    # ----------------------------------------------------------- population
    def add(self, constraint: DegreeConstraint | LpNormConstraint) -> None:
        if isinstance(constraint, DegreeConstraint):
            self._degree.append(constraint)
        elif isinstance(constraint, LpNormConstraint):
            self._lp_norm.append(constraint)
        else:
            raise TypeError(f"unsupported constraint type: {type(constraint)!r}")

    # A ``guard`` is a relation name or the atom the statistic was measured
    # on (which also records the atom's variables, see ``guarding_atoms``).
    def add_cardinality(self, variables: Iterable[str] | str, bound: float,
                        guard=None) -> DegreeConstraint:
        """Add ``|π_variables(guard)| <= bound`` and return the constraint."""
        return self.add_degree(variables, (), bound, guard)

    def add_degree(self, target: Iterable[str] | str, given: Iterable[str] | str,
                   bound: float, guard=None) -> DegreeConstraint:
        """Add ``deg_guard(target | given) <= bound`` and return the constraint."""
        constraint = DegreeConstraint(varset(target), varset(given), bound,
                                      *_guard_fields(guard))
        self.add(constraint)
        return constraint

    def add_functional_dependency(self, given: Iterable[str] | str,
                                  target: Iterable[str] | str,
                                  guard=None) -> DegreeConstraint:
        """Add the FD ``given -> target`` on the guard relation."""
        return self.add_degree(target, given, 1.0, guard)

    def add_lp_norm(self, target: Iterable[str] | str, given: Iterable[str] | str,
                    order: float, bound: float, guard=None) -> LpNormConstraint:
        """Add an ℓ_order norm constraint on a degree vector."""
        constraint = LpNormConstraint(varset(target), varset(given), float(order),
                                      bound, *_guard_fields(guard))
        self.add(constraint)
        return constraint

    # ----------------------------------------------------------------- views
    @property
    def degree_constraints(self) -> tuple[DegreeConstraint, ...]:
        return tuple(self._degree)

    @property
    def lp_norm_constraints(self) -> tuple[LpNormConstraint, ...]:
        return tuple(self._lp_norm)

    def __iter__(self) -> Iterator[DegreeConstraint | LpNormConstraint]:
        yield from self._degree
        yield from self._lp_norm

    def __len__(self) -> int:
        return len(self._degree) + len(self._lp_norm)

    @property
    def variables(self) -> frozenset[str]:
        result: set[str] = set()
        for constraint in self:
            result.update(constraint.variables)
        return frozenset(result)

    def cardinality_constraints(self) -> list[DegreeConstraint]:
        return [c for c in self._degree if c.is_cardinality]

    def has_only_cardinalities(self) -> bool:
        return not self._lp_norm and all(c.is_cardinality for c in self._degree)

    def constraints_guarded_by(self, relation: str) -> list[DegreeConstraint | LpNormConstraint]:
        return [c for c in self if c.guard == relation]

    # ----------------------------------------------------------- identity
    def constraint_descriptors(self, rename=None) -> list[tuple]:
        """Hashable descriptors of the constraints, one per constraint.

        ``rename`` optionally maps every variable name before it enters the
        descriptor — the engine fingerprints statistics in a query's
        *canonical* variable space this way.  This is the single source of
        truth for what identifies a constraint: both :meth:`fingerprint` and
        the engine's renaming-aware fingerprint hash these descriptors, so a
        new constraint field only needs to be added here to reach every
        cache key.
        """
        if rename is None:
            rename = lambda variable: variable  # noqa: E731

        def mapped(variables) -> tuple[str, ...]:
            return tuple(sorted(rename(variable) for variable in variables))

        descriptors = []
        for constraint in self:
            # The guard atom's variables keep their order: R(A,B) and R(B,A)
            # are different atoms.
            guard = (constraint.guard or "",
                     tuple(rename(variable)
                           for variable in constraint.guard_variables or ()))
            if isinstance(constraint, DegreeConstraint):
                descriptors.append(("deg", mapped(constraint.target),
                                    mapped(constraint.given),
                                    repr(constraint.bound), guard))
            else:
                descriptors.append(("lpnorm", mapped(constraint.target),
                                    mapped(constraint.given),
                                    repr(constraint.order),
                                    repr(constraint.bound), guard))
        return descriptors

    def fingerprint(self) -> str:
        """A content fingerprint of the statistics (order-insensitive).

        Two :class:`ConstraintSet` objects with the same reference size and
        the same multiset of constraints produce the same fingerprint; the LP
        substrate keys its shared polymatroid-region and Shannon-flow caches
        on it, so structurally identical statistics reuse compiled feasible
        regions no matter which object carries them.  Mutating the set (via
        :meth:`add`) changes the fingerprint.
        """
        digest = hashlib.sha1()
        digest.update(repr(self.base).encode())
        digest.update(repr(sorted(self.constraint_descriptors())).encode())
        return digest.hexdigest()

    # --------------------------------------------------------------- scaling
    def exponent_of(self, constraint: DegreeConstraint | LpNormConstraint) -> float:
        """``log_N`` of the constraint's bound."""
        return constraint.exponent(self.base)

    def size_from_exponent(self, exponent: float) -> float:
        """``N ** exponent``: converts a log-scale bound back to a count."""
        return self.base ** exponent

    def __str__(self) -> str:
        lines = [f"Statistics over N = {self.base:g}:"]
        lines.extend(f"  {constraint}" for constraint in self)
        return "\n".join(lines)


def identical_cardinalities(varsets_list: Sequence[Iterable[str] | str], size: float,
                            guards: Sequence[str | None] | None = None) -> ConstraintSet:
    """The classic "all relations have size N" statistics (Section 3.2).

    This is the statistics object the original AGM bound and Marx's submodular
    width assume; it is also the paper's ``S□`` when applied to the four edge
    relations of the 4-cycle query.
    """
    statistics = ConstraintSet(base=size)
    for index, variables in enumerate(varsets_list):
        guard = guards[index] if guards else None
        statistics.add_cardinality(variables, size, guard=guard)
    return statistics


def statistics_for_query(query, size: float) -> ConstraintSet:
    """Identical cardinality constraints (= ``size``) for every atom of a query."""
    statistics = ConstraintSet(base=size)
    for atom in query.atoms:
        statistics.add_cardinality(atom.varset, size, guard=atom.relation)
    return statistics
