"""Conjunctive queries and atoms (Section 3.1 of the paper).

A conjunctive query (CQ) is a join query

    Q(F) :- R1(X1) ∧ R2(X2) ∧ ... ∧ Rm(Xm)

where each *atom* ``Ri(Xi)`` pairs a relation symbol with a set of variables,
and ``F`` is the set of *free* variables onto which the result is projected.
A CQ with ``F = ∅`` is *Boolean*; a CQ with ``F = V`` (all variables) is
*full*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.utils.varsets import format_varset, varset


@dataclass(frozen=True)
class Atom:
    """A single atom ``R(X1, ..., Xk)`` of a conjunctive query.

    Attributes
    ----------
    relation:
        The relation symbol, e.g. ``"R"``.
    variables:
        The tuple of variable names in the order they appear in the atom.
        The order matters for binding columns of a stored relation; the
        *set* of variables is what the information-theoretic machinery uses.
    """

    relation: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(
                f"atom {self.relation}({', '.join(self.variables)}) repeats a variable; "
                "repeated variables are not supported (rename and add an equality atom)"
            )

    @property
    def varset(self) -> frozenset[str]:
        """The set of variables of the atom."""
        return frozenset(self.variables)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


class ConjunctiveQuery:
    """A conjunctive query ``Q(F) :- ∧ atoms``.

    Parameters
    ----------
    atoms:
        The atoms of the body.
    free_variables:
        The free (output) variables ``F``.  ``None`` (the default) means the
        query is *full*: every variable is free.  Pass an empty iterable for a
        Boolean query.
    name:
        Optional name used when printing the query (defaults to ``"Q"``).
    """

    def __init__(self,
                 atoms: Sequence[Atom],
                 free_variables: Iterable[str] | None = None,
                 name: str = "Q") -> None:
        if not atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        self.atoms: tuple[Atom, ...] = tuple(atoms)
        self.name = name
        all_vars: set[str] = set()
        for atom in self.atoms:
            all_vars.update(atom.variables)
        self._variables = frozenset(all_vars)
        if free_variables is None:
            self._free = self._variables
        else:
            free = varset(free_variables)
            unknown = free - self._variables
            if unknown:
                raise ValueError(
                    f"free variables {format_varset(unknown)} do not appear in any atom"
                )
            self._free = free

    # ------------------------------------------------------------------ views
    @property
    def variables(self) -> frozenset[str]:
        """All variables ``V`` appearing in the query."""
        return self._variables

    @property
    def free_variables(self) -> frozenset[str]:
        """The free variables ``F``."""
        return self._free

    @property
    def bound_variables(self) -> frozenset[str]:
        """The existentially quantified variables ``V \\ F``."""
        return self._variables - self._free

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Relation symbols in atom order (duplicates preserved for self-joins)."""
        return tuple(atom.relation for atom in self.atoms)

    @property
    def is_full(self) -> bool:
        """True when every variable is free."""
        return self._free == self._variables

    @property
    def is_boolean(self) -> bool:
        """True when the query has no free variables."""
        return not self._free

    @property
    def has_self_join(self) -> bool:
        """True when the same relation symbol appears in more than one atom."""
        names = self.relation_names
        return len(set(names)) != len(names)

    # ------------------------------------------------------------- derivation
    def with_free_variables(self, free_variables: Iterable[str]) -> "ConjunctiveQuery":
        """Return a copy of the query with a different set of free variables."""
        return ConjunctiveQuery(self.atoms, free_variables, name=self.name)

    def boolean_version(self) -> "ConjunctiveQuery":
        """The Boolean version of this query (no free variables)."""
        return self.with_free_variables(())

    def full_version(self) -> "ConjunctiveQuery":
        """The full version of this query (all variables free)."""
        return self.with_free_variables(self._variables)

    def atoms_for_relation(self, relation: str) -> tuple[Atom, ...]:
        """All atoms over a given relation symbol."""
        return tuple(atom for atom in self.atoms if atom.relation == relation)

    def canonicalize(self) -> tuple["ConjunctiveQuery", dict[str, str]]:
        """A variable-renaming-invariant canonical form, plus the renaming.

        Returns ``(canonical_query, renaming)`` where ``renaming`` maps this
        query's variable names onto the canonical names ``v0, v1, ...``.
        Atoms are ordered by ``(relation, arity, structural signature)`` —
        the signature (:func:`~repro.query.hypergraph.vertex_signatures`)
        describes how each variable position is shared between atoms without
        mentioning variable names — and canonical names are assigned in first
        occurrence order over that ordering.  Consequently two queries that
        differ only by a variable renaming (or by reordering atoms with
        distinct signatures) canonicalize to *equal* queries, which is what
        the engine's plan cache keys on; self-join atoms with identical
        signatures keep their relative order, so the form stays deterministic
        for them too.
        """
        from repro.query.hypergraph import vertex_signatures

        signatures = vertex_signatures(
            [(atom.relation, atom.variables) for atom in self.atoms])

        def atom_key(atom: Atom) -> tuple:
            return (atom.relation, len(atom.variables),
                    tuple(signatures[v] for v in atom.variables))

        ordered = sorted(self.atoms, key=atom_key)
        renaming: dict[str, str] = {}
        for atom in ordered:
            for variable in atom.variables:
                if variable not in renaming:
                    renaming[variable] = f"v{len(renaming)}"
        canonical_atoms = [Atom(atom.relation,
                                tuple(renaming[v] for v in atom.variables))
                           for atom in ordered]
        canonical_free = sorted(renaming[v] for v in self._free)
        canonical = ConjunctiveQuery(canonical_atoms,
                                     free_variables=canonical_free,
                                     name="Q_canonical")
        return canonical, renaming

    # -------------------------------------------------------------- rendering
    def __str__(self) -> str:
        head = f"{self.name}({', '.join(sorted(self._free))})"
        body = " ∧ ".join(str(atom) for atom in self.atoms)
        return f"{head} :- {body}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConjunctiveQuery({self!s})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (self.atoms == other.atoms
                and self._free == other._free)

    def __hash__(self) -> int:
        return hash((self.atoms, self._free))


def make_atom(relation: str, variables: Iterable[str] | str) -> Atom:
    """Convenience constructor accepting ``"XY"`` shorthand for variables."""
    if isinstance(variables, str):
        if all(ch.isalpha() and ch.isupper() for ch in variables):
            return Atom(relation, tuple(variables))
        return Atom(relation, (variables,))
    return Atom(relation, tuple(variables))
