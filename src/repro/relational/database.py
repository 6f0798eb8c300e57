"""Database instances: named collections of relations bound to a query.

A :class:`Database` maps relation symbols to :class:`~repro.relational.relation.Relation`
instances.  When a query atom ``R(X, Y)`` is evaluated against relation ``R``,
the relation's columns are positionally bound to the atom's variables, which
is how the engine moves from "columns" to the paper's "variables".

The database is also the engine-level cache boundary: atom bindings are
memoized (a bound atom is a rename, which shares the stored relation's
storage backend), so every consumer of the same atom — statistics collection,
PANDA partitioning, the join algorithms — hits the same backend and therefore
the same memoized encodings.  Cache entries are validated by backend identity and
drop out automatically when a relation is replaced or mutated (copy-on-write
forks change the backend object).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.query.cq import Atom, ConjunctiveQuery
from repro.relational.relation import Relation


class Database:
    """A database instance ``D``: a mapping from relation symbols to relations.

    ``backend`` optionally pins every stored relation to one storage engine
    kind (``"set"`` or ``"columnar"``): relations added under a different
    backend are converted on registration.
    """

    def __init__(self, relations: Mapping[str, Relation] | Iterable[Relation] = (),
                 backend: str | None = None) -> None:
        self._relations: dict[str, Relation] = {}
        self._backend_kind = backend
        self._bind_cache: dict[tuple, tuple[Relation, object]] = {}
        self._annotated_cache: dict[tuple, tuple] = {}
        self._revision = 0
        if isinstance(relations, Mapping):
            for name, relation in relations.items():
                self.add(relation, name=name)
        else:
            for relation in relations:
                self.add(relation)

    @property
    def revision(self) -> int:
        """A counter bumped whenever a relation is registered or replaced.

        The engine keys its measured-statistics memo and prepared-query
        validity on it: a prepared plan observed at revision ``r`` is
        transparently re-resolved once the database moves past ``r``.
        (Facade-level row mutation forks the relation's backend instead of
        going through :meth:`add`; consumers that need to see those too
        should also compare :meth:`backend_snapshot`.)
        """
        return self._revision

    def backend_snapshot(self) -> tuple[tuple[str, object], ...]:
        """``(name, backend object)`` pairs, for identity-based cache validation.

        Copy-on-write mutation replaces a relation's backend object, so a
        snapshot captured alongside a derived result (memoized statistics, a
        prepared query) stays valid exactly as long as every stored relation
        still carries the same backend.
        """
        return tuple((name, self._relations[name]._backend)
                     for name in self.relation_names())

    def add(self, relation: Relation, name: str | None = None) -> None:
        """Register a relation under ``name`` (defaults to the relation's name)."""
        if self._backend_kind is not None:
            relation = relation.with_backend(self._backend_kind)
        key = name or relation.name
        self._relations[key] = relation
        self._revision += 1
        for cached_key in [k for k in self._bind_cache if k[0] == key]:
            del self._bind_cache[cached_key]
        for cached_key in [k for k in self._annotated_cache if k[0] == key]:
            del self._annotated_cache[cached_key]

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise KeyError(f"database has no relation named {name!r}") from exc

    def relation_names(self) -> list[str]:
        return sorted(self._relations)

    def relations(self) -> list[Relation]:
        return [self._relations[name] for name in self.relation_names()]

    @property
    def size(self) -> int:
        """Total number of tuples ``N = ||D||`` across all relations."""
        return sum(len(relation) for relation in self._relations.values())

    def max_relation_size(self) -> int:
        """The size of the largest relation (often used as the parameter N)."""
        if not self._relations:
            return 0
        return max(len(relation) for relation in self._relations.values())

    # -------------------------------------------------------------- bindings
    def bind_atom(self, atom: Atom) -> Relation:
        """The relation of ``atom`` with its columns renamed to the atom's variables.

        Binding is positional: the i-th column of the stored relation becomes
        the i-th variable of the atom.  Bindings are memoized per
        ``(relation, variables)`` pair; the bound facade shares the stored
        relation's backend, so its memoized encodings are shared across every
        query that binds the same atom.
        """
        relation = self[atom.relation]
        cache_key = (atom.relation, tuple(atom.variables))
        cached = self._bind_cache.get(cache_key)
        if cached is not None:
            bound, stored_backend = cached
            if relation._backend is stored_backend:
                # Hand out a fresh facade sharing the cached backend: callers
                # get independent snapshot semantics (mutating one bound
                # relation forks only that facade) while memoized encodings
                # stay shared.
                return bound.copy(bound.name)
        if len(relation.columns) != len(atom.variables):
            raise ValueError(
                f"atom {atom} has arity {len(atom.variables)} but relation "
                f"{atom.relation!r} has arity {len(relation.columns)}"
            )
        mapping = dict(zip(relation.columns, atom.variables))
        bound = relation.rename(mapping, name=str(atom))
        self._bind_cache[cache_key] = (bound, relation._backend)
        return bound.copy(bound.name)

    def bind_query(self, query: ConjunctiveQuery) -> list[Relation]:
        """Bind every atom of ``query``, in atom order."""
        return [self.bind_atom(atom) for atom in query.atoms]

    def annotated_atom(self, atom: Atom, semiring,
                       weight=None, weight_key: str | None = None):
        """The bound atom as an annotated relation over ``semiring``.

        This is where the FAQ engine gets its factors.  Bindings are memoized
        per ``(relation, variables, semiring name, weight key)`` — but only
        when the paired annotated engine runs the kernels and memoizes its
        indexes (so the ``dict``
        reference engine faithfully keeps the seed's rebuild-per-run costs)
        and the annotation is reproducible: the default ``one`` annotation
        (``weight is None``) or a ``weight`` function the caller names with a
        stable ``weight_key``.  Cache entries are validated by the stored
        relation's backend identity, exactly like :meth:`bind_atom`, so
        copy-on-write mutation drops them automatically.
        """
        from repro.relational.semiring import AnnotatedRelation

        relation = self[atom.relation]
        cache_key = None
        # A falsy weight_key (None, "") means "unnamed weight function" — two
        # different unnamed functions must never share a cache slot.
        if weight is None or weight_key:
            cache_key = (atom.relation, tuple(atom.variables), semiring.name,
                         None if weight is None else weight_key)
            cached = self._annotated_cache.get(cache_key)
            if cached is not None:
                annotated, stored_backend = cached
                if relation._backend is stored_backend:
                    return annotated
        annotated = AnnotatedRelation.from_relation(self.bind_atom(atom),
                                                    semiring, weight=weight)
        if cache_key is not None and annotated._backend.supports_kernels:
            # Annotated relations are immutable through their facade API, so
            # the cache can hand out the same facade (and its warm indexes).
            annotated._backend.share()
            self._annotated_cache[cache_key] = (annotated, relation._backend)
        return annotated

    def restrict_to_query(self, query: ConjunctiveQuery) -> "Database":
        """A database containing only the relations mentioned by ``query``."""
        names = set(query.relation_names)
        return Database({name: self._relations[name] for name in names},
                        backend=self._backend_kind)

    def copy(self) -> "Database":
        return Database({name: rel.copy() for name, rel in self._relations.items()},
                        backend=self._backend_kind)

    def summary(self) -> dict[str, int]:
        """Relation sizes, for display and logging."""
        return {name: len(self._relations[name]) for name in self.relation_names()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{name}:{len(rel)}" for name, rel in sorted(self._relations.items()))
        return f"Database({parts})"


def database_from_edges(edge_lists: Mapping[str, Iterable[tuple]],
                        columns: Mapping[str, tuple[str, ...]] | None = None,
                        backend: str | None = None) -> Database:
    """Build a database of (mostly binary) relations from raw tuple lists.

    ``columns`` optionally overrides the column names per relation; by default
    a relation with arity k gets columns ``("c1", ..., "ck")``.  ``backend``
    selects the storage engine for every relation.
    """
    database = Database(backend=backend)
    for name, rows in edge_lists.items():
        rows = [tuple(row) for row in rows]
        if columns and name in columns:
            cols = columns[name]
        else:
            arity = len(rows[0]) if rows else 2
            cols = tuple(f"c{i + 1}" for i in range(arity))
        database.add(Relation(name, cols, rows, backend=backend))
    return database
