"""In-memory relations: the storage substrate for query evaluation.

A :class:`Relation` is a named, set-semantics table: a schema (ordered column
names, which play the role of the paper's variables once an atom binds them)
and a set of tuples.  Relations support the handful of operations the
algorithms in this library need — projection, selection, semijoin, hash join,
degree computation and degree-based partitioning — and nothing more.

Physical storage is delegated to a pluggable
:class:`~repro.relational.storage.StorageBackend` (see that module for the
set-of-tuples reference backend and the kernel-backed columnar backend), and
the backend alone decides whether an operator runs as a vectorized kernel or
as the tuple-at-a-time reference.  A relation is immutable once built, so
the facade shares backends structurally: ``rename``/``copy`` and no-op
algebra results reuse the same backend object, and an encoding built once is
hit again by every later consumer.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.relational import kernels
from repro.relational.storage import (
    ColumnarBackend,
    StorageBackend,
    get_default_backend,
    resolve_backend,
)


class Relation:
    """A finite relation with set semantics.

    Parameters
    ----------
    name:
        The relation's name (used for error messages and display).
    columns:
        Ordered column names.
    rows:
        An iterable of tuples; each tuple must have ``len(columns)`` entries.
        Duplicates are removed (set semantics).
    backend:
        Storage engine selection: a backend kind name (``"set"`` or
        ``"columnar"``), a ready :class:`StorageBackend` instance (trusted to
        hold rows of the right arity), or ``None`` for the default ``"set"``
        (:data:`~repro.relational.storage.DEFAULT_BACKEND`).
    """

    def __init__(self, name: str, columns: Sequence[str],
                 rows: Iterable[tuple] = (),
                 backend: str | StorageBackend | None = None) -> None:
        if len(set(columns)) != len(columns):
            raise ValueError(f"relation {name!r} has duplicate column names: {columns}")
        self.name = name
        self.columns: tuple[str, ...] = tuple(columns)
        if isinstance(backend, StorageBackend):
            if rows:
                raise ValueError(
                    f"relation {name!r}: pass either rows or a ready backend "
                    "instance, not both (the backend already holds its rows)")
            self._backend = backend
            return
        arity = len(self.columns)
        checked: list[tuple] = []
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise ValueError(
                    f"row {row!r} has {len(row)} values but relation {name!r} "
                    f"has {arity} columns"
                )
            checked.append(row)
        backend_class = resolve_backend(backend or get_default_backend())
        self._backend = backend_class(checked)

    @classmethod
    def _from_backend(cls, name: str, columns: Sequence[str],
                      backend: StorageBackend) -> "Relation":
        """Internal fast path: wrap a ready backend without row validation."""
        return cls(name, columns, backend=backend)

    def _derive(self, name: str, columns: Sequence[str], rows: Iterable[tuple],
                unique: bool = False) -> "Relation":
        """A new relation of the same backend kind from trusted-arity rows."""
        return Relation._from_backend(
            name, columns, self._backend.spawn(rows, assume_unique=unique))

    # ---------------------------------------------------------------- basics
    @property
    def backend_kind(self) -> str:
        """The storage engine this relation lives on ('set', 'columnar', ...)."""
        return self._backend.kind

    def with_backend(self, kind: str) -> "Relation":
        """This relation converted to another storage backend (same rows)."""
        if kind == self._backend.kind:
            return self
        backend_class = resolve_backend(kind)
        return Relation._from_backend(
            self.name, self.columns,
            backend_class(self._backend.iter_rows(), assume_unique=True))

    def __len__(self) -> int:
        return len(self._backend)

    def __iter__(self) -> Iterator[tuple]:
        return self._backend.iter_rows()

    def __contains__(self, row: tuple) -> bool:
        return self._backend.contains(tuple(row))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.columns == other.columns and self._backend.row_set() == other._backend.row_set()

    def __hash__(self) -> int:  # pragma: no cover - equality is by rows, not cheap to hash
        raise TypeError("Relation objects are not hashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, {self.columns}, {len(self)} rows)"

    @property
    def rows(self) -> frozenset[tuple]:
        """An immutable view of the rows."""
        return self._backend.row_set()

    @property
    def column_set(self) -> frozenset[str]:
        return frozenset(self.columns)

    def column_index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError as exc:
            raise KeyError(f"relation {self.name!r} has no column {column!r}") from exc

    def copy(self, name: str | None = None) -> "Relation":
        return Relation._from_backend(name or self.name, self.columns, self._backend)

    # --------------------------------------------------------------- algebra
    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "Relation":
        """Rename columns according to ``mapping`` (missing columns unchanged).

        The result shares this relation's backend, so encodings built
        against either facade serve both.
        """
        new_columns = tuple(mapping.get(column, column) for column in self.columns)
        if len(set(new_columns)) != len(new_columns):
            raise ValueError(
                f"relation {self.name!r} has duplicate column names: {new_columns}")
        return Relation._from_backend(name or self.name, new_columns, self._backend)

    def project(self, columns: Sequence[str], name: str | None = None) -> "Relation":
        """Project (with duplicate elimination) onto ``columns``."""
        indices = tuple(self.column_index(column) for column in columns)
        backend = (self._backend if indices == tuple(range(len(self.columns)))
                   else self._backend.project_backend(indices))
        return Relation._from_backend(name or f"π({self.name})", tuple(columns), backend)

    def select(self, predicate: Callable[[dict], bool],
               name: str | None = None) -> "Relation":
        """Keep the rows for which ``predicate(row_as_dict)`` is true."""
        rows = [row for row in self._backend.iter_rows()
                if predicate(dict(zip(self.columns, row)))]
        return self._derive(name or f"σ({self.name})", self.columns, rows, unique=True)

    def select_equal(self, column: str, value, name: str | None = None) -> "Relation":
        """Equality selection ``σ_{column = value}``."""
        index = self.column_index(column)
        rows = [row for row in self._backend.iter_rows() if row[index] == value]
        return self._derive(name or f"σ({self.name})", self.columns, rows, unique=True)

    # --------------------------------------------------------------- degrees
    def _split_positions(self, target: Iterable[str],
                         given: Iterable[str]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Column positions of ``given``/``target`` in ascending position order."""
        target_set = set(target)
        given_set = set(given)
        target_idx = tuple(i for i, c in enumerate(self.columns) if c in target_set)
        given_idx = tuple(i for i, c in enumerate(self.columns) if c in given_set)
        return given_idx, target_idx

    def degree(self, target: Iterable[str], given: Iterable[str]) -> int:
        """``deg_R(target | given)``: the maximum, over assignments to
        ``given``, of the number of distinct ``target`` values co-occurring
        with it (Section 3.2).  ``given`` may be empty, in which case the
        degree is simply ``|π_target(R)|``.
        """
        missing = (set(target) | set(given)) - self.column_set
        if missing:
            raise KeyError(
                f"columns {sorted(missing)} are not part of relation {self.name!r}"
            )
        given_idx, target_idx = self._split_positions(target, given)
        degrees = self._backend.degree_index(given_idx, target_idx)
        if not degrees:
            return 0
        return max(degrees.values())

    def degree_vector(self, target: Iterable[str],
                      given: Iterable[str]) -> dict[tuple, int]:
        """The full degree vector ``x -> deg_R(target | given = x)``.

        Keys are ``given`` values in column order.  The returned dict is
        safe for callers to mutate.
        """
        given_idx, target_idx = self._split_positions(target, given)
        return self._backend.degree_index(given_idx, target_idx)

    def grouped_values(self, target: Iterable[str],
                       given: Iterable[str]) -> Mapping[tuple, tuple[tuple, ...]]:
        """``given values -> distinct target values`` (both in column order).

        This is the group-by structure behind :meth:`degree_vector`; PANDA's
        reference measure initialisation uses it directly.
        """
        given_idx, target_idx = self._split_positions(target, given)
        return self._backend.group_index(given_idx, target_idx)

    def lp_norm_of_degrees(self, target: Iterable[str], given: Iterable[str],
                           order: float) -> float:
        """The ℓ_order norm of the degree vector (Section 9.2).

        ``order = float('inf')`` returns the maximum degree.
        """
        vector = list(self.degree_vector(target, given).values())
        if not vector:
            return 0.0
        if order == float("inf"):
            return float(max(vector))
        return float(sum(d ** order for d in vector) ** (1.0 / order))

    def partition_by_degree(self, given: Sequence[str], target: Sequence[str],
                            threshold: float) -> tuple["Relation", "Relation"]:
        """Split into (light, heavy) parts by the degree of ``given`` values.

        A row goes to the *light* part when the number of distinct ``target``
        values for its ``given`` value is at most ``threshold``, and to the
        *heavy* part otherwise.  This is the partitioning primitive used by
        adaptive (PANDA-style) plans, cf. Section 8.2.
        """
        given_idx, target_idx = self._split_positions(target, given)
        degrees = self._backend.degree_index(given_idx, target_idx)
        light_rows, heavy_rows = [], []
        for row in self._backend.iter_rows():
            key = tuple(row[i] for i in given_idx)
            if degrees.get(key, 0) <= threshold:
                light_rows.append(row)
            else:
                heavy_rows.append(row)
        light = self._derive(f"{self.name}_light", self.columns, light_rows, unique=True)
        heavy = self._derive(f"{self.name}_heavy", self.columns, heavy_rows, unique=True)
        return light, heavy

    # ------------------------------------------------------------------ joins
    def prefix_trie(self, positions: Sequence[int]) -> list[dict[tuple, set]]:
        """The backend's prefix trie over ``positions``.

        Used by the generic worst-case-optimal join: level ``d`` of the trie
        maps a prefix of values at ``positions[:d]`` to the distinct values at
        ``positions[d]`` compatible with it.
        """
        return self._backend.trie(tuple(positions))

    def hash_join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Natural join on the shared columns.

        The output schema is a deterministic function of the two input
        schemas — ``self.columns`` followed by the remaining columns of
        ``other`` in their order — regardless of which side ends up being
        hashed (the smaller one, off the kernel path).
        """
        shared = [c for c in self.columns if c in other.column_set]
        self_key = tuple(self.column_index(c) for c in shared)
        other_key = tuple(other.column_index(c) for c in shared)
        other_extra = [c for c in other.columns if c not in self.column_set]
        other_extra_idx = tuple(other.column_index(c) for c in other_extra)
        out_columns = self.columns + tuple(other_extra)
        out_name = name or f"({self.name} ⋈ {other.name})"
        if kernels.kernel_ready(self._backend, other._backend):
            encoded = kernels.join_encoded(
                self._backend, other._backend, self_key, other_key,
                other_extra_idx, len(self.columns))
            if encoded is not None:
                # The output stays dictionary-encoded: downstream kernels
                # (and their dictionaries) build straight off these arrays,
                # and rows decode lazily only if something reads them.
                return Relation._from_backend(
                    out_name, out_columns, ColumnarBackend.from_encoded(*encoded))
        out_rows: list[tuple] = []
        if len(self) <= len(other):
            index = self._backend.hash_index(self_key)
            for row in other._backend.iter_rows():
                matches = index.get(tuple(row[i] for i in other_key))
                if matches:
                    extra = tuple(row[i] for i in other_extra_idx)
                    for match in matches:
                        out_rows.append(match + extra)
        else:
            index = other._backend.hash_index(other_key)
            for row in self._backend.iter_rows():
                matches = index.get(tuple(row[i] for i in self_key))
                if matches:
                    for match in matches:
                        out_rows.append(row + tuple(match[i] for i in other_extra_idx))
        # Rows are unique: inputs are duplicate-free and the output carries
        # every column of both sides.
        return self._derive(out_name, out_columns, out_rows, unique=True)

    def semijoin(self, other: "Relation", name: str | None = None) -> "Relation":
        """``self ⋉ other``: keep rows of ``self`` that join with ``other``."""
        shared = [c for c in self.columns if c in other.column_set]
        if not shared:
            if len(other) == 0:
                return self._derive(name or self.name, self.columns, [], unique=True)
            return self.copy(name)
        self_key = tuple(self.column_index(c) for c in shared)
        other_key = tuple(other.column_index(c) for c in shared)
        if kernels.kernel_ready(self._backend, other._backend):
            kept = kernels.semijoin_keep(self._backend, other._backend,
                                         self_key, other_key)
            if kept is not None:
                if kept.size == len(self):
                    # Nothing was filtered: share the backend, keep memos warm.
                    return self.copy(name)
                encoded = kernels.gather_encoded(self._backend, kept,
                                                 len(self.columns))
                return Relation._from_backend(
                    name or self.name, self.columns,
                    ColumnarBackend.from_encoded(*encoded))
        if len(self) == 0:
            # Nothing to filter (the kernel returns at once here too): never
            # build ``other``'s key set for it.
            return self.copy(name)
        other_keys = other._backend.key_set(other_key)
        rows = [row for row in self._backend.iter_rows()
                if tuple(row[i] for i in self_key) in other_keys]
        if len(rows) == len(self):
            # Nothing was filtered: share the backend so its encodings stay warm.
            return self.copy(name)
        return self._derive(name or self.name, self.columns, rows, unique=True)

    def union(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set union (schemas must agree up to column order)."""
        if set(self.columns) != set(other.columns):
            raise ValueError(
                f"cannot union {self.name!r} and {other.name!r}: different schemas"
            )
        out_name = name or f"({self.name} ∪ {other.name})"
        if len(other) == 0:
            return self.copy(out_name)
        reordered = other.project(self.columns)
        if len(self) == 0:
            return reordered.copy(out_name)
        if kernels.kernel_ready(self._backend, reordered._backend):
            encoded = kernels.union_encoded(self._backend, reordered._backend,
                                            len(self.columns))
            if encoded is not None:
                return Relation._from_backend(out_name, self.columns,
                                              ColumnarBackend.from_encoded(*encoded))
        rows = list(self._backend.iter_rows())
        rows.extend(reordered._backend.iter_rows())
        return self._derive(out_name, self.columns, rows, unique=False)

    def to_dicts(self) -> list[dict]:
        """The rows as dictionaries, sorted for deterministic display."""
        return [dict(zip(self.columns, row))
                for row in sorted(self._backend.iter_rows(), key=repr)]
