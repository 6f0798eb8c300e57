"""Pluggable storage backends for relations.

A :class:`~repro.relational.relation.Relation` is a thin facade over a
:class:`StorageBackend`: the backend owns the physical tuple storage and the
access structures the evaluation algorithms need — hash indexes keyed by a
column subset, distinct-key sets for semijoins, group-by structures for
degree statistics, prefix tries for worst-case-optimal joins and distinct
projections.

Two implementations ship with the library, and the backend a relation holds
is the only thing that selects its code path:

* :class:`SetBackend` — a plain ``set[tuple]``, the semantics reference.
  Every access structure is recomputed on demand by the base class's one
  tuple-at-a-time algorithm.
* :class:`ColumnarBackend` — tuples stored once in insertion order with
  lazily realised dictionary-encoded columns.  Its operators run as the
  vectorized kernels of :mod:`repro.relational.kernels`, whose outputs
  (dictionaries, packed keys, sort permutations, distinct projections) are
  memoized for the backend's lifetime.  Where a kernel declines (say, a
  packed key space past its limit), the operator falls back to the same
  uncached reference algorithm the set backend runs.

A backend is immutable once built, so it is shared *structurally* between
facades: renaming or copying a relation reuses the same backend (so
encodings built while collecting statistics are also hit by the executor).

The same split exists for *annotated* (weighted) relations: the
:class:`AnnotatedBackend` interface maps duplicate-free rows to semiring
annotations, with :class:`DictAnnotatedBackend` as the reference and
:class:`ColumnarAnnotatedBackend` running kernels over encoded columns and
memoizing ⊕-marginal group-bys.  Semiring-annotated relations, FAQ factors
and PANDA's measure tables are all facades over it.

Every build and memo hit records a counter in the process-wide
:data:`STORAGE_STATS` (read with :func:`storage_stats`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as _np

from repro.relational import kernels
from repro.telemetry.metrics import get_registry


IndexKey = tuple[int, ...]


#: Every backend's build/hit counters summed over the process, sampled as
#: ``storage.<key>`` by the metrics registry.  Backends come and go; these
#: totals only grow.
STORAGE_STATS = get_registry().table("storage")


def storage_stats() -> dict[str, int]:
    """A snapshot of the process-wide storage build/hit counters."""
    return STORAGE_STATS.snapshot()


class StorageBackend:
    """Interface (and shared bookkeeping) for relation storage engines.

    Rows are always duplicate-free tuples; index methods take *column
    positions* (never names) so that a backend can be shared between facades
    that rename columns.
    """

    kind: str = "abstract"
    #: Whether the vectorized kernel path (:mod:`repro.relational.kernels`)
    #: runs against this backend.  Only backends exposing the
    #: ``dictionary`` protocol over NumPy code arrays opt in; the set/dict
    #: reference engines stay on the tuple-at-a-time path so the parity
    #: suites always have an untouched semantics reference.
    supports_kernels: bool = False

    def _count(self, event: str) -> None:
        STORAGE_STATS.add(event)

    # -- core storage (must be implemented) -----------------------------------
    def __len__(self) -> int:
        raise NotImplementedError

    def iter_rows(self) -> Iterator[tuple]:
        raise NotImplementedError

    def row_set(self) -> frozenset[tuple]:
        raise NotImplementedError

    def contains(self, row: tuple) -> bool:
        raise NotImplementedError

    def spawn(self, rows: Iterable[tuple], assume_unique: bool = False) -> "StorageBackend":
        """A new backend of the same kind holding ``rows``.

        ``assume_unique`` lets callers that construct provably duplicate-free
        rows (semijoin outputs, join outputs over set-semantics inputs) skip
        the deduplication pass.
        """
        return type(self)(rows, assume_unique=assume_unique)  # type: ignore[call-arg]

    # -- access structures: the reference algorithm, recomputed per call ----
    def hash_index(self, key_positions: IndexKey) -> dict[tuple, list[tuple]]:
        """``key tuple -> list of full rows`` for the given key positions."""
        self._count("hash_index_builds")
        index: dict[tuple, list[tuple]] = {}
        for row in self.iter_rows():
            key = tuple(row[i] for i in key_positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
        return index

    def key_set(self, key_positions: IndexKey) -> set[tuple]:
        """The set of distinct key tuples at the given positions."""
        self._count("key_set_builds")
        return self._compute_key_set(key_positions)

    def degree_index(self, given_positions: IndexKey,
                     target_positions: IndexKey) -> dict[tuple, int]:
        """``given tuple -> number of distinct target tuples`` (degree vector)."""
        self._count("degree_index_builds")
        groups = self._compute_groups(given_positions, target_positions)
        return {key: len(values) for key, values in groups.items()}

    def group_index(self, given_positions: IndexKey,
                    target_positions: IndexKey) -> dict[tuple, tuple[tuple, ...]]:
        """``given tuple -> distinct target tuples`` (full group-by structure)."""
        self._count("group_index_builds")
        groups = self._compute_groups(given_positions, target_positions)
        return {key: tuple(values) for key, values in groups.items()}

    def trie(self, positions: IndexKey) -> list[dict[tuple, set]]:
        """Prefix trie for worst-case-optimal joins.

        ``trie(p)[d]`` maps a depth-``d`` prefix (values at ``positions[:d]``)
        to the set of values observed at ``positions[d]`` under that prefix.
        """
        self._count("trie_builds")
        reordered = [tuple(row[p] for p in positions) for row in self.iter_rows()]
        levels: list[dict[tuple, set]] = []
        for depth in range(len(positions)):
            level: dict[tuple, set] = {}
            for row in reordered:
                prefix = row[:depth]
                values = level.get(prefix)
                if values is None:
                    level[prefix] = {row[depth]}
                else:
                    values.add(row[depth])
            levels.append(level)
        return levels

    def project_backend(self, positions: IndexKey) -> "StorageBackend":
        """A backend (same kind) holding the distinct projection onto ``positions``."""
        self._count("project_builds")
        return self.spawn(self._compute_key_set(positions), assume_unique=True)

    def _compute_key_set(self, key_positions: IndexKey) -> set[tuple]:
        return {tuple(row[i] for i in key_positions) for row in self.iter_rows()}

    def _compute_groups(self, given_positions: IndexKey,
                        target_positions: IndexKey) -> dict[tuple, set[tuple]]:
        groups: dict[tuple, set[tuple]] = {}
        for row in self.iter_rows():
            key = tuple(row[i] for i in given_positions)
            value = tuple(row[i] for i in target_positions)
            values = groups.get(key)
            if values is None:
                groups[key] = {value}
            else:
                values.add(value)
        return groups


class SetBackend(StorageBackend):
    """The reference backend: a plain ``set[tuple]``, no caching whatsoever.

    Every access structure is the base class's reference algorithm,
    computed from scratch on every request.
    """

    kind = "set"

    def __init__(self, rows: Iterable[tuple] = (), assume_unique: bool = False) -> None:
        self._rows: frozenset[tuple] = frozenset(rows)

    def __len__(self) -> int:
        return len(self._rows)

    def iter_rows(self) -> Iterator[tuple]:
        return iter(self._rows)

    def row_set(self) -> frozenset[tuple]:
        return self._rows

    def contains(self, row: tuple) -> bool:
        return row in self._rows


_table_uids = itertools.count()


def _dictionary_sort_key(value) -> tuple[str, str]:
    """Deterministic value order for dictionary codes.

    Sorting distinct values by ``(type name, repr)`` makes the code
    assignment of a column built from rows a pure function of the value
    *set* — independent of row order, process hash salting, and insertion
    history.  (Ties — distinct values sharing a repr, e.g. two NaN objects —
    keep their first-appearance order via the stable sort, which is still
    deterministic given the same row list.)
    """
    return (value.__class__.__name__, repr(value))


def _object_array(values: Sequence):
    """A 1-D object-dtype array holding ``values`` (tuples stay tuples)."""
    array = _np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        array[index] = value
    return array


class CodeTable:
    """The value side of a dictionary encoding, shared between columns.

    ``decode[code]`` is the value behind a code and :attr:`encode` the
    inverse map (built lazily — most tables are only ever decoded).  A table
    is created once per *base* column (:meth:`ColumnDictionary.from_values`)
    and then shared by reference with every relation derived from that
    column: kernel join outputs, semijoin gathers and distinct projections.
    So the table, its ``uid`` and its memoized translations live as long as
    the base relation, and a warm re-execution finds every
    translation it needs already built.

    A derived column's codes are *not* dense over the values it holds: the
    table may hold values none of its rows carry.
    """

    __slots__ = ("decode", "uid", "_encode", "_decode_array", "_translations")

    def __init__(self, decode: list) -> None:
        self.decode = decode
        self._encode: dict | None = None
        self._decode_array = None
        self._translations: dict[int, object] = {}
        self.uid = next(_table_uids)

    @property
    def encode(self) -> dict:
        """``value -> code`` (lazily built)."""
        if self._encode is None:
            self._encode = {value: code for code, value in enumerate(self.decode)}
        return self._encode

    def decode_array(self):
        """The decode table as a cached object-dtype NumPy array."""
        if self._decode_array is None:
            self._decode_array = _object_array(self.decode)
        return self._decode_array

    def translate_to(self, other: "CodeTable"):
        """``int64`` table mapping this table's codes into ``other``'s.

        Entry ``c`` is ``other``'s code for ``self.decode[c]``, or ``-1``
        when the value is absent there.  Memoized per target table, so
        repeated joins against the same base relations pay the translation
        once; every build that has to loop over the values in Python is
        counted as ``translation_builds`` in
        :func:`~repro.relational.kernels.kernel_stats`.
        """
        table = self._translations.get(other.uid)
        if table is None:
            if other is self:
                table = _np.arange(len(self.decode), dtype=_np.int64)
            else:
                kernels.KERNEL_STATS.add("translation_builds")
                table = _np.full(len(self.decode), -1, dtype=_np.int64)
                other_encode = other.encode
                for code, value in enumerate(self.decode):
                    mapped = other_encode.get(value)
                    if mapped is not None:
                        table[code] = mapped
            if len(self._translations) >= kernels._MEMO_CAPACITY:
                # Base tables outlive the transient relations they may be
                # translated into; reset like the backends' kernel memos.
                self._translations.clear()
            self._translations[other.uid] = table
        return table


class ColumnDictionary:
    """One column's dictionary encoding: codes into a :class:`CodeTable`.

    ``codes[r]`` is the integer code of row ``r``'s value in this column and
    ``table.decode[code]`` recovers the value.  Grouping and
    distinct-counting over small integer codes is cheaper than over
    arbitrary values.  The table may be shared with other columns (see
    :class:`CodeTable`); only the codes belong to this column.

    A column built from values (:meth:`from_values`) gets a fresh table in
    the deterministic :func:`_dictionary_sort_key` order (not first
    appearance), so equal column contents always produce equal codes.  For
    the vectorized kernels the dictionary also materialises (lazily,
    cached) :meth:`codes_array`, the codes as an ``int64`` NumPy array.

    Decoding and translating between code spaces go through the table
    (``table.decode``, ``table.translate_to``), where they are shared and
    memoized.
    """

    __slots__ = ("table", "_codes", "_codes_array")

    def __init__(self, table: CodeTable, codes=None, codes_array=None) -> None:
        self.table = table
        self._codes: list[int] | None = codes
        self._codes_array = codes_array

    @classmethod
    def from_values(cls, values: Iterable) -> "ColumnDictionary":
        """Encode a column of Python values under a fresh, canonically
        ordered table."""
        seen: dict = {}
        materialised = list(values)
        for value in materialised:
            if value not in seen:
                seen[value] = None
        table = CodeTable(sorted(seen, key=_dictionary_sort_key))
        encode = table.encode
        return cls(table, codes=[encode[value] for value in materialised])

    @property
    def codes(self) -> list[int]:
        """The per-row codes as a plain Python list (lazily realised)."""
        if self._codes is None:
            self._codes = self._codes_array.tolist()
        return self._codes

    def codes_array(self):
        """The codes as a cached ``int64`` NumPy array."""
        if self._codes_array is None:
            self._codes_array = _np.array(self._codes, dtype=_np.int64)
        return self._codes_array


class ColumnarBackend(StorageBackend):
    """Columnar storage for the vectorized kernels.

    Physically the rows live once, as a duplicate-free list in insertion
    order (or only as encoded columns, see :meth:`from_encoded`);
    dictionary-encoded columns are realised lazily, per column, on first use
    by a kernel, so short-lived intermediate relations never pay the
    encoding cost.  The dictionaries, the kernels' memos and the distinct
    projections are kept for the backend's lifetime; the tuple-at-a-time
    access structures a declining kernel falls back to are the base class's
    uncached reference algorithm.
    """

    kind = "columnar"
    supports_kernels = True

    def __init__(self, rows: Iterable[tuple] = (), assume_unique: bool = False) -> None:
        self._rows: list[tuple] | None = (
            list(rows) if assume_unique else list(dict.fromkeys(rows)))
        self._length = len(self._rows)
        #: Encoded-only state: ``(code tables, int64 code arrays)`` when the
        #: backend was built by :meth:`from_encoded`.
        self._encoded: tuple[list[CodeTable], list] | None = None
        self._frozen: frozenset[tuple] | None = None
        self._dictionaries: dict[int, ColumnDictionary] = {}
        self._projections: dict[IndexKey, "ColumnarBackend"] = {}
        #: Memoized kernel access structures (packed keys, sort permutations,
        #: member sets — see :func:`repro.relational.kernels._memo`).
        self._kernel_memos: dict[tuple, object] = {}

    @classmethod
    def from_encoded(cls, tables: Sequence[CodeTable], code_arrays: Sequence,
                     length: int) -> "ColumnarBackend":
        """A backend over dictionary-encoded columns, rows materialised lazily.

        ``tables[p]`` is column ``p``'s :class:`CodeTable` and
        ``code_arrays[p]`` its ``int64`` codes into it.  The tables are taken
        by reference: column ``p``'s dictionary is exactly
        ``(tables[p], code_arrays[p])``, with no recompaction, so a kernel
        output, semijoin gather or distinct projection shares its base
        column's table — and that table's memoized translations — and costs
        no value copies.
        """
        backend = cls()
        backend._rows = None
        backend._length = int(length)
        backend._encoded = (list(tables), list(code_arrays))
        return backend

    # -- core storage ----------------------------------------------------------
    def _row_list(self) -> list[tuple]:
        """The rows as a list, decoding the encoded columns on first use."""
        if self._rows is None:
            self._rows = kernels.decode_rows(*self._encoded, self._length)  # type: ignore[misc]
        return self._rows

    def __len__(self) -> int:
        return self._length

    def iter_rows(self) -> Iterator[tuple]:
        return iter(self._row_list())

    def row_set(self) -> frozenset[tuple]:
        if self._frozen is None:
            self._frozen = frozenset(self._row_list())
        return self._frozen

    def contains(self, row: tuple) -> bool:
        return row in self.row_set()

    # -- dictionary encoding -----------------------------------------------------
    def dictionary(self, position: int) -> ColumnDictionary:
        """The (lazily realised) dictionary encoding of one column."""
        dictionary = self._dictionaries.get(position)
        if dictionary is None:
            if self._encoded is not None:
                # Encoded construction (kernel output): the
                # column wraps its base column's shared table.
                self._count("dictionary_wraps")
                tables, codes = self._encoded
                dictionary = ColumnDictionary(tables[position],
                                              codes_array=codes[position])
            else:
                self._count("dictionary_builds")
                dictionary = ColumnDictionary.from_values(
                    row[position] for row in self._row_list())
            self._dictionaries[position] = dictionary
        else:
            self._count("dictionary_hits")
        return dictionary

    def project_backend(self, positions: IndexKey) -> "ColumnarBackend":
        cached = self._projections.get(positions)
        if cached is not None:
            self._count("project_hits")
            return cached
        encoded = kernels.distinct_encoded(self, positions)
        if encoded is not None:
            self._count("project_builds")
            backend = ColumnarBackend.from_encoded(*encoded)
        else:
            backend = super().project_backend(positions)
        self._projections[positions] = backend
        return backend


# ---------------------------------------------------------------------------
# annotated (weighted) relation storage
# ---------------------------------------------------------------------------

class AnnotatedBackend:
    """Interface (and shared bookkeeping) for *annotated* relation storage.

    Annotated relations map duplicate-free rows to annotation values from a
    commutative semiring (or to sub-probability weights, for the PANDA
    measure tables).  The access structures mirror :class:`StorageBackend`'s,
    adapted to carry the values along, and the base class computes each one
    from scratch per call (the reference algorithm both kinds share):

    * *probe indexes* (``key tuple -> [(row, value), ...]``) serve joins;
    * *key sets* serve semijoins;
    * *marginal group-bys* serve ⊕-aggregation over a column subset —
      memoizing backends key them by ``(positions, tag)`` where the tag
      names the addition operator (two different semirings must not share
      an aggregate);
    * *sorted groups* (``key -> [(value-tuple, weight), ...]`` by decreasing
      weight) serve PANDA's conditional measures.

    Annotated relations are immutable through their facade APIs (every
    algebra operation spawns a fresh backend), so annotated backends are
    shared structurally between facades, like the plain ones; every build
    and memo hit records a counter in :data:`STORAGE_STATS`.
    """

    kind: str = "abstract"
    #: Whether the vectorized kernel path may run against this backend (see
    #: :attr:`StorageBackend.supports_kernels`).  Such a backend memoizes its
    #: marginals and kernel structures, so
    #: :meth:`~repro.relational.database.Database.annotated_atom` memoizes
    #: bindings on it and warm evaluations reuse them.
    supports_kernels: bool = False

    def _count(self, event: str) -> None:
        STORAGE_STATS.add(event)

    # -- core storage (must be implemented) -----------------------------------
    def __len__(self) -> int:
        raise NotImplementedError

    def items(self) -> Iterator[tuple[tuple, object]]:
        """Iterate ``(row, value)`` pairs."""
        raise NotImplementedError

    def get(self, row: tuple, default=None):
        raise NotImplementedError

    def mapping(self) -> Mapping[tuple, object]:
        """The annotations as a mapping.  Treat the result as read-only — it
        may alias the backend's internal storage."""
        raise NotImplementedError

    def spawn(self, pairs: Iterable[tuple[tuple, object]]) -> "AnnotatedBackend":
        """A new backend of the same kind holding ``pairs`` (last write wins)."""
        return type(self)(pairs)  # type: ignore[call-arg]

    # -- access structures: the reference algorithm, recomputed per call ----
    def probe_index(self, key_positions: IndexKey) -> dict[tuple, list[tuple]]:
        """``key tuple -> list of (row, value) pairs`` at ``key_positions``."""
        self._count("probe_index_builds")
        index: dict[tuple, list[tuple]] = {}
        for row, value in self.items():
            key = tuple(row[i] for i in key_positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [(row, value)]
            else:
                bucket.append((row, value))
        return index

    def key_set(self, key_positions: IndexKey) -> set[tuple]:
        """The set of distinct key tuples at the given positions."""
        self._count("key_set_builds")
        return {tuple(row[i] for i in key_positions) for row, _ in self.items()}

    def marginal(self, keep_positions: IndexKey, add, tag: str) -> dict[tuple, object]:
        """⊕-aggregate annotations grouped by ``keep_positions``.

        ``add`` is the ⊕ operator and ``tag`` a stable name for it (the
        semiring name); memoizing backends key their cache on
        ``(keep_positions, tag)``.  The returned dict may be owned by the
        backend — callers must treat it as read-only.
        """
        self._count("marginal_builds")
        return self._compute_marginal(keep_positions, add)

    def sorted_groups(self, key_positions: IndexKey,
                      value_positions: IndexKey) -> dict[tuple, list[tuple]]:
        """``key -> [(value tuple, weight), ...]`` sorted by decreasing weight.

        Only meaningful for numeric annotations (the PANDA measure tables).
        """
        self._count("sorted_group_builds")
        groups: dict[tuple, list[tuple]] = {}
        for row, weight in self.items():
            key = tuple(row[i] for i in key_positions)
            value = tuple(row[i] for i in value_positions)
            groups.setdefault(key, []).append((value, weight))
        for group in groups.values():
            group.sort(key=lambda entry: -entry[1])
        return groups

    def _compute_marginal(self, keep_positions: IndexKey, add) -> dict[tuple, object]:
        aggregated: dict[tuple, object] = {}
        for row, value in self.items():
            key = tuple(row[i] for i in keep_positions)
            if key in aggregated:
                aggregated[key] = add(aggregated[key], value)
            else:
                aggregated[key] = value
        return aggregated


class DictAnnotatedBackend(AnnotatedBackend):
    """The reference annotated backend: a plain ``dict[tuple, value]``.

    No caching whatsoever — every access structure is the base class's
    reference algorithm, recomputed on every request.
    """

    kind = "dict"

    def __init__(self, pairs: Iterable[tuple[tuple, object]] = ()) -> None:
        self._annotations: dict[tuple, object] = dict(pairs)

    def __len__(self) -> int:
        return len(self._annotations)

    def items(self) -> Iterator[tuple[tuple, object]]:
        return iter(self._annotations.items())

    def get(self, row: tuple, default=None):
        return self._annotations.get(row, default)

    def mapping(self) -> Mapping[tuple, object]:
        return self._annotations


class ColumnarAnnotatedBackend(AnnotatedBackend):
    """Annotated storage for the vectorized kernels.

    The annotated sibling of :class:`ColumnarBackend`: dictionaries, vetted
    value arrays, kernel memos and ⊕-marginal group-bys (per
    addition-operator tag) are memoized — safely forever, because annotated
    facades are immutable (new annotations always spawn a new backend) — so
    repeated FAQ evaluation over the same database reuses them.  A backend
    built by :meth:`from_encoded` (PANDA's measure tables) holds only code
    and weight arrays until something reads its rows.
    """

    kind = "columnar"
    supports_kernels = True

    def __init__(self, pairs: Iterable[tuple[tuple, object]] = ()) -> None:
        self._annotations: dict[tuple, object] | None = dict(pairs)
        self._length = len(self._annotations)
        #: Encoded-only state: ``(code tables, int64 code arrays)`` when the
        #: backend was built by :meth:`from_encoded`.
        self._encoded: tuple[list[CodeTable], list] | None = None
        self._marginals: dict[tuple[IndexKey, str], dict[tuple, object]] = {}
        self._dictionaries: dict[int, ColumnDictionary] = {}
        self._rows_list: list[tuple] | None = None
        self._values_list: list | None = None
        #: Per value-kind vetted annotation arrays; ``False`` marks a kind the
        #: values failed to vet for, so the check runs once per backend.
        self._kernel_values: dict[str, object] = {}
        #: Memoized kernel access structures (packed keys, sort permutations,
        #: member sets); annotated backends are immutable, so never cleared.
        self._kernel_memos: dict[tuple, object] = {}

    @classmethod
    def from_encoded(cls, tables: Sequence[CodeTable], code_arrays: Sequence,
                     weights) -> "ColumnarAnnotatedBackend":
        """A backend over encoded columns and a ``float64`` weight array.

        The annotated mirror of :meth:`ColumnarBackend.from_encoded`: column
        ``p``'s dictionary is ``(tables[p], code_arrays[p])`` with the tables
        shared by reference, ``weights[r]`` is row ``r``'s annotation, and
        the rows must be distinct.  The row tuples and the annotation dict
        are built only when something reads them, so PANDA's measure algebra
        runs on the arrays alone.
        """
        backend = cls()
        backend._annotations = None
        backend._length = int(weights.size)
        backend._encoded = (list(tables), list(code_arrays))
        backend._kernel_values["float"] = weights
        return backend

    def __len__(self) -> int:
        return self._length

    def items(self) -> Iterator[tuple[tuple, object]]:
        return iter(self.mapping().items())

    def get(self, row: tuple, default=None):
        return self.mapping().get(row, default)

    def mapping(self) -> Mapping[tuple, object]:
        if self._annotations is None:
            self._annotations = dict(zip(self.rows_list(), self.values_list()))
        return self._annotations

    # -- kernel surface -------------------------------------------------------
    # Annotated facades are immutable (every algebra operation spawns a new
    # backend), so the row/value snapshots and dictionaries are cached forever.
    def rows_list(self) -> list[tuple]:
        """The rows as a list, aligned with :meth:`values_list`."""
        if self._rows_list is None:
            if self._encoded is not None:
                self._rows_list = kernels.decode_rows(*self._encoded, self._length)
            else:
                self._rows_list = list(self.mapping().keys())
        return self._rows_list

    def values_list(self) -> list:
        """The annotation values as a list, aligned with :meth:`rows_list`."""
        if self._values_list is None:
            if self._encoded is not None:
                self._values_list = self._kernel_values["float"].tolist()
            else:
                self._values_list = list(self.mapping().values())
        return self._values_list

    def dictionary(self, position: int) -> ColumnDictionary:
        """The (lazily realised) dictionary encoding of one column."""
        dictionary = self._dictionaries.get(position)
        if dictionary is None:
            if self._encoded is not None:
                self._count("dictionary_wraps")
                tables, codes = self._encoded
                dictionary = ColumnDictionary(tables[position],
                                              codes_array=codes[position])
            else:
                self._count("dictionary_builds")
                dictionary = ColumnDictionary.from_values(
                    row[position] for row in self.rows_list())
            self._dictionaries[position] = dictionary
        else:
            self._count("dictionary_hits")
        return dictionary

    def kernel_values(self, kind: str):
        """The annotations as a vetted kernel value array, or ``None``.

        ``kind`` is a :func:`repro.relational.kernels.vet_values` value kind
        (``"int"``/``"float"``/``"true"``).  ``None`` means the values do not
        qualify for exact vectorized arithmetic and the caller must fall back.
        """
        cached = self._kernel_values.get(kind)
        if cached is None:
            vetted = kernels.vet_values(self.values_list(), kind)
            self._kernel_values[kind] = False if vetted is None else vetted
            return vetted
        return None if cached is False else cached

    def marginal(self, keep_positions: IndexKey, add, tag: str) -> dict[tuple, object]:
        cache_key = (keep_positions, tag)
        cached = self._marginals.get(cache_key)
        if cached is not None:
            self._count("marginal_hits")
            return cached
        self._count("marginal_builds")
        aggregated = kernels.marginal_dict(self, keep_positions, tag)
        if aggregated is None:
            aggregated = self._compute_marginal(keep_positions, add)
        self._marginals[cache_key] = aggregated
        return aggregated


ANNOTATED_BACKENDS: dict[str, type[AnnotatedBackend]] = {
    DictAnnotatedBackend.kind: DictAnnotatedBackend,
    ColumnarAnnotatedBackend.kind: ColumnarAnnotatedBackend,
}

#: Which annotated engine pairs with each set-semantics engine: the plain
#: ``set`` backend maps to the uncached ``dict`` reference, ``columnar`` to
#: the kernel-backed annotated engine.
_ANNOTATED_FOR_PLAIN = {
    SetBackend.kind: DictAnnotatedBackend.kind,
    ColumnarBackend.kind: ColumnarAnnotatedBackend.kind,
}


def resolve_annotated_backend(kind: str | None) -> type[AnnotatedBackend]:
    """The annotated backend class for ``kind``.

    ``kind`` may be an annotated kind (``"dict"``/``"columnar"``), a plain
    backend kind (``"set"`` maps to ``"dict"``), or ``None`` for the engine
    paired with the default plain backend.
    """
    if kind is None:
        kind = get_default_backend()
    kind = _ANNOTATED_FOR_PLAIN.get(kind, kind)
    try:
        return ANNOTATED_BACKENDS[kind]
    except KeyError as exc:
        raise ValueError(
            f"unknown annotated storage backend {kind!r}; "
            f"available: {sorted(ANNOTATED_BACKENDS)}") from exc


# ---------------------------------------------------------------------------
# backend registry and the default
# ---------------------------------------------------------------------------

BACKENDS: dict[str, type[StorageBackend]] = {
    SetBackend.kind: SetBackend,
    ColumnarBackend.kind: ColumnarBackend,
}

#: The backend kind new relations use when none is specified.
DEFAULT_BACKEND = SetBackend.kind


def resolve_backend(kind: str) -> type[StorageBackend]:
    try:
        return BACKENDS[kind]
    except KeyError as exc:
        raise ValueError(
            f"unknown storage backend {kind!r}; available: {sorted(BACKENDS)}"
        ) from exc


def get_default_backend() -> str:
    """The backend kind new relations use when none is specified."""
    return DEFAULT_BACKEND
