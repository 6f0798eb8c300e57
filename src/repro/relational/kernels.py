"""Vectorized NumPy kernels over dictionary-encoded columns.

The columnar backends run their joins, projections and aggregations here, in
NumPy over their dictionary-encoded ``int64`` code arrays (see
:class:`~repro.relational.storage.ColumnDictionary`):

* **encode** — each base column is dictionary-encoded once (cached on the
  backend and shared copy-on-write with it) into a
  :class:`~repro.relational.storage.CodeTable`; codes of one side are
  translated into the other side's code space through a table memoized on
  the code table, so equality of codes is equality of values;
* **kernel** — every keyed kernel works on packed integer keys.  Dense
  tables over the packed key space replace sorts and binary searches when
  that space fits :func:`_lut_capacity`; beyond it the sorted keys and
  ``searchsorted`` serve.  Joins with extra right columns and the generic
  worst-case-optimal join's extensions need each key's range of rows
  (:func:`_probe`: a memoized table of range bounds).  Semijoins, key-only
  joins, unions and the generic join's filters only ask whether a key is
  present (:func:`_contains`: a memoized ``bool`` bitmap, :func:`_bitmap`).
  Distinct projections scatter into a bitmap and read it back in key order
  (:func:`_distinct_rows`).  The generic join runs as a breadth-first
  frontier of per-level code arrays, and per-semiring ⊕-marginalization as
  ``np.add/minimum/maximum.reduceat`` over sorted groups;
* **decode** — set-semantics outputs *stay encoded*: kernels return
  ``(code tables, int64 code arrays, length)`` triples that become
  ``ColumnarBackend.from_encoded`` backends.  The tables are the base
  columns' own, shared by reference, so a chain of joins, semijoins and
  projections never materialises intermediate Python tuples, never
  rebuilds a dictionary, and finds its translations memoized on a warm
  re-execution.  A derived column's codes need not be dense over the
  values it holds.  Rows are decoded lazily — by fancy-indexing
  object-dtype decode columns and ``zip``-ing the stored Python value
  objects back — only when something actually reads them, so results are
  equal to the reference ``SetBackend`` path (values that compare equal
  across types, such as ``1``, ``1.0`` and ``True``, share one code and
  decode to one representative object);
* **measures** — PANDA's sub-probability tables stay encoded too: code
  tables, ``int64`` codes and ``float64`` weights
  (``ColumnarAnnotatedBackend.from_encoded``), with conditionals as
  :class:`EncodedConditional` segments.  Initialisation, the ``"real-sum"``
  marginal, conditionals, truncation, atom filters and composition
  (:func:`compose_encoded`, which keeps PANDA's output bound) are kernels.

Every kernel is *exact or absent*: value domains that cannot be reproduced
exactly in vector form (non-``int``/``float`` annotations, magnitudes that
could overflow ``int64`` sums, packed key spaces past ``_PACK_LIMIT``, or a
semiring without a registered reduction) return ``None`` and the caller falls
back to the reference Python path.  Each call counts ``<op>_kernels`` or
``<op>_fallbacks`` (plus ``translation_builds`` and
``compose_entries_examined``) in the process-wide :data:`KERNEL_STATS`
table, which :func:`kernel_stats` reads and ``/metrics`` samples as
``kernel.<key>``.  The per-backend encode counters — ``dictionary_builds``
for a column encoded from Python values, ``dictionary_wraps`` for one wrapped
around codes a kernel already produced, ``dictionary_hits`` — flow through
``Database.cache_stats`` and :func:`~repro.relational.storage.storage_stats`
like every other index counter.

The backend alone selects the kernels: they run whenever every operand's
backend advertises ``supports_kernels`` (the columnar engines), and never on
the ``set``/``dict`` reference engines, which the parity suites compare them
against.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.telemetry.metrics import get_registry

#: Packed join keys must stay below this bound so Horner-packed ``int64``
#: keys cannot overflow (tests shrink it to force the fallback path).
_PACK_LIMIT = 1 << 62

#: Counting-semiring guards: annotation magnitudes and matched-pair counts
#: small enough that every sum-of-products stays exactly representable in
#: ``int64`` (values < 2^20, pairwise products < 2^40, sums over < 2^22
#: terms < 2^62).
_COUNT_VALUE_LIMIT = 1 << 20
_COUNT_PAIR_LIMIT = 1 << 22

#: Per-backend kernel memo dicts reset wholesale past this many entries.
_MEMO_CAPACITY = 512

#: Kernel usage/fallback counters, sampled as ``kernel.<key>`` by the
#: metrics registry.
KERNEL_STATS = get_registry().table("kernel")


# ---------------------------------------------------------------------------
# capability flag, counters
# ---------------------------------------------------------------------------

def kernel_ready(*backends) -> bool:
    """True when every backend advertises kernel support."""
    return all(getattr(backend, "supports_kernels", False)
               for backend in backends)


def kernel_stats() -> dict[str, int]:
    """A snapshot of the process-wide kernel usage/fallback counters."""
    return KERNEL_STATS.snapshot()


# ---------------------------------------------------------------------------
# per-backend memos for kernel access structures
# ---------------------------------------------------------------------------

def _memo(backend, key, build):
    """Memoize ``build()`` in the backend's kernel-memo dict (if it has one).

    Packed key arrays, sort permutations and member bitmaps are pure functions
    of a backend's stored rows (plus the target dictionaries' ``uid``s baked
    into ``key``), so they are cached like the backends' dictionaries — until
    the next mutation — and repeated evaluations only pay the probes.
    Build/hit counters flow through the backend's ``stats`` like every other
    index counter.  ``None`` results (pack overflow) are not cached; those
    callers fall back anyway.
    """
    memos = getattr(backend, "_kernel_memos", None)
    if memos is None:
        return build()
    value = memos.get(key)
    if value is None:
        value = build()
        if value is not None:
            if len(memos) >= _MEMO_CAPACITY:
                # Keys embed the counterpart dictionaries' uids, so a
                # long-lived backend probed by a stream of transient
                # relations would otherwise accumulate dead entries.
                memos.clear()
            memos[key] = value
            backend._count("kernel_memo_builds")
    else:
        backend._count("kernel_memo_hits")
    return value


# ---------------------------------------------------------------------------
# packing and matching primitives
# ---------------------------------------------------------------------------

def _packed_space(dims) -> int:
    """Size of the packed key space of ``dims`` (a Python int, so exact)."""
    space = 1
    for dim in dims:
        space *= max(int(dim), 1)
    return space


def _pack(columns: Sequence, dims: Sequence[int], length: int):
    """Horner-pack per-column code arrays into one ``int64`` key per row.

    ``dims[i]`` bounds the code space of ``columns[i]``; returns ``None``
    when the combined key space could overflow (callers then fall back).
    An empty column list packs every row to key ``0``.
    """
    if not columns:
        return np.zeros(length, dtype=np.int64)
    if _packed_space(dims) > _PACK_LIMIT:
        return None
    # A lone column is its own key; nothing packs in place into it.
    packed = columns[0].astype(np.int64, copy=len(columns) > 1)
    for column, dim in zip(columns[1:], dims[1:]):
        packed *= max(int(dim), 1)
        packed += column
    return packed


#: Dense tables over the packed key space — range bounds, ``bool`` bitmaps —
#: replace ``searchsorted`` probes and sorts when the space is at most this
#: factor times the row count (beyond it, table construction and memory
#: would dominate the probes they save).
_LUT_SPACE_FACTOR = 8
_LUT_SPACE_FLOOR = 1 << 16


def _lut_capacity(rows: int) -> int:
    return max(_LUT_SPACE_FLOOR, _LUT_SPACE_FACTOR * max(rows, 1))


def _probe(owner, memo_key, sorted_keys, dims, probes, rows: int):
    """Equal ranges of ``probes`` in the sorted packed keys ``sorted_keys``.

    Returns ``(starts, counts)``: probe ``i`` matches
    ``sorted_keys[starts[i]:starts[i] + counts[i]]``.  The probe ``-1``
    (untranslatable values) matches nothing, because stored keys are always
    non-negative codes.  When the packed key space of ``dims`` fits
    ``_lut_capacity(rows)``, a dense table of range bounds over the whole
    space — memoized on ``owner`` under ``memo_key`` — answers every probe
    with two gathers; beyond it, two ``searchsorted`` probes do.  This is
    the probing path of the joins and of the worst-case-optimal join's
    extensions; kernels that only ask whether a key is present take
    :func:`_contains`.
    """
    space = _packed_space(dims)
    if space > _lut_capacity(rows):
        starts = np.searchsorted(sorted_keys, probes, side="left")
        ends = np.searchsorted(sorted_keys, probes, side="right")
        return starts, ends - starts

    def build():
        # bounds[k]:bounds[k + 1] is key k's range.  The trailing 0 makes
        # probe -1 read bounds[-1]:bounds[0], an empty range.  Positions fit
        # int32 below 2^31 keys, which halves the memoized table.
        dtype = np.int32 if sorted_keys.size < (1 << 31) else np.int64
        bounds = np.zeros(space + 2, dtype=dtype)
        np.cumsum(np.bincount(sorted_keys, minlength=space),
                  out=bounds[1:space + 1])
        return bounds
    bounds = _memo(owner, memo_key, build)
    starts = bounds[probes]
    return starts, bounds[1:][probes] - starts


def _bitmap(owner, memo_key, keys, space: int):
    """A ``bool`` bitmap of the packed ``keys`` over ``space`` keys, memoized
    on ``owner``.

    One scatter, no sort: ``keys`` may repeat, and the key ``-1`` lands in a
    spare slot at the end that is then cleared, so both a stored and a probed
    ``-1`` read ``False``.
    """
    def build():
        bits = np.zeros(space + 1, dtype=bool)
        bits[keys] = True
        bits[space] = False
        return bits
    return _memo(owner, ("bitmap",) + memo_key, build)


def _contains(owner, memo_key, keys, dims, probes, rows: int):
    """Which ``probes`` occur among the packed ``keys``, as a ``bool`` mask.

    ``keys`` may repeat and may hold ``-1`` (rows with a value unknown to
    the probed code space), which matches nothing.  When the packed key
    space of ``dims`` fits ``_lut_capacity(rows)``, the :func:`_bitmap` of
    ``keys`` answers with one gather; beyond it, the keys' memoized sorted
    distinct values go through :func:`_probe`.  This is the one membership
    path of the semijoins, the key-only joins, the unions and the
    worst-case-optimal join's filters.
    """
    space = _packed_space(dims)
    if space <= _lut_capacity(rows):
        return _bitmap(owner, memo_key, keys, space)[probes]
    members = _memo(owner, ("distinct",) + memo_key,
                    lambda: _sorted_distinct(keys[keys >= 0]))
    _, counts = _probe(owner, memo_key, members, dims, probes, rows)
    return counts > 0


def _sorted_distinct(keys):
    """The sorted distinct values of ``keys``, as ``np.unique`` returns them.

    One ``np.sort`` and a neighbour comparison: NumPy 2's ``np.unique``
    hashes the values before it sorts the distinct ones, which is an order
    of magnitude slower on ``int64`` keys (about 49 ms against 1.4 ms on
    145k random keys, 2-vCPU host).
    """
    ordered = np.sort(keys)
    fresh = np.empty(ordered.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered[fresh]


def _distinct_rows(columns, dims, length: int):
    """The distinct rows of code ``columns`` as code arrays, ascending by
    packed key, or ``None`` on pack overflow.

    When the packed key space fits ``_lut_capacity(length)``, the keys are
    scattered into a bitmap and read back with ``np.flatnonzero``, with no
    sort; beyond it :func:`_sorted_distinct` sorts them.  Either way
    ``divmod`` unpacks the keys into per-column codes.
    """
    keys = _pack(columns, dims, length)
    if keys is None:
        return None
    space = _packed_space(dims)
    if space <= _lut_capacity(length):
        present = np.zeros(space, dtype=bool)
        present[keys] = True
        keys = np.flatnonzero(present)
    else:
        keys = _sorted_distinct(keys)
    codes = []
    for dim in reversed(dims[1:]):
        keys, column = np.divmod(keys, max(int(dim), 1))
        codes.append(column)
    codes.append(keys)
    return codes[::-1]


def _expand_ranges(starts, counts):
    """Expand per-probe equal ranges into ``(sorted positions, probe index)``
    pairs, without a Python loop."""
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    probe_idx = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    # Entry i of probe b's block sits at starts[b] + (i - the block's first i).
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(total, dtype=np.int64) + shift, probe_idx


def _match_pairs(left, left_key, dims, right_keys):
    """All (left row, right row) index pairs with equal packed keys.

    The left side's (memoized) stable sort permutation gives each right key
    an equal range through :func:`_probe`, and the ranges expand without a
    Python loop.
    """
    order, sorted_keys = _sorted_self_keys(left, left_key)
    starts, counts = _probe(left, ("ranges", left_key), sorted_keys, dims,
                            right_keys, len(left))
    positions, right_idx = _expand_ranges(starts, counts)
    return order[positions], right_idx


def _self_keys(backend, positions):
    """Packed keys of ``positions`` in the backend's own code space (memoized).

    Returns ``(keys, dims)`` or ``None`` on pack overflow.
    """
    def build():
        dicts = [backend.dictionary(p) for p in positions]
        dims = tuple(len(d.table.decode) for d in dicts)
        keys = _pack([d.codes_array() for d in dicts], dims, len(backend))
        if keys is None:
            return None
        return keys, dims
    return _memo(backend, ("pack", positions), build)


def _sorted_self_keys(backend, positions):
    """The memoized stable sort of :func:`_self_keys` — the join build side.

    Returns ``(order, sorted_keys)`` or ``None`` on pack overflow.
    """
    def build():
        packed = _self_keys(backend, positions)
        if packed is None:
            return None
        keys, _ = packed
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    return _memo(backend, ("sorted", positions), build)


def _pack_into(backend, positions, tables, dims, rows=None):
    """``backend``'s columns at ``positions`` packed in ``tables``' code spaces.

    Codes are translated through the memoized :meth:`CodeTable.translate_to`
    and packed over ``dims``; ``rows`` selects a subset of the rows.  Rows
    holding a value unknown to a table get key ``-1``.  Returns ``None`` on
    pack overflow.
    """
    columns = []
    invalid = None
    for position, table in zip(positions, tables):
        dictionary = backend.dictionary(position)
        codes = dictionary.codes_array()
        codes = dictionary.table.translate_to(table)[
            codes if rows is None else codes[rows]]
        missing = codes < 0
        if missing.any():
            invalid = missing if invalid is None else (invalid | missing)
            codes = np.where(missing, 0, codes)
        columns.append(codes)
    keys = _pack(columns, dims, len(backend) if rows is None else rows.size)
    if keys is not None and invalid is not None:
        keys = np.where(invalid, -1, keys)
    return keys


def _translated_keys(right, right_key, left_dicts, dims):
    """``right``'s key columns packed in the *left* dictionaries' code space.

    Memoized per ``(positions, target dictionary uids)`` — for repeated
    evaluations against the same stored relations the translation, packing
    and masking all happen once.  Rows holding values unknown to the left get
    key ``-1``; returns ``None`` on pack overflow.
    """
    tables = [d.table for d in left_dicts]
    uids = tuple(table.uid for table in tables)
    return _memo(right, ("xlate", right_key, uids),
                 lambda: _pack_into(right, right_key, tables, dims))


def decode_rows(tables, code_arrays, length: int) -> list[tuple]:
    """Row tuples of encoded columns (``length`` of them, which matters only
    for zero columns), decoded by fancy-indexing each table's decode array."""
    pieces = [table.decode_array()[codes] for table, codes in zip(tables, code_arrays)]
    return list(zip(*pieces)) if pieces else [()] * length


def take_rows(backend, indices, width: int) -> list[tuple]:
    """Materialise ``backend``'s rows at ``indices`` via decode columns."""
    if width == 0:
        return [() for _ in range(int(indices.size))]
    pieces = [backend.dictionary(p).object_column()[indices]
              for p in range(width)]
    return list(zip(*pieces))


def gather_encoded(backend, indices, width: int):
    """``backend``'s rows at ``indices`` as an encoded-columns triple.

    Returns ``(code tables, int64 code arrays, length)`` — the arguments of
    ``ColumnarBackend.from_encoded`` — without touching a single Python value
    object: the parent's code tables are shared by reference and only the
    code arrays are gathered.
    """
    dictionaries = [backend.dictionary(p) for p in range(width)]
    return ([d.table for d in dictionaries],
            [d.codes_array()[indices] for d in dictionaries],
            int(indices.size))


def _empty_encoded(width: int):
    """An encoded-columns triple holding no rows."""
    from repro.relational.storage import CodeTable
    return ([CodeTable([]) for _ in range(width)],
            [np.empty(0, dtype=np.int64) for _ in range(width)], 0)


# ---------------------------------------------------------------------------
# set-semantics kernels: join, semijoin, projection
# ---------------------------------------------------------------------------

def _keep_mask(left, right, left_key: tuple, right_key: tuple):
    """Which ``left`` rows have their key among ``right``'s, as a ``bool``
    mask, or ``None`` on pack overflow.

    ``right``'s key columns are translated into ``left``'s code space and
    tested through :func:`_contains`, memoized on ``right``.
    """
    packed = _self_keys(left, left_key)
    if packed is None:
        return None
    left_keys, dims = packed
    left_dicts = [left.dictionary(p) for p in left_key]
    right_keys = _translated_keys(right, right_key, left_dicts, dims)
    if right_keys is None:
        return None
    uids = tuple(d.table.uid for d in left_dicts)
    return _contains(right, ("members", right_key, uids), right_keys, dims,
                     left_keys, len(left))


def join_encoded(left, right, left_key: Sequence[int],
                 right_key: Sequence[int], right_extra: Sequence[int],
                 left_width: int):
    """Array hash join, output encoded: left columns + right extras.

    ``right``'s columns are ``right_key`` and ``right_extra``.  With extras,
    the sorted build side probed through :func:`_probe` makes this a
    sort-merge join over hash-free integer keys — both classical kernels
    collapse into one here because dictionary codes are already integers.
    Without them, ``right`` is a duplicate-free set of keys, so each left
    row matches at most once and the output is the left rows whose key
    :func:`_contains` finds in ``right``, with no build-side sort.
    Returns a ``(code tables, code arrays, length)`` triple for
    ``ColumnarBackend.from_encoded`` whose columns share the inputs' code
    tables (the output rows are unique because the duplicate-free inputs
    contribute every one of their columns), or ``None`` to fall back on pack
    overflow.
    """
    width = left_width + len(right_extra)
    if len(left) == 0 or len(right) == 0:
        KERNEL_STATS.add("join_kernels")
        return _empty_encoded(width)
    left_key, right_key = tuple(left_key), tuple(right_key)
    if not right_extra:
        mask = _keep_mask(left, right, left_key, right_key)
        if mask is None:
            KERNEL_STATS.add("join_fallbacks")
            return None
        left_idx = np.flatnonzero(mask)
    else:
        packed = _self_keys(left, left_key)
        if packed is None:
            KERNEL_STATS.add("join_fallbacks")
            return None
        _, dims = packed
        left_dicts = [left.dictionary(p) for p in left_key]
        right_keys = _translated_keys(right, right_key, left_dicts, dims)
        if right_keys is None:
            KERNEL_STATS.add("join_fallbacks")
            return None
        left_idx, right_idx = _match_pairs(left, left_key, dims, right_keys)
    KERNEL_STATS.add("join_kernels")
    if width == 0:
        # Both sides are zero-column relations; the only possible output row
        # is the empty tuple, present iff anything matched.
        return [], [], (1 if left_idx.size else 0)
    tables = []
    codes = []
    for position in range(left_width):
        dictionary = left.dictionary(position)
        tables.append(dictionary.table)
        codes.append(dictionary.codes_array()[left_idx])
    for position in right_extra:
        dictionary = right.dictionary(position)
        tables.append(dictionary.table)
        codes.append(dictionary.codes_array()[right_idx])
    return tables, codes, int(left_idx.size)


def semijoin_keep(left, right, left_key: Sequence[int],
                  right_key: Sequence[int]):
    """Indices of left rows whose key appears in ``right``, or ``None``.

    Works for plain and annotated backends alike (both expose the
    ``dictionary`` protocol).
    """
    if len(left) == 0:
        KERNEL_STATS.add("semijoin_kernels")
        return np.empty(0, dtype=np.int64)
    mask = _keep_mask(left, right, tuple(left_key), tuple(right_key))
    if mask is None:
        KERNEL_STATS.add("semijoin_fallbacks")
        return None
    KERNEL_STATS.add("semijoin_kernels")
    return np.flatnonzero(mask)


def union_encoded(left, right, width: int):
    """``left ∪ right`` in ``left``'s code tables, output encoded.

    Keeps ``left``'s rows, then ``right``'s rows whose key :func:`_contains`
    does not find in ``left``, in their order — the reference union's
    order.  Returns ``None`` to fall back when a value of ``right`` is
    absent from ``left``'s tables (it has no code there) or on pack
    overflow.
    """
    positions = tuple(range(width))
    packed = _self_keys(left, positions)
    if packed is None:
        KERNEL_STATS.add("union_fallbacks")
        return None
    left_keys, dims = packed
    tables = [left.dictionary(p).table for p in positions]
    right_keys = _pack_into(right, positions, tables, dims)
    if right_keys is None or (right_keys < 0).any():
        KERNEL_STATS.add("union_fallbacks")
        return None
    # Duplicate-free rows have distinct keys, so the fresh ones are kept in
    # their own order.  No memo owner: a union's left side is most often a
    # fresh accumulation, probed once.
    fresh = np.flatnonzero(~_contains(None, ("union",), left_keys, dims,
                                      right_keys, len(right)))
    codes = []
    for position, table in zip(positions, tables):
        dictionary = right.dictionary(position)
        added = dictionary.table.translate_to(table)[dictionary.codes_array()[fresh]]
        codes.append(np.concatenate([left.dictionary(position).codes_array(), added]))
    KERNEL_STATS.add("union_kernels")
    return tables, codes, len(left) + int(fresh.size)


def distinct_encoded(backend, positions: Sequence[int]):
    """The distinct projection onto ``positions``, output encoded.

    Returns a ``(code tables, code arrays, length)`` triple for
    ``ColumnarBackend.from_encoded`` whose columns share ``backend``'s code
    tables, or ``None`` on pack overflow.
    """
    length = len(backend)
    if length == 0:
        KERNEL_STATS.add("projection_kernels")
        return _empty_encoded(len(positions))
    if not positions:
        KERNEL_STATS.add("projection_kernels")
        return [], [], 1
    dicts = [backend.dictionary(p) for p in positions]
    columns = _distinct_rows([d.codes_array() for d in dicts],
                             [len(d.table.decode) for d in dicts], length)
    if columns is None:
        KERNEL_STATS.add("projection_fallbacks")
        return None
    KERNEL_STATS.add("projection_kernels")
    return [d.table for d in dicts], columns, int(columns[0].size)


# ---------------------------------------------------------------------------
# worst-case-optimal join: breadth-first frontier over code arrays
# ---------------------------------------------------------------------------

def wcoj(specs: Sequence[tuple], depth_total: int,
         free_levels: Sequence[int], check=None):
    """Generic join as a breadth-first vectorized frontier.

    ``check`` is an optional cooperative-cancellation hook called once per
    frontier level with the number of partial assignments explored so far; a
    hook that raises aborts the enumeration between levels (the vectorized
    analogue of the depth-first path's periodic
    :data:`~repro.algorithms.generic_join.CHECK_INTERVAL` checks).

    ``specs`` holds ``(backend, positions, levels)`` per bound relation:
    ``positions[j]`` is the column of the relation's ``j``-th variable (in
    global order) and ``levels[j]`` that variable's level.  The frontier at
    level ``L`` is a set of per-level ``int64`` arrays (codes in the level's
    *anchor* dictionary — the extending relation's own column dictionary);
    each level extends the frontier through the first constraining relation's
    distinct ``(prefix, value)`` pairs and filters it through the remaining
    constraining relations' distinct prefix sets, which reproduces exactly
    the per-level trie intersection of the depth-first reference — including
    the ``explored`` work count (the sum of frontier sizes equals the number
    of partial assignments the DFS enters).

    Returns ``(encoded output triple, explored)`` — the triple being the
    ``(code tables, code arrays, length)`` arguments of
    ``ColumnarBackend.from_encoded`` over the free variables — or ``None``
    to fall back.
    """
    # plans[L] = [(spec index, variable rank within the relation), ...]
    plans: list[list[tuple[int, int]]] = [[] for _ in range(depth_total)]
    for spec_index, (_, _, levels) in enumerate(specs):
        for rank, level in enumerate(levels):
            plans[level].append((spec_index, rank))
    if any(not entries for entries in plans):
        KERNEL_STATS.add("wcoj_fallbacks")
        return None

    anchors: list = [None] * depth_total
    anchor_dims = [1] * depth_total
    assign: list = []
    frontier = 1  # one empty partial assignment
    explored = 0

    def relation_keys(spec_index: int, rank: int):
        """Packed keys of one relation's first ``rank + 1`` columns,
        translated into the anchor code space (rows with values unknown to an
        anchor get key ``-1`` — they can never meet the frontier).  Memoized
        per ``(positions, anchor uids)`` — the vectorized analogue of the
        cached prefix tries, rebuilt only when the stored relations change.
        Returns ``(keys, dims, memo key)`` or ``None`` on pack overflow."""
        backend, positions, levels = specs[spec_index]
        tables = [anchors[levels[j]] for j in range(rank + 1)]
        dims = tuple(anchor_dims[levels[j]] for j in range(rank + 1))
        memo_key = ("wcoj", positions[:rank + 1],
                    tuple(table.uid for table in tables))
        keys = _memo(backend, memo_key, lambda: _pack_into(
            backend, positions[:rank + 1], tables, dims))
        return None if keys is None else (keys, dims, memo_key)

    for level in range(depth_total):
        if check is not None:
            check(explored)
        entries = plans[level]
        ext_index, ext_rank = entries[0]
        backend, positions, levels = specs[ext_index]
        anchor = backend.dictionary(positions[ext_rank]).table
        anchors[level] = anchor
        anchor_dims[level] = max(len(anchor.decode), 1)

        packed = relation_keys(ext_index, ext_rank)
        if packed is None:
            KERNEL_STATS.add("wcoj_fallbacks")
            return None
        keys, pair_dims, memo_key = packed
        value_dim = pair_dims[-1]

        def distinct_pairs():
            # Sorted distinct (prefix, value) keys, so their prefixes are too.
            pairs = _sorted_distinct(keys[keys >= 0])
            return np.divmod(pairs, value_dim)
        prefix_keys, pair_values = _memo(
            backend, ("wcoj-pairs",) + memo_key[1:], distinct_pairs)

        frontier_keys = _pack([assign[l] for l in levels[:ext_rank]],
                              pair_dims[:-1], frontier)
        if frontier_keys is None:
            KERNEL_STATS.add("wcoj_fallbacks")
            return None
        starts, counts = _probe(backend, ("wcoj-prefixes",) + memo_key[1:],
                                prefix_keys, pair_dims[:-1], frontier_keys,
                                len(backend))
        pair_pos, parent_idx = _expand_ranges(starts, counts)
        values = pair_values[pair_pos]

        # Only the parent index and the new value are carried through the
        # filters; a filter gathers the earlier columns it reads, and the
        # frontier's columns are gathered once, after the last filter.
        # `frontier` stays the parents' count until then.
        for spec_index, rank in entries[1:]:
            if values.size == 0:
                break
            packed = relation_keys(spec_index, rank)
            if packed is None:
                KERNEL_STATS.add("wcoj_fallbacks")
                return None
            member_keys, member_dims, memo_key = packed
            member_backend, _, member_levels = specs[spec_index]
            # The filter's earlier columns are packed over the parents and
            # gathered once; its last column is this level's value.
            frontier_keys = values
            if rank:
                prefix = _pack([assign[l] for l in member_levels[:rank]],
                               member_dims[:-1], frontier)
                if prefix is None:
                    KERNEL_STATS.add("wcoj_fallbacks")
                    return None
                frontier_keys = (prefix * member_dims[-1])[parent_idx]
                frontier_keys += values
            kept = np.flatnonzero(_contains(
                member_backend, ("wcoj-members",) + memo_key[1:], member_keys,
                member_dims, frontier_keys, len(member_backend)))
            if kept.size < values.size:
                parent_idx, values = parent_idx[kept], values[kept]

        assign = [array[parent_idx] for array in assign]
        assign.append(values)
        frontier = int(values.size)
        explored += frontier
        if frontier == 0:
            KERNEL_STATS.add("wcoj_kernels")
            return _empty_encoded(len(free_levels)), explored

    free_levels = tuple(free_levels)
    if not free_levels:
        KERNEL_STATS.add("wcoj_kernels")
        return ([], [], 1 if frontier else 0), explored
    columns = [assign[l] for l in free_levels]
    if len(set(free_levels)) < depth_total:
        # Full assignments are distinct; their projections need not be.
        columns = _distinct_rows(columns, [anchor_dims[l] for l in free_levels],
                                 frontier)
        if columns is None:
            KERNEL_STATS.add("wcoj_fallbacks")
            return None
    KERNEL_STATS.add("wcoj_kernels")
    encoded = ([anchors[l] for l in free_levels], columns, int(columns[0].size))
    return encoded, explored


# ---------------------------------------------------------------------------
# semiring kernels: marginalization and fused join+eliminate
# ---------------------------------------------------------------------------

def _sequential_sum_at(values, starts):
    """Per-segment float sums, each folded left to right.

    ``np.add.reduceat`` sums float segments pairwise, which rounds
    differently from the reference's ``a + b`` fold; ``np.bincount`` adds
    in input order starting from ``0.0``, which is exactly that fold.
    """
    counts = np.diff(starts, append=values.size)
    ids = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    return np.bincount(ids, weights=values, minlength=starts.size)


#: ``semiring name -> (value kind, grouped ⊕ reduction, ⊗ pair combiner)``.
#: Only reductions whose vector form is *exactly* the reference fold are
#: registered: integer sums (guarded against int64 overflow), float
#: min/max (order-independent, pick an existing IEEE value), float sums
#: folded in row order (``"real-sum"``, the ⊕ of PANDA's measure tables),
#: and the all-``True`` boolean case.  Everything else — e.g. the top-k
#: min-plus semiring with tuple values — falls back to the Python path.
def _build_semiring_specs():
    return {
        "counting": ("int", np.add.reduceat,
                     lambda a, b: a * b),
        "boolean": ("true", None, None),
        "min-plus": ("float", np.minimum.reduceat,
                     lambda a, b: a + b),
        "max-min": ("float", np.maximum.reduceat,
                    lambda a, b: np.minimum(a, b)),
        "max-times": ("float", np.maximum.reduceat,
                      lambda a, b: a * b),
        "real-sum": ("float", _sequential_sum_at,
                     lambda a, b: a * b),
    }


_SEMIRING_SPECS = _build_semiring_specs()


def kernel_supported_semirings() -> frozenset[str]:
    """Names of semirings with a registered vectorized ⊕/⊗ reduction.

    The static plan verifier (:mod:`repro.analysis.plan_verifier`) checks
    this capability table against each semiring's value shape: only
    scalar-valued semirings may appear here — tuple-valued ones (top-k
    min-plus) must take the reference fallback path.
    """
    return frozenset(_SEMIRING_SPECS)


def _segments(keys):
    """Stable sort of ``keys`` and the start of each run of equal keys.

    Returns ``(order, starts)``: ``keys[order]`` is sorted, rows with equal
    keys keep their relative order, and run ``g`` is
    ``order[starts[g]:starts[g + 1]]``.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.empty(sorted_keys.size, dtype=bool)
    boundaries[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundaries[1:])
    return order, np.flatnonzero(boundaries)


def _grouped_reduce(kind: str, reduce_at, keys, values):
    """⊕-reduce ``values`` grouped by ``keys``.

    Returns ``(representative row per group, aggregated array)``; the array
    is ``None`` for the boolean kind, whose aggregates are all ``True``.
    """
    order, group_starts = _segments(keys)
    representative = order[group_starts]
    if kind == "true":
        return representative, None
    return representative, reduce_at(values[order], group_starts)


def _scalars(aggregated, count: int) -> list:
    """Aggregated numpy values back as reference Python objects (``int`` or
    ``float``; ``None`` stands for ``count`` boolean ``True``s)."""
    if aggregated is None:
        return [True] * count
    return aggregated.tolist()


def marginal_encoded(backend, keep_positions: Sequence[int], semiring_name: str):
    """⊕-marginal of an annotated backend grouped by ``keep_positions``,
    output encoded.

    Returns ``(code tables, int64 code arrays, aggregated values)`` — the
    arguments of ``ColumnarAnnotatedBackend.from_encoded``; the tables are
    ``backend``'s own, the values a numpy array (``None`` for the boolean
    kind) — or ``None`` to fall back.  Groups come out ordered by their
    packed key codes.
    """
    spec = _SEMIRING_SPECS.get(semiring_name)
    if spec is None:
        KERNEL_STATS.add("marginal_fallbacks")
        return None
    kind, reduce_at, _ = spec
    keep_positions = tuple(keep_positions)
    if len(backend) == 0:
        KERNEL_STATS.add("marginal_kernels")
        tables, codes, _ = _empty_encoded(len(keep_positions))
        return tables, codes, np.empty(0, dtype=np.float64)
    values = backend.kernel_values(kind)
    packed = _self_keys(backend, keep_positions) if values is not None else None
    if packed is None:
        KERNEL_STATS.add("marginal_fallbacks")
        return None
    representative, aggregated = _grouped_reduce(kind, reduce_at, packed[0], values)
    KERNEL_STATS.add("marginal_kernels")
    dicts = [backend.dictionary(p) for p in keep_positions]
    return ([d.table for d in dicts],
            [d.codes_array()[representative] for d in dicts], aggregated)


def marginal_dict(backend, keep_positions: Sequence[int], semiring_name: str):
    """⊕-marginal of an annotated backend grouped by ``keep_positions``.

    Returns the aggregated ``{key tuple: value}`` dict (same contents as the
    reference ``_compute_marginal``) or ``None`` to fall back.
    """
    encoded = marginal_encoded(backend, keep_positions, semiring_name)
    if encoded is None:
        return None
    tables, codes, aggregated = encoded
    count = int(codes[0].size) if codes else min(len(backend), 1)
    return dict(zip(decode_rows(tables, codes, count), _scalars(aggregated, count)))


def join_marginalize_dict(left, right, left_key: Sequence[int],
                          right_key: Sequence[int],
                          out_source: Sequence[tuple[str, int]],
                          semiring_name: str):
    """Fused ⊗-join + ⊕-eliminate over two annotated backends.

    ``out_source`` names each surviving output column as ``('l', position)``
    or ``('r', position)``.  Returns the output ``{row: value}`` dict or
    ``None`` to fall back (unsupported semiring, non-vectorizable values, or
    a pair count past the exact-``int64`` guard for the counting semiring).
    """
    spec = _SEMIRING_SPECS.get(semiring_name)
    if spec is None:
        KERNEL_STATS.add("join_marginalize_fallbacks")
        return None
    kind, reduce_at, combine = spec
    if len(left) == 0 or len(right) == 0:
        KERNEL_STATS.add("join_marginalize_kernels")
        return {}
    left_values = left.kernel_values(kind)
    right_values = right.kernel_values(kind)
    if left_values is None or right_values is None:
        KERNEL_STATS.add("join_marginalize_fallbacks")
        return None
    left_key = tuple(left_key)
    packed = _self_keys(left, left_key)
    if packed is None:
        KERNEL_STATS.add("join_marginalize_fallbacks")
        return None
    _, dims = packed
    left_dicts = [left.dictionary(p) for p in left_key]
    right_keys = _translated_keys(right, tuple(right_key), left_dicts, dims)
    if right_keys is None:
        KERNEL_STATS.add("join_marginalize_fallbacks")
        return None
    left_idx, right_idx = _match_pairs(left, left_key, dims, right_keys)
    if left_idx.size == 0:
        KERNEL_STATS.add("join_marginalize_kernels")
        return {}
    if kind == "int" and left_idx.size > _COUNT_PAIR_LIMIT:
        KERNEL_STATS.add("join_marginalize_fallbacks")
        return None
    if kind == "true":
        products = None
    else:
        products = combine(left_values[left_idx], right_values[right_idx])
    out_dicts = []
    out_codes = []
    for side, position in out_source:
        if side == "l":
            dictionary = left.dictionary(position)
            codes = dictionary.codes_array()[left_idx]
        else:
            dictionary = right.dictionary(position)
            codes = dictionary.codes_array()[right_idx]
        out_dicts.append(dictionary)
        out_codes.append(codes)
    group_keys = _pack(out_codes, [len(d.table.decode) for d in out_dicts],
                       left_idx.size)
    if group_keys is None:
        KERNEL_STATS.add("join_marginalize_fallbacks")
        return None
    representative, aggregated = _grouped_reduce(kind, reduce_at, group_keys,
                                                 products)
    KERNEL_STATS.add("join_marginalize_kernels")
    count = int(representative.size)
    grouped_rows = decode_rows([d.table for d in out_dicts],
                               [codes[representative] for codes in out_codes], count)
    return dict(zip(grouped_rows, _scalars(aggregated, count)))


# ---------------------------------------------------------------------------
# measure kernels: PANDA's sub-probability tables
# ---------------------------------------------------------------------------

class EncodedConditional(NamedTuple):
    """A conditional measure ``p(target | key)`` as code and weight arrays.

    Entries are sorted by group and, within a group, by decreasing weight
    (ties in row order).  Group ``g`` holds entries
    ``offsets[g]:offsets[g + 1]``; its key is ``key_codes[i][g]`` in
    ``key_tables[i]``, and ``group_keys[g]`` is that key packed over
    ``key_dims`` (ascending, the sorted side of :func:`_probe`).
    ``search_keys`` is ``group + 1j * -weight`` per entry: NumPy orders
    complex numbers lexicographically, so one ``searchsorted`` finds a
    weight cutoff inside any group.
    """

    key_tables: list
    key_codes: list
    key_dims: tuple
    group_keys: object
    offsets: object
    target_tables: list
    target_codes: list
    weights: object
    search_keys: object


def decode_conditional(encoded: EncodedConditional) -> dict:
    """The reference ``key -> [(target tuple, weight), ...]`` group dict."""
    keys = decode_rows(encoded.key_tables, encoded.key_codes, encoded.offsets.size - 1)
    targets = decode_rows(encoded.target_tables, encoded.target_codes,
                          encoded.weights.size)
    entries = list(zip(targets, encoded.weights.tolist()))
    bounds = encoded.offsets.tolist()
    return {key: entries[bounds[g]:bounds[g + 1]] for g, key in enumerate(keys)}


def _search_keys(groups, weights):
    """``groups + 1j * -weights``, built part by part: complex arithmetic
    would turn an infinite weight's real part into NaN."""
    keys = np.empty(groups.size, dtype=np.complex128)
    keys.real = groups
    keys.imag = -weights
    return keys


def _conditional(key_tables, key_codes, key_dims, group_keys, counts,
                 target_tables, target_codes, weights) -> EncodedConditional:
    groups = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return EncodedConditional(list(key_tables), list(key_codes), tuple(key_dims),
                              group_keys, offsets, list(target_tables),
                              list(target_codes), weights,
                              _search_keys(groups, weights))


def _row_weights(backend):
    """An annotated backend's float weights; ``1.0`` per row of a plain one."""
    if hasattr(backend, "kernel_values"):
        return backend.kernel_values("float")
    return np.ones(len(backend), dtype=np.float64)


def conditional_encoded(backend, given: Sequence[int], target: Sequence[int],
                        normalise: bool = True):
    """Group ``backend``'s rows by ``given`` into an :class:`EncodedConditional`.

    Each row's weight (``1.0`` per row of a plain backend) is divided by its
    group's row-order sum when ``normalise`` is set, and groups whose sum is
    not positive are dropped — the reference ``conditional_on``.  Without
    ``normalise`` the weights are kept as they are (the submodularity step's
    ``h(Y) → h(Y|Z)``).  Over a plain backend this is the per-group uniform
    measure ``1/deg``.  One stable sort by key, one ``lexsort`` by
    (group, -weight); memoized on ``backend``.  Returns ``None`` to fall back.
    """
    given, target = tuple(given), tuple(target)

    def build():
        values = _row_weights(backend)
        packed = _self_keys(backend, given) if values is not None else None
        if packed is None:
            return None
        keys, dims = packed
        order, starts = _segments(keys)
        counts = np.diff(starts, append=order.size)
        weights = values[order]
        if normalise:
            totals = _sequential_sum_at(weights, starts)
            with np.errstate(divide="ignore", invalid="ignore"):
                weights = weights / np.repeat(totals, counts)
            live = totals > 0
            if not live.all():
                entries = np.repeat(live, counts)
                order, weights = order[entries], weights[entries]
                starts, counts = starts[live], counts[live]
        groups = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        within = np.lexsort((-weights, groups))
        order, weights = order[within], weights[within]
        firsts = order[np.cumsum(counts) - counts]
        key_dicts = [backend.dictionary(p) for p in given]
        target_dicts = [backend.dictionary(p) for p in target]
        return _conditional([d.table for d in key_dicts],
                            [d.codes_array()[firsts] for d in key_dicts],
                            dims, keys[firsts], counts,
                            [d.table for d in target_dicts],
                            [d.codes_array()[order] for d in target_dicts],
                            weights)

    encoded = _memo(backend, ("conditional", given, target, normalise), build)
    KERNEL_STATS.add("conditional_fallbacks" if encoded is None else "conditional_kernels")
    return encoded


def conditional_from_groups(groups, key_width: int, target_width: int):
    """Encode a reference ``key -> [(target, weight), ...]`` group dict.

    Returns ``None`` (fall back) unless every weight is a ``float`` and
    every group is sorted by decreasing weight, the order the scalar
    composition loop relies on.
    """
    from repro.relational.storage import ColumnDictionary
    keys = list(groups)
    key_dicts = [ColumnDictionary.from_values(key[i] for key in keys)
                 for i in range(key_width)]
    dims = tuple(len(d.table.decode) for d in key_dicts)
    packed = _pack([d.codes_array() for d in key_dicts], dims, len(keys))
    if packed is None:
        KERNEL_STATS.add("conditional_fallbacks")
        return None
    order = np.argsort(packed, kind="stable")
    entries = [entry for g in order.tolist() for entry in groups[keys[g]]]
    weights = vet_values([weight for _, weight in entries], "float")
    counts = np.array([len(groups[keys[g]]) for g in order.tolist()], dtype=np.int64)
    same_group = np.repeat(np.arange(counts.size), counts)
    if weights is None or np.any((same_group[1:] == same_group[:-1])
                                 & (weights[1:] > weights[:-1])):
        KERNEL_STATS.add("conditional_fallbacks")
        return None
    target_dicts = [ColumnDictionary.from_values(value[i] for value, _ in entries)
                    for i in range(target_width)]
    KERNEL_STATS.add("conditional_kernels")
    return _conditional([d.table for d in key_dicts],
                        [d.codes_array()[order] for d in key_dicts], dims,
                        packed[order], counts, [d.table for d in target_dicts],
                        [d.codes_array() for d in target_dicts], weights)


def uniform_encoded(backend, width: int, weight: float):
    """Weight ``weight`` on every row of a plain backend, as
    ``ColumnarAnnotatedBackend.from_encoded`` arguments sharing its tables."""
    dicts = [backend.dictionary(p) for p in range(width)]
    return ([d.table for d in dicts], [d.codes_array() for d in dicts],
            np.full(len(backend), weight, dtype=np.float64))


def take_measure(backend, indices, width: int):
    """A float-weighted backend's rows at ``indices``, as
    ``ColumnarAnnotatedBackend.from_encoded`` arguments."""
    tables, codes, _ = gather_encoded(backend, indices, width)
    return tables, codes, backend.kernel_values("float")[indices]


def truncate_encoded(backend, width: int, threshold: float):
    """The rows of weight at least ``threshold`` (encoded), or ``None``."""
    values = backend.kernel_values("float")
    if values is None:
        KERNEL_STATS.add("truncate_fallbacks")
        return None
    KERNEL_STATS.add("truncate_kernels")
    return take_measure(backend, np.flatnonzero(values >= threshold), width)


def semijoin_all_encoded(backend, width: int, filters: Sequence[tuple]):
    """The rows that :func:`semijoin_keep` keeps against every
    ``(right backend, left key, right key)`` of ``filters``, encoded with
    their weights, or ``None`` to fall back."""
    if backend.kernel_values("float") is None:
        KERNEL_STATS.add("semijoin_fallbacks")
        return None
    keep = np.ones(len(backend), dtype=bool)
    for right, left_key, right_key in filters:
        kept = semijoin_keep(backend, right, left_key, right_key)
        if kept is None:
            return None
        mask = np.zeros(len(backend), dtype=bool)
        mask[kept] = True
        keep &= mask
    return take_measure(backend, np.flatnonzero(keep), width)


def compose_encoded(marginal, key_positions: Sequence[int],
                    conditional: EncodedConditional, threshold: float,
                    out_sources: Sequence[tuple[str, int]]):
    """``p(x)·p(y|x)`` truncated at ``threshold``, output encoded.

    ``key_positions`` are the marginal's columns of the conditional's key
    variables, and ``out_sources`` names each output column as
    ``('m', marginal position)`` or ``('c', conditional target index)``.
    Keeps exactly what the scalar loop keeps: marginal rows of weight at
    least ``threshold``, and of each one's group the prefix with
    ``base * w >= threshold``.  The work is proportional to the kept entries
    plus the rows probed, not to the groups' sizes:

    1. each kept row's key is probed into the groups (:func:`_probe`);
    2. its cutoff ``threshold / base`` is searched in the group's
       descending weights (one ``searchsorted`` over ``search_keys``);
    3. the entries on either side of each found boundary are re-checked
       with the product, because the division can round across it;
    4. only the kept prefixes are expanded (:func:`_expand_ranges`).

    Every conditional entry read in steps 3 and 4 is counted as
    ``compose_entries_examined`` in :func:`kernel_stats`.  Returns
    ``(code tables, code arrays, weights)`` for
    ``ColumnarAnnotatedBackend.from_encoded``, or ``None`` to fall back.
    """
    values = marginal.kernel_values("float")
    if values is None:
        KERNEL_STATS.add("compose_fallbacks")
        return None
    rows = np.flatnonzero(values >= threshold)
    probes = _pack_into(marginal, key_positions, conditional.key_tables,
                        conditional.key_dims, rows)
    # No memo owner: a conditional is composed once.
    group_at, matched = _probe(None, None, conditional.group_keys,
                               conditional.key_dims, probes,
                               conditional.group_keys.size)
    matched = matched > 0
    rows, groups = rows[matched], group_at[matched]
    base = values[rows]
    starts = conditional.offsets[groups]
    limits = conditional.offsets[groups + 1]
    weights = conditional.weights
    search = conditional.search_keys
    cutoffs = np.full(base.size, -np.inf)
    np.divide(threshold, base, out=cutoffs, where=base > 0)
    ends = np.searchsorted(search, _search_keys(groups, cutoffs), side="right")
    examined = 0
    # Products fall with the weight, so a failing last entry fails with every
    # entry of its weight (cut before the first of them), and a passing next
    # entry passes with every entry of its weight (cut after the last).
    for side in ("left", "right"):
        pending = np.arange(base.size)
        while pending.size:
            if side == "left":
                pending = pending[ends[pending] > starts[pending]]
                probe_at = ends[pending] - 1
                moved = base[pending] * weights[probe_at] < threshold
            else:
                pending = pending[ends[pending] < limits[pending]]
                probe_at = ends[pending]
                moved = base[pending] * weights[probe_at] >= threshold
            examined += int(pending.size)
            pending, probe_at = pending[moved], probe_at[moved]
            ends[pending] = np.searchsorted(search, search[probe_at], side=side)
    positions, which = _expand_ranges(starts, ends - starts)
    examined += int(positions.size)
    KERNEL_STATS.add("compose_kernels")
    KERNEL_STATS.add("compose_entries_examined", examined)
    marginal_rows = rows[which]
    tables, codes = [], []
    for source, index in out_sources:
        if source == "m":
            dictionary = marginal.dictionary(index)
            tables.append(dictionary.table)
            codes.append(dictionary.codes_array()[marginal_rows])
        else:
            tables.append(conditional.target_tables[index])
            codes.append(conditional.target_codes[index][positions])
    return tables, codes, values[marginal_rows] * weights[positions]


# ---------------------------------------------------------------------------
# value-array vetting (used by the annotated backends' kernel_values caches)
# ---------------------------------------------------------------------------

def vet_values(values: Iterable, kind: str):
    """Convert annotation values to an exact numpy array for ``kind``.

    Returns the array (or ``True`` for the boolean kind), or ``None`` when
    any value cannot be represented exactly — the caller then falls back.
    ``bool`` is deliberately excluded from the ``int`` kind (``type`` check,
    not ``isinstance``) so counting annotations stay genuine integers.
    """
    if kind == "true":
        return True if all(value is True for value in values) else None
    if kind == "int":
        checked = list(values)
        limit = _COUNT_VALUE_LIMIT
        if all(type(value) is int and -limit < value < limit
               for value in checked):
            return np.array(checked, dtype=np.int64)
        return None
    if kind == "float":
        checked = list(values)
        if all(type(value) is float for value in checked):
            return np.array(checked, dtype=np.float64)
        return None
    return None
