"""The vectorized NumPy kernel layer (:mod:`repro.relational.kernels`).

The kernels are only admissible if they are unobservable through results:
every test here pins the kernel path to the tuple-at-a-time reference —
``SetBackend`` answers for joins/semijoins/projections (including a
hypothesis property sweep), the depth-first trie walk for the generic join
(same answers *and* the same explored count), and the ``dict`` annotated
engine for semiring marginalization.  The fallback ladder is exercised
explicitly: pack overflow, counting-overflow vetting, and a non-vectorizable
semiring (top-k min-plus) must take the fallback counters, never wrong
answers.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import evaluate_yannakakis, generic_join
from repro.datagen import random_graph_database
from repro.engine import Engine
from repro.query import (
    Atom,
    ConjunctiveQuery,
    four_cycle_projected,
    path_query,
    triangle_query,
)
from repro.relational import (
    COUNTING_SEMIRING,
    AnnotatedRelation,
    Database,
    Relation,
    WorkCounter,
    KERNEL_STATS,
    kernel_stats,
    top_k_min_plus_semiring,
)
from repro.relational import kernels
from repro.relational.storage import ColumnarAnnotatedBackend

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Mixed value classes on purpose: codes must follow the deterministic
#: ``(class name, repr)`` order, not anything type-specific.
MIXED_LEFT = [(1, "a"), (2, "b"), ("x", "a"), (None, "c"), ((3, 4), "b"),
              (2.5, "a")]
MIXED_RIGHT = [("a", 10), ("b", None), ("a", (7,)), ("d", 11)]


def _pair(left_rows, right_rows, kind, left_cols=("x", "y"),
          right_cols=("y", "z")):
    return (Relation("L", left_cols, left_rows, backend=kind),
            Relation("R", right_cols, right_rows, backend=kind))


def _reference(operation, left_rows, right_rows, **kwargs):
    left, right = _pair(left_rows, right_rows, "set", **kwargs)
    return getattr(left, operation)(right)


# ---------------------------------------------------------------------------
# set-semantics parity: join / semijoin / projection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("left_rows,right_rows", [
    (MIXED_LEFT, MIXED_RIGHT),
    ([], MIXED_RIGHT),
    (MIXED_LEFT, []),
    ([], []),
], ids=["mixed", "empty-left", "empty-right", "both-empty"])
def test_kernel_join_and_semijoin_parity(left_rows, right_rows):
    for operation in ("hash_join", "semijoin"):
        reference = _reference(operation, left_rows, right_rows)
        left, right = _pair(left_rows, right_rows, "columnar")
        before = kernel_stats()
        result = getattr(left, operation)(right)
        moved = KERNEL_STATS.delta(before)
        assert result.columns == reference.columns
        assert result.rows == reference.rows
        counter = {"hash_join": "join_kernels",
                   "semijoin": "semijoin_kernels"}[operation]
        assert moved.get(counter, 0) > 0, f"{operation} skipped the kernel"


def test_kernel_join_without_shared_columns_is_cross_product():
    left_rows = [(1, 2), (3, 4)]
    right_rows = [("a", "b"), ("c", "d"), ("e", "f")]
    reference = _reference("hash_join", left_rows, right_rows,
                           right_cols=("u", "v"))
    left, right = _pair(left_rows, right_rows, "columnar",
                        right_cols=("u", "v"))
    result = left.hash_join(right)
    assert result.columns == reference.columns
    assert result.rows == reference.rows
    assert len(result) == len(left_rows) * len(right_rows)


def test_kernel_projection_parity_and_counter():
    rows = [(i % 3, "v", i % 2) for i in range(12)]
    reference = Relation("R", ("a", "b", "c"), rows,
                         backend="set").project(("c", "a"))
    relation = Relation("R", ("a", "b", "c"), rows, backend="columnar")
    before = kernel_stats()
    result = relation.project(("c", "a"))
    moved = KERNEL_STATS.delta(before)
    assert result.columns == reference.columns
    assert result.rows == reference.rows
    assert moved.get("projection_kernels", 0) > 0


def test_kernel_union_keeps_the_reference_rows_and_order():
    """Relations derived from one base share its tables, so their union
    stays encoded; a value the left side's tables lack falls back."""
    rows = [(i % 5, f"v{i % 3}") for i in range(15)] + [(1.0, "v1"), (True, "v9")]
    keys = {"low": [(0,), (1,)], "high": [(True,), (4,), (3,)]}
    bases, unions, moved = {}, {}, {}
    for kernels_on in (True, False):
        # Off: no key space packs, so every keyed kernel falls back.
        pack_limit = kernels._PACK_LIMIT if kernels_on else 0
        with mock.patch.object(kernels, "_PACK_LIMIT", pack_limit):
            base = bases[kernels_on] = Relation("B", ("x", "y"), rows, backend="columnar")
            low, high = (base.semijoin(Relation(name, ("x",), key_rows, backend="columnar"))
                         for name, key_rows in keys.items())
            foreign = Relation("F", ("y", "x"), [("w", 7), ("v0", 3)], backend="columnar")
            before = kernel_stats()
            unions[kernels_on] = (low.union(high), low.union(foreign))
            moved[kernels_on] = KERNEL_STATS.delta(before)
            # left's rows, then right's new rows in first-appearance order
            for union, right in zip(unions[kernels_on], (high, foreign.project(("x", "y")))):
                expected = list(low)
                expected += [row for row in dict.fromkeys(right) if row not in low.rows]
                assert list(union) == expected
    for encoded, reference in zip(unions[True], unions[False]):
        assert encoded.columns == reference.columns
        assert encoded.rows == reference.rows
    assert moved[True].get("union_kernels", 0) == 1
    assert moved[True].get("union_fallbacks", 0) == 1
    table = unions[True][0]._backend.dictionary(0).table
    assert table is bases[True]._backend.dictionary(0).table


@PROPERTY
@given(left_rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                          max_size=24),
       right_rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                           max_size=24),
       pack_limit=st.sampled_from([kernels._PACK_LIMIT, 16, 0]))
def test_kernel_join_matches_set_backend_property(left_rows, right_rows,
                                                  pack_limit):
    """Property sweep: columnar joins, semijoins and the generic join ≡
    SetBackend on random inputs.  A shrunk packing limit makes some (16) or
    every (0) keyed kernel decline, so the columnar fallbacks — the hash
    join, the semijoin and the depth-first generic join — are swept too."""
    database = {}
    for kind in ("set", "columnar"):
        database[kind] = Database([
            Relation("R", ("c1", "c2"), left_rows, backend=kind),
            Relation("S", ("c1", "c2"), right_rows, backend=kind),
            Relation("T", ("c1", "c2"), left_rows[::2] + right_rows[1::2],
                     backend=kind)])
    reference_counter, counter = WorkCounter(), WorkCounter()
    reference = generic_join(triangle_query(), database["set"],
                             counter=reference_counter)
    with mock.patch.object(kernels, "_PACK_LIMIT", pack_limit):
        for operation in ("hash_join", "semijoin"):
            expected = _reference(operation, left_rows, right_rows)
            left, right = _pair(left_rows, right_rows, "columnar")
            result = getattr(left, operation)(right)
            assert result.columns == expected.columns
            assert result.rows == expected.rows
        answer = generic_join(triangle_query(), database["columnar"],
                              counter=counter)
    assert answer.rows == reference.rows
    assert counter.intermediate_tuples == reference_counter.intermediate_tuples


#: Right-side values run past the left side's domain, so some right keys have
#: no code in the left tables (key -1); the small domains make the columns
#: duplicate-heavy, and empty lists make empty sides.
_TIER_LEFT = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                      max_size=30)
_TIER_RIGHT = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)),
                       max_size=30)


def _sparse_tier():
    """A zero dense-table capacity: every key space takes the sorted keys and
    ``searchsorted``, never a bitmap or a range table."""
    return mock.patch.multiple(kernels, _LUT_SPACE_FLOOR=0, _LUT_SPACE_FACTOR=0)


@PROPERTY
@given(left_rows=_TIER_LEFT, right_rows=_TIER_RIGHT,
       right_columns=st.sampled_from([("y", "z"), ("y",), ("y", "x"),
                                      ("u", "v"), ()]))
def test_bitmap_and_sparse_tiers_match_the_set_backend(left_rows, right_rows,
                                                       right_columns):
    """The dense tier (bitmaps, range tables), the sparse tier (sorted keys,
    ``searchsorted``) and the ``set`` backend agree on semijoins, joins with
    and without extra right columns, distinct projections, unions and the
    generic join, full and projected, with its explored count.
    ``right_columns`` picks the shared key: one column, two, or none."""
    right_rows = [row[:len(right_columns)] for row in right_rows]

    def run(kind):
        left = Relation("L", ("x", "y"), left_rows, backend=kind)
        right = Relation("R", right_columns, right_rows, backend=kind)
        relations = [left.hash_join(right), right.hash_join(left),
                     left.semijoin(right), right.semijoin(left),
                     left.project(("y",)), left.project(("y", "x")),
                     left.semijoin(right).union(left.project(("y", "x")))]
        pairs = right_rows if len(right_columns) == 2 else []
        database = Database([
            Relation("R", ("c1", "c2"), left_rows, backend=kind),
            Relation("S", ("c1", "c2"),
                     [row[::-1] for row in left_rows[1::2]] + pairs,
                     backend=kind),
            Relation("T", ("c1", "c2"), pairs[::2] + left_rows[::3],
                     backend=kind)])
        counter = WorkCounter()
        for query in (triangle_query(), triangle_query(("Z", "X"))):
            relations.append(generic_join(query, database, counter=counter))
        # Lengths too: a duplicate row would hide inside `rows`.
        return ([(r.columns, r.rows, len(r)) for r in relations],
                counter.intermediate_tuples)

    before = kernel_stats()
    dense = run("columnar")
    with _sparse_tier():
        sparse = run("columnar")
    moved = KERNEL_STATS.delta(before)
    assert dense == sparse == run("set")
    assert not [event for event, count in moved.items()
                if event.endswith("_fallbacks") and count]

    left = Relation("L", ("x", "y"), left_rows, backend="columnar")._backend
    right = Relation("R", right_columns, right_rows, backend="columnar")._backend
    for positions in ((0,), (1,), (1, 0), (0, 1)):
        tables, codes, length = kernels.distinct_encoded(left, positions)
        with _sparse_tier():
            sparse_tables, sparse_codes, sparse_length = \
                kernels.distinct_encoded(left, positions)
        assert length == sparse_length
        if length:
            assert all(a is b for a, b in zip(tables, sparse_tables))
        assert all(np.array_equal(a, b) and a.dtype == b.dtype == np.int64
                   for a, b in zip(codes, sparse_codes))
    # A zero-width key keeps every left row exactly when the right side has
    # a row, in either tier.
    expected = np.arange(len(left) if len(right) else 0)
    assert np.array_equal(kernels.semijoin_keep(left, right, (), ()), expected)
    with _sparse_tier():
        assert np.array_equal(kernels.semijoin_keep(left, right, (), ()),
                              expected)


def test_membership_never_matches_the_untranslatable_key():
    """A stored or probed key -1 (a value the other side's tables lack)
    matches nothing, in either tier."""
    keys = np.array([-1, 3, 3, 0], dtype=np.int64)
    probes = np.array([-1, 0, 1, 3], dtype=np.int64)
    for tier in (contextlib.nullcontext(), _sparse_tier()):
        with tier:
            found = kernels._contains(None, ("t",), keys, (4,), probes, 4)
        assert found.tolist() == [False, True, False, True]


# ---------------------------------------------------------------------------
# the backend selects the path
# ---------------------------------------------------------------------------

def test_kernels_off_keeps_counters_flat():
    """The ``set`` reference backend never runs a kernel."""
    left, right = _pair(MIXED_LEFT, MIXED_RIGHT, "set")
    before = kernel_stats()
    left.hash_join(right)
    left.semijoin(right)
    left.project(("y",))
    moved = KERNEL_STATS.delta(before)
    assert not any(count for event, count in moved.items()
                   if event.endswith("_kernels"))


# ---------------------------------------------------------------------------
# the fallback ladder
# ---------------------------------------------------------------------------

def test_pack_overflow_falls_back_to_reference_join(monkeypatch):
    monkeypatch.setattr(kernels, "_PACK_LIMIT", 1)
    left_rows = [(i, i % 5) for i in range(40)]
    right_rows = [(i % 5, i) for i in range(40)]
    join_reference = _reference("hash_join", left_rows, right_rows)
    semi_reference = _reference("semijoin", left_rows, right_rows[:7])
    left, right = _pair(left_rows, right_rows, "columnar")
    before = kernel_stats()
    joined = left.hash_join(right)
    semi = left.semijoin(Relation("R", ("y", "z"), right_rows[:7],
                                  backend="columnar"))
    moved = KERNEL_STATS.delta(before)
    assert moved.get("join_fallbacks", 0) > 0
    assert moved.get("join_kernels", 0) == 0
    assert moved.get("semijoin_fallbacks", 0) > 0
    assert joined.rows == join_reference.rows
    assert semi.rows == semi_reference.rows


def test_counting_overflow_falls_back_in_marginalization():
    big = kernels._COUNT_VALUE_LIMIT
    values = {(i, i % 3): big + i for i in range(9)}
    outputs = {}
    deltas = {}
    for kind in ("dict", "columnar"):
        relation = AnnotatedRelation("R", ("x", "y"), values,
                                     COUNTING_SEMIRING, backend=kind)
        before = kernel_stats()
        outputs[kind] = dict(relation.marginalize(["y"]).items())
        deltas[kind] = KERNEL_STATS.delta(before)
    assert outputs["columnar"] == outputs["dict"]
    assert deltas["columnar"].get("marginal_fallbacks", 0) > 0
    assert deltas["columnar"].get("marginal_kernels", 0) == 0


def test_real_sum_marginal_folds_like_the_reference():
    """The measure tables' ⊕ rounds exactly like the reference ``a + b`` fold
    in row order (``np.add.reduceat`` sums pairwise and gives 100.0 here)."""
    pairs = [((index % 2, index), 0.1) for index in range(2000)]
    expected: dict = {}
    for (key, _), weight in pairs:
        expected[(key,)] = expected[(key,)] + weight if (key,) in expected else weight
    assert expected[(0,)] != 100.0
    backend = ColumnarAnnotatedBackend(pairs)
    assert kernels.marginal_dict(backend, (0,), "real-sum") == expected


def test_top_k_semiring_falls_back_everywhere():
    """Tuple-valued annotations have no array form: the non-vectorizable
    semiring must take the fallback counters and still match the dict engine."""
    semiring = top_k_min_plus_semiring(2)
    r_values = {(1, "a"): (1.0, 3.0), (2, "b"): (2.0,)}
    s_values = {("a", 10): (0.5,), ("a", 11): (1.5, 2.0), ("b", 20): (4.0,)}
    outputs = {}
    deltas = {}
    for kind in ("dict", "columnar"):
        r = AnnotatedRelation("R", ("x", "y"), r_values, semiring, backend=kind)
        s = AnnotatedRelation("S", ("y", "z"), s_values, semiring, backend=kind)
        before = kernel_stats()
        fused = r.join_marginalize(s, drop=("y",))
        marginal = r.marginalize(["x"])
        deltas[kind] = KERNEL_STATS.delta(before)
        outputs[kind] = (dict(fused.items()), dict(marginal.items()))
    assert outputs["columnar"] == outputs["dict"]
    assert deltas["columnar"].get("join_marginalize_fallbacks", 0) > 0
    assert deltas["columnar"].get("join_marginalize_kernels", 0) == 0
    assert deltas["columnar"].get("marginal_fallbacks", 0) > 0


# ---------------------------------------------------------------------------
# worst-case-optimal join
# ---------------------------------------------------------------------------

#: A ternary atom first in the order makes the extension at Z probe a
#: two-variable (X, Y) prefix, not only the filters.
_TERNARY = ConjunctiveQuery((Atom("R", ("X", "Y", "Z")), Atom("S", ("X", "Y")),
                             Atom("T", ("Y", "Z"))), name="Ternary")


@pytest.mark.parametrize("query,size,domain,dense", [
    # Domain 12: every packed key space fits the dense tables.
    (triangle_query(), 60, 12, True),
    # ~370 distinct values per column: the two-variable key spaces (over
    # 130k keys) are beyond `_lut_capacity`, so those probes use
    # searchsorted — the filter through T(Z, X) here ...
    (triangle_query(), 1000, 400, False),
    # ... and the extension through R's (X, Y) prefix here.
    (_TERNARY, 1000, 400, False),
], ids=["dense", "searchsorted-filter", "searchsorted-extension"])
def test_wcoj_kernel_matches_reference_answers_and_explored(
        monkeypatch, query, size, domain, dense):
    database = random_graph_database(query, size, domain, seed=5,
                                     backend="columnar")
    probed, bitmapped = [], []
    probe, bitmap = kernels._probe, kernels._bitmap

    def recording_probe(owner, memo_key, sorted_keys, dims, probes, rows):
        fits = kernels._packed_space(dims) <= kernels._lut_capacity(rows)
        probed.append((memo_key[0], fits))
        return probe(owner, memo_key, sorted_keys, dims, probes, rows)

    def recording_bitmap(owner, memo_key, keys, space):
        bitmapped.append(memo_key[0])
        return bitmap(owner, memo_key, keys, space)

    monkeypatch.setattr(kernels, "_probe", recording_probe)
    monkeypatch.setattr(kernels, "_bitmap", recording_bitmap)
    kernel_counter = WorkCounter()
    before = kernel_stats()
    kernel_answer = generic_join(query, database, counter=kernel_counter)
    moved = KERNEL_STATS.delta(before)
    reference_counter = WorkCounter()
    reference_answer = generic_join(
        query, random_graph_database(query, size, domain, seed=5, backend="set"),
        counter=reference_counter)
    assert moved.get("wcoj_kernels", 0) > 0
    sparse = {tag for tag, fits in probed if not fits}
    if dense:
        # Extensions read range tables, filters membership bitmaps.
        assert probed and not sparse
        assert {tag for tag, _ in probed} == {"wcoj-prefixes"}
        assert set(bitmapped) == {"wcoj-members"}
    else:
        expected = "wcoj-prefixes" if query is _TERNARY else "wcoj-members"
        assert expected in sparse
    assert kernel_answer.rows == reference_answer.rows
    # The breadth-first array frontier explores exactly the tuples the
    # depth-first trie walk explores — the worst-case-optimality accounting
    # is unchanged, not just the answers.
    assert kernel_counter.intermediate_tuples == \
        reference_counter.intermediate_tuples
    assert kernel_counter.max_intermediate == reference_counter.max_intermediate


# ---------------------------------------------------------------------------
# shared code tables: derived relations, the warm path, value equality
# ---------------------------------------------------------------------------

def test_derived_relations_share_base_code_tables():
    left, right = _pair(MIXED_LEFT, MIXED_RIGHT, "columnar")
    joined = left.hash_join(right)
    reduced = left.semijoin(right)
    projected = left.project(("y",))
    assert len(reduced) < len(left), "the semijoin must filter"

    def table(relation, position):
        return relation._backend.dictionary(position).table

    assert table(joined, 0) is table(left, 0)
    assert table(joined, 2) is table(right, 1)
    assert table(reduced, 1) is table(left, 1)
    assert table(projected, 0) is table(left, 1)


@pytest.mark.parametrize("query", [
    triangle_query(), path_query(3, free_variables=("X1", "X2")),
    four_cycle_projected()],
    ids=["triangle", "p3", "four-cycle-adaptive"])
def test_warm_execution_builds_no_translations(query):
    """Derived relations share their base columns' tables, so a second
    execution finds every code translation already memoized and falls back
    nowhere.  The 4-cycle runs adaptive PANDA, whose measures, heads and
    unioned bags all keep the guard relations' tables."""
    database = random_graph_database(query, 200, 30, seed=13,
                                     backend="columnar")
    prepared = Engine(database).prepare(query)
    before = kernel_stats()
    first = prepared.execute().answer
    cold = KERNEL_STATS.delta(before)
    before = kernel_stats()
    second = prepared.execute().answer
    warm = KERNEL_STATS.delta(before)
    assert cold.get("translation_builds", 0) > 0
    assert warm.get("translation_builds", 0) == 0
    assert not [event for event, count in warm.items()
                if event.endswith("_fallbacks") and count]
    assert second.rows == first.rows


#: ``1 == 1.0 == True`` (and they hash equal): one value to a set, one code
#: to a dictionary.
_EQUAL_VALUES = [1, 1.0, True]


def _equal_value_database(backend: str) -> Database:
    rows = [(value, other) for value in _EQUAL_VALUES + [2, "a"]
            for other in (2, 1.0, "a")]
    return Database([Relation(name, ("c1", "c2"), rows[offset:] + rows[:offset],
                              backend=backend)
                     for offset, name in enumerate(("R", "S", "T"))])


def test_equal_values_of_different_types_match_the_set_backend():
    """Pins today's equality semantics for ``1``, ``1.0`` and ``True``: every
    kernel returns the same row set and count as the ``set`` reference."""
    answers = {}
    for backend in ("set", "columnar"):
        database = _equal_value_database(backend)
        r, s = database["R"], database["S"].rename({"c1": "c2", "c2": "c3"})
        before = kernel_stats()
        answers[backend] = [
            r.hash_join(s), r.semijoin(s.project(("c2",))),
            r.project(("c1",)),
            generic_join(triangle_query(), database),
            evaluate_yannakakis(path_query(3, free_variables=("X1", "X3")),
                                Database({"R1": database["R"],
                                          "R2": database["S"],
                                          "R3": database["T"]}))]
        moved = KERNEL_STATS.delta(before)
    for kernel in ("join", "semijoin", "projection", "wcoj"):
        assert moved.get(f"{kernel}_kernels", 0) > 0, kernel
    for reference, columnar in zip(answers["set"], answers["columnar"]):
        assert columnar.rows == reference.rows
        assert len(columnar) == len(reference)


@pytest.mark.xfail(strict=True, reason=(
    "equal values of different types share one code, and decoding returns "
    "the column's first-seen representative, not the stored object"))
def test_columnar_join_returns_the_stored_value_object():
    s_rows = [("c", True), ("b", 1.0)]
    left, right = _pair([(2, "b")], s_rows, "columnar")
    (row,) = left.hash_join(right).rows
    assert row == (2, "b", 1.0)
    assert type(row[2]) is float


def test_shard_dictionary_encodings_are_insertion_order_stable():
    """A column's codes are a function of its value set: identical value
    sets encode identically regardless of arrival order."""
    rows = [("b",), ("a",), ("c",), (2,), (1,)]
    forward = Relation("R", ("x",), rows, backend="columnar")
    backward = Relation("R", ("x",), list(reversed(rows)), backend="columnar")
    forward_dictionary = forward._backend.dictionary(0)
    backward_dictionary = backward._backend.dictionary(0)
    assert forward_dictionary.table.decode == backward_dictionary.table.decode
    assert sorted(forward_dictionary.codes) == sorted(backward_dictionary.codes)


def test_engine_stats_surface_kernel_cache_events():
    query = triangle_query()
    database = random_graph_database(query, 40, 10, seed=3, backend="columnar")
    engine = Engine(database)
    engine.execute(query)
    events = engine.stats.kernel_cache_events
    assert sum(events.values()) > 0
    assert any(count > 0 for event, count in events.items()
               if event.endswith("_kernels"))
    assert "kernel_cache_events" in engine.stats.as_dict()
