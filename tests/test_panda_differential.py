"""Differential test of adaptive PANDA: the kernel path against the references.

The measure algebra has two implementations (:mod:`repro.panda.measures`):
NumPy kernels over encoded columns, taken by a columnar database, and the
tuple-at-a-time Python algebra, taken by the ``set`` backend and by every
columnar step whose kernel declines.  A property over small generated
4-cycle and triangle instances asserts that the kernel path, a columnar run
whose packing limit is shrunk to zero (so every keyed kernel declines) and
the ``set`` backend all give the answer ``evaluate_bruteforce`` gives, and
that the kernel path replays every DDR with the same largest measure table
and the same head sizes as both other paths.

The instances mix values that compare equal across types (``1``, ``1.0``,
``True``) with strings, include empty relations, functional relations and
hub-skewed relabellings of the Section-5.1 hard family, and the statistics
optionally carry degree constraints, whose source terms start from
per-group uniform measures.
"""

from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms import evaluate_bruteforce
from repro.datagen import random_graph_database
from repro.panda import evaluate_adaptive
from repro.query import four_cycle_projected, triangle_query
from repro.relational import Database, Relation, kernels
from repro.stats import collect_statistics

QUERIES = {"four-cycle": four_cycle_projected, "triangle": triangle_query}
PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: ``1``, ``1.0`` and ``True`` are one value under equality and hashing.
VALUES = st.sampled_from([0, 1, 1.0, True, 2, 3, "a", "b"])


def _symbols(query_name: str) -> list[str]:
    return list(dict.fromkeys(QUERIES[query_name]().relation_names))


@st.composite
def random_instances(draw):
    """Each relation either arbitrary pairs or a function ``c1 -> c2``; the
    functions have degree 1, which makes degree constraints worth using."""
    query_name = draw(st.sampled_from(sorted(QUERIES)))
    relations = st.one_of(
        st.lists(st.tuples(VALUES, VALUES), max_size=10),
        st.dictionaries(VALUES, VALUES, max_size=8).map(lambda f: list(f.items())))
    return query_name, {symbol: draw(relations) for symbol in _symbols(query_name)}


@st.composite
def hub_instances(draw):
    """``([k] × {hub}) ∪ ({hub} × [k])`` per relation, values relabelled."""
    query_name = draw(st.sampled_from(sorted(QUERIES)))
    spokes = draw(st.integers(1, 8))
    labels = draw(st.lists(st.one_of(st.integers(0, 40), st.sampled_from("abcdefgh")),
                           min_size=spokes + 1, max_size=spokes + 1, unique=True))
    hub, rest = labels[0], labels[1:]
    rows = [(value, hub) for value in rest] + [(hub, value) for value in rest]
    return query_name, {symbol: rows for symbol in _symbols(query_name)}


def _seeded(query_name: str, seed: int):
    database = random_graph_database(QUERIES[query_name](), 24, 7, seed=seed)
    return query_name, {symbol: sorted(database[symbol])
                        for symbol in _symbols(query_name)}


def _database(rows_by_symbol: dict, backend: str) -> Database:
    return Database([Relation(symbol, ("c1", "c2"), rows, backend=backend)
                     for symbol, rows in rows_by_symbol.items()])


def _run(query, rows_by_symbol, backend, statistics):
    answer, report = evaluate_adaptive(query, _database(rows_by_symbol, backend),
                                       statistics)
    replay = [(ddr.max_table_size, ddr.head_sizes) for ddr in report.ddr_reports]
    return answer, replay


@PROPERTY
@given(instance=st.one_of(random_instances(), hub_instances()),
       degrees=st.booleans())
@example(instance=_seeded("four-cycle", 3), degrees=False)
@example(instance=_seeded("four-cycle", 17), degrees=False)
def test_adaptive_panda_kernel_and_reference_paths_agree(instance, degrees):
    query_name, rows_by_symbol = instance
    query = QUERIES[query_name]()
    statistics = collect_statistics(_database(rows_by_symbol, "set"), query,
                                    include_degrees=degrees)
    kernel_answer, kernel_replay = _run(query, rows_by_symbol, "columnar",
                                        statistics)
    with mock.patch.object(kernels, "_PACK_LIMIT", 0):
        python_answer, python_replay = _run(query, rows_by_symbol, "columnar",
                                            statistics)
    set_answer, set_replay = _run(query, rows_by_symbol, "set", statistics)
    truth = evaluate_bruteforce(query, _database(rows_by_symbol, "set"))

    assert kernel_answer.columns == truth.columns
    assert kernel_answer.rows == truth.rows
    assert python_answer.rows == truth.rows
    assert set_answer.rows == truth.rows
    assert kernel_replay == python_replay == set_replay
