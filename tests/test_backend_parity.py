"""Backend parity: every algorithm must give identical results on every backend.

The storage engine is only pluggable if it is unobservable through results: a
property-style sweep runs every evaluation algorithm (brute force, binary
join, generic join, Yannakakis, static plan, FAQ, adaptive PANDA) on random
``datagen`` instances under both the set and the columnar backend and asserts
bit-identical answers, plus edge cases for degree computation and
degree-based partitioning on empty relations and empty variable sets.  Every
case also runs with the kernels' packing limit shrunk to zero, so each keyed
columnar kernel declines and the columnar backend takes its uncached
tuple-at-a-time fallback.
Adaptive PANDA also has a broader differential test
(``tests/test_panda_differential.py``).
"""

import pytest

from repro.algorithms import (
    best_binary_plan,
    evaluate_bruteforce,
    evaluate_static_plan,
    evaluate_yannakakis,
    generic_join,
)
from repro.algorithms.faq import count_query_answers
from repro.datagen import random_graph_database
from repro.decompositions.enumerate import enumerate_tree_decompositions
from repro.panda.adaptive import evaluate_adaptive
from repro.query import four_cycle_projected, path_query, triangle_query
from repro.relational import BACKENDS, Relation, get_default_backend, kernels
from repro.relational.storage import STORAGE_STATS

BACKEND_KINDS = sorted(BACKENDS)
SEEDS = (3, 17, 92)


@pytest.fixture(autouse=True, params=[True, False],
                ids=["kernels-on", "kernels-off"])
def _kernel_modes(request, monkeypatch):
    """Run every parity case on the vectorized-kernel path and, with no key
    space small enough to pack, on the columnar fallback path (the set
    backend never runs kernels)."""
    if not request.param:
        monkeypatch.setattr(kernels, "_PACK_LIMIT", 0)


def _databases(query, size, domain, seed):
    return {kind: random_graph_database(query, size, domain, seed=seed,
                                        backend=kind)
            for kind in BACKEND_KINDS}


def _assert_same_answers(answers):
    reference_kind = BACKEND_KINDS[0]
    reference = answers[reference_kind]
    for kind, answer in answers.items():
        assert answer.columns == reference.columns, (
            f"backend {kind} produced schema {answer.columns}, "
            f"{reference_kind} produced {reference.columns}")
        assert answer.rows == reference.rows, (
            f"backend {kind} disagrees with {reference_kind}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("make_query", [triangle_query, four_cycle_projected,
                                        lambda: path_query(3, free_variables=("X1", "X4"))],
                         ids=["triangle", "four-cycle", "path3"])
def test_generic_join_and_bruteforce_parity(make_query, seed):
    query = make_query()
    databases = _databases(query, size=60, domain=12, seed=seed)
    truth = {kind: evaluate_bruteforce(query, db)
             for kind, db in databases.items()}
    _assert_same_answers(truth)
    answers = {kind: generic_join(query, db) for kind, db in databases.items()}
    _assert_same_answers(answers)
    # Both backends' depth-first fallback shares one trie algorithm, so the
    # cross-backend check alone cannot see a fault in it.
    assert answers[BACKEND_KINDS[0]].rows == truth[BACKEND_KINDS[0]].rows


@pytest.mark.parametrize("seed", SEEDS)
def test_binary_plan_parity(seed):
    query = triangle_query()
    databases = _databases(query, size=40, domain=10, seed=seed)
    _assert_same_answers({kind: best_binary_plan(query, db)[0]
                          for kind, db in databases.items()})


@pytest.mark.parametrize("seed", SEEDS)
def test_yannakakis_parity(seed):
    query = path_query(4, free_variables=("X1", "X3", "X5"))
    databases = _databases(query, size=80, domain=14, seed=seed)
    answers = {kind: evaluate_yannakakis(query, db)
               for kind, db in databases.items()}
    _assert_same_answers(answers)
    truth = evaluate_bruteforce(query, databases[BACKEND_KINDS[0]])
    assert answers[BACKEND_KINDS[0]].rows == truth.rows


@pytest.mark.parametrize("seed", SEEDS)
def test_static_plan_parity(seed):
    query = four_cycle_projected()
    decomposition = enumerate_tree_decompositions(query)[0]
    databases = _databases(query, size=36, domain=9, seed=seed)
    _assert_same_answers({kind: evaluate_static_plan(query, db, decomposition)[0]
                          for kind, db in databases.items()})


@pytest.mark.parametrize("seed", SEEDS)
def test_faq_counting_parity(seed):
    query = triangle_query()
    databases = _databases(query, size=40, domain=10, seed=seed)
    counts = {kind: count_query_answers(query, db)
              for kind, db in databases.items()}
    assert len(set(counts.values())) == 1


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_adaptive_panda_parity(seed):
    query = four_cycle_projected()
    databases = _databases(query, size=24, domain=7, seed=seed)
    answers = {kind: evaluate_adaptive(query, db)[0]
               for kind, db in databases.items()}
    _assert_same_answers(answers)
    truth = evaluate_bruteforce(query, databases[BACKEND_KINDS[0]])
    assert answers[BACKEND_KINDS[0]].rows == truth.rows


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_default_backend_selection(kind):
    assert Relation("R", ("a", "b"), [(1, 2)]).backend_kind == "set"
    assert get_default_backend() == "set"
    relation = Relation("R", ("a", "b"), [(1, 2)], backend=kind)
    assert relation.backend_kind == kind
    assert relation.with_backend("set").backend_kind == "set"


# ---------------------------------------------------------------------------
# degree / partition edge cases, identical across backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_degree_edge_cases_empty_relation(kind):
    empty = Relation("E", ("x", "y"), [], backend=kind)
    assert empty.degree(["y"], ["x"]) == 0
    assert empty.degree(["x", "y"], []) == 0
    assert empty.degree_vector(["y"], ["x"]) == {}
    light, heavy = empty.partition_by_degree(["x"], ["y"], threshold=1)
    assert len(light) == 0 and len(heavy) == 0
    assert light.columns == heavy.columns == ("x", "y")


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_degree_edge_cases_empty_given_and_target(kind):
    relation = Relation("R", ("x", "y"), [(1, "a"), (1, "b"), (2, "a")],
                        backend=kind)
    # Empty given: the degree is the number of distinct target values.
    assert relation.degree(["y"], []) == 2
    assert relation.degree_vector(["y"], []) == {(): 2}
    # Empty target: every nonempty group has exactly one (empty) target tuple.
    assert relation.degree([], ["x"]) == 1
    assert relation.degree_vector([], ["x"]) == {(1,): 1, (2,): 1}
    # Both empty, nonempty relation: a single empty group of one empty tuple.
    assert relation.degree([], []) == 1
    # Partitioning with an empty given set puts every row on the same side.
    light, heavy = relation.partition_by_degree([], ["y"], threshold=1)
    assert len(light) == 0 and heavy.rows == relation.rows
    light, heavy = relation.partition_by_degree([], ["y"], threshold=2)
    assert light.rows == relation.rows and len(heavy) == 0


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_empty_semijoin_never_touches_the_other_side(kind):
    """Semijoining an empty relation (PANDA's empty bags) builds nothing on
    the relation it filters against."""
    empty = Relation("E", ("x", "y"), [], backend="set")
    other = Relation("R", ("y", "z"), [(1, 2), (3, 4)], backend=kind)
    before = STORAGE_STATS.snapshot()
    reduced = empty.semijoin(other)
    assert len(reduced) == 0 and reduced.columns == ("x", "y")
    assert STORAGE_STATS.delta(before) == {}
