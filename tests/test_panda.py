"""Tests for the PANDA measures, the DDR executor and adaptive evaluation (Section 8)."""

import pytest

from repro.algorithms import evaluate_bruteforce
from repro.datagen import hard_four_cycle_instance, random_graph_database
from repro.ddr import DisjunctiveDatalogRule, bag_selectors
from repro.decompositions import enumerate_tree_decompositions
from repro.paperdata import (
    figure2_database,
    four_cycle_cardinality_statistics,
)
from repro.panda import (
    ConditionalMeasure,
    UnconditionalMeasure,
    compose,
    evaluate_adaptive,
    evaluate_ddr,
)
from repro.panda.executor import PandaExecutionError
from repro.query import four_cycle_boolean, four_cycle_projected, triangle_query
from repro.relational import Database, Relation, kernels
from repro.relational.kernels import KERNEL_STATS, kernel_stats
from repro.stats import collect_statistics, statistics_for_query
from repro.utils.varsets import varset


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@pytest.fixture(params=[("dict", True), ("dict", False),
                        ("columnar", True), ("columnar", False)],
                ids=["dict-kernels-on", "dict-kernels-off",
                     "columnar-kernels-on", "columnar-kernels-off"])
def measure_backend(request, monkeypatch):
    """Each measure test runs on the reference ``dict`` backend and on the
    ``columnar`` one, which takes the encoded kernel path; "kernels-off"
    leaves no key space small enough to pack, so every keyed kernel
    declines and ``columnar`` falls back to the reference algebra there."""
    kind, kernels_on = request.param
    if not kernels_on:
        monkeypatch.setattr(kernels, "_PACK_LIMIT", 0)
    return kind


def _relation_backend(measure_backend):
    return "set" if measure_backend == "dict" else "columnar"


def test_uniform_measure_from_relation(measure_backend):
    relation = Relation("R", ("X", "Y"), [(1, "a"), (2, "b")],
                        backend=_relation_backend(measure_backend))
    measure = UnconditionalMeasure.uniform_from_relation(relation, {"X", "Y"}, 4)
    assert measure.backend_kind == measure_backend
    assert len(measure) == 2
    assert measure.total_mass() == pytest.approx(0.5)
    assert measure.truncate(0.2).weights == measure.weights
    assert len(measure.truncate(0.5)) == 0
    support = measure.support_relation("S")
    assert support.rows == relation.rows
    assignments = list(measure.as_assignments())
    assert len(assignments) == 2
    assert all(set(assignment) == {"X", "Y"} for assignment, _ in assignments)


def test_marginal_and_conditional_decomposition_is_consistent(measure_backend):
    relation = Relation("R", ("X", "Y"), [(1, "a"), (1, "b"), (2, "a")],
                        backend=_relation_backend(measure_backend))
    joint = UnconditionalMeasure.uniform_from_relation(relation, {"X", "Y"}, 3)
    marginal = joint.marginal({"X"})
    assert marginal.weights[(1,)] == pytest.approx(2 / 3)
    conditional = joint.conditional_on({"X"})
    assert conditional.key_variables == ("X",)
    group = conditional.group_for({"X": 1})
    assert sorted(weight for _, weight in group) == pytest.approx([0.5, 0.5])
    # Recomposition recovers the joint measure exactly (threshold 0 keeps all).
    recomposed = compose(marginal, conditional, threshold=0.0)
    assert set(recomposed.weights) == set(joint.weights)
    for row, weight in joint.weights.items():
        assert recomposed.weights[row] == pytest.approx(weight)
    # A group whose weights sum to zero has no conditional distribution.
    degenerate = UnconditionalMeasure(("X", "Y"), {(1, "a"): 0.5, (2, "b"): 0.0},
                                      backend=measure_backend)
    assert set(degenerate.conditional_on({"X"}).groups) == {(1,)}


def test_per_group_uniform_conditional_measure(measure_backend):
    relation = Relation("S", ("Y", "Z"), [("a", 1), ("a", 2), ("b", 3)],
                        backend=_relation_backend(measure_backend))
    conditional = ConditionalMeasure.per_group_uniform(relation, {"Z"}, {"Y"})
    assert conditional.max_group_size() == 2
    assert len(conditional) == 3
    assert conditional.group_for({"Y": "a"})[0][1] == pytest.approx(0.5)
    assert conditional.group_for({"Y": "b"})[0][1] == pytest.approx(1.0)
    assert conditional.group_for({"Y": "missing"}) == []


def test_compose_truncates_at_threshold(measure_backend):
    marginal = UnconditionalMeasure(("X",), {(1,): 0.5, (2,): 0.01},
                                    backend=measure_backend)
    conditional = ConditionalMeasure(("Y",), ("X",),
                                     {(1,): [(("a",), 0.9), (("b",), 0.05)],
                                      (2,): [(("c",), 1.0)]})
    combined = compose(marginal, conditional, threshold=0.1)
    assert set(combined.weights) == {(1, "a")}
    assert combined.weights[(1, "a")] == pytest.approx(0.45)
    with pytest.raises(ValueError):
        compose(UnconditionalMeasure(("Z",), {(1,): 1.0}, backend=measure_backend),
                conditional, 0.0)


def test_compose_rejects_a_conditional_that_rebinds_a_marginal_variable(measure_backend):
    # Composing would overwrite the marginal's Y='a' with Y='b' and emit a
    # tuple that contradicts the marginal.
    marginal = UnconditionalMeasure(("X", "Y"), {(1, "a"): 0.5}, backend=measure_backend)
    conditional = ConditionalMeasure(("Y",), ("X",), {(1,): [(("b",), 1.0)]})
    with pytest.raises(ValueError, match="target variables"):
        compose(marginal, conditional, 0.0)


@pytest.mark.parametrize("base, weight, threshold", [
    # threshold / base says keep the tied weights, base * weight says drop them
    (0.0254458609934608, 0.5414124727934966, 0.013776706522829193),
    # threshold / base says drop the tied weights, base * weight says keep them
    (0.7214844075832684, 0.7111917696952796, 0.5131137726366951),
], ids=["division-keeps-too-many", "division-keeps-too-few"])
def test_compose_kernel_keeps_exactly_the_scalar_loops_prefix(base, weight, threshold):
    # Row 2's weight equals the threshold, which keeps it.
    conditional = ConditionalMeasure(("Y",), ("X",), {
        (1,): [(("a",), 1.0), (("b",), weight), (("c",), weight), (("d",), weight / 4)],
        (2,): [(("e",), 1.0), (("f",), 0.5)]})
    composed = {}
    for kernels_on in (True, False):
        marginal = UnconditionalMeasure(("X",), {(1,): base, (2,): threshold},
                                        backend="columnar" if kernels_on else "dict")
        composed[kernels_on] = compose(marginal, conditional, threshold).weights
    expected = {(1, y) for y in ("a", "b", "c")
                if base * {"a": 1.0}.get(y, weight) >= threshold} | {(2, "e")}
    assert set(composed[False]) == expected
    assert composed[True] == composed[False]


def test_compose_kernel_work_is_bounded_by_the_kept_tuples():
    """One marginal row against a group of 100,000 descending weights, of
    which the threshold keeps 10: the kernel reads the kept entries plus one
    boundary entry on each side, never the whole group."""
    group_size, kept = 100_000, 10
    weights = [1.0 - index / group_size for index in range(group_size)]
    conditional = ConditionalMeasure(
        ("Y",), ("X",), {(1,): [((index,), weight) for index, weight in enumerate(weights)]})
    marginal = UnconditionalMeasure(("X",), {(1,): 0.5}, backend="columnar")
    threshold = 0.5 * weights[kept - 1]
    conditional.encoded()  # encoding the group is the conditional's cost
    before = kernel_stats()
    combined = compose(marginal, conditional, threshold)
    moved = KERNEL_STATS.delta(before)
    assert sorted(combined.weights) == [(1, index) for index in range(kept)]
    assert moved["compose_kernels"] == 1
    assert moved["compose_entries_examined"] <= kept + 2 * len(marginal)


# ---------------------------------------------------------------------------
# DDR executor
# ---------------------------------------------------------------------------

def _check_ddr_execution(query, database, statistics, targets):
    ddr = DisjunctiveDatalogRule(query, tuple(targets))
    heads, report = evaluate_ddr(ddr, database, statistics)
    assert ddr.is_model(database, heads), "PANDA output is not a model of the DDR"
    for relation in heads.values():
        assert len(relation) <= report.size_bound * (1 + 1e-6)
    assert report.max_table_size <= 4 * report.size_bound + len(database.relations()) * 4
    return heads, report


def test_panda_ddr_on_figure2(four_cycle):
    database = figure2_database()
    statistics = four_cycle_cardinality_statistics(3)
    heads, report = _check_ddr_execution(four_cycle, database, statistics,
                                         [varset("XYZ"), varset("YZW")])
    assert report.bound_exponent == pytest.approx(1.5)
    assert "PANDA execution" in report.describe()


def test_panda_ddr_on_the_hard_instance(four_cycle):
    size = 60
    database = hard_four_cycle_instance(size)
    statistics = four_cycle_cardinality_statistics(size)
    heads, report = _check_ddr_execution(four_cycle, database, statistics,
                                         [varset("XYZ"), varset("YZW")])
    # The crucial property: every materialised table stays well below N², in
    # fact within the N^{3/2} bound (plus the inputs themselves).
    assert report.max_table_size <= size ** 1.5 + size
    assert report.size_bound == pytest.approx(size ** 1.5, rel=1e-9)


def test_panda_ddr_all_selectors_on_random_data(four_cycle):
    database = random_graph_database(four_cycle, 40, 10, seed=5)
    statistics = collect_statistics(database, four_cycle, include_degrees=False)
    decompositions = enumerate_tree_decompositions(four_cycle)
    for selector in bag_selectors(decompositions):
        _check_ddr_execution(four_cycle, database, statistics, selector)


def test_panda_ddr_with_degree_constraints(four_cycle):
    database = figure2_database()
    statistics = collect_statistics(database, four_cycle_projected(), include_degrees=True)
    _check_ddr_execution(four_cycle, database, statistics,
                         [varset("XYZ"), varset("YZW")])


def test_panda_single_target_ddr_is_a_join_bound(triangle):
    database = random_graph_database(triangle, 30, 8, seed=2)
    statistics = collect_statistics(database, triangle, include_degrees=False)
    heads, report = _check_ddr_execution(triangle, database, statistics, [varset("XYZ")])
    # A single-target DDR must cover every body tuple in that one target.
    truth = evaluate_bruteforce(triangle.full_version(), database)
    head = heads[varset("XYZ")]
    assert truth.project(head.columns).rows <= head.rows


def test_panda_requires_a_guard_relation(four_cycle):
    database = figure2_database()
    statistics = statistics_for_query(four_cycle, 3)
    # Rename a guard to something that is not an atom of the query.
    broken = type(statistics)(base=3)
    broken.add_cardinality("XY", 3, guard="NOPE")
    broken.add_cardinality("YZ", 3, guard="S")
    broken.add_cardinality("ZW", 3, guard="T")
    broken.add_cardinality("WX", 3, guard="U")
    ddr = DisjunctiveDatalogRule(four_cycle, (varset("XYZ"), varset("YZW")))
    with pytest.raises(PandaExecutionError):
        evaluate_ddr(ddr, database, broken)


# ---------------------------------------------------------------------------
# adaptive evaluation (rules (28)-(29))
# ---------------------------------------------------------------------------

def test_adaptive_matches_bruteforce_on_figure2(four_cycle):
    database = figure2_database()
    answer, report = evaluate_adaptive(four_cycle, database)
    truth = evaluate_bruteforce(four_cycle, database)
    assert answer.rows == truth.rows
    assert report.subw_exponent == pytest.approx(1.5)


def test_adaptive_matches_bruteforce_on_random_instances(four_cycle):
    for seed in range(3):
        database = random_graph_database(four_cycle, 50, 11, seed=seed)
        answer, _ = evaluate_adaptive(four_cycle, database)
        truth = evaluate_bruteforce(four_cycle, database)
        assert answer.rows == truth.rows


def test_adaptive_boolean_four_cycle():
    query = four_cycle_boolean()
    positive = hard_four_cycle_instance(20)
    answer, _ = evaluate_adaptive(query, positive)
    assert len(answer) == 1
    empty_db = random_graph_database(query, 5, 50, seed=1)
    answer_neg, _ = evaluate_adaptive(query, empty_db)
    truth = evaluate_bruteforce(query, empty_db)
    assert (len(answer_neg) > 0) == (len(truth) > 0)


def test_adaptive_full_four_cycle_matches_bruteforce():
    query = four_cycle_projected().full_version()
    database = random_graph_database(query, 40, 9, seed=4)
    answer, _ = evaluate_adaptive(query, database)
    truth = evaluate_bruteforce(query, database)
    assert answer.rows == truth.rows


def test_adaptive_keeps_intermediates_small_on_hard_instances(four_cycle):
    size = 80
    database = hard_four_cycle_instance(size)
    statistics = four_cycle_cardinality_statistics(size)
    answer, report = evaluate_adaptive(four_cycle, database, statistics=statistics)
    truth = evaluate_bruteforce(four_cycle, database)
    assert answer.rows == truth.rows
    assert report.max_intermediate <= 4 * size ** 1.5
    assert report.max_intermediate < (size / 2) ** 2
    assert "adaptive PANDA plan" in report.describe()


def test_adaptive_uses_all_four_ddrs(four_cycle, hard_instance):
    _, report = evaluate_adaptive(four_cycle, hard_instance)
    assert len(report.ddr_reports) == 4
    assert len(report.decompositions) == 2
    assert report.max_bag_size > 0


def test_adaptive_regression_threshold_above_true_one_over_b(four_cycle):
    """Frozen hypothesis counterexample: the dropped-answer soundness bug.

    On this database the tightest DDR bound is ``B = 10^{log10 7} = 7`` and
    the answer tuple's measure weight is exactly ``1/7``.  The seed computed
    the truncation threshold as ``(1/10^{LP exponent}) * (1 - 1e-9)``; the
    floating-point LP undershoots ``log10 7`` by ~1e-9, so the threshold
    landed *above* the true ``1/7`` and the answer ``(0, 0)`` was silently
    truncated out of the W-containing bags (seed-independent regression for
    ``test_adaptive_panda_matches_bruteforce_on_random_four_cycles``).
    """
    database = Database([
        Relation("R", ("a", "b"), [(0, 0)]),
        Relation("S", ("a", "b"), [(0, 0)]),
        Relation("T", ("a", "b"),
                 [(0, 4), (5, 0), (0, 3), (0, 0), (3, 0), (2, 0), (0, 1)]),
        Relation("U", ("a", "b"),
                 [(1, 2), (0, 0), (2, 5), (0, 5), (0, 4), (4, 0), (4, 5),
                  (0, 2), (1, 0), (5, 0)]),
    ])
    truth = evaluate_bruteforce(four_cycle, database)
    assert truth.rows == frozenset({(0, 0)})
    answer, report = evaluate_adaptive(four_cycle, database)
    assert answer.rows == truth.rows
    # Every bag of some decomposition must cover the body tuple (0,0,0,0).
    assert any(all(report.bag_sizes[bag] >= 1 for bag in decomposition.bags)
               for decomposition in report.decompositions)
