"""Tests for the cost model and the planner (the paper's meta-algorithm)."""

import pytest

from repro.algorithms import evaluate_bruteforce
from repro.datagen import hard_four_cycle_instance, random_graph_database
from repro.optimizer import PlanKind, estimate_costs, plan
from repro.paperdata import four_cycle_cardinality_statistics
from repro.query import four_cycle_projected, path_query, triangle_query
from repro.stats import statistics_for_query


def test_cost_estimate_for_the_four_cycle(four_cycle, s_box):
    estimate = estimate_costs(four_cycle, s_box)
    assert not estimate.is_acyclic
    assert estimate.fhtw_exponent == pytest.approx(2.0, abs=1e-6)
    assert estimate.subw_exponent == pytest.approx(1.5, abs=1e-6)
    assert estimate.adaptive_gain == pytest.approx(0.5, abs=1e-6)
    assert "fhtw" in estimate.describe()


def test_planner_picks_yannakakis_for_free_connex_acyclic_queries():
    query = path_query(3, free_variables=("X1", "X2"))
    stats = statistics_for_query(query, 1000)
    chosen = plan(query, stats)
    assert chosen.kind is PlanKind.YANNAKAKIS
    database = random_graph_database(query, 50, 12, seed=1)
    result = chosen.execute(database)
    assert result.answer.rows == evaluate_bruteforce(query, database).rows
    assert "yannakakis" in chosen.explain()


def test_planner_picks_static_plan_for_the_triangle(triangle, triangle_stats):
    chosen = plan(triangle, triangle_stats)
    assert chosen.kind is PlanKind.STATIC_TD
    database = random_graph_database(triangle, 40, 9, seed=2)
    result = chosen.execute(database)
    assert result.answer.rows == evaluate_bruteforce(triangle, database).rows
    assert result.output_size == len(result.answer)


def test_planner_picks_adaptive_panda_for_the_projected_four_cycle(four_cycle):
    size = 60
    stats = four_cycle_cardinality_statistics(size)
    chosen = plan(four_cycle, stats)
    assert chosen.kind is PlanKind.ADAPTIVE_PANDA
    assert "subw" in chosen.reason
    database = hard_four_cycle_instance(size)
    result = chosen.execute(database)
    assert result.answer.rows == evaluate_bruteforce(four_cycle, database).rows
    # The executed adaptive plan really avoided the quadratic intermediates.
    assert result.counter.max_intermediate < (size / 2) ** 2


def test_planner_static_when_no_adaptive_gain():
    # The matrix-multiplication pattern is acyclic but not free-connex and has
    # a single useful decomposition, so the planner stays with a static plan.
    query = path_query(2, free_variables=("X1", "X3"))
    stats = statistics_for_query(query, 1000)
    chosen = plan(query, stats)
    assert chosen.kind is PlanKind.STATIC_TD
    database = random_graph_database(query, 40, 10, seed=4)
    result = chosen.execute(database)
    assert result.answer.rows == evaluate_bruteforce(query, database).rows
