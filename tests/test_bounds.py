"""Tests for the AGM and polymatroid bounds (experiments E1, E9 and Theorem 5.1)."""

import math

import pytest

from repro.algorithms import count_answers, evaluate_bruteforce
from repro.bounds import (
    agm_bound,
    agm_bound_from_sizes,
    compare_with_and_without_norms,
    ddr_polymatroid_bound,
    polymatroid_bound,
)
from repro.bounds.lpnorm import add_measured_lp_norms
from repro.datagen import random_graph_database
from repro.paperdata import (
    figure2_database,
    four_cycle_cardinality_statistics,
    four_cycle_full_statistics,
)
from repro.query import (
    four_cycle_full,
    four_cycle_projected,
    loomis_whitney_query,
    path_query,
    triangle_query,
)
from repro.stats import ConstraintSet, collect_statistics, statistics_for_query
from repro.utils.varsets import varset


# ---------------------------------------------------------------------------
# AGM bound
# ---------------------------------------------------------------------------

def test_agm_bound_triangle_is_n_to_three_halves():
    result = agm_bound(triangle_query(), statistics_for_query(triangle_query(), 1000))
    assert result.exponent == pytest.approx(1.5, abs=1e-6)


def test_agm_bound_four_cycle_is_n_squared(s_box):
    result = agm_bound(four_cycle_full(), s_box)
    assert result.exponent == pytest.approx(2.0, abs=1e-6)


def test_agm_bound_loomis_whitney():
    query = loomis_whitney_query(3)
    result = agm_bound(query, statistics_for_query(query, 1000))
    assert result.exponent == pytest.approx(1.5, abs=1e-6)


def test_agm_bound_projected_query_covers_only_free_variables(s_box):
    # Q□(X, Y): covering {X, Y} needs only the single atom R, so the bound is N.
    result = agm_bound(four_cycle_projected(), s_box)
    assert result.exponent == pytest.approx(1.0, abs=1e-6)


def test_agm_bound_boolean_query_is_one(s_box):
    from repro.query import four_cycle_boolean

    result = agm_bound(four_cycle_boolean(), s_box)
    assert result.size_bound == 1.0


def test_agm_bound_from_sizes_and_cover_weights():
    query = triangle_query()
    result = agm_bound_from_sizes(query, {"R": 100, "S": 100, "T": 100})
    assert result.exponent == pytest.approx(1.5, abs=1e-6)
    weights = result.weight_by_atom(query)
    assert all(weight == pytest.approx(0.5, abs=1e-6) for weight in weights.values())


def test_agm_bound_requires_sizes_for_every_atom():
    query = triangle_query()
    stats = ConstraintSet(base=100)
    stats.add_cardinality("XY", 100, guard="R")
    with pytest.raises(ValueError):
        agm_bound(query, stats)


def test_agm_bound_sizes_atoms_from_an_unguarded_constraint_over_more_variables():
    stats = ConstraintSet(base=100)
    stats.add_cardinality("XYZ", 100)
    assert agm_bound(triangle_query(), stats).exponent == pytest.approx(1.5, abs=1e-6)


def test_agm_matches_polymatroid_for_cardinality_only_statistics():
    """With only cardinality constraints the polymatroid bound collapses to AGM."""
    for query in (triangle_query(), four_cycle_full(), loomis_whitney_query(3)):
        stats = statistics_for_query(query, 500)
        agm = agm_bound(query, stats)
        poly = polymatroid_bound(query, stats)
        assert agm.exponent == pytest.approx(poly.exponent, abs=1e-5)


# ---------------------------------------------------------------------------
# polymatroid bound (E1)
# ---------------------------------------------------------------------------

def test_polymatroid_bound_four_cycle_with_fd_and_degree(s_box_full):
    """Eq. (19): |Q□full| <= N^{3/2} · sqrt(C) with N = 1000 and C = 16."""
    result = polymatroid_bound(four_cycle_full(), s_box_full)
    expected = 1.5 + 0.5 * math.log(16) / math.log(1000)
    assert result.exponent == pytest.approx(expected, abs=1e-6)
    assert result.size_bound == pytest.approx(1000 ** 1.5 * 4.0, rel=1e-6)


def test_polymatroid_bound_witness_is_a_polymatroid(s_box_full):
    result = polymatroid_bound(four_cycle_full(), s_box_full)
    assert result.polymatroid.is_polymatroid(tolerance=1e-6)


def test_polymatroid_bound_fd_only_glvv_case(s_box):
    """Adding only the FD W→X (GLVV setting) already lowers the bound below N²."""
    stats = four_cycle_full_statistics(1000, degree_bound=1000)
    # deg_U(W|X) <= N is vacuous, so only the FD matters: bound becomes N^{2}?
    # With the FD alone the 4-cycle collapses: h(X|W) = 0 gives h(XYZW) <= ...
    result = polymatroid_bound(four_cycle_full(), stats)
    plain = polymatroid_bound(four_cycle_full(), s_box)
    assert result.exponent <= plain.exponent + 1e-9
    assert plain.exponent == pytest.approx(2.0, abs=1e-6)


def test_polymatroid_bound_is_an_upper_bound_on_real_outputs():
    query = four_cycle_full()
    database = figure2_database()
    stats = collect_statistics(database, query)
    bound = polymatroid_bound(query, stats)
    assert len(evaluate_bruteforce(query, database)) <= bound.size_bound + 1e-6


def test_polymatroid_bound_on_random_instances_dominates_actual_output():
    query = triangle_query()
    for seed in range(3):
        database = random_graph_database(query, 40, 10, seed=seed)
        stats = collect_statistics(database, query)
        bound = polymatroid_bound(query, stats)
        assert count_answers(query, database) <= bound.size_bound * (1 + 1e-9)


def test_polymatroid_bound_accepts_bare_variable_sets(s_box):
    # Eq. (27): under S□ each bag of T1 has polymatroid bound 2 (not 3/2 — the
    # 3/2 only appears for the min over a bag selector).
    result = polymatroid_bound(varset("XYZ"), s_box)
    assert result.exponent == pytest.approx(2.0, abs=1e-6)
    pair = ddr_polymatroid_bound([varset("XYZ"), varset("YZW")], s_box,
                                 variables=varset("XYZW"))
    assert pair.exponent == pytest.approx(1.5, abs=1e-6)


# ---------------------------------------------------------------------------
# DDR bound (Theorem 5.1)
# ---------------------------------------------------------------------------

def test_ddr_bound_four_cycle_selector(s_box):
    result = ddr_polymatroid_bound([varset("XYZ"), varset("YZW")], s_box,
                                   variables=varset("XYZW"))
    assert result.exponent == pytest.approx(1.5, abs=1e-6)


def test_ddr_bound_with_single_target_reduces_to_cq_bound(s_box):
    single = ddr_polymatroid_bound([varset("XYZW")], s_box, variables=varset("XYZW"))
    cq = polymatroid_bound(four_cycle_full(), s_box)
    assert single.exponent == pytest.approx(cq.exponent, abs=1e-6)


def test_ddr_bound_never_exceeds_individual_bounds(s_box):
    pair = ddr_polymatroid_bound([varset("XYZ"), varset("XZW")], s_box,
                                 variables=varset("XYZW"))
    single = ddr_polymatroid_bound([varset("XYZ")], s_box, variables=varset("XYZW"))
    assert pair.exponent <= single.exponent + 1e-9


# ---------------------------------------------------------------------------
# ℓp-norm bounds (E7)
# ---------------------------------------------------------------------------

def test_l2_norm_constraints_tighten_the_bound():
    """Section 9.2: ℓ2-norm constraints can beat every degree-based bound.

    For the matrix-multiplication pattern Q(X1,X3) :- R(X1,X2), S(X2,X3) the
    cardinality-only bound is N²; with ℓ2 bounds L on both degree sequences
    (conditioning on the shared variable X2) the output is at most L², i.e.
    exponent 1.2 when L = N^{0.6}.
    """
    query = path_query(2, free_variables=("X1", "X3"))
    stats = ConstraintSet(base=100)
    stats.add_cardinality(["X1", "X2"], 100, guard="R1")
    stats.add_cardinality(["X2", "X3"], 100, guard="R2")
    stats.add_lp_norm(["X1"], ["X2"], 2, 100 ** 0.6, guard="R1")
    stats.add_lp_norm(["X3"], ["X2"], 2, 100 ** 0.6, guard="R2")
    comparison = compare_with_and_without_norms(query, stats)
    assert comparison.without_norms.exponent == pytest.approx(2.0, abs=1e-6)
    assert comparison.with_norms.exponent == pytest.approx(1.2, abs=1e-4)
    assert comparison.improvement_exponent == pytest.approx(0.8, abs=1e-4)


def test_measured_l2_norms_are_valid_and_tighten_or_match():
    query = triangle_query()
    database = random_graph_database(query, 50, 8, seed=1)
    base_stats = collect_statistics(database, query, include_degrees=False)
    enriched = add_measured_lp_norms(base_stats, database, query, order=2.0)
    assert enriched.lp_norm_constraints
    bound_with = polymatroid_bound(query, enriched)
    bound_without = polymatroid_bound(query, base_stats)
    assert bound_with.exponent <= bound_without.exponent + 1e-9
    # ... and it is still an upper bound on the true output size.
    assert count_answers(query, database) <= bound_with.size_bound * (1 + 1e-9)
