"""Integration tests for the compiled LP substrate.

Covers the shared polymatroid-region cache (one compiled ``Γ_n ∧ S`` region
serving fhtw bags, subw selectors and plain bound queries), the memoized
Shannon-flow certificates, warm-cache vs cold-solve numeric parity, and a
hypothesis property pinning the HiGHS numeric path to the exact rational
simplex.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import agm_bound, ddr_polymatroid_bound, polymatroid_bound
from repro.flows import find_shannon_flow
from repro.lp import (
    LP_STATS,
    LinearProgram,
    clear_lp_caches,
    lp_cache_stats,
    solve_min_with_inequalities,
)
from repro.optimizer import estimate_costs
from repro.panda import evaluate_adaptive
from repro.paperdata import figure2_database
from repro.stats import ConstraintSet
from repro.utils.varsets import varset
from repro.widths import (
    four_cycle_combinatorial_subw_via_lp,
    fractional_hypertree_width,
    submodular_width,
)


@pytest.fixture(autouse=True)
def _fresh_lp_caches():
    """Counter assertions need isolation from whatever ran before."""
    clear_lp_caches()
    LP_STATS.reset()
    yield
    clear_lp_caches()
    LP_STATS.reset()


def _events(before):
    return LP_STATS.delta(before)


# ---------------------------------------------------------------------------
# region cache
# ---------------------------------------------------------------------------

def test_widths_share_one_compiled_region(four_cycle, s_box):
    subw = submodular_width(four_cycle, s_box)
    fhtw = fractional_hypertree_width(four_cycle, s_box)
    stats = lp_cache_stats()
    assert subw.width == pytest.approx(1.5)
    assert fhtw.width == pytest.approx(2.0)
    # 4 selectors + 1 fhtw top-level lookup share the single built region.
    assert stats["region_builds"] == 1
    assert stats["region_hits"] >= 4
    assert stats["elemental_builds"] == 1
    assert stats["compile_builds"] == 1
    assert stats["compile_hits"] >= 8  # one solve per selector + per bag


def test_bound_queries_hit_the_region_of_the_widths(four_cycle, s_box):
    reference = polymatroid_bound(four_cycle, s_box).exponent  # cold
    clear_lp_caches()
    submodular_width(four_cycle, s_box)
    before = lp_cache_stats()
    bound = polymatroid_bound(four_cycle, s_box)
    delta = _events(before)
    assert bound.exponent == pytest.approx(reference, abs=1e-9)
    assert delta.get("region_hits", 0) == 1
    assert "region_builds" not in delta


def test_region_cache_keys_on_statistics_content(four_cycle):
    first = ConstraintSet(base=1000.0)
    second = ConstraintSet(base=1000.0)
    for statistics in (first, second):
        for atom in four_cycle.atoms:
            statistics.add_cardinality(atom.varset, 1000.0, guard=atom.relation)
    assert first.fingerprint() == second.fingerprint()
    polymatroid_bound(four_cycle, first)
    before = lp_cache_stats()
    polymatroid_bound(four_cycle, second)  # distinct object, same content
    delta = _events(before)
    assert delta.get("region_hits", 0) == 1

    second.add_degree("Y", "X", 16.0, guard="R")  # mutation changes the key
    assert first.fingerprint() != second.fingerprint()
    before = lp_cache_stats()
    polymatroid_bound(four_cycle, second)
    delta = _events(before)
    assert delta.get("region_builds", 0) == 1


def test_ddr_bound_leaves_shared_region_clean(four_cycle, s_box):
    # The max-min gadget must not leak its auxiliary variable or rows into
    # the shared region a later single-target bound re-solves.
    selector = (varset("XYZ"), varset("YZW"))
    reference_single = polymatroid_bound(four_cycle, s_box).exponent  # cold
    clear_lp_caches()
    first = ddr_polymatroid_bound(selector, s_box, variables=four_cycle.variables)
    single = polymatroid_bound(four_cycle, s_box)
    again = ddr_polymatroid_bound(selector, s_box, variables=four_cycle.variables)
    assert first.exponent == pytest.approx(1.5)
    assert single.exponent == pytest.approx(reference_single, abs=1e-9)
    assert again.exponent == pytest.approx(first.exponent)


# ---------------------------------------------------------------------------
# warm caches vs cold solves
# ---------------------------------------------------------------------------

def _widths(query, statistics):
    return (submodular_width(query, statistics).width,
            fractional_hypertree_width(query, statistics).width,
            polymatroid_bound(query, statistics).exponent,
            agm_bound(query, statistics).exponent)


def test_warm_caches_match_cold_solves_on_width_workloads(four_cycle, s_box, s_box_full,
                                                          triangle, triangle_stats):
    workloads = [(four_cycle, s_box), (four_cycle, s_box_full),
                 (triangle, triangle_stats)]
    for query, statistics in workloads:
        clear_lp_caches()
        cold = _widths(query, statistics)
        before = lp_cache_stats()
        warm = _widths(query, statistics)
        assert _events(before).get("region_hits", 0) > 0  # served from the caches
        assert warm == pytest.approx(cold, abs=1e-9)


def test_omega_lp_verification_matches_closed_form():
    assert four_cycle_combinatorial_subw_via_lp() == pytest.approx(1.5, abs=1e-9)


def test_bound_lp_summary_reports_maximization(four_cycle, s_box):
    # The bound LPs are maximizations; the summary must say so even though
    # objectives are passed per-solve against the shared region.
    assert "max over" in polymatroid_bound(four_cycle, s_box).lp_summary


# ---------------------------------------------------------------------------
# edge-cover and flow caches
# ---------------------------------------------------------------------------

def test_edge_cover_programs_are_memoized(triangle, triangle_stats):
    first = agm_bound(triangle, triangle_stats)
    before = lp_cache_stats()
    second = agm_bound(triangle, triangle_stats)
    delta = _events(before)
    assert second.exponent == pytest.approx(first.exponent)
    assert delta.get("edge_cover_hits", 0) == 1
    assert "edge_cover_builds" not in delta


def test_shannon_flow_certificates_are_memoized(s_box):
    targets = [varset("XYZ"), varset("YZW")]
    first = find_shannon_flow(targets, s_box, variables=varset("WXYZ"))
    before = lp_cache_stats()
    second = find_shannon_flow(targets, s_box, variables=varset("WXYZ"))
    delta = _events(before)
    assert delta.get("flow_hits", 0) == 1
    assert "flow_builds" not in delta
    assert second.verify()
    assert second.bound_exponent() == first.bound_exponent()
    # the memo hands out independent shells: mutating one result must not
    # corrupt later lookups
    second.targets.clear()
    third = find_shannon_flow(targets, s_box, variables=varset("WXYZ"))
    assert third.verify()
    assert third.targets == first.targets


def test_adaptive_panda_reports_flow_reuse(four_cycle):
    database = figure2_database()
    clear_lp_caches()
    before = LP_STATS.snapshot()
    evaluate_adaptive(four_cycle, database)
    cold = _events(before)
    assert cold.get("flow_builds", 0) >= 1
    before = LP_STATS.snapshot()
    evaluate_adaptive(four_cycle, database)
    warm = _events(before)
    assert warm.get("flow_hits", 0) >= 1
    assert "flow_builds" not in warm


def test_estimate_costs_builds_one_region(four_cycle, s_box):
    clear_lp_caches()
    before = LP_STATS.snapshot()
    estimate = estimate_costs(four_cycle, s_box)
    assert estimate.fhtw.width == pytest.approx(2.0)
    assert estimate.subw.width == pytest.approx(1.5)
    delta = _events(before)
    assert delta.get("region_builds", 0) == 1
    assert delta.get("region_hits", 0) >= 4


# ---------------------------------------------------------------------------
# property test: HiGHS numeric path == exact rational simplex
# ---------------------------------------------------------------------------

@st.composite
def _bounded_feasible_lp(draw):
    """A random small bounded-feasible LP: ``max c·x`` over box + ``<=`` rows.

    Every variable gets an explicit cap (so the program is bounded) and all
    row coefficients and right-hand sides are non-negative (so ``x = 0`` is
    feasible) — the optimum is finite and both solvers must agree on it.
    """
    variables = draw(st.integers(min_value=1, max_value=4))
    objective = draw(st.lists(st.integers(min_value=0, max_value=5),
                              min_size=variables, max_size=variables))
    caps = draw(st.lists(st.integers(min_value=0, max_value=7),
                         min_size=variables, max_size=variables))
    row_count = draw(st.integers(min_value=0, max_value=4))
    rows = draw(st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=4),
                     min_size=variables, max_size=variables),
            st.integers(min_value=0, max_value=12)),
        min_size=row_count, max_size=row_count))
    return objective, caps, rows


@settings(max_examples=40, deadline=None)
@given(_bounded_feasible_lp())
def test_highs_agrees_with_exact_simplex(problem):
    objective, caps, rows = problem
    variables = len(objective)

    program = LinearProgram("property")
    names = [f"x{i}" for i in range(variables)]
    for name, cap in zip(names, caps):
        program.add_variable(name, lower=0.0, upper=float(cap))
    for coefficients, rhs in rows:
        program.add_le({names[i]: float(value)
                        for i, value in enumerate(coefficients) if value},
                       float(rhs))
    program.set_objective({names[i]: float(value)
                           for i, value in enumerate(objective) if value},
                          maximize=True)
    numeric = program.solve().objective

    # the exact reference: min -c·x with the caps as explicit rows
    a_ub = [list(map(Fraction, coefficients)) for coefficients, _ in rows]
    b_ub = [Fraction(rhs) for _, rhs in rows]
    for i, cap in enumerate(caps):
        unit = [Fraction(0)] * variables
        unit[i] = Fraction(1)
        a_ub.append(unit)
        b_ub.append(Fraction(cap))
    exact = solve_min_with_inequalities(
        [-Fraction(value) for value in objective], a_ub, b_ub)

    assert numeric == pytest.approx(float(-exact.objective), abs=1e-9)
