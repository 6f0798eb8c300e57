"""Tests for Shannon-flow inequalities and their exact certificates (E4, Lemma 6.1)."""

from fractions import Fraction

import pytest

from repro.bounds import ddr_polymatroid_bound, polymatroid_bound
from repro.ddr import bag_selectors
from repro.decompositions.enumerate import enumerate_tree_decompositions
from repro.flows import ShannonFlowError, find_shannon_flow, shannon_flow_for_cq
from repro.lp.model import clear_lp_caches, lp_cache_stats
from repro.paperdata import four_cycle_cardinality_statistics, four_cycle_full_statistics
from repro.query import four_cycle_full, four_cycle_projected, triangle_query
from repro.stats import ConstraintSet, statistics_for_query
from repro.utils.varsets import varset


def test_four_cycle_ddr_flow_matches_equation_55(s_box):
    """The optimal dual of the DDR (38): λ = (1/2, 1/2), w = (1/2, 1/2, 1/2, 0)."""
    flow = find_shannon_flow([varset("XYZ"), varset("YZW")], s_box,
                             variables=varset("XYZW"))
    assert flow.verify()
    assert flow.targets == {varset("XYZ"): Fraction(1, 2), varset("YZW"): Fraction(1, 2)}
    weights = {(c.target, c.given): w for c, w in flow.sources.items()}
    assert weights[(varset("XY"), frozenset())] == Fraction(1, 2)
    assert weights[(varset("YZ"), frozenset())] == Fraction(1, 2)
    assert weights[(varset("ZW"), frozenset())] == Fraction(1, 2)
    # w4 (the weight of h(WX)) is zero, so the constraint does not appear.
    assert (varset("WX"), frozenset()) not in weights
    assert float(flow.bound_exponent()) == pytest.approx(1.5)
    assert flow.size_bound() == pytest.approx(1000 ** 1.5, rel=1e-9)
    assert "h{X,Y,Z}" in flow.describe() or "h{W,Y,Z}" in flow.describe()


def test_flow_bound_matches_primal_ddr_bound_strong_duality(s_box):
    """Lemma 6.1: the dual (flow) optimum equals the primal DDR bound."""
    selectors = [
        [varset("XYZ"), varset("YZW")],
        [varset("XYZ"), varset("WXY")],
        [varset("XZW"), varset("YZW")],
        [varset("XZW"), varset("WXY")],
    ]
    for selector in selectors:
        primal = ddr_polymatroid_bound(selector, s_box, variables=varset("XYZW"))
        flow = find_shannon_flow(selector, s_box, variables=varset("XYZW"))
        assert float(flow.bound_exponent()) == pytest.approx(primal.exponent, abs=1e-6)


def test_cq_flow_reduces_to_shearer_for_cardinality_statistics():
    """For a single-target flow with cardinality constraints, the bound is the AGM bound."""
    stats = statistics_for_query(triangle_query(), 1000)
    flow = shannon_flow_for_cq(varset("XYZ"), stats)
    assert flow.verify()
    assert float(flow.bound_exponent()) == pytest.approx(1.5)
    # Shearer's lemma for the triangle: each edge gets weight 1/2.
    assert all(weight == Fraction(1, 2) for weight in flow.sources.values())


def test_flow_with_degree_constraints_matches_polymatroid_bound(s_box_full):
    flow = shannon_flow_for_cq(varset("XYZW"), s_box_full)
    primal = polymatroid_bound(four_cycle_full(), s_box_full)
    assert float(flow.bound_exponent()) == pytest.approx(primal.exponent, abs=1e-6)
    assert flow.verify()
    # The FD and the degree constraint on U participate in the certificate.
    used_conditionals = [c for c in flow.sources if c.given]
    assert used_conditionals


def test_flow_identity_defect_detects_corruption(s_box):
    flow = find_shannon_flow([varset("XYZ"), varset("YZW")], s_box,
                             variables=varset("XYZW"))
    assert not flow.identity_defect()
    flow.targets[varset("XYZ")] += Fraction(1, 4)
    assert flow.identity_defect()
    assert not flow.verify()


def test_integral_form_of_paper_inequality(s_box):
    """Multiplying Eq. (55) by 2 gives Eq. (62): h(XYZ)+h(YZW) <= h(XY)+h(YZ)+h(ZW)."""
    flow = find_shannon_flow([varset("XYZ"), varset("YZW")], s_box,
                             variables=varset("XYZW"))
    integral = flow.to_integral()
    assert integral.denominator == 2
    assert integral.verify()
    assert integral.targets[varset("XYZ")] == 1
    assert integral.targets[varset("YZW")] == 1
    assert sum(integral.sources.values()) == 3
    assert integral.bound_exponent() == pytest.approx(1.5)
    assert integral.size_bound() == pytest.approx(1000 ** 1.5, rel=1e-9)
    assert "h{" in integral.describe()


def test_flow_requires_degree_constraints_only():
    stats = ConstraintSet(base=100)
    stats.add_cardinality("XY", 100, guard="R")
    stats.add_lp_norm("Y", "X", 2, 30, guard="R")
    with pytest.raises(ShannonFlowError):
        find_shannon_flow([varset("XY")], stats)
    empty = ConstraintSet(base=100)
    with pytest.raises(ShannonFlowError):
        find_shannon_flow([varset("XY")], empty)


def test_flow_errors_on_missing_targets(s_box):
    with pytest.raises(ValueError):
        find_shannon_flow([], s_box)


def test_flow_for_unbounded_target_raises_or_is_large():
    """A target not covered by any constraint has an unbounded DDR bound."""
    stats = ConstraintSet(base=100)
    stats.add_cardinality("XY", 100, guard="R")
    with pytest.raises(Exception):
        find_shannon_flow([varset("XZ")], stats, variables=varset("XYZ"))


def _submodularity(first: str, second: str, whole: str, context: str = "") -> str:
    context_term = f" - h{{{context}}}" if context else ""
    return (f"h{{{first}}} + h{{{second}}} - h{{{whole}}}{context_term} >= 0  "
            "[submodularity]")


HALF = Fraction(1, 2)

#: The certificates (λ, w, σ) of Q_box's four bag selectors on the degree
#: statistics below, keyed by the selector's sorted bags.  They (and the pivot
#: count below) were recorded with the ``Fraction`` tableau; the exact simplex
#: must reproduce them.
PINNED_Q_BOX_FLOWS = {
    ("WXY", "WXZ"): (
        {"WXY": HALF, "WXZ": HALF},
        {"|{X,Y}| <= 1000 in R": HALF, "|{W,Z}| <= 1000 in T": HALF,
         "|{W,X}| <= 700 in U": HALF},
        {_submodularity("W,Z", "X,Z", "W,X,Z", "Z"): HALF,
         _submodularity("W,X", "X,Y", "W,X,Y", "X"): HALF,
         _submodularity("X", "Z", "X,Z"): HALF}),
    ("WXY", "XYZ"): (
        {"WXY": HALF, "XYZ": HALF},
        {"|{X,Y}| <= 1000 in R": HALF, "|{Y,Z}| <= 900 in S": HALF,
         "|{W,X}| <= 700 in U": HALF},
        {_submodularity("W,X", "X,Y", "W,X,Y", "X"): HALF,
         _submodularity("X,Z", "Y,Z", "X,Y,Z", "Z"): HALF,
         _submodularity("X", "Z", "X,Z"): HALF}),
    ("WXZ", "WYZ"): (
        {"WXZ": HALF, "WYZ": HALF},
        {"|{Y,Z}| <= 900 in S": HALF, "|{W,Z}| <= 1000 in T": HALF,
         "|{W,X}| <= 700 in U": HALF},
        {_submodularity("W,Z", "Y,Z", "W,Y,Z", "Z"): HALF,
         _submodularity("W,X", "X,Z", "W,X,Z", "X"): HALF,
         _submodularity("X", "Z", "X,Z"): HALF}),
    ("WYZ", "XYZ"): (
        {"WYZ": HALF, "XYZ": HALF},
        {"|{X,Y}| <= 1000 in R": HALF, "|{Y,Z}| <= 900 in S": HALF,
         "|{W,Z}| <= 1000 in T": HALF},
        {_submodularity("W,Z", "Y,Z", "W,Y,Z", "Z"): HALF,
         _submodularity("X,Y", "Y,Z", "X,Y,Z", "Y"): HALF,
         _submodularity("Y", "Z", "Y,Z"): HALF}),
}


def test_q_box_flows_match_pinned_certificates():
    """Every bag selector of Q_box yields exactly the pinned certificate, so a
    change to the exact simplex's arithmetic cannot move a pivot unnoticed."""
    statistics = ConstraintSet(base=1000)
    for relation, (first, second), size, forward, backward in (
            ("R", "XY", 1000, 60, 200), ("S", "YZ", 900, 100, 40),
            ("T", "ZW", 1000, 300, 50), ("U", "WX", 700, 80, 120)):
        statistics.add_cardinality(first + second, size, guard=relation)
        statistics.add_degree(second, first, forward, guard=relation)
        statistics.add_degree(first, second, backward, guard=relation)
    query = four_cycle_projected()
    clear_lp_caches()
    pivots_before = lp_cache_stats().get("exact_pivots", 0)
    found = {}
    for selector in bag_selectors(enumerate_tree_decompositions(query)):
        flow = find_shannon_flow(list(selector), statistics, variables=query.variables)
        assert flow.verify()
        key = tuple(sorted("".join(sorted(bag)) for bag in selector))
        found[key] = ({"".join(sorted(target)): weight
                       for target, weight in flow.targets.items()},
                      {str(constraint): weight for constraint, weight in flow.sources.items()},
                      {str(inequality): weight for inequality, weight in flow.witness.items()})
    assert found == PINNED_Q_BOX_FLOWS
    # The four exact witnesses take the rational tableau's 83 pivots.
    assert lp_cache_stats()["exact_pivots"] - pivots_before == 83
