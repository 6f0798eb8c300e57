"""End-to-end reproduction of the paper's figures, tables and numeric claims.

Each test corresponds to one paper experiment; the ``bench_e*``,
``bench_table*`` and ``bench_figure*`` scripts under ``benchmarks/`` re-run
the same computations (one script per experiment, named after it) and print
the regenerated artifacts.
"""

import math
from fractions import Fraction

import pytest

from repro.algorithms import evaluate_bruteforce, evaluate_static_plan
from repro.bounds import agm_bound, polymatroid_bound
from repro.datagen import hard_four_cycle_instance
from repro.ddr import DisjunctiveDatalogRule
from repro.decompositions import enumerate_tree_decompositions
from repro.entropy import normalized_entropy_vector, uniform_output_entropy
from repro.flows import construct_proof_sequence, find_shannon_flow
from repro.panda import evaluate_adaptive, evaluate_ddr
from repro.paperdata import (
    figure2_database,
    figure2_expected_output,
    figure2_marginal_probabilities,
    four_cycle_cardinality_statistics,
    four_cycle_full_statistics,
)
from repro.query import four_cycle_full, four_cycle_projected
from repro.widths import (
    fractional_hypertree_width,
    omega_submodular_width_four_cycle,
    submodular_width,
)
from repro.utils.varsets import varset


def test_figure1_tree_decompositions():
    """Figure 1: Q□ has exactly the two free-connex TDs T1 and T2."""
    decompositions = enumerate_tree_decompositions(four_cycle_projected())
    bag_sets = {frozenset(td.bags) for td in decompositions}
    assert bag_sets == {
        frozenset({varset("XYZ"), varset("XZW")}),
        frozenset({varset("YZW"), varset("WXY")}),
    }


def test_figure2_output_and_probability_annotations():
    """Figure 2: the instance, its three output tuples and the red marginals."""
    database = figure2_database()
    output = evaluate_bruteforce(four_cycle_full(), database)
    ordered = output.project(["X", "Y", "Z", "W"])
    assert ordered.rows == frozenset(figure2_expected_output())

    # Uniform output distribution: h(XYZW) = log2(3) bits, and the marginal
    # probability of each input tuple matches the red annotations.
    entropy = uniform_output_entropy(ordered)
    assert entropy["XYZW"] == pytest.approx(math.log2(3))
    from repro.entropy import marginal_probabilities

    marginals_r = marginal_probabilities(ordered, varset("XY"))
    expected_r = figure2_marginal_probabilities()["R"]
    for (x, y), probability in expected_r.items():
        assert marginals_r.get((x, y), 0.0) == pytest.approx(float(probability))


def test_figure2_normalized_entropy_satisfies_statistics():
    """Section 4.2: h̄ = h / log N satisfies h̄ |= S and h̄(XYZW) = log_N |output|."""
    database = figure2_database()
    output = evaluate_bruteforce(four_cycle_full(), database).project(["X", "Y", "Z", "W"])
    n = 3  # every relation has 3 tuples
    h = normalized_entropy_vector(output, reference_size=n)
    assert h["XYZW"] == pytest.approx(math.log(3) / math.log(n))
    for edge in ("XY", "YZ", "ZW", "WX"):
        assert h[edge] <= 1.0 + 1e-9
    # The FD W → X of U holds on the output distribution: h(X | W) = 0.
    assert h.conditional("X", "W") == pytest.approx(0.0, abs=1e-9)


def test_e1_polymatroid_bound_equation_19(s_box, s_box_full):
    """Eq. (19): |Q□full| <= N^{3/2}·sqrt(C); AGM alone gives N²."""
    poly = polymatroid_bound(four_cycle_full(), s_box_full)
    assert poly.exponent == pytest.approx(1.5 + 0.5 * math.log(16) / math.log(1000), abs=1e-6)
    agm = agm_bound(four_cycle_full(), s_box)
    assert agm.exponent == pytest.approx(2.0, abs=1e-6)


def test_e2_fhtw_equals_two(s_box):
    assert fractional_hypertree_width(four_cycle_projected(), s_box).width == \
        pytest.approx(2.0, abs=1e-6)


def test_e3_subw_equals_three_halves(s_box):
    result = submodular_width(four_cycle_projected(), s_box)
    assert result.width == pytest.approx(1.5, abs=1e-6)
    assert len(result.selector_bounds) == 4


def test_e4_shannon_flow_equation_55(s_box):
    flow = find_shannon_flow([varset("XYZ"), varset("YZW")], s_box,
                             variables=varset("XYZW"))
    assert flow.targets[varset("XYZ")] == Fraction(1, 2)
    assert flow.targets[varset("YZW")] == Fraction(1, 2)
    assert flow.size_bound() == pytest.approx(1000 ** 1.5, rel=1e-9)
    # Table 1: the integral form admits a verified proof sequence.
    sequence = construct_proof_sequence(flow.to_integral())
    assert sequence.verify()


def test_e5_static_vs_adaptive_separation():
    """Section 5.1: the hard instance forces Ω(N²) bags for static plans while
    the adaptive plan stays near-linear (and well below N^{3/2})."""
    query = four_cycle_projected()
    size = 80
    database = hard_four_cycle_instance(size)
    statistics = four_cycle_cardinality_statistics(size)
    truth = evaluate_bruteforce(query, database)

    static_max = min(
        evaluate_static_plan(query, database, td)[1].max_bag_size
        for td in enumerate_tree_decompositions(query))
    adaptive_answer, adaptive_report = evaluate_adaptive(query, database,
                                                         statistics=statistics)
    assert adaptive_answer.rows == truth.rows
    assert static_max >= (size / 2) ** 2
    assert adaptive_report.max_intermediate <= 4 * size ** 1.5
    assert adaptive_report.max_intermediate < static_max


def test_table2_panda_measures_on_the_running_example():
    """Table 2 / Section 8.2: PANDA partitions S by deg_S(Z|Y) against sqrt(N)."""
    query = four_cycle_projected()
    size = 64
    database = hard_four_cycle_instance(size)
    statistics = four_cycle_cardinality_statistics(size)
    ddr = DisjunctiveDatalogRule(query, (varset("XYZ"), varset("YZW")))
    heads, report = evaluate_ddr(ddr, database, statistics)
    assert ddr.is_model(database, heads)
    assert report.size_bound == pytest.approx(size ** 1.5)
    # Light Y-values (degree <= sqrt(N)) land in A11(X,Y,Z); the heavy Y value
    # (degree N/2 > sqrt(N)) is routed to A21(Y,Z,W).
    a11 = heads[varset("XYZ")]
    a21 = heads[varset("YZW")]
    heavy_y = 1
    assert all(row[a11.columns.index("Y")] != heavy_y for row in a11)
    assert any(row[a21.columns.index("Y")] == heavy_y for row in a21)


def test_e8_omega_submodular_width_value():
    value = omega_submodular_width_four_cycle(2.371552)
    assert value == pytest.approx((4 * 2.371552 - 1) / (2 * 2.371552 + 1))
    assert value < 1.5
