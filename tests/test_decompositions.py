"""Unit tests for tree decompositions and their enumeration (Figure 1)."""

import pytest

from repro.decompositions import (
    TooManyVariablesError,
    TreeDecomposition,
    decomposition_from_elimination_order,
    enumerate_tree_decompositions,
    nonredundant_decompositions,
    trivial_decomposition,
)
from repro.query import (
    clique_query,
    four_cycle_boolean,
    four_cycle_projected,
    path_query,
    star_query,
    triangle_query,
)
from repro.utils.varsets import varset


def test_tree_decomposition_canonicalisation():
    td = TreeDecomposition([{"X", "Y", "Z"}, {"X", "Y"}, {"Z", "W", "X"}])
    # The contained bag {X, Y} is dropped.
    assert set(td.bags) == {varset("XYZ"), varset("XZW")}
    assert td.variables == varset("XYZW")
    assert td.width_hint == 2
    with pytest.raises(ValueError):
        TreeDecomposition([])


def test_validity_and_free_connexity():
    query = four_cycle_projected()
    t1 = TreeDecomposition([varset("XYZ"), varset("XZW")])
    assert t1.is_valid_for(query)
    assert t1.is_free_connex_for(query.free_variables)
    missing_atom = TreeDecomposition([varset("XYZ")])
    assert not missing_atom.covers_query(query)
    assert not missing_atom.is_valid_for(query)
    # A decomposition whose bags are cyclic is invalid.
    cyclic = TreeDecomposition([varset("XY"), varset("YZ"), varset("ZX")])
    assert not cyclic.is_acyclic()


def test_join_tree_of_decomposition():
    td = TreeDecomposition([varset("XYZ"), varset("XZW")])
    tree = td.join_tree()
    assert len(tree.nodes) == 2
    cyclic = TreeDecomposition([varset("XY"), varset("YZ"), varset("ZX")])
    with pytest.raises(ValueError):
        cyclic.join_tree()


def test_domination_order():
    small = TreeDecomposition([varset("XYZ"), varset("XZW")])
    big = trivial_decomposition(four_cycle_projected())
    assert small.dominates(big)
    assert not big.dominates(small)
    kept = nonredundant_decompositions([small, big])
    assert kept == [small]


def test_elimination_order_reproduces_paper_decompositions():
    query = four_cycle_projected()
    td_w_first = decomposition_from_elimination_order(query, ["W", "Z"])
    assert set(td_w_first.bags) == {varset("XZW"), varset("XYZ")}   # T1 of Figure 1
    td_z_first = decomposition_from_elimination_order(query, ["Z", "W"])
    assert set(td_z_first.bags) == {varset("YZW"), varset("WXY")}   # T2 of Figure 1


def test_enumerate_four_cycle_matches_figure1():
    """Figure 1: Q□ has exactly the two non-trivial free-connex TDs T1 and T2."""
    query = four_cycle_projected()
    decompositions = enumerate_tree_decompositions(query)
    bag_sets = {frozenset(td.bags) for td in decompositions}
    t1 = frozenset({varset("XYZ"), varset("XZW")})
    t2 = frozenset({varset("YZW"), varset("WXY")})
    assert bag_sets == {t1, t2}


def test_enumerate_boolean_four_cycle():
    decompositions = enumerate_tree_decompositions(four_cycle_boolean())
    bag_sets = {frozenset(td.bags) for td in decompositions}
    assert frozenset({varset("XYZ"), varset("XZW")}) in bag_sets
    assert frozenset({varset("YZW"), varset("WXY")}) in bag_sets


def test_enumerate_triangle_gives_single_bag():
    decompositions = enumerate_tree_decompositions(triangle_query())
    assert len(decompositions) == 1
    assert decompositions[0].bags == (varset("XYZ"),)


def test_enumerate_acyclic_path():
    query = path_query(3)
    decompositions = enumerate_tree_decompositions(query)
    assert decompositions
    for td in decompositions:
        assert td.is_valid_for(query)
        assert td.is_free_connex_for(query.free_variables)
    # The atom-bags decomposition (width 1) must be among the non-redundant ones.
    best = min(td.width_hint for td in decompositions)
    assert best == 1


def test_enumeration_guards_against_large_queries():
    with pytest.raises(TooManyVariablesError):
        enumerate_tree_decompositions(clique_query(12))


def test_all_enumerated_decompositions_are_valid_and_free_connex():
    for query in (four_cycle_projected(), triangle_query(), path_query(4)):
        for td in enumerate_tree_decompositions(query):
            assert td.is_valid_for(query)
            assert td.is_free_connex_for(query.free_variables)


def test_enumeration_checks_each_distinct_decomposition_once(monkeypatch):
    """Star4's 120 elimination orders induce 12 distinct decompositions; the
    validity check runs once per distinct one, not once per order."""
    query = star_query(4)
    checked = []
    is_valid_for = TreeDecomposition.is_valid_for

    def counting(self, q):
        checked.append(self)
        return is_valid_for(self, q)

    monkeypatch.setattr(TreeDecomposition, "is_valid_for", counting)
    enumerate_tree_decompositions(query)
    assert len(checked) == len(set(checked)) == 12
