"""Unit tests for the Relation storage layer and its operators."""

import pytest

from repro.relational import Relation


@pytest.fixture
def r():
    return Relation("R", ("x", "y"), [(1, "a"), (1, "b"), (2, "a"), (3, "c")])


def test_set_semantics_and_basics(r):
    assert len(r) == 4
    assert (1, "a") in r
    assert (9, "z") not in r
    duplicate = Relation("D", ("x",), [(1,), (1,), (2,)])
    assert len(duplicate) == 2


def test_arity_checks():
    with pytest.raises(ValueError):
        Relation("R", ("x", "y"), [(1,)])
    with pytest.raises(ValueError):
        Relation("R", ("x", "x"), [])


def test_project_and_rename(r):
    projected = r.project(["x"])
    assert projected.rows == frozenset({(1,), (2,), (3,)})
    renamed = r.rename({"x": "X", "y": "Y"})
    assert renamed.columns == ("X", "Y")
    assert renamed.rows == r.rows


def test_select(r):
    only_one = r.select(lambda row: row["x"] == 1)
    assert len(only_one) == 2
    eq = r.select_equal("y", "a")
    assert eq.rows == frozenset({(1, "a"), (2, "a")})


def test_degrees(r):
    assert r.degree(["y"], ["x"]) == 2          # x=1 has two y values
    assert r.degree(["x"], ["y"]) == 2          # y="a" has two x values
    assert r.degree(["x", "y"], []) == 4        # cardinality
    vector = r.degree_vector(["y"], ["x"])
    assert vector == {(1,): 2, (2,): 1, (3,): 1}
    with pytest.raises(KeyError):
        r.degree(["z"], ["x"])


def test_lp_norms(r):
    # degree vector over x is (2, 1, 1): ℓ1 = 4, ℓ2 = sqrt(6), ℓ∞ = 2.
    assert r.lp_norm_of_degrees(["y"], ["x"], 1) == pytest.approx(4.0)
    assert r.lp_norm_of_degrees(["y"], ["x"], 2) == pytest.approx(6 ** 0.5)
    assert r.lp_norm_of_degrees(["y"], ["x"], float("inf")) == pytest.approx(2.0)
    empty = Relation("E", ("x", "y"), [])
    assert empty.lp_norm_of_degrees(["y"], ["x"], 2) == 0.0


def test_partition_by_degree(r):
    light, heavy = r.partition_by_degree(["x"], ["y"], threshold=1)
    assert heavy.rows == frozenset({(1, "a"), (1, "b")})
    assert light.rows == frozenset({(2, "a"), (3, "c")})
    assert len(light) + len(heavy) == len(r)


def test_hash_join():
    s = Relation("S", ("y", "z"), [("a", 10), ("c", 30)])
    r = Relation("R", ("x", "y"), [(1, "a"), (2, "b"), (3, "c")])
    joined = r.hash_join(s)
    assert set(joined.columns) == {"x", "y", "z"}
    projected = joined.project(["x", "y", "z"])
    assert projected.rows == frozenset({(1, "a", 10), (3, "c", 30)})


def test_hash_join_schema_is_deterministic():
    """The output schema must not depend on which input is smaller."""
    small = Relation("S", ("b", "c"), [(1, 10)])
    large = Relation("L", ("a", "b"), [(7, 1), (8, 1), (9, 2), (6, 3)])
    expected = ("a", "b", "c")
    assert large.hash_join(small).columns == expected
    # Growing the right side past the left must not flip the column order.
    grown = Relation("S", ("b", "c"), [(1, 10), (1, 11), (2, 12), (3, 13),
                                       (1, 14), (2, 15)])
    assert large.hash_join(grown).columns == expected
    assert small.hash_join(large).columns == ("b", "c", "a")
    # Row content agrees with the schema in both regimes.
    assert large.hash_join(small).rows == frozenset({(7, 1, 10), (8, 1, 10)})
    assert large.hash_join(grown).rows == frozenset({
        (7, 1, 10), (8, 1, 10), (7, 1, 11), (8, 1, 11), (7, 1, 14),
        (8, 1, 14), (9, 2, 12), (9, 2, 15), (6, 3, 13)})


def test_hash_join_cartesian_when_no_shared_columns():
    a = Relation("A", ("x",), [(1,), (2,)])
    b = Relation("B", ("y",), [(10,)])
    joined = a.hash_join(b)
    assert len(joined) == 2


def test_semijoin(r):
    other = Relation("S", ("y",), [("a",)])
    reduced = r.semijoin(other)
    assert reduced.rows == frozenset({(1, "a"), (2, "a")})
    disjoint_nonempty = r.semijoin(Relation("T", ("w",), [(5,)]))
    assert disjoint_nonempty.rows == r.rows
    disjoint_empty = r.semijoin(Relation("T", ("w",), []))
    assert len(disjoint_empty) == 0


def test_union(r):
    extra = Relation("R2", ("y", "x"), [("z", 9)])
    merged = r.union(extra)
    assert (9, "z") in merged
    assert len(merged) == len(r) + 1
    with pytest.raises(ValueError):
        r.union(Relation("Q", ("a", "b"), []))


def test_to_dicts_is_deterministic(r):
    dicts = r.to_dicts()
    assert len(dicts) == 4
    assert all(set(d) == {"x", "y"} for d in dicts)
    assert dicts == r.to_dicts()
