"""Unit tests for the multi-way join and the work counter."""

from repro.relational import Relation, WorkCounter, join_all


def test_join_all_and_counter():
    r = Relation("R", ("x", "y"), [(1, "a"), (2, "b")])
    s = Relation("S", ("y", "z"), [("a", 10), ("b", 20), ("c", 30)])
    t = Relation("T", ("z",), [(10,)])
    counter = WorkCounter()
    joined = join_all([r, s, t], counter=counter)
    assert joined.project(["x", "y", "z"]).rows == frozenset({(1, "a", 10)})
    assert counter.materializations == 2
    assert counter.max_intermediate >= 1


def test_join_all_empty_list_is_unit():
    unit = join_all([])
    assert unit.columns == ()
    assert len(unit) == 1


def test_work_counter_merge():
    first, second = WorkCounter(), WorkCounter()
    first.record(Relation("A", ("x",), [(1,), (2,)]), note="a")
    second.record(Relation("B", ("x",), [(1,), (2,), (3,)]), note="b")
    first.merge(second)
    assert first.intermediate_tuples == 5
    assert first.max_intermediate == 3
    assert len(first.notes) == 2

