"""Unit tests for Database binding and bookkeeping."""

import pytest

from repro.query import Atom, four_cycle_projected
from repro.relational import Database, Relation, database_from_edges


def test_database_registration_and_lookup():
    database = Database([Relation("R", ("a", "b"), [(1, 2)])])
    assert "R" in database
    assert len(database["R"]) == 1
    with pytest.raises(KeyError):
        database["missing"]
    assert database.relation_names() == ["R"]


def test_size_and_summary(figure2_db):
    assert figure2_db.size == 12
    assert figure2_db.max_relation_size() == 3
    assert figure2_db.summary() == {"R": 3, "S": 3, "T": 3, "U": 3}


def test_bind_atom_renames_columns(figure2_db):
    atom = Atom("R", ("X", "Y"))
    bound = figure2_db.bind_atom(atom)
    assert bound.columns == ("X", "Y")
    assert (1, "p") in bound


def test_bind_atom_checks_arity(figure2_db):
    with pytest.raises(ValueError):
        figure2_db.bind_atom(Atom("R", ("X", "Y", "Z")))


def test_bind_query_and_restrict(figure2_db):
    query = four_cycle_projected()
    bound = figure2_db.bind_query(query)
    assert len(bound) == 4
    restricted = figure2_db.restrict_to_query(query)
    assert set(restricted.relation_names()) == {"R", "S", "T", "U"}


def test_bound_atoms_are_independent_snapshots(figure2_db):
    """A binding is cached until Database.add replaces its relation."""
    atom = Atom("R", ("X", "Y"))
    first = figure2_db.bind_atom(atom)
    assert figure2_db.bind_atom(atom) is first
    stored = figure2_db["R"]
    figure2_db.add(Relation("R", stored.columns, list(stored) + [(43, "stored")]))
    rebound = figure2_db.bind_atom(atom)
    assert rebound is not first
    assert (43, "stored") in rebound
    assert (43, "stored") not in first


def test_relation_rejects_rows_alongside_backend_instance():
    from repro.relational import SetBackend

    with pytest.raises(ValueError):
        Relation("R", ("a",), [(1,)], backend=SetBackend([(2,)]))


def test_copy_is_independent(figure2_db):
    copy = figure2_db.copy()
    copy.add(Relation("Extra", ("a",), [(1,)]))
    copy.add(Relation("R", ("x", "y"), [(99, "zz")]))
    assert "Extra" not in figure2_db
    assert (99, "zz") not in figure2_db["R"]
    assert figure2_db.bind_atom(Atom("R", ("X", "Y"))) is not \
        copy.bind_atom(Atom("R", ("X", "Y")))


def test_database_from_edges_defaults():
    database = database_from_edges({"E": [(1, 2), (2, 3)], "V": [(1,), (2,)]})
    assert database["E"].columns == ("c1", "c2")
    assert database["V"].columns == ("c1",)
    custom = database_from_edges({"E": [(1, 2)]}, columns={"E": ("src", "dst")})
    assert custom["E"].columns == ("src", "dst")
