"""INSERT is all rows or none, and its column list binds like any name: a
statement that fails leaves the table as it was, with a typed error."""

import pytest

from repro import Database
from repro.errors import BindError, SchemaError

COLUMNS = "INSERT INTO dept (name, budget, num_emps, building) VALUES "


@pytest.fixture
def db(empdept_catalog) -> Database:
    return Database(empdept_catalog)


def _rows(db):
    return db.execute("SELECT * FROM dept ORDER BY name").rows


@pytest.mark.parametrize("sql, error", [
    # The second row is short: the first must not stay.
    (COLUMNS + "('a1', 1.0, 1, 'B1'), ('b1', 2.0)", BindError),
    # A later row's value is not a FLOAT.
    (COLUMNS + "('a1', 1.0, 1, 'B1'), ('b1', 'oops', 1, 'B1')", SchemaError),
    # A later row repeats the primary key of the table ...
    (COLUMNS + "('a1', 1.0, 1, 'B1'), ('sales', 2.0, 1, 'B1')", SchemaError),
    # ... or of a row ahead of it in the statement.
    (COLUMNS + "('a1', 1.0, 1, 'B1'), ('a1', 2.0, 1, 'B1')", SchemaError),
    # A later row has a NULL primary key.
    (COLUMNS + "('a1', 1.0, 1, 'B1'), (NULL, 2.0, 1, 'B1')", SchemaError),
    # The rows of a query, the second of which repeats the first's key.
    (
        "INSERT INTO dept (name, building) SELECT e.building, 'B5' FROM emp e",
        SchemaError,
    ),
], ids=["arity", "type", "key-in-table", "key-in-statement", "null-key", "select"])
def test_a_failing_row_inserts_none_of_the_statement(db, sql, error):
    before = _rows(db)
    with pytest.raises(error):
        db.execute(sql)
    assert _rows(db) == before
    # The indexes agree with the rows: the key of the rejected statement's
    # first row is free, and the table answers lookups on it as before.
    db.execute(COLUMNS + "('a1', 1.0, 1, 'B1')")
    assert db.execute("SELECT budget FROM dept WHERE name = 'a1'").rows == [(1.0,)]


def test_an_unknown_column_is_sem002(db):
    with pytest.raises(BindError) as info:
        db.execute("INSERT INTO dept (name, nosuch) VALUES ('a1', 1)")
    assert info.value.code == "SEM002"
    assert "nosuch" in info.value.message
    with pytest.raises(BindError) as info:
        db.execute("INSERT INTO dept (name, budgett) VALUES ('a1', 1.0)")
    assert info.value.hint == "did you mean 'budget'?"


def test_a_column_named_twice_is_an_error(db):
    before = _rows(db)
    with pytest.raises(BindError, match="named twice"):
        db.execute("INSERT INTO dept (name, name) VALUES ('a1', 'a2')")
    assert _rows(db) == before


def test_the_analyzer_reports_the_column_list(db):
    report = db.analyze("INSERT INTO dept (name, nosuch) VALUES ('a1', 1)")
    assert "SEM002" in {d.code for d in report.diagnostics}


def test_a_listed_subset_fills_the_rest_with_null(db):
    db.execute("INSERT INTO dept (building, name) VALUES ('B5', 'a1'), ('B6', 'b1')")
    assert db.execute(
        "SELECT name, budget, num_emps, building FROM dept WHERE name < 'b2' "
        "AND name > 'a0' ORDER BY name"
    ).rows == [("a1", None, None, "B5"), ("b1", None, None, "B6")]
