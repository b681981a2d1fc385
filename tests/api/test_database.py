"""Unit tests for the public Database facade."""

import pytest

from repro import Database, Result, Strategy
from repro.errors import BindError, CatalogError, ExecutionError
from repro.exec import Metrics


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute_script(
        """
        CREATE TABLE t (id INT PRIMARY KEY, v TEXT, n FLOAT);
        INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', NULL), (3, 'a', 3.0);
        """
    )
    return database


class TestFacade:
    def test_execute_returns_result(self, db):
        result = db.execute("SELECT id, v FROM t ORDER BY id")
        assert isinstance(result, Result)
        assert result.columns == ["id", "v"]
        assert list(result) == [(1, "a"), (2, "b"), (3, "a")]
        assert len(result) == 3

    def test_scalar_helper(self, db):
        assert db.execute("SELECT count(*) FROM t").scalar() == 3
        with pytest.raises(ExecutionError):
            db.execute("SELECT id FROM t").scalar()

    def test_script_returns_per_statement_results(self, db):
        results = db.execute_script(
            "INSERT INTO t VALUES (4, 'd', 0); SELECT count(*) FROM t"
        )
        assert results[0].metrics.rows_output == 1
        assert results[1].scalar() == 4

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(BindError):
            db.execute_script("INSERT INTO t (id, v) VALUES (9)")

    def test_insert_non_constant_rejected(self, db):
        with pytest.raises(BindError):
            db.execute_script("INSERT INTO t VALUES (9, v, 0)")

    def test_view_lifecycle(self, db):
        db.execute("CREATE VIEW va AS SELECT id FROM t WHERE v = 'a'")
        assert db.execute("SELECT count(*) FROM va").scalar() == 2
        # invalid view body fails eagerly
        with pytest.raises(BindError):
            db.execute("CREATE VIEW bad AS SELECT nosuch FROM t")

    def test_view_with_a_parameter_marker_is_a_bind_error(self, db):
        """A view is stored as text and no value is ever bound to it: a
        ``?`` in its body is refused at bind time, naming the marker."""
        with pytest.raises(BindError, match=r"marker \? \(marker 1\)") as info:
            db.execute(
                "CREATE VIEW vp AS SELECT id FROM t WHERE v = 'a' AND id IN "
                "(SELECT id FROM t WHERE id > ?) AND id < ?"
            )
        assert info.value.span.column == 89
        assert not db.catalog.has_view("vp")

    def test_duplicate_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (x INT)")

    def test_explain_requires_query(self, db):
        with pytest.raises(BindError):
            db.explain("CREATE TABLE u (x INT)")

    def test_explain_mentions_boxes(self, db):
        text = db.explain("SELECT id FROM t WHERE n > 1")
        assert "SELECT" in text and "BASE_TABLE" in text

    def test_unknown_cse_mode(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT 1", cse_mode="bogus")

    def test_strategy_on_uncorrelated_query(self, db):
        # Magic on a query without correlation is a no-op but must work.
        rows = db.execute("SELECT id FROM t", strategy=Strategy.MAGIC).rows
        assert sorted(rows) == [(1,), (2,), (3,)]

    def test_metrics_returned(self, db):
        metrics = db.execute("SELECT * FROM t").metrics
        assert metrics.rows_scanned == 3
        assert metrics.rows_output == 3
        assert metrics.as_dict()["total_work"] >= 3

    def test_strategy_labels(self):
        assert Strategy.NESTED_ITERATION.label == "NI"
        assert Strategy.MAGIC_OPT.label == "OptMag"
        assert len({s.label for s in Strategy}) == len(list(Strategy))


class TestResultScalarDiagnostics:
    def test_empty_result_raises_typed_error_naming_the_query(self, db):
        sql = "SELECT v FROM t WHERE id = 999"
        with pytest.raises(ExecutionError) as info:
            db.execute(sql).scalar()
        message = str(info.value)
        assert "empty result" in message
        assert sql in message

    def test_multi_row_result_names_shape_and_query(self, db):
        sql = "SELECT id FROM t"
        with pytest.raises(ExecutionError) as info:
            db.execute(sql).scalar()
        message = str(info.value)
        assert "3x1" in message
        assert sql in message

    def test_multi_column_result_rejected(self, db):
        with pytest.raises(ExecutionError) as info:
            db.execute("SELECT id, v FROM t WHERE id = 1").scalar()
        assert "1x2" in str(info.value)

    def test_result_carries_sql_and_degradations(self, db):
        result = db.execute("SELECT count(*) FROM t")
        assert "count(*)" in result.sql.lower()
        assert result.degradations == []

    def test_bare_result_scalar_still_typed(self):
        # A Result constructed outside the engine has no SQL to cite but
        # must raise the same typed error.
        with pytest.raises(ExecutionError) as info:
            Result(columns=["a"], rows=[], metrics=Metrics()).scalar()
        assert "empty result" in str(info.value)


class TestStatementAttribution:
    """Satellite: a failing DDL/INSERT inside a script names the statement
    that raised it, and every per-statement Result carries its source."""

    def test_script_results_carry_their_source(self, db):
        results = db.execute_script(
            "INSERT INTO t VALUES (7, 'g', 0); SELECT count(*) FROM t"
        )
        assert results[0].sql.startswith("INSERT INTO t VALUES (7")
        assert "count(*)" in results[1].sql

    def test_failing_insert_names_its_statement(self, db):
        with pytest.raises(BindError) as info:
            db.execute_script(
                "INSERT INTO t VALUES (8, 'h', 0);"
                " INSERT INTO t (id, v) VALUES (9)"
            )
        assert "INSERT INTO t (id, v) VALUES (9)" in str(info.value)
        assert "VALUES (8" not in str(info.value)
        assert info.value.sql.startswith("INSERT INTO t (id, v)")

    def test_failing_ddl_names_its_statement(self, db):
        with pytest.raises(CatalogError) as info:
            db.execute_script(
                "CREATE TABLE fresh (x INT); CREATE TABLE t (x INT)"
            )
        assert "[in statement: CREATE TABLE t (x INT)]" in str(info.value)
        # The script parsed as a whole, but statements before the failure
        # executed: all-or-nothing is per statement, not per script.
        assert db.catalog.has_table("fresh")

    def test_long_statements_are_truncated_in_messages(self, db):
        values = ", ".join(f"({i + 100}, 'x', 0)" for i in range(40))
        with pytest.raises(CatalogError) as info:
            db.execute_script(
                f"INSERT INTO t VALUES {values}; CREATE TABLE t (x INT)"
            )
        message = str(info.value)
        assert "CREATE TABLE t (x INT)" in message

    def test_single_statement_errors_are_annotated_too(self, db):
        with pytest.raises(CatalogError) as info:
            db.execute("CREATE TABLE t (x INT)")
        assert "[in statement: CREATE TABLE t (x INT)]" in str(info.value)
        assert info.value.sql == "CREATE TABLE t (x INT)"
