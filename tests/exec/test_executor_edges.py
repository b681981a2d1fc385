"""Executor edge paths: set operations, outer joins, grouping corners."""

import pytest

from repro import Database, Strategy
from repro.errors import SchemaError


@pytest.fixture
def db(empdept_catalog) -> Database:
    return Database(empdept_catalog)


class TestSetOpEdges:
    def test_union_all_with_empty_arm(self, db):
        result = db.execute(
            "SELECT building FROM dept WHERE budget < 0 "
            "UNION ALL SELECT building FROM emp WHERE building = 'B3'"
        )
        assert result.rows == [("B3",)]

    def test_union_dedupes_nulls(self, db):
        db.execute_script("INSERT INTO dept VALUES ('dx', 1, 1, NULL)")
        db.execute_script("INSERT INTO emp VALUES (99, 'x', NULL, 1)")
        result = db.execute(
            "SELECT building FROM dept UNION SELECT building FROM emp"
        )
        nulls = [r for r in result.rows if r[0] is None]
        assert len(nulls) == 1

    def test_intersect_with_duplicates_dedupes(self, db):
        result = db.execute(
            "SELECT building FROM dept INTERSECT SELECT building FROM dept"
        )
        assert sorted(result.rows) == [("B1",), ("B2",), ("B9",)]

    def test_chained_setops(self, db):
        result = db.execute(
            "SELECT building FROM dept UNION SELECT building FROM emp "
            "EXCEPT SELECT building FROM emp WHERE building = 'B3'"
        )
        assert ("B3",) not in result.rows


class TestSetOpColumnClasses:
    """A set operation is where two declared types meet in one column. By
    hash 1 and TRUE are one value, by ``=`` they cannot be compared: the
    set operation refuses the column before anything groups on it."""

    @pytest.fixture
    def mixed(self) -> Database:
        db = Database()
        db.execute_script(
            "create table a(i int, x int); "
            "create table b(f boolean, y int, z float, s varchar(5)); "
            "insert into a values (1,10),(0,20),(null,30); "
            "insert into b values (true,1,1.0,'1'),(false,2,0.5,'0'),"
            "(null,3,null,null);"
        )
        return db

    def test_grouping_a_union_of_int_and_boolean_is_a_schema_error(self, mixed):
        """Was ``[(1, 2), (0, 2), (None, 2)]``: ``1 = TRUE`` raises, and
        GROUP BY had folded the two."""
        with pytest.raises(
            SchemaError, match="union column 'i' cannot compare bool with int"
        ):
            mixed.execute(
                "select i, count(*) from (select i from a union all "
                "select f from b) t(i) group by i"
            )

    @pytest.mark.parametrize(
        "op", ["union", "union all", "intersect", "except"]
    )
    @pytest.mark.parametrize("column, classes", [
        ("f", "bool with int"), ("s", "int with str"),
    ])
    def test_every_set_operation_checks_every_column(
        self, mixed, op, column, classes
    ):
        name = op.split()[0]
        with pytest.raises(
            SchemaError, match=f"{name} column 'i' cannot compare {classes}"
        ):
            # The second column: the first one is int on both sides.
            mixed.execute(f"select x, i from a {op} select y, {column} from b")

    def test_int_with_float_and_null_with_anything_pass(self, mixed):
        assert mixed.execute(
            "select i from a union select z from b"
        ).rows == [(1,), (0,), (None,), (0.5,)]
        assert mixed.execute(
            "select i, x from a union all select null, y from b where y = 1"
        ).rows == [(1, 10), (0, 20), (None, 30), (None, 1)]
        # A branch that delivers no row delivers no class.
        assert mixed.execute(
            "select i from a except select f from b where y > 5"
        ).rows == [(1,), (0,), (None,)]


class TestOuterJoinEdges:
    def test_loj_with_true_condition(self, db):
        # Cross-style LOJ (condition references both sides, non-equi).
        result = db.execute(
            "SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e "
            "ON d.budget < e.salary * 10"
        )
        assert len(result.rows) >= len(db.catalog.table("dept"))

    def test_loj_null_padding_width(self, db):
        result = db.execute(
            "SELECT e.empno, e.name, e.salary FROM dept d "
            "LEFT OUTER JOIN emp e ON d.building = e.building "
            "WHERE d.name = 'd_low'"
        )
        assert result.rows == [(None, None, None)]

    def test_nested_joins_as_loj_side(self, db):
        result = db.execute(
            "SELECT d.name FROM (dept d JOIN emp e ON d.building = e.building) "
            "LEFT OUTER JOIN emp e2 ON e.salary < e2.salary "
            "WHERE d.name = 'research'"
        )
        assert len(result.rows) > 0

    def test_loj_then_groupby(self, db):
        # Dayal-style shape written by hand.
        result = db.execute(
            """
            SELECT d.name, count(e.empno) FROM dept d
            LEFT OUTER JOIN emp e ON d.building = e.building
            GROUP BY d.name ORDER BY d.name
            """
        )
        counts = dict(result.rows)
        assert counts["d_low"] == 0  # count of NULLs is 0
        assert counts["sales"] == 3


class TestGroupingEdges:
    def test_group_by_expression(self, db):
        result = db.execute(
            "SELECT salary / 100, count(*) FROM emp GROUP BY salary / 100"
        )
        assert sum(c for _, c in result.rows) == 6

    def test_having_on_group_expr(self, db):
        result = db.execute(
            "SELECT building FROM emp GROUP BY building "
            "HAVING building <> 'B3'"
        )
        assert sorted(result.rows) == [("B1",), ("B2",)]

    def test_aggregate_of_constant(self, db):
        assert db.execute("SELECT sum(1) FROM emp").scalar() == 6

    def test_avg_returns_float(self, db):
        value = db.execute("SELECT avg(num_emps) FROM dept").scalar()
        assert isinstance(value, float)

    def test_group_key_from_outer_join_null(self, db):
        result = db.execute(
            """
            SELECT e.building, count(*) FROM dept d
            LEFT OUTER JOIN emp e ON d.building = e.building
            GROUP BY e.building
            """
        )
        null_groups = [r for r in result.rows if r[0] is None]
        assert len(null_groups) == 1  # d_low's unmatched row groups as NULL


class TestOrderingEdges:
    def test_limit_zero(self, db):
        assert db.execute("SELECT name FROM dept LIMIT 0").rows == []

    def test_limit_beyond_rows(self, db):
        assert len(db.execute("SELECT name FROM dept LIMIT 99").rows) == 7

    def test_order_by_hidden_column_not_returned(self, db):
        result = db.execute("SELECT name FROM dept ORDER BY budget")
        assert all(len(row) == 1 for row in result.rows)
        assert result.columns == ["name"]

    def test_order_by_expression_over_from(self, db):
        result = db.execute(
            "SELECT name FROM emp ORDER BY salary * -1 LIMIT 1"
        )
        assert result.rows == [("bob",)]  # highest salary first

    def test_order_distinct_hidden_rejected(self, db):
        from repro.errors import BindError

        with pytest.raises(BindError):
            db.execute("SELECT DISTINCT name FROM dept ORDER BY budget")

    def test_order_by_on_union(self, db):
        result = db.execute(
            "SELECT building FROM dept UNION SELECT building FROM emp "
            "ORDER BY building DESC LIMIT 2"
        )
        assert result.rows == [("B9",), ("B3",)]


class TestStrategiesOnEdgeShapes:
    def test_decorrelate_with_case_and_order(self, db):
        sql = """
            SELECT d.name,
                   CASE WHEN d.num_emps > (SELECT count(*) FROM emp e
                                           WHERE e.building = d.building)
                        THEN 'over' ELSE 'ok' END AS status
            FROM dept d ORDER BY d.name
        """
        ni = db.execute(sql).rows
        magic = db.execute(sql, strategy=Strategy.MAGIC).rows
        assert ni == magic
        assert ("d_low", "over") in ni


class TestBagSetOps:
    def test_intersect_all_min_multiplicity(self, db):
        db.execute_script(
            "CREATE TABLE ba (v INT); CREATE TABLE bb (v INT);"
            "INSERT INTO ba VALUES (1), (1), (1), (2);"
            "INSERT INTO bb VALUES (1), (1), (3)"
        )
        rows = db.execute(
            "SELECT v FROM ba INTERSECT ALL SELECT v FROM bb"
        ).rows
        assert sorted(rows) == [(1,), (1,)]

    def test_except_all_subtracts_multiplicity(self, db):
        db.execute_script(
            "CREATE TABLE ea (v INT); CREATE TABLE eb (v INT);"
            "INSERT INTO ea VALUES (1), (1), (1), (2);"
            "INSERT INTO eb VALUES (1), (3)"
        )
        rows = db.execute(
            "SELECT v FROM ea EXCEPT ALL SELECT v FROM eb"
        ).rows
        assert sorted(rows) == [(1,), (1,), (2,)]

    def test_bag_setop_in_correlated_subquery(self, db):
        from collections import Counter
        from repro import Strategy

        sql = """
            SELECT d.name, dt.c FROM dept d, DT(c) AS
              (SELECT count(v) FROM DV(v) AS
                ((SELECT e.salary FROM emp e WHERE e.building = d.building)
                 EXCEPT ALL
                 (SELECT e2.salary FROM emp e2
                  WHERE e2.building = d.building AND e2.salary > 100)))
        """
        ni = Counter(db.execute(sql).rows)
        assert Counter(db.execute(sql, strategy=Strategy.MAGIC).rows) == ni
