"""Unit tests for the SQL parser, including every paper query."""

import pytest

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.parser import parse_expression, parse_statement, parse_statements


class TestExpressions:
    def test_precedence_arith(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, ast.BinaryOp) and e.op == "+"
        assert isinstance(e.right, ast.BinaryOp) and e.right.op == "*"

    def test_precedence_bool(self):
        e = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(e, ast.Or)
        assert isinstance(e.items[1], ast.And)

    def test_not_binds_tighter_than_and(self):
        e = parse_expression("NOT a = 1 AND b = 2")
        assert isinstance(e, ast.And)
        assert isinstance(e.items[0], ast.Not)

    def test_unary_minus_folds_literals(self):
        e = parse_expression("-5")
        assert e == ast.Literal(-5)

    def test_comparison_ops(self):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            e = parse_expression(f"a {op} b")
            assert isinstance(e, ast.Comparison) and e.op == op
        assert parse_expression("a != b").op == "<>"

    def test_qualified_names(self):
        e = parse_expression("d.building")
        assert e == ast.Name(("d", "building"))

    def test_between_like_in(self):
        e = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(e, ast.Between) and not e.negated
        e = parse_expression("x NOT BETWEEN 1 AND 10")
        assert e.negated
        e = parse_expression("s LIKE '%BRASS%'")
        assert isinstance(e, ast.Like)
        e = parse_expression("r IN ('AMERICA', 'EUROPE')")
        assert isinstance(e, ast.InList) and len(e.items) == 2
        e = parse_expression("r NOT IN (1, 2)")
        assert e.negated

    def test_is_null(self):
        assert parse_expression("x IS NULL") == ast.IsNull(ast.Name(("x",)))
        assert parse_expression("x IS NOT NULL").negated

    def test_aggregates(self):
        assert parse_expression("count(*)") == ast.AggregateCall("count", None)
        e = parse_expression("COUNT(DISTINCT x)")
        assert e.distinct and e.func == "count"
        e = parse_expression("sum(a * b)")
        assert e.func == "sum" and isinstance(e.argument, ast.BinaryOp)

    def test_function_call(self):
        e = parse_expression("coalesce(x, 0)")
        assert isinstance(e, ast.FunctionCall)
        assert e.name == "coalesce" and len(e.args) == 2

    def test_literals(self):
        assert parse_expression("NULL") == ast.Literal(None)
        assert parse_expression("TRUE") == ast.Literal(True)
        assert parse_expression("'x''y'") == ast.Literal("x'y")

    def test_scalar_subquery(self):
        e = parse_expression("(SELECT count(*) FROM emp)")
        assert isinstance(e, ast.ScalarSubquery)
        assert isinstance(e.query, ast.Select)

    def test_exists(self):
        e = parse_expression("EXISTS (SELECT 1 FROM emp)")
        assert isinstance(e, ast.Exists) and not e.negated
        e = parse_expression("NOT EXISTS (SELECT 1 FROM emp)")
        assert isinstance(e, ast.Not)
        assert isinstance(e.operand, ast.Exists)

    def test_in_subquery(self):
        e = parse_expression("x IN (SELECT y FROM t)")
        assert isinstance(e, ast.InSubquery)
        e = parse_expression("x NOT IN (SELECT y FROM t)")
        assert e.negated

    def test_quantified_comparison(self):
        e = parse_expression("x > ALL (SELECT y FROM t)")
        assert isinstance(e, ast.QuantifiedComparison)
        assert e.quantifier == "all" and e.op == ">"
        e = parse_expression("x = SOME (SELECT y FROM t)")
        assert e.quantifier == "any"

    def test_searched_case(self):
        e = parse_expression("CASE WHEN a = 1 THEN 'x' WHEN a = 2 THEN 'y' ELSE 'z' END")
        assert isinstance(e, ast.Case)
        assert len(e.whens) == 2
        assert e.otherwise == ast.Literal("z")

    def test_case_without_else(self):
        e = parse_expression("CASE WHEN a = 1 THEN 'x' END")
        assert e.otherwise is None

    def test_simple_case_unsupported(self):
        with pytest.raises(ParseError):
            parse_expression("CASE a WHEN 1 THEN 'x' END")

    def test_concat(self):
        e = parse_expression("a || b")
        assert isinstance(e, ast.BinaryOp) and e.op == "||"


class TestSelect:
    def test_minimal(self):
        s = parse_statement("SELECT 1")
        assert isinstance(s, ast.Select)
        assert s.items[0].expr == ast.Literal(1)
        assert s.from_items == ()

    def test_star_and_qualified_star(self):
        s = parse_statement("SELECT *, s.* FROM suppliers s")
        assert s.items[0].expr == ast.Star()
        assert s.items[1].expr == ast.Star(qualifier="s")

    def test_aliases(self):
        s = parse_statement("SELECT a AS x, b y FROM t")
        assert s.items[0].alias == "x"
        assert s.items[1].alias == "y"

    def test_where_group_having(self):
        s = parse_statement(
            "SELECT building, count(*) FROM emp WHERE salary > 10 "
            "GROUP BY building HAVING count(*) > 2"
        )
        assert s.where is not None
        assert len(s.group_by) == 1
        assert s.having is not None

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT building FROM emp").distinct

    def test_order_limit(self):
        s = parse_statement("SELECT a FROM t ORDER BY a DESC, b LIMIT 10")
        assert s.order_by[0].descending
        assert not s.order_by[1].descending
        assert s.limit == 10

    def test_explicit_joins(self):
        s = parse_statement(
            "SELECT * FROM dept d LEFT OUTER JOIN emp e ON d.building = e.building"
        )
        join = s.from_items[0]
        assert isinstance(join, ast.Join) and join.kind == "left"
        s = parse_statement("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y")
        outer = s.from_items[0]
        assert isinstance(outer.left, ast.Join)

    def test_loj_keyword(self):
        # The paper's Dayal-rewrite snippet uses "LOJ" as the operator name.
        s = parse_statement("SELECT * FROM dept d LOJ emp e ON d.b = e.b")
        assert s.from_items[0].kind == "left"

    def test_derived_table_standard(self):
        s = parse_statement(
            "SELECT * FROM (SELECT building FROM emp) AS t(bldg)"
        )
        dt = s.from_items[0]
        assert isinstance(dt, ast.DerivedTable)
        assert dt.alias == "t" and dt.column_aliases == ("bldg",)

    def test_derived_table_starburst_syntax(self):
        s = parse_statement(
            "SELECT sumbal FROM DT(sumbal) AS (SELECT sum(bal) FROM customers)"
        )
        dt = s.from_items[0]
        assert isinstance(dt, ast.DerivedTable)
        assert dt.alias == "dt" and dt.column_aliases == ("sumbal",)

    def test_union(self):
        s = parse_statement("(SELECT a FROM t) UNION ALL (SELECT b FROM u)")
        assert isinstance(s, ast.SetOp)
        assert s.op == "union" and s.all
        s = parse_statement("SELECT a FROM t UNION SELECT b FROM u")
        assert isinstance(s, ast.SetOp) and not s.all

    def test_intersect_except(self):
        assert parse_statement("SELECT a FROM t INTERSECT SELECT a FROM u").op == "intersect"
        assert parse_statement("SELECT a FROM t EXCEPT SELECT a FROM u").op == "except"

    def test_trailing_semicolon_and_garbage(self):
        parse_statement("SELECT 1;")
        with pytest.raises(ParseError):
            parse_statement("SELECT 1 SELECT 2")

    def test_error_reports_location(self):
        with pytest.raises(ParseError) as exc:
            parse_statement("SELECT FROM t")
        assert "line 1" in str(exc.value)


class TestPaperQueries:
    def test_section2_example(self):
        s = parse_statement(
            """
            Select D.name From Dept D
            Where D.budget < 10000 and D.num_emps >
              (Select Count(*) From Emp E Where D.building = E.building)
            """
        )
        assert isinstance(s, ast.Select)
        comparison = s.where.items[1]
        assert isinstance(comparison.right, ast.ScalarSubquery)

    def test_query1(self):
        s = parse_statement(
            """
            Select s.s_name, s.s_acctbal, s.s_address, s.s_phone, s.s_comment
            From Parts p, Suppliers s, Partsupp ps
            Where s.s_nation = 'FRANCE' and p.p_size = 15 and p.p_type = 'BRASS'
              and p.p_partkey = ps.ps_partkey and s.s_suppkey = ps.ps_suppkey
              and ps.ps_supplycost =
                (Select min(ps1.ps_supplycost)
                 From Partsupp ps1, Suppliers s1
                 Where p.p_partkey = ps1.ps_partkey
                   and s1.s_suppkey = ps1.ps_suppkey and s1.s_nation = 'FRANCE')
            """
        )
        assert len(s.from_items) == 3
        assert len(s.where.items) == 6

    def test_query2(self):
        s = parse_statement(
            """
            Select sum(l.l_extendedprice * l.l_quantity) / 5
            From Lineitem l, Parts p
            Where p.p_partkey = l.l_partkey and p.p_brand = 'Brand#23'
              and p.p_container = '6 PACK' and l.l_quantity <
                (Select 0.2 * avg(l1.l_quantity)
                 From Lineitem l1 Where l1.l_partkey = p.p_partkey)
            """
        )
        head = s.items[0].expr
        assert isinstance(head, ast.BinaryOp) and head.op == "/"

    def test_query3_with_union_and_starburst_tables(self):
        s = parse_statement(
            """
            Select s.*, sumbal From Suppliers s, DT(sumbal) AS
              (Select sum(bal) From DDT(bal) AS
                ((Select a.c_acctbal From Customers a
                  Where a.c_mktsegment = 'BUILDING' and a.c_nation = s.s_nation)
                 Union All
                 (Select b.c_acctbal From Customers b
                  Where b.c_mktsegment = 'AUTOMOBILE' and b.c_nation = s.s_nation)))
            Where s.s_region = 'EUROPE'
            """
        )
        dt = s.from_items[1]
        assert isinstance(dt, ast.DerivedTable)
        inner = dt.query
        assert isinstance(inner, ast.Select)
        ddt = inner.from_items[0]
        assert isinstance(ddt, ast.DerivedTable)
        assert isinstance(ddt.query, ast.SetOp) and ddt.query.all

    def test_magic_rewrite_views_from_paper(self):
        statements = parse_statements(
            """
            Create View Supp_Dept As (Select name, building, num_emps
                                      From Dept Where budget < 10000);
            Create View Magic AS (Select Distinct building From Supp_Dept);
            Create View Decorr_SubQuery AS
              (Select M.building, Count(*) AS cnt
               From Magic M, Emp E Where M.building = E.building
               GroupBy M.building);
            """.replace("GroupBy", "Group By")
        )
        assert len(statements) == 3
        assert all(isinstance(s, ast.CreateView) for s in statements)


class TestDDL:
    def test_create_table(self):
        s = parse_statement(
            "CREATE TABLE dept (name VARCHAR(30) NOT NULL, budget FLOAT, "
            "num_emps INT, building VARCHAR(10), PRIMARY KEY (name))"
        )
        assert isinstance(s, ast.CreateTable)
        assert s.primary_key == ("name",)
        assert s.columns[0].not_null
        assert s.columns[1].type_name == "FLOAT"

    def test_inline_primary_key(self):
        s = parse_statement("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        assert s.primary_key == ("id",)
        assert s.columns[0].not_null

    def test_create_index(self):
        s = parse_statement("CREATE INDEX i ON partsupp (ps_suppkey)")
        assert isinstance(s, ast.CreateIndex)
        assert not s.unique and s.columns == ("ps_suppkey",)
        s = parse_statement("CREATE UNIQUE INDEX i ON t (a, b)")
        assert s.unique and s.columns == ("a", "b")
        # There is one index kind, so no USING clause to pick one.
        sql = "CREATE UNIQUE INDEX i ON t (a, b) USING SORTED"
        with pytest.raises(ParseError) as info:
            parse_statement(sql)
        assert info.value.span.start == sql.index("USING")

    def test_drop_index(self):
        s = parse_statement("DROP INDEX i ON partsupp")
        assert isinstance(s, ast.DropIndex)
        assert (s.name, s.table) == ("i", "partsupp")

    def test_create_view(self):
        s = parse_statement("CREATE VIEW v AS SELECT 1")
        assert isinstance(s, ast.CreateView)

    def test_insert(self):
        s = parse_statement(
            "INSERT INTO dept (name, budget) VALUES ('d1', 500), ('d2', NULL)"
        )
        assert isinstance(s, ast.Insert)
        assert len(s.rows) == 2
        assert s.rows[1][1] == ast.Literal(None)

    def test_unknown_type_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE TABLE t (a BLOB)")


class TestScripts:
    def test_multi_statement(self):
        statements = parse_statements(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t;"
        )
        assert len(statements) == 3
