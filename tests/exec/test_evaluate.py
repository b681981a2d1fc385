"""Unit tests for the row-context expression evaluator."""

import pytest

from repro import Database
from repro.errors import ExecutionError, SchemaError
from repro.exec.evaluate import (
    Env,
    compile_expr,
    evaluate,
    predicate_holds,
    reads_only,
)
from repro.exec.executor import ExecutionContext
from repro.qgm.expr import ColumnRef
from repro.qgm.model import BaseTableBox, Quantifier
from repro.sql import ast
from repro.sql.parser import parse_expression
from repro.storage import Catalog, Column, Schema
from repro.types import SQLType


@pytest.fixture
def ctx() -> ExecutionContext:
    catalog = Catalog()
    catalog.create_table(
        "t", Schema([Column("a", SQLType.INT), Column("b", SQLType.STR)])
    )
    box = BaseTableBox("t", ["a", "b"])
    context = ExecutionContext(catalog, box)
    context._test_box = box
    return context


def bound_env(ctx, row):
    q = Quantifier("q", ctx._test_box)
    return Env({q: row}), q


def const(ctx, text):
    """Evaluate a constant SQL expression."""
    return evaluate(parse_expression(text), Env(), ctx)


class TestConstants:
    def test_arithmetic(self, ctx):
        assert const(ctx, "1 + 2 * 3") == 7
        assert const(ctx, "10 / 4") == 2.5
        assert const(ctx, "-(2 + 3)") == -5

    def test_null_propagation(self, ctx):
        assert const(ctx, "1 + NULL") is None
        assert const(ctx, "-(NULL)") is None
        assert const(ctx, "NULL = NULL") is None

    def test_concat(self, ctx):
        assert const(ctx, "'a' || 'b'") == "ab"
        assert const(ctx, "'a' || NULL") is None

    def test_boolean_short_circuit(self, ctx):
        assert const(ctx, "1 = 1 OR 1 / 0 = 1") is True
        # AND short-circuits on FALSE
        assert const(ctx, "1 = 2 AND 1 = 1") is False

    def test_between_3vl(self, ctx):
        assert const(ctx, "2 BETWEEN 1 AND 3") is True
        assert const(ctx, "NULL BETWEEN 1 AND 3") is None
        assert const(ctx, "2 NOT BETWEEN 1 AND 3") is False

    def test_in_list_3vl(self, ctx):
        assert const(ctx, "1 IN (1, 2)") is True
        assert const(ctx, "3 IN (1, NULL)") is None  # unknown, not false
        assert const(ctx, "3 NOT IN (1, NULL)") is None
        assert const(ctx, "3 IN (1, 2)") is False

    def test_is_null(self, ctx):
        assert const(ctx, "NULL IS NULL") is True
        assert const(ctx, "1 IS NOT NULL") is True

    def test_functions(self, ctx):
        assert const(ctx, "coalesce(NULL, NULL, 5)") == 5
        assert const(ctx, "coalesce(NULL, NULL)") is None
        assert const(ctx, "abs(-3)") == 3
        assert const(ctx, "nullif(1, 1)") is None
        assert const(ctx, "nullif(1, 2)") == 1
        assert const(ctx, "upper('ab')") == "AB"
        assert const(ctx, "lower('AB')") == "ab"

    def test_unknown_function(self, ctx):
        with pytest.raises(ExecutionError):
            const(ctx, "bogus(1)")

    def test_like(self, ctx):
        assert const(ctx, "'BRASS' LIKE '%RAS%'") is True
        assert const(ctx, "'BRASS' NOT LIKE 'X%'") is True


class TestColumnRefs:
    def test_lookup(self, ctx):
        env, q = bound_env(ctx, (42, "hi"))
        assert evaluate(ColumnRef(q, "a"), env, ctx) == 42
        assert evaluate(ColumnRef(q, "b"), env, ctx) == "hi"

    def test_unbound_quantifier_raises(self, ctx):
        _, q = bound_env(ctx, (1, "x"))
        with pytest.raises(ExecutionError):
            evaluate(ColumnRef(q, "a"), Env(), ctx)

    def test_unknown_column_raises(self, ctx):
        env, q = bound_env(ctx, (1, "x"))
        with pytest.raises(ExecutionError):
            evaluate(ColumnRef(q, "zz"), env, ctx)

    def test_env_bind_is_persistent_copy(self, ctx):
        env, q = bound_env(ctx, (1, "x"))
        env2 = env.bind(Quantifier("other", ctx._test_box), (2, "y"))
        assert q in env2.bindings and q in env.bindings
        assert len(env2.bindings) == 2 and len(env.bindings) == 1

    def test_env_with_value(self, ctx):
        env = Env()
        env2 = env.with_value(123, "cached")
        assert env2.values[123] == "cached"
        assert 123 not in env.values


class TestPredicateSemantics:
    def test_unknown_is_not_true(self, ctx):
        expr = parse_expression("NULL = 1")
        assert predicate_holds(expr, Env(), ctx) is False

    def test_aggregate_outside_groupby_raises(self, ctx):
        with pytest.raises(ExecutionError):
            const(ctx, "count(*)")

    def test_null_safe_comparison(self, ctx):
        expr = ast.Comparison("<=>", ast.Literal(None), ast.Literal(None))
        assert evaluate(expr, Env(), ctx) is True


# -- the compiler: one truth table over every node kind -----------------------

#: ``(expression, value)``: every expression node kind, NULL in each operand
#: position. ``None`` is NULL / UNKNOWN.
TRUTH_TABLE = [
    # Comparison
    ("1 = 1", True), ("1 = 2", False),
    ("NULL = 1", None), ("1 = NULL", None), ("NULL = NULL", None),
    ("1 <> 2", True), ("1 != 1", False), ("NULL <> 1", None), ("1 <> NULL", None),
    ("1 < 2", True), ("2 < 1", False), ("NULL < 1", None), ("1 < NULL", None),
    ("2 <= 2", True), ("NULL <= 2", None), ("2 <= NULL", None),
    ("2 > 1", True), ("NULL > 1", None), ("2 > NULL", None),
    ("2 >= 3", False), ("NULL >= 3", None), ("2 >= NULL", None),
    ("'a' < 'b'", True),
    # And: FALSE dominates, UNKNOWN otherwise propagates
    ("1 = 1 AND 2 = 2", True), ("1 = 1 AND 1 = 2", False),
    ("1 = 2 AND 1 = 1", False), ("1 = 1 AND NULL = 1", None),
    ("NULL = 1 AND 1 = 1", None), ("NULL = 1 AND 1 = 2", False),
    ("1 = 2 AND NULL = 1", False), ("NULL = 1 AND NULL = 1", None),
    ("1 = 1 AND NULL = 1 AND 1 = 2", False),
    # Or: TRUE dominates
    ("1 = 2 OR 2 = 3", False), ("1 = 2 OR 1 = 1", True),
    ("1 = 1 OR 1 = 2", True), ("1 = 2 OR NULL = 1", None),
    ("NULL = 1 OR 1 = 2", None), ("NULL = 1 OR 1 = 1", True),
    ("1 = 1 OR NULL = 1", True), ("NULL = 1 OR NULL = 1", None),
    ("1 = 2 OR NULL = 1 OR 1 = 1", True),
    # Not
    ("NOT 1 = 1", False), ("NOT 1 = 2", True), ("NOT NULL = 1", None),
    # IsNull: never UNKNOWN
    ("NULL IS NULL", True), ("1 IS NULL", False),
    ("NULL IS NOT NULL", False), ("1 IS NOT NULL", True),
    # Like
    ("'BRASS' LIKE 'B%'", True), ("'BRASS' LIKE 'X_'", False),
    ("NULL LIKE 'B%'", None), ("'BRASS' LIKE NULL", None),
    ("'BRASS' NOT LIKE 'B%'", False), ("'BRASS' NOT LIKE 'X%'", True),
    ("NULL NOT LIKE 'B%'", None), ("'BRASS' NOT LIKE NULL", None),
    # Between = (value >= low) AND (value <= high)
    ("2 BETWEEN 1 AND 3", True), ("0 BETWEEN 1 AND 3", False),
    ("NULL BETWEEN 1 AND 3", None),
    ("2 BETWEEN NULL AND 3", None), ("5 BETWEEN NULL AND 3", False),
    ("2 BETWEEN 1 AND NULL", None), ("0 BETWEEN 1 AND NULL", False),
    ("2 NOT BETWEEN 1 AND 3", False), ("0 NOT BETWEEN 1 AND 3", True),
    ("NULL NOT BETWEEN 1 AND 3", None), ("5 NOT BETWEEN NULL AND 3", True),
    # InList
    ("1 IN (1, 2)", True), ("3 IN (1, 2)", False),
    ("NULL IN (1, 2)", None), ("3 IN (1, NULL)", None), ("1 IN (NULL, 1)", True),
    ("1 NOT IN (1, 2)", False), ("3 NOT IN (1, 2)", True),
    ("NULL NOT IN (1, 2)", None), ("3 NOT IN (1, NULL)", None),
    ("1 NOT IN (NULL, 1)", False),
    # Case: only TRUE takes a branch
    ("CASE WHEN 1 = 1 THEN 'a' ELSE 'b' END", "a"),
    ("CASE WHEN 1 = 2 THEN 'a' ELSE 'b' END", "b"),
    ("CASE WHEN NULL = 1 THEN 'a' ELSE 'b' END", "b"),
    ("CASE WHEN 1 = 2 THEN 'a' END", None),
    ("CASE WHEN 1 = 1 THEN NULL ELSE 'b' END", None),
    ("CASE WHEN 1 = 2 THEN 'a' WHEN 2 = 2 THEN 'c' ELSE 'b' END", "c"),
    # BinaryOp
    ("2 + 3", 5), ("NULL + 3", None), ("2 + NULL", None),
    ("2 - 3", -1), ("NULL - 3", None), ("2 - NULL", None),
    ("2 * 3", 6), ("NULL * 3", None), ("2 * NULL", None),
    ("6 / 4", 1.5), ("NULL / 4", None), ("6 / NULL", None),
    ("6 / 0", None), ("NULL / 0", None),
    ("'a' || 'b'", "ab"), ("NULL || 'b'", None), ("'a' || NULL", None),
    ("1 || 2", "12"),
    # UnaryMinus
    ("-(3)", -3), ("-(NULL)", None),
    # Functions
    ("coalesce(NULL, 2, 3)", 2), ("coalesce(1, NULL)", 1),
    ("coalesce(NULL, NULL)", None), ("coalesce(NULL)", None),
    ("abs(-3)", 3), ("abs(NULL)", None),
    ("nullif(1, 1)", None), ("nullif(1, 2)", 1),
    ("nullif(NULL, 1)", None), ("nullif(1, NULL)", 1),
    ("upper('ab')", "AB"), ("upper(NULL)", None),
    ("lower('AB')", "ab"), ("lower(NULL)", None),
]


class TestCompiler:
    @pytest.mark.parametrize("text,expected", TRUTH_TABLE)
    def test_truth_table(self, ctx, text, expected):
        value = compile_expr(parse_expression(text))(Env(), ctx)
        # ``is`` for the three truth values: 1 == True must not pass.
        if expected is None or isinstance(expected, bool):
            assert value is expected
        else:
            assert value == expected

    @pytest.mark.parametrize("left,right,expected", [
        (1, 1, True), (1, 2, False), (None, 1, False), (1, None, False),
        (None, None, True),
    ])
    def test_null_safe_equality_is_never_unknown(self, ctx, left, right, expected):
        expr = ast.Comparison("<=>", ast.Literal(left), ast.Literal(right))
        assert compile_expr(expr)(Env(), ctx) is expected

    def test_short_circuit_skips_what_would_raise(self, ctx):
        """TRUE ends an OR and FALSE an AND before the next operand runs;
        UNKNOWN ends neither."""
        boom = "1 < 'a'"  # SchemaError when evaluated
        assert const(ctx, f"1 = 1 OR {boom}") is True
        assert const(ctx, f"1 = 2 AND {boom}") is False
        assert const(ctx, f"1 IN (1, {boom})") is True
        assert const(ctx, f"CASE WHEN 1 = 1 THEN 'a' ELSE {boom} END") == "a"
        assert const(ctx, f"coalesce(1, {boom})") == 1
        for text in (f"NULL = 1 OR {boom}", f"NULL = 1 AND {boom}"):
            with pytest.raises(SchemaError):
                const(ctx, text)

    def test_parameters_are_read_from_the_context(self, ctx):
        """One closure, different ``?`` values per context: nothing about
        the context is compiled in."""
        fn = compile_expr(
            ast.Comparison(">", ast.Parameter(0), ast.Parameter(1))
        )
        for params, expected in [((2, 1), True), ((1, 2), False),
                                 ((None, 1), None), ((1, None), None)]:
            other = ExecutionContext(ctx.catalog, ctx._test_box, params=params)
            assert fn(Env(), other) is expected
        with pytest.raises(ExecutionError, match=r"unbound parameter \?1"):
            fn(Env(), ExecutionContext(ctx.catalog, ctx._test_box, params=(1,)))

    def test_compile_once_evaluate_many(self, ctx):
        env, q = bound_env(ctx, (1, "x"))
        fn = compile_expr(
            ast.Comparison("=", ColumnRef(q, "a"), ast.Literal(42))
        )
        assert fn(env, ctx) is False
        assert fn(Env({q: (42, "y")}), ctx) is True
        assert fn(Env({q: (None, "z")}), ctx) is None

    def test_positional_reads_the_row_itself(self, ctx):
        """With ``offsets`` the closure takes the flat row, no Env; the
        value is the Env path's."""
        env, q = bound_env(ctx, (7, "hi"))
        expr = ast.BinaryOp(
            "||", ColumnRef(q, "b"), ast.BinaryOp("+", ColumnRef(q, "a"), ast.Literal(1))
        )
        assert reads_only([expr], (q,))
        assert compile_expr(expr)(env, ctx) == "hi8"
        assert compile_expr(expr, {q: 0})((7, "hi"), ctx) == "hi8"
        # ``q``'s columns start at position 2 of a wider flat row.
        assert compile_expr(expr, {q: 2})(("x", "y", 7, "hi"), ctx) == "hi8"
        other = Quantifier("other", ctx._test_box)
        assert not reads_only(
            [ast.Comparison("=", ColumnRef(q, "a"), ColumnRef(other, "a"))], (q,)
        )

    @pytest.mark.parametrize("text", [
        "upper()", "lower()", "abs()", "abs(1, 2)", "nullif(1)",
        "nullif(1, 2, 3)", "coalesce()", "upper('a', 'b')", "bogus(1)",
    ])
    def test_function_errors_are_typed_and_raised_at_compile_time(self, text):
        with pytest.raises(ExecutionError, match=text.split("(")[0]):
            compile_expr(parse_expression(text))

    @pytest.mark.parametrize("text", ["upper()", "abs(a, a)", "bogus(a)"])
    def test_function_errors_do_not_depend_on_the_data(self, text):
        """No row ever reaches the call -- the table is empty -- and the
        error is the same typed one."""
        db = Database()
        db.execute("create table t (a int)")
        with pytest.raises(ExecutionError, match=text.split("(")[0]):
            db.execute(f"select {text} from t")
        db.execute("insert into t values (1)")
        with pytest.raises(ExecutionError, match=text.split("(")[0]):
            db.execute(f"select {text} from t")
