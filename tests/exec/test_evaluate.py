"""Unit tests for the expression compiler: closures over a flat row."""

import pytest

from repro import Database
from repro.errors import ExecutionError, SchemaError
from repro.exec.evaluate import compile_expr, outer_refs, outer_values, row_layout
from repro.exec.executor import ExecutionContext, execute_graph
from repro.qgm.expr import BoxExists, ColumnRef
from repro.qgm.model import (
    BaseTableBox,
    OutputColumn,
    Quantifier,
    QueryGraph,
    SelectBox,
)
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


def bound(ctx):
    """A quantifier over ``t`` and the layout of a row that is one row of it."""
    q = Quantifier("q", ctx._test_box)
    return q, {q: 0}


def const(ctx, text):
    """Evaluate a constant SQL expression: it reads no slot of the row."""
    return compile_expr(parse_expression(text), {})((), ctx)


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
        q, offsets = bound(ctx)
        assert compile_expr(ColumnRef(q, "a"), offsets)((42, "hi"), ctx) == 42
        assert compile_expr(ColumnRef(q, "b"), offsets)((42, "hi"), ctx) == "hi"

    def test_unbound_quantifier_raises(self, ctx):
        """At compile time: no row is needed to see that nothing binds it."""
        q, _ = bound(ctx)
        with pytest.raises(ExecutionError, match=r"unbound quantifier 'q'.*q\.a"):
            compile_expr(ColumnRef(q, "a"), {})

    def test_unknown_column_raises(self, ctx):
        q, offsets = bound(ctx)
        with pytest.raises(ExecutionError):
            compile_expr(ColumnRef(q, "zz"), offsets)

    def test_outer_reference_reads_the_slot_it_was_handed(self, ctx):
        """An outer value sits in the slot ``(quantifier, column)`` names,
        whatever the quantifier's other columns are."""
        q, offsets = bound(ctx)
        outer = Quantifier("o", ctx._test_box)
        expr = ast.Comparison("=", ColumnRef(q, "a"), ColumnRef(outer, "a"))
        fn = compile_expr(expr, {(outer, "a"): 0, q: 1})
        assert fn((7, 7, "x"), ctx) is True
        assert fn((8, 7, "x"), ctx) is False

    def test_scalar_subquery_value_is_read_from_its_slot(self, ctx):
        """A pre-evaluated scalar subquery is a slot like any other; the
        nested box is not run (it could not be: ``t`` does not exist as a
        box here)."""
        from repro.qgm.expr import BoxScalarSubquery

        node = BoxScalarSubquery(ctx._test_box)
        fn = compile_expr(
            ast.BinaryOp("+", node, ast.Literal(1)), {node: 2}
        )
        assert fn(("x", "y", 41), ctx) == 42
        assert ctx.metrics.subquery_invocations == 0


class TestPredicateSemantics:
    def test_unknown_is_not_true(self, ctx):
        """WHERE semantics: UNKNOWN does not qualify."""
        assert const(ctx, "NULL = 1") is not True

    def test_aggregate_outside_groupby_raises(self, ctx):
        with pytest.raises(ExecutionError):
            const(ctx, "count(*)")

    def test_null_safe_comparison(self, ctx):
        expr = ast.Comparison("<=>", ast.Literal(None), ast.Literal(None))
        assert compile_expr(expr, {})((), ctx) is True


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
    ("nullif(NULL, NULL)", None), ("nullif(1, 1.0)", None),
    ("upper('ab')", "AB"), ("upper(NULL)", None),
    ("lower('AB')", "ab"), ("lower(NULL)", None),
]


class TestCompiler:
    @pytest.mark.parametrize("text,expected", TRUTH_TABLE)
    def test_truth_table(self, ctx, text, expected):
        value = const(ctx, text)
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
        assert compile_expr(expr, {})((), ctx) is expected

    @pytest.mark.parametrize("text", ["nullif(1, 'x')", "nullif(1, TRUE)"])
    def test_nullif_compares_as_equality_does(self, ctx, text):
        """Python's ``==`` says ``1 != 'x'`` and ``1 == True``; SQL's ``=``
        compares neither pair."""
        equality = text.replace("nullif(", "(").replace(",", " =")
        for compared in (text, equality):
            with pytest.raises(SchemaError, match="cannot compare 1 with"):
                const(ctx, compared)

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
            ast.Comparison(">", ast.Parameter(0), ast.Parameter(1)), {}
        )
        for params, expected in [((2, 1), True), ((1, 2), False),
                                 ((None, 1), None), ((1, None), None)]:
            other = ExecutionContext(ctx.catalog, ctx._test_box, params=params)
            assert fn((), other) is expected
        with pytest.raises(ExecutionError, match=r"unbound parameter \?1"):
            fn((), ExecutionContext(ctx.catalog, ctx._test_box, params=(1,)))

    def test_compile_once_evaluate_many(self, ctx):
        q, offsets = bound(ctx)
        fn = compile_expr(
            ast.Comparison("=", ColumnRef(q, "a"), ast.Literal(42)), offsets
        )
        assert fn((1, "x"), ctx) is False
        assert fn((42, "y"), ctx) is True
        assert fn((None, "z"), ctx) is None

    def test_positional_reads_the_row_itself(self, ctx):
        """The closure takes the flat row; the same expression gives the
        same value wherever ``offsets`` puts the quantifier's columns."""
        q, offsets = bound(ctx)
        expr = ast.BinaryOp(
            "||", ColumnRef(q, "b"), ast.BinaryOp("+", ColumnRef(q, "a"), ast.Literal(1))
        )
        assert compile_expr(expr, offsets)((7, "hi"), ctx) == "hi8"
        # ``q``'s columns start at position 2 of a wider flat row.
        assert compile_expr(expr, {q: 2})(("x", "y", 7, "hi"), ctx) == "hi8"
        other = Quantifier("other", ctx._test_box)
        with pytest.raises(ExecutionError, match="unbound quantifier 'other'"):
            compile_expr(
                ast.Comparison("=", ColumnRef(q, "a"), ColumnRef(other, "a")),
                offsets,
            )

    @pytest.mark.parametrize("text", [
        "upper()", "lower()", "abs()", "abs(1, 2)", "nullif(1)",
        "nullif(1, 2, 3)", "coalesce()", "upper('a', 'b')", "bogus(1)",
    ])
    def test_function_errors_are_typed_and_raised_at_compile_time(self, text):
        with pytest.raises(ExecutionError, match=text.split("(")[0]):
            compile_expr(parse_expression(text), {})

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

    def test_unbound_quantifier_does_not_depend_on_the_data(self):
        """A reference to a quantifier that neither the box nor any box
        around it owns -- here two levels down, inside an EXISTS -- is the
        same typed error over an empty table, where no row ever reaches
        it, and over a populated one."""
        db = Database()
        db.execute("create table t (a int)")
        columns = ["a"]
        stray = Quantifier("stray", BaseTableBox("t", columns))

        def graph() -> QueryGraph:
            inner = SelectBox()
            i = inner.add_quantifier(BaseTableBox("t", columns), "i")
            inner.predicates = [ast.Comparison("=", i.ref("a"), stray.ref("a"))]
            inner.outputs = [OutputColumn("a", i.ref("a"))]
            root = SelectBox()
            r = root.add_quantifier(BaseTableBox("t", columns), "r")
            root.predicates = [BoxExists(inner)]
            root.outputs = [OutputColumn("a", r.ref("a"))]
            assert [repr(ref) for ref in outer_refs(root)] == ["stray.a"]
            return QueryGraph(root)

        for _ in range(2):
            with pytest.raises(ExecutionError, match=r"unbound quantifier.*stray\.a"):
                execute_graph(graph(), db.catalog)
            db.execute("insert into t values (1)")


class TestRowLayout:
    """What a box hands the box it runs: the outer references of that box's
    subtree, one value each, out of fixed slots of its own row."""

    def _nest(self, ctx, columns, through=()):
        """``outer`` runs ``inner`` as an EXISTS; ``inner`` compares its
        ``columns`` with ``outer``'s and ``through`` with those of a
        quantifier of a box further out."""
        outer, far = SelectBox(), Quantifier("far", ctx._test_box)
        o = outer.add_quantifier(ctx._test_box, "o")
        inner = SelectBox()
        i = inner.add_quantifier(ctx._test_box, "i")
        inner.predicates = [
            ast.Comparison("=", i.ref(column), o.ref(column)) for column in columns
        ] + [
            ast.Comparison("=", i.ref(column), far.ref(column)) for column in through
        ]
        inner.outputs = [OutputColumn("a", i.ref("a"))]
        outer.predicates = [BoxExists(inner)]
        outer.outputs = [OutputColumn("a", o.ref("a"))]
        return outer, o, inner

    def test_one_value_per_distinct_outer_column(self, ctx):
        outer, o, inner = self._nest(ctx, ["b", "a", "b"])
        assert [repr(ref) for ref in outer_refs(inner)] == [f"{o.name}.b", f"{o.name}.a"]
        params, offsets = row_layout(outer, [o])
        assert params == () and offsets[o] == 0 and offsets[inner] == (1, 0)
        assert outer_values(inner, offsets)((7, "hi")) == ("hi", 7)

    def test_single_and_no_outer_column(self, ctx):
        outer, o, inner = self._nest(ctx, ["b"])
        assert outer_values(inner, row_layout(outer, [o])[1])((7, "hi")) == ("hi",)
        outer, o, plain = self._nest(ctx, [])
        assert outer_refs(plain) == () and outer_refs(outer) == ()
        assert outer_values(plain, row_layout(outer, [o])[1])((7, "hi")) == ()

    def test_a_value_handed_down_is_handed_on(self, ctx):
        """``outer`` never reads ``far.b`` itself: it is handed the value
        (slot 0, before its own columns) because ``inner`` reads it, and
        hands it on."""
        outer, o, inner = self._nest(ctx, ["a"], through=["b"])
        params, offsets = row_layout(outer, [o])
        assert [repr(ref) for ref in params] == ["far.b"]
        assert params == outer_refs(outer)
        assert offsets[o] == 1
        pick = outer_values(inner, offsets)
        assert dict(zip(map(repr, outer_refs(inner)), pick(("hi", 7, "x")))) == {
            f"{o.name}.a": 7, "far.b": "hi",
        }

    def test_members_take_their_slots_in_order(self, ctx):
        """A quantifier takes one slot per column, a scalar subquery value
        one; every position is fixed before any row exists."""
        from repro.qgm.expr import BoxScalarSubquery

        outer, o, inner = self._nest(ctx, ["a"], through=["b"])
        node = BoxScalarSubquery(inner)
        outer.predicates = [ast.Comparison("=", o.ref("a"), node)]
        second = outer.add_quantifier(ctx._test_box, "p")
        _, offsets = row_layout(outer, [o, node, second])
        assert (offsets[o], offsets[node], offsets[second]) == (1, 3, 4)
        fn = compile_expr(outer.predicates[0], offsets)
        assert fn(("hi", 7, "x", 7, 0, "y"), ctx) is True
        assert fn(("hi", 7, "x", 8, 0, "y"), ctx) is False
