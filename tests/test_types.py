"""Unit tests for the SQL value model and three-valued logic."""

import pytest

from repro.errors import SchemaError
from repro.exec.evaluate import compile_expr
from repro.sql import ast
from repro.types import (
    ARITHMETIC,
    COMPARISONS,
    SQLType,
    sort_key,
    sql_add,
    sql_div,
    sql_eq,
    sql_ge,
    sql_gt,
    sql_le,
    sql_like,
    sql_lt,
    sql_mul,
    sql_ne,
    sql_sub,
    tv_and,
    tv_not,
)


def tv_or(a, b):
    """3VL OR as the executor evaluates ``a OR b``."""
    return compile_expr(ast.Or((ast.Literal(a), ast.Literal(b))), {})(None, None)



class TestTruthTables:
    def test_not(self):
        assert tv_not(True) is False
        assert tv_not(False) is True
        assert tv_not(None) is None

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (True, True, True),
            (True, False, False),
            (True, None, None),
            (False, False, False),
            (False, None, False),
            (None, None, None),
        ],
    )
    def test_and_symmetric(self, a, b, expected):
        assert tv_and(a, b) is expected
        assert tv_and(b, a) is expected

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (True, True, True),
            (True, False, True),
            (True, None, True),
            (False, False, False),
            (False, None, None),
            (None, None, None),
        ],
    )
    def test_or_symmetric(self, a, b, expected):
        assert tv_or(a, b) is expected
        assert tv_or(b, a) is expected


class TestComparisons:
    def test_equality(self):
        assert sql_eq(1, 1) is True
        assert sql_eq(1, 2) is False
        assert sql_eq(None, 1) is None
        assert sql_eq(1, None) is None
        assert sql_eq(None, None) is None

    def test_inequality_with_null(self):
        assert sql_ne(1, 2) is True
        assert sql_ne(None, 2) is None

    def test_ordering(self):
        assert sql_lt(1, 2) is True
        assert sql_le(2, 2) is True
        assert sql_gt(3, 2) is True
        assert sql_ge(2, 3) is False
        assert sql_lt(None, 2) is None
        assert sql_gt(2, None) is None

    def test_numeric_cross_type(self):
        assert sql_eq(1, 1.0) is True
        assert sql_lt(1, 1.5) is True

    def test_string_comparison(self):
        assert sql_lt("apple", "banana") is True
        assert sql_eq("a", "a") is True

    def test_incomparable_types_raise(self):
        with pytest.raises(SchemaError):
            sql_eq(1, "one")
        with pytest.raises(SchemaError):
            sql_lt(True, 1)

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">=", "<=>"])
    def test_errors_name_the_operands_left_then_right(self, op):
        with pytest.raises(SchemaError, match="cannot compare 1 with 'x'"):
            COMPARISONS[op](1, "x")
        with pytest.raises(SchemaError, match="cannot compare 'x' with 1"):
            COMPARISONS[op]("x", 1)

    def test_same_class_skips_the_check_and_a_mismatch_does_not(self):
        # bool is an int to Python, not to SQL; int against float is fine.
        for compare in set(COMPARISONS.values()):
            for a, b in ((True, 1), (1, True), (False, 0.0), ("1", 1)):
                with pytest.raises(SchemaError):
                    compare(a, b)
        assert sql_gt(2, 1.5) is True and sql_ge(1.5, 2) is False
        assert sql_gt(True, False) is True and sql_ge("a", "b") is False

    def test_comparison_registry_complete(self):
        for op in ("=", "<>", "!=", "<", "<=", ">", ">="):
            assert op in COMPARISONS


class TestArithmetic:
    def test_null_propagation(self):
        assert sql_add(None, 1) is None
        assert sql_sub(1, None) is None
        assert sql_mul(None, None) is None
        assert sql_div(None, 2) is None

    def test_basic(self):
        assert sql_add(2, 3) == 5
        assert sql_sub(2, 3) == -1
        assert sql_mul(2, 3) == 6
        assert sql_div(6, 3) == 2

    def test_division_by_zero_is_null(self):
        assert sql_div(1, 0) is None

    def test_registry(self):
        assert set(ARITHMETIC) == {"+", "-", "*", "/"}


class TestLike:
    @pytest.mark.parametrize(
        "value,pattern,expected",
        [
            ("BRASS", "BRASS", True),
            ("LARGE BRASS", "%BRASS", True),
            ("LARGE BRASS", "%BRASS%", True),
            ("BRASS PLATED", "BRASS%", True),
            ("COPPER", "%BRASS%", False),
            ("abc", "a_c", True),
            ("abc", "a_d", False),
            ("", "%", True),
            ("", "_", False),
            ("aXbXc", "a%b%c", True),
        ],
    )
    def test_patterns(self, value, pattern, expected):
        assert sql_like(value, pattern) is expected

    def test_null(self):
        assert sql_like(None, "%") is None
        assert sql_like("x", None) is None

    def test_non_string_raises(self):
        with pytest.raises(SchemaError):
            sql_like(1, "%")


class TestSQLType:
    def test_int(self):
        assert SQLType.INT.validate(5) == 5
        with pytest.raises(SchemaError):
            SQLType.INT.validate(5.0)
        with pytest.raises(SchemaError):
            SQLType.INT.validate(True)

    def test_float_coerces_int(self):
        assert SQLType.FLOAT.validate(5) == 5.0
        assert isinstance(SQLType.FLOAT.validate(5), float)
        with pytest.raises(SchemaError):
            SQLType.FLOAT.validate("5")

    def test_str_and_date(self):
        assert SQLType.STR.validate("x") == "x"
        assert SQLType.DATE.validate("1996-01-01") == "1996-01-01"
        with pytest.raises(SchemaError):
            SQLType.DATE.validate(19960101)

    def test_bool(self):
        assert SQLType.BOOL.validate(True) is True
        with pytest.raises(SchemaError):
            SQLType.BOOL.validate(1)

    def test_null_accepted_everywhere(self):
        for t in SQLType:
            assert t.validate(None) is None


class TestSortKey:
    def test_nulls_first(self):
        values = [3, None, 1, None, 2]
        ordered = sorted(values, key=sort_key)
        assert ordered == [None, None, 1, 2, 3]

    def test_mixed_type_total_order(self):
        values = ["b", 2, None, True, "a", 1.5]
        ordered = sorted(values, key=sort_key)
        assert ordered[0] is None
        assert ordered[1] is True  # booleans before numbers
        assert ordered[2:4] == [1.5, 2]
        assert ordered[4:] == ["a", "b"]
