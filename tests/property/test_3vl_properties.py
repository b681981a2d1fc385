"""Property-based tests for three-valued logic and NULL-aware operators."""

from hypothesis import given
from hypothesis import strategies as st

from repro.exec.evaluate import compile_expr
from repro.sql import ast
from repro.types import (
    COMPARISONS,
    sql_eq,
    sql_is_not_distinct,
    sql_like,
    sql_lt,
    tv_and,
    tv_not,
)


def tv_or(a, b):
    """3VL OR as the executor evaluates ``a OR b``."""
    return compile_expr(ast.Or((ast.Literal(a), ast.Literal(b))), {})(None, None)


truth = st.sampled_from([True, False, None])
values = st.one_of(st.none(), st.integers(-5, 5))
strings = st.one_of(st.none(), st.text(alphabet="ab%_", max_size=5))


class TestTruthAlgebra:
    @given(truth, truth)
    def test_de_morgan_and(self, a, b):
        assert tv_not(tv_and(a, b)) == tv_or(tv_not(a), tv_not(b))

    @given(truth, truth)
    def test_de_morgan_or(self, a, b):
        assert tv_not(tv_or(a, b)) == tv_and(tv_not(a), tv_not(b))

    @given(truth)
    def test_double_negation(self, a):
        assert tv_not(tv_not(a)) == a

    @given(truth, truth, truth)
    def test_and_associative(self, a, b, c):
        assert tv_and(tv_and(a, b), c) == tv_and(a, tv_and(b, c))

    @given(truth, truth, truth)
    def test_or_distributes_over_and(self, a, b, c):
        assert tv_or(a, tv_and(b, c)) == tv_and(tv_or(a, b), tv_or(a, c))

    @given(truth)
    def test_identity_elements(self, a):
        assert tv_and(a, True) == a
        assert tv_or(a, False) == a

    @given(truth)
    def test_dominant_elements(self, a):
        assert tv_and(a, False) is False
        assert tv_or(a, True) is True


class TestComparisonProperties:
    @given(values, values)
    def test_null_operand_gives_unknown(self, a, b):
        for op, fn in COMPARISONS.items():
            if op == "<=>":
                continue
            if a is None or b is None:
                assert fn(a, b) is None

    @given(values, values)
    def test_eq_symmetric(self, a, b):
        assert sql_eq(a, b) == sql_eq(b, a)

    @given(values, values)
    def test_lt_gt_mirror(self, a, b):
        assert sql_lt(a, b) == COMPARISONS[">"](b, a)

    @given(values, values)
    def test_trichotomy_on_non_null(self, a, b):
        if a is None or b is None:
            return
        outcomes = [COMPARISONS[op](a, b) for op in ("<", "=", ">")]
        assert outcomes.count(True) == 1

    @given(values, values)
    def test_null_safe_eq_never_unknown(self, a, b):
        result = sql_is_not_distinct(a, b)
        assert result in (True, False)
        if a is not None and b is not None:
            assert result == sql_eq(a, b)

    @given(values)
    def test_null_safe_eq_reflexive(self, a):
        assert sql_is_not_distinct(a, a) is True


class TestLikeProperties:
    @given(strings)
    def test_percent_matches_everything(self, s):
        if s is None:
            assert sql_like(s, "%") is None
        else:
            assert sql_like(s, "%") is True

    @given(st.text(alphabet="ab", max_size=5))
    def test_self_match_without_wildcards(self, s):
        assert sql_like(s, s) is True

    @given(st.text(alphabet="ab", max_size=5))
    def test_underscore_length(self, s):
        pattern = "_" * len(s)
        assert sql_like(s, pattern) is True
        assert sql_like(s + "a", pattern) is False
