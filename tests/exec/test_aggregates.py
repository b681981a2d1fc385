"""Unit tests for the aggregate implementations."""

import pytest

from repro.errors import ExecutionError
from repro.exec.aggregates import (
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    aggregate_column,
)
from repro.types import sort_key


class TestIndividualAggregates:
    def test_count_star(self):
        assert aggregate_column("count", None, (0, 5), False) == [0, 5]

    def test_count_skips_nulls(self):
        assert agg_count([1, None, 2, None]) == 2
        assert agg_count([]) == 0
        assert agg_count([None, None]) == 0

    def test_count_distinct(self):
        assert agg_count([1, 1, 2, None, 2], distinct=True) == 2

    def test_sum(self):
        assert agg_sum([1, 2, 3]) == 6
        assert agg_sum([1, None, 3]) == 4
        assert agg_sum([]) is None
        assert agg_sum([None]) is None

    def test_sum_distinct(self):
        assert agg_sum([1, 1, 2], distinct=True) == 3

    def test_avg(self):
        assert agg_avg([2, 4]) == 3
        assert agg_avg([2, None, 4]) == 3
        assert agg_avg([]) is None

    def test_avg_distinct(self):
        assert agg_avg([2, 2, 4], distinct=True) == 3

    def test_min_max(self):
        assert agg_min([3, 1, 2]) == 1
        assert agg_max([3, 1, 2]) == 3
        assert agg_min([None, 5]) == 5
        assert agg_min([]) is None
        assert agg_max([None]) is None

    def test_min_max_strings(self):
        assert agg_min(["b", "a"]) == "a"
        assert agg_max(["b", "a"]) == "b"


class TestDispatch:
    def test_count_star_dispatch(self):
        assert aggregate_column("count", None, (7,), False) == [7]

    def test_star_only_valid_for_count(self):
        with pytest.raises(ExecutionError, match=r"sum\(\*\)"):
            aggregate_column("sum", None, (7,), False)

    def test_unknown_aggregate(self):
        with pytest.raises(ExecutionError, match="median"):
            aggregate_column("median", ([1],), (1,), False)

    @pytest.mark.parametrize(
        "func,expected",
        [("count", 2), ("sum", 5), ("avg", 2.5), ("min", 2), ("max", 3)],
    )
    def test_each_function(self, func, expected):
        assert aggregate_column(func, ([2, 3, None],), (3,), False) == [expected]


FUNCTIONS = ("count", "sum", "avg", "min", "max")


def _reference(func, values, distinct):
    """Every aggregate by its definition: drop NULLs, drop duplicates when
    asked, order by ``sort_key``."""
    kept = [v for v in values if v is not None]
    if distinct:
        kept = [v for i, v in enumerate(kept) if v not in kept[:i]]
    if func == "count":
        return len(kept)
    if not kept:
        return None
    if func == "sum":
        return sum(kept)
    if func == "avg":
        return sum(kept) / len(kept)
    return (min if func == "min" else max)(kept, key=sort_key)


class TestGroupsOfEveryShape:
    """What the kernels test before they walk a group -- is there a NULL in
    it, is it of one class -- changes no answer."""

    GROUPS = [
        [], [None], [None, None], [3], [3, 1, 2], [2, None, 3, None],
        [1, 1, 2, None, 2], [2, 2.0, 1.5], [2.0, 2, 3], [1.5, None, 1],
        ["b", "a", None, "b"], [True, False, True],
    ]

    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("func", FUNCTIONS)
    def test_null_distinct_and_empty_groups(self, func, distinct):
        groups = [
            group for group in self.GROUPS
            if func not in ("sum", "avg")
            or not any(isinstance(v, str) for v in group)
        ]
        sizes = [len(group) for group in groups]
        expected = [_reference(func, group, distinct) for group in groups]
        for shaped in (groups, [tuple(group) for group in groups]):
            result = aggregate_column(func, shaped, sizes, distinct)
            assert result == expected, distinct
            assert list(map(type, result)) == list(map(type, expected))

    def test_count_star_counts_nulls_and_ignores_distinct(self):
        assert aggregate_column("count", None, (0, 3), False) == [0, 3]
        assert aggregate_column("count", None, (3,), True) == [3]

    def test_min_max_of_ints_and_floats_are_the_builtins(self):
        """int with float is one class: no ``sort_key`` call, the first of
        two equal extremes wins as it does with the key."""
        assert agg_min([2, 2.0, 3]) == 2 and type(agg_min([2, 2.0, 3])) is int
        assert type(agg_min([2.0, 2, 3])) is float
        assert type(agg_max([1, 3.0, 3])) is float
        assert agg_max([1, None, 2.5]) == 2.5

    def test_min_max_over_mixed_classes_keep_the_sort_key_order(self):
        """bool sorts before number before string, whatever ``<`` would say
        (``True < 2``) or refuse to say (``1 < "a"``)."""
        mixed = [2, "a", None, True, 1.5, False, "b", 0]
        assert agg_min(mixed) is False
        assert agg_max(mixed) == "b"
        assert agg_min([0, True]) is True  # a bool, not the smaller number
        assert agg_max([5, True, False]) == 5
        assert agg_max([False, -1]) == -1

    def test_the_guard_is_checked_once_per_aggregate(self):
        class Guard:
            checks = 0

            def check(self):
                self.checks += 1

        guard = Guard()
        groups, sizes = ([1, None, 2], [3]), (3, 1)
        for func in FUNCTIONS:
            for distinct in (False, True):
                aggregate_column(func, groups, sizes, distinct, guard)
        aggregate_column("count", None, sizes, False, guard=guard)
        # One check per group of every output: 2 groups x (10 + 1) outputs.
        assert guard.checks == len(groups) * (2 * len(FUNCTIONS) + 1)
