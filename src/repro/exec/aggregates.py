"""SQL aggregate function implementations (NULL-aware, DISTINCT-aware).

Each takes the values of one group as a sequence (a list or a tuple: it
is tested with ``in`` before it is walked) and tests first whether there is
anything to do: NULLs are filtered only from a group that holds one, and
MIN / MAX order by :func:`~repro.types.sort_key` only a group that mixes
classes. A GROUP BY computes each aggregate output for all its groups at
once (:func:`aggregate_column`).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable, Iterator, Optional, Sequence

from ..errors import ExecutionError
from ..types import comparable_classes, not_nan, sort_key


def _non_null(values: Sequence[Any], distinct: bool) -> Sequence[Any]:
    kept = [v for v in values if v is not None] if None in values else values
    if distinct:
        return list(dict.fromkeys(kept))
    return kept


def _extreme(builtin, values: Sequence[Any]) -> Any:
    """MIN / MAX (``builtin``) over non-NULL values; NULL when there are
    none. Values of one class -- int with float counts as one -- compare
    among themselves as ``sort_key`` would order them."""
    if len(set(map(type, values))) == 1 and values[0] is not None:
        return builtin(values)  # one class, no NULL: nothing to test
    kept = _non_null(values, False)
    if not kept:
        return None
    if comparable_classes(set(map(type, kept))):
        return builtin(kept)
    return builtin(kept, key=sort_key)


def agg_count(values: Sequence[Any], distinct: bool = False) -> int:
    """COUNT(x): non-NULL values (optionally distinct)."""
    return len(_non_null(values, distinct))


def agg_sum(values: Sequence[Any], distinct: bool = False) -> Any:
    """SUM: NULL over an empty/all-NULL input (the COUNT-bug sibling)."""
    if values and not distinct:
        # ``sum`` refuses a NULL, and is cheaper than looking for one
        # (``None in values`` asks every number whether it equals None).
        try:
            return not_nan(sum(values))
        except TypeError:
            pass
    kept = _non_null(values, distinct)
    if not kept:
        return None
    return not_nan(sum(kept))


def agg_avg(values: Sequence[Any], distinct: bool = False) -> Any:
    """AVG: arithmetic mean of non-NULL values, NULL when there are none."""
    if values and not distinct:
        try:  # as in :func:`agg_sum`
            return not_nan(sum(values) / len(values))
        except TypeError:
            pass
    kept = _non_null(values, distinct)
    if not kept:
        return None
    return not_nan(sum(kept) / len(kept))


def agg_min(values: Sequence[Any], distinct: bool = False) -> Any:
    """MIN over non-NULL values; NULL when there are none."""
    return _extreme(min, values)


def agg_max(values: Sequence[Any], distinct: bool = False) -> Any:
    """MAX over non-NULL values; NULL when there are none."""
    return _extreme(max, values)


_AGGREGATES = {
    "count": agg_count,
    "sum": agg_sum,
    "avg": agg_avg,
    "min": agg_min,
    "max": agg_max,
}


def _checked(groups: Iterable, check) -> Iterator:
    """``groups``, with one cooperative ``check()`` before each."""
    for group in groups:
        check()
        yield group


def aggregate_column(
    func: str, groups: Optional[Iterable[Sequence[Any]]], sizes: Sequence[int],
    distinct: bool, guard=None,
) -> list:
    """One aggregate output of a GROUP BY: its value for every group.
    ``groups`` holds the values of each group, ``None`` for COUNT(*);
    ``sizes`` the number of rows of each.

    ``guard`` (a :class:`repro.guard.ExecutionGuard`) makes aggregation a
    cooperative cancellation point: it is checked once per group, before
    the group is aggregated.
    """
    if groups is None:
        if func != "count":
            raise ExecutionError(f"{func}(*) is not a valid aggregate")
        # COUNT(*): the number of rows, NULLs and all.
        return list(sizes if guard is None else _checked(sizes, guard.check))
    aggregate = _AGGREGATES.get(func)
    if aggregate is None:
        raise ExecutionError(f"unknown aggregate function {func!r}")
    if distinct:
        aggregate = partial(aggregate, distinct=True)
    if guard is not None:
        groups = _checked(groups, guard.check)
    return list(map(aggregate, groups))

