"""SQL aggregate function implementations (NULL-aware, DISTINCT-aware).

Each takes the values of one group as a sequence (a list or a tuple: it
is tested with ``in`` before it is walked) and tests first whether there is
anything to do: NULLs are filtered only from a group that holds one, and
MIN / MAX order by :func:`~repro.types.sort_key` only a group that mixes
classes.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..errors import ExecutionError
from ..types import comparable_classes, sort_key


def _non_null(values: Sequence[Any], distinct: bool) -> Sequence[Any]:
    kept = [v for v in values if v is not None] if None in values else values
    if distinct:
        return list(dict.fromkeys(kept))
    return kept


def _extreme(builtin, values: Sequence[Any]) -> Any:
    """MIN / MAX (``builtin``) over non-NULL values; NULL when there are
    none. Values of one class -- int with float counts as one -- compare
    among themselves as ``sort_key`` would order them."""
    kept = _non_null(values, False)
    if not kept:
        return None
    if comparable_classes(set(map(type, kept))):
        return builtin(kept)
    return builtin(kept, key=sort_key)


def agg_count_star(n_rows: int) -> int:
    """COUNT(*): the number of rows, NULLs and all."""
    return n_rows


def agg_count(values: Sequence[Any], distinct: bool = False) -> int:
    """COUNT(x): non-NULL values (optionally distinct)."""
    return len(_non_null(values, distinct))


def agg_sum(values: Sequence[Any], distinct: bool = False) -> Any:
    """SUM: NULL over an empty/all-NULL input (the COUNT-bug sibling)."""
    kept = _non_null(values, distinct)
    if not kept:
        return None
    return sum(kept)


def agg_avg(values: Sequence[Any], distinct: bool = False) -> Any:
    """AVG: arithmetic mean of non-NULL values, NULL when there are none."""
    kept = _non_null(values, distinct)
    if not kept:
        return None
    return sum(kept) / len(kept)


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


def compute_aggregate(
    func: str, values: Optional[Sequence[Any]], n_rows: int, distinct: bool,
    guard=None,
) -> Any:
    """Dispatch one aggregate; ``values`` is None for COUNT(*).

    ``guard`` (a :class:`repro.guard.ExecutionGuard`) makes aggregation over
    large groups a cooperative cancellation point too.
    """
    if guard is not None:
        guard.check()
    if values is None:
        if func != "count":
            raise ExecutionError(f"{func}(*) is not a valid aggregate")
        return agg_count_star(n_rows)
    aggregate = _AGGREGATES.get(func)
    if aggregate is None:
        raise ExecutionError(f"unknown aggregate function {func!r}")
    return aggregate(values, distinct)
