"""SQL aggregate function implementations (NULL-aware, DISTINCT-aware)."""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..errors import ExecutionError
from ..types import sort_key


def _non_null(values: Iterable[Any], distinct: bool) -> list[Any]:
    kept = [v for v in values if v is not None]
    if distinct:
        seen: set = set()
        unique = []
        for v in kept:
            if v not in seen:
                seen.add(v)
                unique.append(v)
        return unique
    return kept


def agg_count_star(n_rows: int) -> int:
    """COUNT(*): the number of rows, NULLs and all."""
    return n_rows


def agg_count(values: Iterable[Any], distinct: bool = False) -> int:
    """COUNT(x): non-NULL values (optionally distinct)."""
    return len(_non_null(values, distinct))


def agg_sum(values: Iterable[Any], distinct: bool = False) -> Any:
    """SUM: NULL over an empty/all-NULL input (the COUNT-bug sibling)."""
    kept = _non_null(values, distinct)
    if not kept:
        return None
    return sum(kept)


def agg_avg(values: Iterable[Any], distinct: bool = False) -> Any:
    """AVG: arithmetic mean of non-NULL values, NULL when there are none."""
    kept = _non_null(values, distinct)
    if not kept:
        return None
    return sum(kept) / len(kept)


def agg_min(values: Iterable[Any], distinct: bool = False) -> Any:
    """MIN over non-NULL values; NULL when there are none."""
    kept = _non_null(values, distinct)
    if not kept:
        return None
    return min(kept, key=sort_key)


def agg_max(values: Iterable[Any], distinct: bool = False) -> Any:
    """MAX over non-NULL values; NULL when there are none."""
    kept = _non_null(values, distinct)
    if not kept:
        return None
    return max(kept, key=sort_key)


def compute_aggregate(
    func: str, values: Optional[Iterable[Any]], n_rows: int, distinct: bool,
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
    if func == "count":
        return agg_count(values, distinct)
    if func == "sum":
        return agg_sum(values, distinct)
    if func == "avg":
        return agg_avg(values, distinct)
    if func == "min":
        return agg_min(values, distinct)
    if func == "max":
        return agg_max(values, distinct)
    raise ExecutionError(f"unknown aggregate function {func!r}")
