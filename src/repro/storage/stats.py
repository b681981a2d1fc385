"""Table and column statistics used by the cost-based planner.

The optimizer in the paper (section 7) "optimizes the query once without
decorrelation, and using the chosen join orders repeats the optimization with
decorrelation"; both passes need cardinality and distinct-value estimates.
Statistics are computed on demand and cached per table snapshot.

ANALYZE reads a table a column at a time, in C-level passes over the
column: ``n_distinct`` is the size of the set of its values less NULL,
``n_null`` counts ``None`` (only when that set holds it), and ``min`` /
``max`` are the builtins in row order -- in natural order when the
non-NULL values are of one class or a mix of int and float, by
:func:`~repro.types.sort_key` for any other mix. Both keep the first of
tied values (and a leading NaN), as a row-at-a-time "first strictly
smaller" scan does. No column is materialised: each pass maps
``itemgetter`` over a slice of the row list.

ANALYZE describes a table's first ``len(table)`` rows, counted once: an
INSERT holds only the table lock, so it may append while ANALYZE runs,
and every column must describe the rows ``row_count`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import countOf, is_not, itemgetter
from typing import Any, Sequence

from ..types import comparable_classes, sort_key
from .table import Table


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for a single column."""

    n_distinct: int
    n_null: int
    min_value: Any
    max_value: Any


@dataclass(frozen=True)
class TableStats:
    """Statistics for a whole table."""

    row_count: int
    columns: dict[str, ColumnStats]

    def column(self, name: str) -> ColumnStats:
        return self.columns[name.lower()]


def compute_table_stats(table: Table) -> TableStats:
    """Exact statistics for every column of ``table``'s first ``len(table)``
    rows."""
    rows, n = table.rows, len(table)
    return TableStats(
        row_count=n,
        columns={
            col.name: _column_stats(rows, n, pos)
            for pos, col in enumerate(table.schema)
        },
    )


def _column_stats(rows: Sequence[tuple], n: int, pos: int) -> ColumnStats:
    """Statistics of column ``pos`` over ``rows[:n]``."""

    def column():
        return map(itemgetter(pos), islice(rows, n))

    distinct = set(column())
    n_null = countOf(column(), None) if None in distinct else 0
    distinct.discard(None)
    if not distinct:
        return ColumnStats(n_distinct=0, n_null=n_null, min_value=None, max_value=None)

    def values():
        return filter(partial(is_not, None), column()) if n_null else column()

    key = None if comparable_classes(set(map(type, values()))) else sort_key
    return ColumnStats(
        n_distinct=len(distinct), n_null=n_null,
        min_value=min(values(), key=key), max_value=max(values(), key=key),
    )


class StatsCache:
    """Per-catalog cache of :class:`TableStats`, invalidated by row count.

    Tables are append-mostly; recomputing when the row count changed is a
    simple and correct invalidation rule for this engine.
    """

    def __init__(self) -> None:
        self._cache: dict[str, tuple[int, TableStats]] = {}

    def get(self, table: Table) -> TableStats:
        cached = self._cache.get(table.name)
        if cached is not None and cached[0] == len(table):
            return cached[1]
        stats = compute_table_stats(table)
        # Keyed by the rows the statistics describe: an INSERT that landed
        # during ANALYZE makes the next read recompute.
        self._cache[table.name] = (stats.row_count, stats)
        return stats

    def invalidate(self, table_name: str) -> None:
        self._cache.pop(table_name.lower(), None)
