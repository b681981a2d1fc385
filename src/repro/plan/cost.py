"""Cardinality and selectivity estimation.

Deliberately simple: exact base-table statistics (affordable in memory)
combined with textbook selectivity rules. The estimates only need to be
good enough to reproduce the optimizer behaviours the paper depends on --
join ordering, index choice, and placing the correlated subquery before or
after the outer block's joins (Query 1 vs Query 2 in section 5.3).
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..qgm.expr import ColumnRef, expr_facts
from ..qgm.model import (
    BaseTableBox,
    Box,
    GroupByBox,
    OuterJoinBox,
    SelectBox,
    SetOpBox,
)
from ..sql import ast
from ..storage.catalog import Catalog
from ..storage.stats import TableStats
from ..storage.table import Table


class TableSource(Protocol):
    """What planning reads of a catalog: a :class:`Catalog`, or the
    :class:`CompileCatalog` of one compile."""

    def table(self, name: str) -> Table: ...

    def stats(self, name: str) -> TableStats: ...


class CompileCatalog:
    """The catalog as one compile's planning reads it: each table and its
    statistics looked up once, under the catalog lock. It lives for one
    :func:`~repro.plan.compile.compile_query` call, as ``_BoxFacts`` lives
    for one :func:`~repro.plan.planner.plan_select_box` (DESIGN section
    18); nothing keeps it."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            table = self._tables[name] = self.catalog.table(name)
        return table

    def stats(self, name: str) -> TableStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = self.catalog.stats(name)
        return stats


#: Fallback selectivities when no statistics apply.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_OTHER_SELECTIVITY = 0.5


def column_ndv(catalog: TableSource, ref: ColumnRef) -> Optional[int]:
    """Distinct-value count when the ref bottoms out at a base-table column."""
    box = ref.quantifier.box
    column = ref.column
    # Chase simple projections down to a base table.
    for _ in range(16):
        if isinstance(box, BaseTableBox):
            stats = catalog.stats(box.table_name)
            return max(1, stats.column(column).n_distinct)
        if isinstance(box, (SelectBox, GroupByBox, OuterJoinBox)):
            output = next((o for o in box.outputs if o.name == column), None)
            if output is None or not isinstance(output.expr, ColumnRef):
                return None
            box = output.expr.quantifier.box
            column = output.expr.column
            continue
        return None
    return None


def predicate_selectivity(catalog: TableSource, predicate: ast.Expr) -> float:
    """Estimated fraction of rows satisfying ``predicate``."""
    if expr_facts(predicate).subqueries:
        return DEFAULT_OTHER_SELECTIVITY
    if isinstance(predicate, ast.Comparison):
        if predicate.op == "=":
            left_ndv = (
                column_ndv(catalog, predicate.left)
                if isinstance(predicate.left, ColumnRef)
                else None
            )
            right_ndv = (
                column_ndv(catalog, predicate.right)
                if isinstance(predicate.right, ColumnRef)
                else None
            )
            candidates = [n for n in (left_ndv, right_ndv) if n]
            if candidates:
                return 1.0 / max(candidates)
            return DEFAULT_EQ_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY
    if isinstance(predicate, ast.InList):
        base = predicate_selectivity(
            catalog, ast.Comparison("=", predicate.operand, predicate.items[0])
        )
        return min(1.0, base * len(predicate.items))
    if isinstance(predicate, (ast.Like, ast.Between)):
        return DEFAULT_RANGE_SELECTIVITY
    if isinstance(predicate, ast.And):
        result = 1.0
        for item in predicate.items:
            result *= predicate_selectivity(catalog, item)
        return result
    if isinstance(predicate, ast.Or):
        result = 0.0
        for item in predicate.items:
            result += predicate_selectivity(catalog, item)
        return min(1.0, result)
    return DEFAULT_OTHER_SELECTIVITY


def estimate_box_rows(catalog: TableSource, box: Box, memo: Optional[dict] = None) -> float:
    """Estimated output cardinality of a box: a function of the box alone
    (the graph is acyclic), whoever asks. ``memo`` (box id -> estimate,
    :attr:`GraphFacts.rows <repro.qgm.analysis.GraphFacts>`) serves the
    calls over one graph nobody mutates meanwhile."""
    if memo is None:
        memo = {}
    if box.id not in memo:
        memo[box.id] = _derive_rows(catalog, box, memo)
    return memo[box.id]


def _derive_rows(catalog: TableSource, box: Box, memo: dict[int, float]) -> float:
    if isinstance(box, BaseTableBox):
        return float(max(1, catalog.stats(box.table_name).row_count))
    if isinstance(box, SelectBox):
        rows = 1.0
        for q in box.quantifiers:
            rows *= estimate_box_rows(catalog, q.box, memo)
        for predicate in box.predicates:
            rows *= predicate_selectivity(catalog, predicate)
        if box.distinct:
            rows = max(1.0, rows * 0.9)
        return max(1.0, rows)
    if isinstance(box, GroupByBox):
        input_rows = estimate_box_rows(catalog, box.quantifier.box, memo)
        if box.is_scalar:
            return 1.0
        ndv_product = 1.0
        known = False
        for group in box.group_by:
            if isinstance(group, ColumnRef):
                ndv = column_ndv(catalog, group)
                if ndv is not None:
                    ndv_product *= ndv
                    known = True
        if known:
            return max(1.0, min(input_rows, ndv_product))
        return max(1.0, input_rows ** 0.5)
    if isinstance(box, SetOpBox):
        total = sum(estimate_box_rows(catalog, q.box, memo) for q in box.quantifiers)
        return max(1.0, total)
    if isinstance(box, OuterJoinBox):
        left = estimate_box_rows(catalog, box.preserved.box, memo)
        right = estimate_box_rows(catalog, box.null_producing.box, memo)
        selectivity = (
            predicate_selectivity(catalog, box.condition)
            if box.condition is not None
            else 1.0
        )
        return max(left, left * right * selectivity)
    return 1000.0
