"""Query Graph Model (QGM) -- the Starburst query representation.

The QGM (Pirahesh, Hellerstein, Hasan: "Extensible/Rule Based Query Rewrite
Optimization in Starburst", SIGMOD 1992) represents a query as a graph of
*boxes* (SELECT/SPJ, GROUP BY, UNION, outer join, base table) connected by
*quantifiers* (the paper's "iterators"). Rewrite rules -- in particular
magic decorrelation -- operate on this graph one box at a time.
"""

from .expr import (
    BoxExists,
    BoxInSubquery,
    BoxQuantifiedComparison,
    BoxScalarSubquery,
    ColumnRef,
    box_subquery_exprs,
    column_refs,
    contains_aggregate,
    replace_column_refs,
    transform_expr,
)
from .model import (
    BaseTableBox,
    Box,
    GroupByBox,
    OuterJoinBox,
    OutputColumn,
    Quantifier,
    QueryGraph,
    SelectBox,
    SetOpBox,
)
from .builder import build_qgm
from .analysis import iter_boxes, parent_edges
from .validate import validate_graph
from .pretty import graph_to_text

__all__ = [
    "ColumnRef",
    "BoxScalarSubquery",
    "BoxExists",
    "BoxInSubquery",
    "BoxQuantifiedComparison",
    "transform_expr",
    "replace_column_refs",
    "column_refs",
    "box_subquery_exprs",
    "contains_aggregate",
    "Box",
    "SelectBox",
    "GroupByBox",
    "SetOpBox",
    "OuterJoinBox",
    "BaseTableBox",
    "Quantifier",
    "OutputColumn",
    "QueryGraph",
    "build_qgm",
    "iter_boxes",
    "parent_edges",
    "validate_graph",
    "graph_to_text",
]
