"""QGM consistency validation.

The paper (section 3) requires that "each rule application should leave the
QGM in a consistent state, because the query rewrite phase may be terminated
at any point". This validator defines what *consistent* means for this
engine and is called by tests after every individual rewrite step.

Checked invariants:

1. every quantifier's box is reachable and each quantifier is owned by
   exactly one box;
2. every ColumnRef targets an existing output column of its quantifier's box;
3. every ColumnRef's quantifier is *visible* at the point of use: owned by
   the box containing the expression, or by an ancestor box (a correlation);
4. GroupBy boxes only aggregate over their single input quantifier and every
   output is a group expression or an aggregate;
5. SetOp arms have matching arities;
6. output column names are unique within a box;
7. base tables referenced by BaseTableBox exist in the catalog (if given).
"""

from __future__ import annotations

from typing import Optional

from ..errors import QGMConsistencyError
from ..sql import ast
from ..storage.catalog import Catalog
from .analysis import GraphFacts
from .builder import expr_equal
from .expr import contains_aggregate, expr_facts
from .model import (
    BaseTableBox,
    Box,
    GroupByBox,
    QueryGraph,
    SelectBox,
    SetOpBox,
)


def _fail(box: Box, message: str) -> None:
    raise QGMConsistencyError(f"box {box.id} ({box.kind}): {message}")


def validate_graph(
    graph: QueryGraph | Box, catalog: Optional[Catalog] = None
) -> GraphFacts:
    """Validate the whole graph; raises :class:`QGMConsistencyError`.

    Returns the table of the graph's facts the validation read, valid until
    somebody mutates the graph: the compile step plans the final graph with
    the table of its final validation (DESIGN section 19)."""
    root = graph.root if isinstance(graph, QueryGraph) else graph
    # One walk: validation runs at bind, at the end and, under
    # REPRO_VALIDATE, after every rewrite step.
    facts = GraphFacts(root)

    # ``owner`` keeps the first box to claim a quantifier; any other box
    # holding it is the second owner.
    for box in facts.boxes:
        for q in box.child_quantifiers():
            if facts.owner[id(q)] is not box:
                _fail(box, f"quantifier {q.name} owned by two boxes")

    target_names: dict[int, frozenset[str]] = {}
    visible: dict[int, set[int]] = {}
    for box in facts.boxes:
        _validate_box(box, facts, target_names, visible, catalog)

    if isinstance(graph, QueryGraph):
        n_outputs = len(root.output_names())
        for position, _ in graph.order_by:
            if not 0 <= position < n_outputs:
                raise QGMConsistencyError(
                    f"ORDER BY position {position} out of range"
                )
    return facts


def _validate_box(
    box: Box,
    facts: GraphFacts,
    target_names: dict[int, frozenset[str]],
    visible: dict[int, set[int]],
    catalog: Optional[Catalog],
) -> None:
    """``target_names`` and ``visible`` are the memos :func:`validate_graph`
    keeps for the whole graph: a target box's output names, and
    :func:`_visible_quantifiers`."""
    names = box.output_names()
    if len(set(names)) != len(names):
        _fail(box, f"duplicate output names: {names}")

    if isinstance(box, BaseTableBox):
        if catalog is not None:
            if not catalog.has_table(box.table_name):
                _fail(box, f"unknown base table {box.table_name!r}")
            schema_names = catalog.table(box.table_name).schema.names()
            if box.column_names != schema_names:
                _fail(box, "column list does not match table schema")
        return

    if isinstance(box, SetOpBox):
        if len(box.quantifiers) < 2:
            _fail(box, "set operation needs at least two inputs")
        arity = len(box.output_names())
        for q in box.quantifiers:
            if len(q.box.output_names()) != arity:
                _fail(box, "set operation arm arity mismatch")
        return

    # Expression-bearing boxes: check refs.
    seen = _visible_quantifiers(box, facts.parents, visible)
    for expr in box.own_exprs():
        for ref in expr_facts(expr).refs:
            if id(ref.quantifier) not in facts.owner:
                _fail(box, f"ref {ref!r} to unreachable quantifier")
            if id(ref.quantifier) not in seen:
                _fail(
                    box,
                    f"ref {ref!r} to quantifier not visible here "
                    "(neither own nor ancestor)",
                )
            target = ref.quantifier.box
            if target.id not in target_names:
                target_names[target.id] = frozenset(target.output_names())
            if ref.column not in target_names[target.id]:
                _fail(
                    box,
                    f"ref {ref!r}: no such output column on box "
                    f"{target.id}",
                )

    if isinstance(box, GroupByBox):
        for group in box.group_by:
            if contains_aggregate(group):
                _fail(box, "aggregate call in GROUP BY expression")
        for output in box.outputs:
            if contains_aggregate(output.expr):
                if not isinstance(output.expr, ast.AggregateCall):
                    _fail(box, "aggregates must be top-level output expressions")
            elif not any(expr_equal(output.expr, g) for g in box.group_by):
                _fail(
                    box,
                    f"output {output.name!r} is neither an aggregate nor "
                    "a grouping expression",
                )
    if isinstance(box, SelectBox):
        for predicate in box.predicates:
            if contains_aggregate(predicate):
                _fail(box, "aggregate call in SPJ predicate")
        for output in box.outputs:
            if contains_aggregate(output.expr):
                _fail(box, "aggregate call in SPJ output")


def _visible_quantifiers(
    box: Box, parents: dict[int, list[Box]], memo: dict[int, set[int]]
) -> set[int]:
    """Quantifier ids visible inside ``box``: its own plus all ancestors'.

    With shared boxes (post-rewrite DAGs) a box can have several parents; a
    quantifier is visible if *some* ancestor chain provides it, so visibility
    is the union over all parents. ``memo`` holds each box's set, so every
    parent's is computed once for the whole graph.
    """
    visible = memo.get(box.id)
    if visible is None:
        visible = memo[box.id] = {id(q) for q in box.child_quantifiers()}
        for parent in parents.get(box.id, ()):
            visible |= _visible_quantifiers(parent, parents, memo)
    return visible
