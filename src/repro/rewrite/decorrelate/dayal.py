"""Dayal's method (Dayal 1987, as characterised in section 2 of the paper).

The outer block and the correlated aggregate subquery merge into a single
block: the outer tables are LEFT-OUTER-JOINed with the subquery's tables on
the correlation predicate, grouped by a key of the outer block, and the
subquery comparison becomes a HAVING predicate. The left outer join (plus
counting a never-NULL inner column) avoids the COUNT bug.

Faithfully reproduced weaknesses (section 2):

* the join of *all* involved relations happens before aggregation -- on the
  paper's Query 2 this joins the outer LINEITEM too, which is why Dayal is
  orders of magnitude slower there;
* aggregate computation repeats per outer row when the correlation column
  is not a key;
* only linear SELECT/GROUP BY queries qualify, and the outer block must have
  a key to group on (we require declared primary keys on its base tables).
"""

from __future__ import annotations

from typing import Callable, Optional

from ...errors import NotApplicableError
from ...qgm.expr import ColumnRef, expr_facts, replace_column_refs
from ...qgm.model import (
    Box,
    GroupByBox,
    OuterJoinBox,
    OutputColumn,
    Quantifier,
    QueryGraph,
    SelectBox,
)
from ...sql import ast
from ...storage.catalog import Catalog
from ..cleanup import run_cleanup
from .common import match_outer_agg_subquery
from .kim import _value_expression

StepHook = Optional[Callable[[str, QueryGraph], None]]


def apply_dayal(
    graph: QueryGraph, catalog: Catalog, on_step: StepHook = None
) -> QueryGraph:
    """Apply Dayal's method or raise :class:`NotApplicableError`."""
    match = match_outer_agg_subquery(graph.root, "Dayal", require_equality=False)
    outer = match.outer
    pattern = match.pattern
    spj = pattern.spj
    group_box = pattern.group_box

    # The outer block needs a key to group on: require declared primary keys.
    for q in outer.quantifiers:
        table = catalog.table(q.box.table_name)
        if not table.schema.primary_key:
            raise NotApplicableError(
                "Dayal", f"outer table {table.name!r} has no key to group on"
            )

    # 1. Split the subquery's predicates: correlated ones move to the outer
    # join condition, the rest stay with the subquery tables.
    outer_ids = {id(q) for q in outer.quantifiers}
    corr_preds: list[ast.Expr] = []
    inner_preds: list[ast.Expr] = []
    for predicate in spj.predicates:
        if any(id(r.quantifier) in outer_ids for r in expr_facts(predicate).refs):
            corr_preds.append(predicate)
        else:
            inner_preds.append(predicate)

    # 2. Preserved side: the outer block minus the subquery predicate.
    ob = SelectBox(quantifiers=list(outer.quantifiers))
    subquery_pred = match.predicate
    ob.predicates = [p for p in outer.predicates if p is not subquery_pred]
    ob_columns: dict[tuple[int, str], str] = {}
    used: set[str] = set()
    for q in ob.quantifiers:
        for column in q.box.output_names():
            name = f"{q.name}_{column}"
            counter = 1
            while name in used:
                name = f"{q.name}_{column}_{counter}"
                counter += 1
            used.add(name)
            ob.outputs.append(OutputColumn(name, q.ref(column)))
            ob_columns[(id(q), column)] = name

    # 3. Null-producing side: the subquery SPJ with its inner predicates,
    # plus a never-NULL marker column for COUNT(*) (the "E.[key]" trick).
    spj.predicates = inner_preds
    marker = "dayal_one"
    counter = 1
    while marker in set(spj.output_names()):
        marker = f"dayal_one_{counter}"
        counter += 1
    spj.outputs.append(OutputColumn(marker, ast.Literal(1)))

    # 4. The left outer join on the correlation predicates.
    ob_q = Quantifier.fresh(ob, "dob")
    qb_q = Quantifier.fresh(spj, "dqb")

    def to_join_refs(expr: ast.Expr) -> ast.Expr:
        def substitute(ref: ColumnRef):
            if id(ref.quantifier) in outer_ids:
                return ColumnRef(ob_q, ob_columns[(id(ref.quantifier), ref.column)])
            if ref.quantifier in spj.quantifiers:
                # Route inner refs through the SPJ's outputs, adding one if
                # the column is not yet exposed.
                for output in spj.outputs:
                    if isinstance(output.expr, ColumnRef) and output.expr.same(ref):
                        return ColumnRef(qb_q, output.name)
                name = f"dayal_{ref.column}"
                inner_counter = 1
                while name in set(spj.output_names()):
                    name = f"dayal_{ref.column}_{inner_counter}"
                    inner_counter += 1
                spj.outputs.append(OutputColumn(name, ref))
                return ColumnRef(qb_q, name)
            return None

        return replace_column_refs(expr, substitute)

    condition_parts = [to_join_refs(p) for p in corr_preds]
    condition = None
    if condition_parts:
        condition = (
            condition_parts[0]
            if len(condition_parts) == 1
            else ast.And(tuple(condition_parts))
        )
    oj_outputs = [OutputColumn(o.name, ob_q.ref(o.name)) for o in ob.outputs]
    oj_outputs += [OutputColumn(o.name, qb_q.ref(o.name)) for o in spj.outputs]
    oj = OuterJoinBox(ob_q, qb_q, condition, oj_outputs)
    if on_step is not None:
        on_step("dayal: merge blocks with left outer join", graph)

    # 5. Group by every outer column (the outer keys make groups = rows) and
    # recompute the subquery's aggregates over the inner side.
    gq = Quantifier.fresh(oj, "dgrp")
    grouped = GroupByBox(gq)
    grouped.group_by = [gq.ref(o.name) for o in ob.outputs]
    grouped.outputs = [OutputColumn(o.name, gq.ref(o.name)) for o in ob.outputs]
    value_cols: dict[str, str] = {}
    for output in group_box.outputs:
        agg = output.expr
        assert isinstance(agg, ast.AggregateCall)
        if agg.argument is None:
            argument: Optional[ast.Expr] = gq.ref(marker)
        else:
            # The builder normalised the argument to a ref over an SPJ output.
            assert isinstance(agg.argument, ColumnRef)
            argument = gq.ref(agg.argument.column)
        name = output.name
        counter = 1
        while name in {o.name for o in grouped.outputs}:
            name = f"{output.name}_{counter}"
            counter += 1
        grouped.outputs.append(
            OutputColumn(name, ast.AggregateCall(agg.func, argument, agg.distinct))
        )
        value_cols[output.name] = name
    if on_step is not None:
        on_step("dayal: group by the outer block's key", graph)

    # 6. Top block: the subquery comparison (HAVING) plus the original
    # outputs, all rerouted through the grouped box.
    top = SelectBox(distinct=outer.distinct)
    tq = Quantifier.fresh(grouped, "dtop")
    top.quantifiers = [tq]
    value_expr = _value_expression(pattern, tq, value_cols)

    def reroute(expr: ast.Expr) -> ast.Expr:
        def node_sub(n: ast.Expr):
            if n is pattern.node:
                return value_expr
            if isinstance(n, ColumnRef) and id(n.quantifier) in outer_ids:
                return ColumnRef(tq, ob_columns[(id(n.quantifier), n.column)])
            return None

        from ...qgm.expr import transform_expr

        return transform_expr(expr, node_sub)

    top.predicates = [reroute(subquery_pred)]
    top.outputs = [OutputColumn(o.name, reroute(o.expr)) for o in outer.outputs]
    if on_step is not None:
        on_step("dayal: apply subquery comparison as HAVING", graph)

    # 7. Splice the rewritten block where the outer block was.
    _replace_box(graph, outer, top, match.parents)
    run_cleanup(graph, on_step=on_step)
    return graph


def _replace_box(
    graph: QueryGraph, old: SelectBox, new: SelectBox, parents: list[Box]
) -> None:
    """Put ``new`` where ``old`` was; ``parents`` are the boxes over ``old``
    (the match's, which no step of the rewrite has changed)."""
    if graph.root is old:
        graph.root = new
        return
    for parent in parents:
        for q in parent.child_quantifiers():
            if q.box is old:
                q.box = new
    # Expression-held boxes (subquery nodes) cannot occur: the matcher
    # rejected nested subqueries around the outer block.
