"""Shared analysis for the decorrelation rewrites.

* recognising the *scalar aggregate subquery* pattern all three historical
  methods require (GroupBy box with no grouping columns over an SPJ box);
* the null-rejection analysis that decides whether magic decorrelation needs
  a left outer join (COUNT bug removal) or can use a plain join -- the paper
  notes "none of the queries required the use of an outer-join during
  decorrelation, so we use a normal join instead";
* equality-correlation extraction for Kim's method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...errors import NotApplicableError
from ...qgm.analysis import GraphFacts, external_column_refs
from ...qgm.expr import (
    BoxScalarSubquery,
    ColumnRef,
    expr_facts,
)
from ...qgm.model import (
    BaseTableBox,
    Box,
    GroupByBox,
    SelectBox,
    SetOpBox,
)
from ...sql import ast


@dataclass
class ScalarAggPattern:
    """A correlated scalar aggregate subquery: GroupBy (no grouping) over SPJ.

    ``wrapper`` covers the shape ``SELECT 0.2 * avg(x) ...`` (the paper's
    Query 2): a pure-projection SPJ box over the scalar GroupBy, whose single
    output expression is re-applied on top of the decorrelated value.
    """

    node: BoxScalarSubquery
    group_box: GroupByBox
    spj: SelectBox
    #: aggregate output names that are COUNTs (need COALESCE after LOJ)
    count_outputs: list[str]
    wrapper: Optional[SelectBox] = None


def match_scalar_agg(node: BoxScalarSubquery) -> Optional[ScalarAggPattern]:
    """Match the Figure-1 shape; returns None when the subquery is anything
    else (plain SELECT, UNION, grouped aggregate, ...)."""
    box = node.box
    wrapper: Optional[SelectBox] = None
    if (
        isinstance(box, SelectBox)
        and len(box.quantifiers) == 1
        and not box.predicates
        and not box.distinct
        and len(box.outputs) == 1
        and isinstance(box.quantifiers[0].box, GroupByBox)
        and not expr_facts(box.outputs[0].expr).subqueries
    ):
        wrapper = box
        box = box.quantifiers[0].box
    if not isinstance(box, GroupByBox) or not box.is_scalar:
        return None
    child = box.quantifier.box
    if not isinstance(child, SelectBox):
        return None
    counts = [
        output.name
        for output in box.outputs
        if isinstance(output.expr, ast.AggregateCall) and output.expr.is_count
    ]
    return ScalarAggPattern(node, box, child, counts, wrapper)


def subquery_nodes_in(box: SelectBox) -> list[ast.Expr]:
    """All subquery expression nodes in the box's predicates and outputs."""
    return [node for expr in box.own_exprs() for node in expr_facts(expr).subqueries]


# -- null-rejection analysis -----------------------------------------------------

#: Node types through which a NULL scalar value still yields UNKNOWN (and is
#: therefore filtered by WHERE): the value cannot "escape" as TRUE.
_NULL_REJECTING_PARENTS = (
    ast.Comparison,
    ast.BinaryOp,
    ast.UnaryMinus,
    ast.Not,
    ast.And,
    ast.Between,
    ast.Like,
)


def _paths_to_node(expr: ast.Expr, target: ast.Expr) -> list[list[ast.Expr]]:
    """All root-to-target ancestor chains inside one expression tree."""
    paths: list[list[ast.Expr]] = []

    def walk(node: ast.Expr, trail: list[ast.Expr]) -> None:
        if node is target:
            paths.append(list(trail))
            return
        for child in node.children():
            walk(child, trail + [node])

    walk(expr, [])
    return paths


def node_use_is_null_rejecting(box: SelectBox, node: ast.Expr) -> bool:
    """True when every use of ``node`` in ``box`` filters the row whenever
    the node's value is NULL.

    Uses in output expressions are never null-rejecting (the NULL must be
    *returned*). In predicates, a use is null-rejecting when every ancestor
    on the path is arithmetic/comparison/NOT/AND -- an OR, IS NULL, COALESCE
    or IN-list could turn UNKNOWN into TRUE or a value.
    """
    for output in box.outputs:
        if any(n is node for n in expr_facts(output.expr).subqueries):
            return False
    found = False
    for predicate in box.predicates:
        for path in _paths_to_node(predicate, node):
            found = True
            for ancestor in path:
                if not isinstance(ancestor, _NULL_REJECTING_PARENTS):
                    return False
    return found


# -- equality-correlation extraction (Kim / linearity checks) ---------------------


@dataclass
class EqualityCorrelation:
    """One conjunct ``inner_col = outer_col`` inside the subquery's SPJ."""

    predicate: ast.Expr
    inner: ColumnRef  # over a quantifier of the subquery SPJ
    outer: ColumnRef  # over a quantifier of the outer box


def extract_equality_correlations(
    spj: SelectBox, outer: SelectBox
) -> Optional[list[EqualityCorrelation]]:
    """Split the SPJ's predicates into pure-inner ones and simple equality
    correlations to ``outer``. Returns None when any correlated reference
    occurs outside such an equality (Kim's method then does not apply)."""
    outer_ids = {id(q) for q in outer.quantifiers}
    inner_ids = {id(q) for q in spj.quantifiers}
    correlations: list[EqualityCorrelation] = []
    for predicate in spj.predicates:
        if not any(id(r.quantifier) in outer_ids for r in expr_facts(predicate).refs):
            continue
        if (
            isinstance(predicate, ast.Comparison)
            and predicate.op == "="
            and isinstance(predicate.left, ColumnRef)
            and isinstance(predicate.right, ColumnRef)
        ):
            left, right = predicate.left, predicate.right
            if id(left.quantifier) in inner_ids and id(right.quantifier) in outer_ids:
                correlations.append(EqualityCorrelation(predicate, left, right))
                continue
            if id(right.quantifier) in inner_ids and id(left.quantifier) in outer_ids:
                correlations.append(EqualityCorrelation(predicate, right, left))
                continue
        return None
    # Correlated refs elsewhere (outputs, nested subqueries) also disqualify.
    for _, ref in external_column_refs(spj):
        if id(ref.quantifier) in outer_ids and not any(
            c.outer.same(ref) or c.inner.same(ref) for c in correlations
        ):
            # The ref must occur inside one of the matched predicates.
            matched = any(
                any(n is ref for n in expr_facts(c.predicate).refs)
                for c in correlations
            )
            if not matched:
                return None
    return correlations


def require_linear(
    graph_root: Box, method: str, facts: Optional[GraphFacts] = None
) -> None:
    """Kim's and Dayal's methods handle only *linear* queries: no set
    operations anywhere (the paper's Query 3 disqualifies both). ``facts``
    is a table of the graph, when the caller has one."""
    for box in (facts or GraphFacts(graph_root)).boxes:
        if isinstance(box, SetOpBox):
            raise NotApplicableError(
                method, "query is not linear (contains a set operation)"
            )


@dataclass
class OuterAggSubquery:
    """The single correlated scalar-agg subquery of a linear outer block --
    the common applicability requirement of Kim's and Dayal's methods."""

    outer: SelectBox
    predicate: ast.Expr  # the conjunct containing the subquery node
    pattern: ScalarAggPattern
    correlations: list[EqualityCorrelation]
    #: The boxes whose quantifiers range over ``outer``, read before the
    #: rewrite changes anything.
    parents: list[Box]


def match_outer_agg_subquery(
    root: Box, method: str, require_equality: bool = True
) -> OuterAggSubquery:
    """Match the restricted shape or raise :class:`NotApplicableError`.

    The subquery-bearing SPJ box need not be the root: the paper's Query 2
    has an aggregated outer block, so the correlated predicate sits in the
    SPJ box underneath the outer aggregation.
    """
    facts = GraphFacts(root)
    require_linear(root, method, facts)
    candidates: list[tuple[SelectBox, ast.Expr, BoxScalarSubquery]] = []
    subquery_box_ids: set[int] = set()
    for box in facts.boxes:
        if not isinstance(box, SelectBox) or box.id in subquery_box_ids:
            continue
        for predicate in box.predicates:
            for node in expr_facts(predicate).subqueries:
                if not isinstance(node, BoxScalarSubquery):
                    raise NotApplicableError(
                        method, "non-scalar (existential/universal) subquery"
                    )
                candidates.append((box, predicate, node))
                subquery_box_ids.update(b.id for b in facts.walk(node.box))
        if any(expr_facts(output.expr).subqueries for output in box.outputs):
            raise NotApplicableError(method, "subquery in the select list")
    if not candidates:
        raise NotApplicableError(method, "no correlated subquery found")
    if len(candidates) != 1:
        raise NotApplicableError(method, "more than one subquery")
    outer, predicate, node = candidates[0]
    pattern = match_scalar_agg(node)
    if pattern is None:
        raise NotApplicableError(
            method, "subquery is not a scalar aggregate over an SPJ block"
        )
    for q in outer.quantifiers:
        if not isinstance(q.box, BaseTableBox):
            raise NotApplicableError(method, "outer block is not over base tables")
        if facts.outer_refs(q.box):
            raise NotApplicableError(method, "correlated table expression")
    for q in pattern.spj.quantifiers:
        if not isinstance(q.box, BaseTableBox):
            raise NotApplicableError(
                method, "subquery FROM clause is not over base tables"
            )
    if subquery_nodes_in(pattern.spj):
        raise NotApplicableError(method, "nested subquery below the aggregate")
    correlations = extract_equality_correlations(pattern.spj, outer)
    if correlations is None:
        if require_equality:
            raise NotApplicableError(
                method, "correlation predicate is not a simple equality"
            )
        correlations = []
    if require_equality and not correlations:
        raise NotApplicableError(method, "subquery is not correlated")
    return OuterAggSubquery(
        outer, predicate, pattern, correlations, facts.parents.get(outer.id, [])
    )
