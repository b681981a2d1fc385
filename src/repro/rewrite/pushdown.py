"""Predicate pushdown.

A classic Starburst-family rewrite that complements SPJ merging: predicates
of an SPJ box that reference a single quantifier move *into* the box that
quantifier ranges over, filtering earlier:

* into a DISTINCT SPJ child (filter before duplicate elimination);
* through a GROUP BY, when the predicate touches only grouping columns;
* into every arm of a set operation.

All three are semantics-preserving for the respective shapes; each
application leaves the QGM consistent (section 3's contract), which the
property suite verifies. Decorrelated plans benefit directly: filters that
end up above a BugRemoval join or a magic DISTINCT migrate below them.
"""

from __future__ import annotations

from typing import Optional

from ..qgm.analysis import GraphFacts
from ..qgm.expr import ColumnRef, expr_facts, replace_column_refs
from ..qgm.model import (
    Box,
    GroupByBox,
    OutputColumn,
    QueryGraph,
    SelectBox,
    SetOpBox,
)
from ..sql import ast


def _single_quantifier_pred(box: SelectBox, predicate: ast.Expr):
    """The one quantifier of ``box`` the predicate references, if exactly
    one, the predicate is subquery-free, and no outer references occur."""
    facts = expr_facts(predicate)
    if facts.subqueries:
        return None
    quantifiers = {id(ref.quantifier): ref.quantifier for ref in facts.refs}
    own = {id(q) for q in box.quantifiers}
    if len(quantifiers) != 1 or not set(quantifiers) <= own:
        return None
    return next(iter(quantifiers.values()))


def _rewrite_to_outputs(
    predicate: ast.Expr, quantifier, outputs: list[OutputColumn]
) -> Optional[ast.Expr]:
    """Translate a predicate over ``quantifier`` into one over the target
    box's *input* expressions by inlining output definitions."""
    exprs = {o.name: o.expr for o in outputs}

    failed = []

    def substitute(ref: ColumnRef):
        if ref.quantifier is quantifier:
            replacement = exprs.get(ref.column)
            if replacement is None:
                failed.append(ref)
                return None
            return replacement
        return None

    rewritten = replace_column_refs(predicate, substitute)
    return None if failed else rewritten


def _push_into(child: Box, predicate: ast.Expr, quantifier) -> bool:
    """Try to sink one predicate into ``child``; True when it moved."""
    if isinstance(child, SelectBox):
        # Only useful for DISTINCT children (plain SPJ children are merged
        # by merge_spj_boxes); but pushing is correct either way.
        rewritten = _rewrite_to_outputs(predicate, quantifier, child.outputs)
        if rewritten is None:
            return False
        child.predicates.append(rewritten)
        return True
    if isinstance(child, GroupByBox):
        # Legal only over grouping columns; translate two levels down into
        # the GroupBy's input box when that is an SPJ.
        grouped = {
            o.name: o.expr
            for o in child.outputs
            if not isinstance(o.expr, ast.AggregateCall)
        }
        if not all(
            ref.column in grouped
            for ref in expr_facts(predicate).refs if ref.quantifier is quantifier
        ):
            return False
        gq_level = _rewrite_to_outputs(predicate, quantifier, child.outputs)
        if gq_level is None:
            return False
        input_box = child.quantifier.box
        if not isinstance(input_box, SelectBox) or input_box.distinct:
            return False
        pushed = _rewrite_to_outputs(gq_level, child.quantifier, input_box.outputs)
        if pushed is None:
            return False
        input_box.predicates.append(pushed)
        return True
    if isinstance(child, SetOpBox):
        names = child.output_names()
        rewritten_per_arm = []
        for q in child.quantifiers:
            arm = q.box
            if not isinstance(arm, SelectBox):
                return False
            arm_outputs = [
                OutputColumn(name, arm.outputs[i].expr)
                for i, name in enumerate(names)
            ]
            rewritten = _rewrite_to_outputs(predicate, quantifier, arm_outputs)
            if rewritten is None:
                return False
            rewritten_per_arm.append((arm, rewritten))
        for arm, rewritten in rewritten_per_arm:
            arm.predicates.append(rewritten)
        return True
    return False


def push_down_predicates(
    graph: QueryGraph, facts: Optional[GraphFacts] = None
) -> bool:
    """One pass of predicate pushdown; True when anything moved. A moved
    predicate is subquery-free, so the pass never changes which box is
    whose parent, and one table of the graph serves all of it: ``facts``,
    a table of the graph as it stands, when the caller has one."""
    changed = False
    facts = facts or GraphFacts(graph.root)
    for box in facts.boxes:
        if not isinstance(box, SelectBox):
            continue
        for predicate in list(box.predicates):
            quantifier = _single_quantifier_pred(box, predicate)
            if quantifier is None:
                continue
            child = quantifier.box
            if len(facts.parents.get(child.id, ())) != 1:
                continue  # shared boxes must not grow per-parent filters
            worth_it = (
                (isinstance(child, SelectBox) and child.distinct)
                or isinstance(child, (GroupByBox, SetOpBox))
            )
            if not worth_it:
                continue
            if _push_into(child, predicate, quantifier):
                box.predicates.remove(predicate)
                changed = True
    return changed
