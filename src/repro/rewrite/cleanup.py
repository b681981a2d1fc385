"""Starburst-style cleanup rewrite rules.

The paper repeatedly leans on "existing rewrite rules that merge query
blocks" to simplify the graphs its decorrelation steps produce (merging the
CI box into the CurBox, removing redundant DCO boxes -- Figures 3[d], 4[d]).
These are those rules:

* :func:`merge_spj_boxes` -- merge a single-parent, non-DISTINCT SPJ child
  into an SPJ parent (predicates concatenated, output expressions inlined);
* :func:`remove_trivial_selects` -- bypass pure-projection SPJ boxes under
  any parent kind.

Both preserve QGM consistency at every application, as section 3 requires.
Each pass reads one :class:`~repro.qgm.analysis.GraphFacts` of the graph
and builds a new one only after it has changed the graph.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..qgm.analysis import GraphFacts, rewrite_subtree_refs
from ..qgm.expr import (
    BOX_SUBQUERY_TYPES,
    ColumnRef,
    walk_expr,
)
from ..qgm.model import QueryGraph, SelectBox


def _has_subquery_outputs(box: SelectBox) -> bool:
    return any(
        isinstance(node, BOX_SUBQUERY_TYPES)
        for output in box.outputs
        for node in walk_expr(output.expr)
    )


def merge_spj_boxes(graph: QueryGraph) -> bool:
    """One pass of SPJ-into-SPJ merging; returns True when anything merged."""
    changed = False
    facts = current = GraphFacts(graph.root)
    for parent in facts.boxes:
        if not isinstance(parent, SelectBox):
            continue
        for q in list(parent.quantifiers):
            child = q.box
            if not isinstance(child, SelectBox):
                continue
            if child.distinct or _has_subquery_outputs(child):
                continue
            if current is None:
                current = GraphFacts(graph.root)
            if len(current.parents.get(child.id, ())) != 1:
                continue
            # Never merge an uncorrelated child into a correlated parent:
            # the child is a materialise-once boundary (the decorrelated
            # subquery probed by a CI box) and merging would re-correlate it.
            if not current.outer_refs(child) and current.outer_refs(parent):
                continue
            _merge_child(graph, parent, q, child)
            changed = True
            current = None
    return changed


def _merge_child(graph: QueryGraph, parent: SelectBox, q, child: SelectBox) -> None:
    output_exprs = {output.name: output.expr for output in child.outputs}

    def substitute(ref: ColumnRef):
        if ref.quantifier is q:
            return output_exprs[ref.column]
        return None

    rewrite_subtree_refs(parent, substitute)
    position = parent.quantifiers.index(q)
    parent.quantifiers[position : position + 1] = child.quantifiers
    parent.predicates.extend(child.predicates)


def remove_trivial_selects(graph: QueryGraph) -> bool:
    """Bypass SPJ boxes that only rename/project a single input."""
    changed = False
    facts = current = GraphFacts(graph.root)
    for owner in facts.boxes:
        for q in owner.child_quantifiers():
            child = q.box
            if not isinstance(child, SelectBox):
                continue
            if child.distinct or child.predicates or len(child.quantifiers) != 1:
                continue
            if not all(
                isinstance(output.expr, ColumnRef)
                and output.expr.quantifier is child.quantifiers[0]
                for output in child.outputs
            ):
                continue
            if current is None:
                current = GraphFacts(graph.root)
            if len(current.parents.get(child.id, ())) != 1:
                continue
            column_map = {
                output.name: output.expr.column for output in child.outputs
            }
            grandchild = child.quantifiers[0].box

            def substitute(ref: ColumnRef):
                if ref.quantifier is q:
                    return ColumnRef(q, column_map[ref.column])
                return None

            rewrite_subtree_refs(owner, substitute)
            q.box = grandchild
            changed = True
            current = None
    return changed


def run_cleanup(
    graph: QueryGraph,
    on_step: Optional[Callable[[str, QueryGraph], None]] = None,
    max_rounds: int = 32,
) -> QueryGraph:
    """Run cleanup rules to fixpoint (bounded); returns the same graph."""
    from .pushdown import push_down_predicates

    for _ in range(max_rounds):
        changed = merge_spj_boxes(graph)
        if on_step is not None and changed:
            on_step("merge_spj", graph)
        removed = remove_trivial_selects(graph)
        if on_step is not None and removed:
            on_step("remove_trivial", graph)
        pushed = push_down_predicates(graph)
        if on_step is not None and pushed:
            on_step("push_down_predicates", graph)
        if not (changed or removed or pushed):
            break
    return graph
