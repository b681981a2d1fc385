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
and builds a new one only after it has changed the graph; a pass that
changed nothing hands its table to the next (:func:`run_cleanup`).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..qgm.analysis import GraphFacts, rewrite_subtree_refs
from ..qgm.expr import ColumnRef, expr_facts
from ..qgm.model import QueryGraph, SelectBox


def _has_subquery_outputs(box: SelectBox) -> bool:
    return any(expr_facts(output.expr).subqueries for output in box.outputs)


def merge_spj_boxes(graph: QueryGraph, facts: Optional[GraphFacts] = None) -> bool:
    """One pass of SPJ-into-SPJ merging; returns True when anything merged.
    ``facts`` is a table of the graph as it stands, when the caller has
    one."""
    changed = False
    facts = current = facts or GraphFacts(graph.root)
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


def remove_trivial_selects(
    graph: QueryGraph, facts: Optional[GraphFacts] = None
) -> bool:
    """Bypass SPJ boxes that only rename/project a single input; ``facts``
    as for :func:`merge_spj_boxes`."""
    changed = False
    facts = current = facts or GraphFacts(graph.root)
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
    """Run cleanup rules to fixpoint (bounded); returns the same graph.

    A pass that changed nothing leaves the graph as its table describes it,
    so it hands that table to the next pass, into the next round too: a
    round in which nothing changes builds at most one table."""
    from .pushdown import push_down_predicates

    passes = (
        ("merge_spj", merge_spj_boxes),
        ("remove_trivial", remove_trivial_selects),
        ("push_down_predicates", push_down_predicates),
    )
    facts: Optional[GraphFacts] = None
    for _ in range(max_rounds):
        quiet = True
        for description, rule in passes:
            facts = facts or GraphFacts(graph.root)
            if rule(graph, facts):
                quiet, facts = False, None
                if on_step is not None:
                    on_step(description, graph)
        if quiet:
            break
    return graph
