"""Graph traversals and correlation analysis over the QGM.

Section 4.1 of the paper: "the algorithm utilizes the following information:
(1) a list of its ancestors, (2) a list of its descendants, (3) which of its
ancestors it is correlated to, and (4) which descendant box caused each
correlation. In our implementation, this information is precomputed by a
traversal of the graph". :func:`analyze_correlations` is that traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..sql import ast
from .expr import (
    BOX_SUBQUERY_TYPES,
    ColumnRef,
    replace_column_refs,
    walk_expr,
)
from .model import (
    Box,
    GroupByBox,
    OuterJoinBox,
    SelectBox,
    SetOpBox,
)


def box_children(box: Box) -> list[Box]:
    """Direct children: boxes under this box's quantifiers plus boxes inside
    subquery expression nodes of this box's own expressions."""
    children = [q.box for q in box.child_quantifiers()]
    for expr in box.own_exprs():
        for node in walk_expr(expr):
            if isinstance(node, BOX_SUBQUERY_TYPES):
                children.append(node.box)
    return children


def iter_boxes(root: Box) -> Iterator[Box]:
    """All boxes reachable from ``root`` (deduplicated; DAG-safe), pre-order."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        box = stack.pop()
        if box.id in seen:
            continue
        seen.add(box.id)
        yield box
        stack.extend(reversed(box_children(box)))


def parent_edges(root: Box) -> dict[int, list[Box]]:
    """Map from box id to the list of parent boxes referencing it.

    A freshly-built query is a tree (every non-root box has exactly one
    parent); magic decorrelation introduces shared boxes (the supplementary
    common subexpression), making this a DAG.
    """
    parents: dict[int, list[Box]] = {root.id: []}
    for box in iter_boxes(root):
        for child in box_children(box):
            parents.setdefault(child.id, []).append(box)
    return parents


def shared_boxes(root: Box) -> frozenset[int]:
    """ids of the boxes with several parents: the common subexpressions
    whose re-execution ``cse_mode`` governs."""
    return frozenset(
        box_id
        for box_id, parents in parent_edges(root).items()
        if len(parents) > 1
    )


def quantifier_owner_map(root: Box) -> dict[int, Box]:
    """Map ``id(quantifier)`` to the box whose FROM it belongs to."""
    owners: dict[int, Box] = {}
    for box in iter_boxes(root):
        for q in box.child_quantifiers():
            owners[id(q)] = box
    return owners


def owned_quantifier_ids(box: Box) -> set[int]:
    return {id(q) for q in box.child_quantifiers()}


def external_column_refs(subtree_root: Box) -> list[tuple[Box, ColumnRef]]:
    """Correlated references of a subtree: ColumnRefs in any box of the
    subtree that target a quantifier owned by a box *outside* the subtree.

    Returns ``(containing_box, ref)`` pairs -- the containing box is the
    paper's *destination of correlation*.
    """
    boxes = list(iter_boxes(subtree_root))
    internal: set[int] = set()
    for box in boxes:
        internal |= owned_quantifier_ids(box)
    result: list[tuple[Box, ColumnRef]] = []
    for box in boxes:
        for expr in box.own_exprs():
            for node in walk_expr(expr):
                if isinstance(node, ColumnRef) and id(node.quantifier) not in internal:
                    result.append((box, node))
    return result


def is_correlated(subtree_root: Box) -> bool:
    """Does the subtree reference any quantifier outside itself?"""
    return bool(external_column_refs(subtree_root))


@dataclass
class CorrelationInfo:
    """Precomputed correlation facts for one box (paper section 4.1)."""

    box: Box
    ancestors: list[Box] = field(default_factory=list)
    descendants: list[Box] = field(default_factory=list)
    #: Ancestor boxes whose quantifiers are referenced from this subtree,
    #: i.e. the *sources of correlation*.
    correlated_to: list[Box] = field(default_factory=list)
    #: For each source-of-correlation box id: the descendant boxes that
    #: contain the correlated reference (destinations of correlation).
    caused_by: dict[int, list[Box]] = field(default_factory=dict)


def analyze_correlations(root: Box) -> dict[int, CorrelationInfo]:
    """One traversal computing the per-box facts of section 4.1."""
    owners = quantifier_owner_map(root)
    info: dict[int, CorrelationInfo] = {
        box.id: CorrelationInfo(box) for box in iter_boxes(root)
    }

    def visit(box: Box, ancestors: list[Box]) -> None:
        record = info[box.id]
        record.ancestors = list(ancestors)
        for ancestor in ancestors:
            info[ancestor.id].descendants.append(box)
        for expr in box.own_exprs():
            for node in walk_expr(expr):
                if isinstance(node, ColumnRef):
                    owner = owners.get(id(node.quantifier))
                    if owner is not None and owner is not box and owner in ancestors:
                        # ``box`` is directly correlated to ``owner``; every
                        # box between them is transitively correlated.
                        for hop in [box] + [
                            a for a in ancestors
                            if a is not owner and info[a.id] and _between(ancestors, a, owner)
                        ]:
                            hop_info = info[hop.id]
                            if owner not in hop_info.correlated_to:
                                hop_info.correlated_to.append(owner)
                            hop_info.caused_by.setdefault(owner.id, [])
                            if box not in hop_info.caused_by[owner.id]:
                                hop_info.caused_by[owner.id].append(box)
        for child in box_children(box):
            visit(child, ancestors + [box])

    def _between(ancestors: list[Box], candidate: Box, owner: Box) -> bool:
        # ancestors is ordered root..parent; a candidate lies strictly below
        # the owner when it appears after it in the list.
        return ancestors.index(candidate) > ancestors.index(owner)

    visit(root, [])
    return info


def rewrite_box_exprs(box: Box, fn: Callable[[ast.Expr], ast.Expr]) -> None:
    """Apply ``fn`` to every expression stored in ``box`` (in place)."""
    if isinstance(box, SelectBox):
        box.predicates = [fn(p) for p in box.predicates]
        for output in box.outputs:
            output.expr = fn(output.expr)
    elif isinstance(box, GroupByBox):
        box.group_by = [fn(g) for g in box.group_by]
        for output in box.outputs:
            output.expr = fn(output.expr)
    elif isinstance(box, OuterJoinBox):
        if box.condition is not None:
            box.condition = fn(box.condition)
        for output in box.outputs:
            output.expr = fn(output.expr)
    elif isinstance(box, SetOpBox):
        pass
    # BaseTableBox holds no expressions.


def rewrite_subtree_refs(
    subtree_root: Box, substitute: Callable[[ColumnRef], Optional[ast.Expr]]
) -> None:
    """Apply a ColumnRef substitution to every box in a subtree (in place).

    Used whenever a rewrite 'modifies the destination of correlation' so that
    references previously pointing at an outer quantifier now draw their
    bindings from a magic table (paper sections 4.2/4.3)."""
    for box in iter_boxes(subtree_root):
        rewrite_box_exprs(box, lambda e: replace_column_refs(e, substitute))
