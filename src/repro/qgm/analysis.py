"""Graph traversals and correlation analysis over the QGM.

Section 4.1 of the paper: "the algorithm utilizes the following information:
(1) a list of its ancestors, (2) a list of its descendants, (3) which of its
ancestors it is correlated to, and (4) which descendant box caused each
correlation. In our implementation, this information is precomputed by a
traversal of the graph". :class:`GraphFacts` is that traversal, built once
per compile stage and kept while the graph stands still -- by the
validator, whose final table the compile step plans with, the cleanup
passes and each magic rewrite step (DESIGN section 19).
What one walk of an expression finds is kept on the expression itself
(:func:`~repro.qgm.expr.expr_facts`).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator, Optional

from ..sql import ast
from .expr import ColumnRef, expr_facts, replace_column_refs
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
        children += [node.box for node in expr_facts(expr).subqueries]
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


class GraphFacts:
    """The facts of the graph under ``root`` that a compile stage reads;
    valid until somebody mutates the graph (DESIGN section 19). Each is
    derived the first time it is asked for, then kept:

    - ``boxes``: one pre-order walk, :func:`iter_boxes` order (:meth:`walk`
      is the same walk of any subtree); ``parents``
      (box id -> the boxes referencing it, one entry per reference) and
      ``owner`` (``id(quantifier)`` -> the first box, in walk order, whose
      FROM holds it) from it;
    - per box, :meth:`children` and, bottom-up, :meth:`outer_refs`; ``rows``
      is the memo of :func:`repro.plan.cost.estimate_box_rows`.

    A caller that asks about one subtree walks that subtree only.
    """

    def __init__(self, root: Box):
        self.root = root
        self.rows: dict[int, float] = {}
        self._children: dict[int, list[Box]] = {}
        self._outer_refs: dict[int, tuple[ColumnRef, ...]] = {}
        self._boxes: Optional[list[Box]] = None
        self._parents: Optional[dict[int, list[Box]]] = None
        self._owner: Optional[dict[int, Box]] = None

    @property
    def boxes(self) -> list[Box]:
        if self._boxes is None:
            self._boxes = self.walk(self.root)
        return self._boxes

    def walk(self, top: Box) -> list[Box]:
        """The boxes of ``top``'s subtree, :func:`iter_boxes` order."""
        boxes, seen, stack = [], set(), [top]
        while stack:
            box = stack.pop()
            if box.id not in seen:
                seen.add(box.id)
                boxes.append(box)
                stack.extend(reversed(self.children(box)))
        return boxes

    @property
    def parents(self) -> dict[int, list[Box]]:
        if self._parents is None:
            parents: dict[int, list[Box]] = {self.root.id: []}
            for box in self.boxes:
                for child in self.children(box):
                    parents.setdefault(child.id, []).append(box)
            self._parents = parents
        return self._parents

    @property
    def owner(self) -> dict[int, Box]:
        if self._owner is None:
            owner: dict[int, Box] = {}
            for box in self.boxes:
                for q in box.child_quantifiers():
                    owner.setdefault(id(q), box)
            self._owner = owner
        return self._owner

    @property
    def shared(self) -> frozenset[int]:
        """ids of the boxes with several parents: the common subexpressions
        whose re-execution ``cse_mode`` governs."""
        return frozenset(
            box_id for box_id, parents in self.parents.items() if len(parents) > 1
        )

    def children(self, box: Box) -> list[Box]:
        children = self._children.get(box.id)
        if children is None:
            children = self._children[box.id] = box_children(box)
        return children

    def outer_refs(self, box: Box) -> tuple[ColumnRef, ...]:
        """The distinct columns ``box``'s subtree reads from quantifiers
        outside itself, in a fixed order: the values whoever runs the box
        hands it, and the first slots of its row. Empty = the box is
        uncorrelated. A box composes its order from its children's, so it
        and whoever runs it agree on it by construction."""
        refs = self._outer_refs.get(box.id)
        if refs is None:
            refs = self._outer_refs[box.id] = self._derive_outer_refs(box)
        return refs

    def _derive_outer_refs(self, box: Box) -> tuple[ColumnRef, ...]:
        exprs, children = box.own_exprs(), self.children(box)
        if not exprs and not children:  # a base table reads nothing
            return ()
        owned = set(box.child_quantifiers())
        refs: dict[tuple, ColumnRef] = {}
        own = (ref for expr in exprs for ref in expr_facts(expr).refs)
        for ref in chain(own, *map(self.outer_refs, children)):
            if ref.quantifier not in owned:
                refs.setdefault((ref.quantifier, ref.column), ref)
        return tuple(refs.values())


def parent_edges(root: Box) -> dict[int, list[Box]]:
    """Map from box id to the list of parent boxes referencing it.

    A freshly-built query is a tree (every non-root box has exactly one
    parent); magic decorrelation introduces shared boxes (the supplementary
    common subexpression), making this a DAG.
    """
    return GraphFacts(root).parents


def shared_boxes(root: Box) -> frozenset[int]:
    """ids of the boxes with several parents (:attr:`GraphFacts.shared`)."""
    return GraphFacts(root).shared


def quantifier_owner_map(root: Box) -> dict[int, Box]:
    """Map ``id(quantifier)`` to the box whose FROM it belongs to."""
    return GraphFacts(root).owner


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
    return [
        (box, ref)
        for box in boxes
        for expr in box.own_exprs()
        for ref in expr_facts(expr).refs
        if id(ref.quantifier) not in internal
    ]


def is_correlated(subtree_root: Box) -> bool:
    """Does the subtree reference any quantifier outside itself?"""
    return bool(external_column_refs(subtree_root))


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
