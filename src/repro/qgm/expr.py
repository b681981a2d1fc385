"""Resolved expression nodes and generic expression utilities.

After binding, the parser's ``Name`` nodes become :class:`ColumnRef` nodes
(a reference to a column of a specific quantifier) and the AST subquery
expressions become ``Box*`` nodes holding a reference to a QGM box.

The generic :func:`transform_expr` walker rebuilds expression trees with a
node-level substitution function; all rewrite rules are written in terms of
it, so adding an expression node type only requires extending this module.
:func:`expr_facts` is what one walk of a bound expression finds -- its
column references, its subquery nodes, whether it aggregates -- kept on the
frozen node, so each is derived once per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Optional

from ..sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from .model import Box, Quantifier


@dataclass(frozen=True, eq=False)
class ColumnRef(ast.Expr):
    """A resolved reference to ``quantifier.column``.

    Equality is identity-based: two refs to the same quantifier/column are
    interchangeable but rewrites rely on object identity of quantifiers, so
    value comparisons go through :meth:`same`.
    """

    quantifier: "Quantifier"
    column: str

    def same(self, other: "ColumnRef") -> bool:
        return self.quantifier is other.quantifier and self.column == other.column

    def __repr__(self) -> str:
        return f"{self.quantifier.name}.{self.column}"


@dataclass(frozen=True, eq=False)
class BoxScalarSubquery(ast.Expr):
    """A scalar subquery whose body is a QGM box (must yield <= 1 row)."""

    box: "Box"


@dataclass(frozen=True, eq=False)
class BoxExists(ast.Expr):
    """``[NOT] EXISTS`` over a QGM box."""

    box: "Box"
    negated: bool = False


@dataclass(frozen=True, eq=False)
class BoxInSubquery(ast.Expr):
    """``x [NOT] IN`` over a QGM box producing a single column."""

    operand: ast.Expr
    box: "Box"
    negated: bool = False

    def children(self):
        return (self.operand,)


@dataclass(frozen=True, eq=False)
class BoxQuantifiedComparison(ast.Expr):
    """``x <op> ANY/ALL`` over a QGM box producing a single column."""

    op: str
    operand: ast.Expr
    quantifier_kind: str  # "any" | "all"
    box: "Box"

    def children(self):
        return (self.operand,)


#: Expression nodes that carry a nested QGM box.
BOX_SUBQUERY_TYPES = (
    BoxScalarSubquery,
    BoxExists,
    BoxInSubquery,
    BoxQuantifiedComparison,
)


def _respan(new: ast.Expr, old: ast.Expr) -> ast.Expr:
    span = ast.span_of(old)
    return new if span is None else ast.set_span(new, span)


class ExprFacts(NamedTuple):
    """What one walk of a bound expression finds, in pre-order
    (:func:`walk_expr` order); subquery bodies (boxes) are not entered."""

    #: Every :class:`ColumnRef` node.
    refs: tuple[ColumnRef, ...]
    #: Every ``Box*`` subquery node (:data:`BOX_SUBQUERY_TYPES`).
    subqueries: tuple[ast.Expr, ...]
    #: Does the expression hold an :class:`~repro.sql.ast.AggregateCall`?
    aggregate: bool


_NO_FACTS = ExprFacts((), (), False)


def expr_facts(expr: ast.Expr) -> ExprFacts:
    """The :class:`ExprFacts` of ``expr``, composed from its children's the
    first time they are asked for and then kept on the node, out of band as
    :func:`~repro.sql.ast.set_span` keeps a span. A node is frozen and its
    facts never reach into a box, so they are a derived field of an
    immutable value: valid for as long as the node exists."""
    facts = expr._facts
    if facts is not None:
        return facts
    if isinstance(expr, ColumnRef):
        facts = ExprFacts((expr,), (), False)
    else:
        parts = [expr_facts(child) for child in expr.children()]
        own_subquery = isinstance(expr, BOX_SUBQUERY_TYPES)
        own_aggregate = isinstance(expr, ast.AggregateCall)
        if own_subquery or own_aggregate or len(parts) > 1:
            facts = ExprFacts(
                tuple(ref for part in parts for ref in part.refs),
                ((expr,) if own_subquery else ())
                + tuple(node for part in parts for node in part.subqueries),
                own_aggregate or any(part.aggregate for part in parts),
            )
        else:  # nothing of its own: its one child's facts, or none
            facts = parts[0] if parts else _NO_FACTS
    object.__setattr__(expr, "_facts", facts)
    return facts


#: How each node type with children is rebuilt around new children, given
#: in :meth:`~repro.sql.ast.Expr.children` order. A rebuilt aggregate call
#: or subquery predicate keeps its source span: the binder reports misuse
#: of either at it.
_REBUILD: dict[type, Callable[[Any, list], ast.Expr]] = {
    ast.BinaryOp: lambda n, c: ast.BinaryOp(n.op, c[0], c[1]),
    ast.UnaryMinus: lambda n, c: ast.UnaryMinus(c[0]),
    ast.Comparison: lambda n, c: ast.Comparison(n.op, c[0], c[1]),
    ast.And: lambda n, c: ast.And(tuple(c)),
    ast.Or: lambda n, c: ast.Or(tuple(c)),
    ast.Not: lambda n, c: ast.Not(c[0]),
    ast.IsNull: lambda n, c: ast.IsNull(c[0], n.negated),
    ast.Like: lambda n, c: ast.Like(c[0], c[1], n.negated),
    ast.Between: lambda n, c: ast.Between(c[0], c[1], c[2], n.negated),
    ast.InList: lambda n, c: ast.InList(c[0], tuple(c[1:]), n.negated),
    ast.FunctionCall: lambda n, c: ast.FunctionCall(n.name, tuple(c)),
    ast.AggregateCall: lambda n, c: _respan(
        ast.AggregateCall(n.func, c[0], n.distinct), n
    ),
    ast.Case: lambda n, c: ast.Case(
        tuple(zip(c[0:2 * len(n.whens):2], c[1:2 * len(n.whens):2])),
        c[-1] if n.otherwise is not None else None,
    ),
    ast.InSubquery: lambda n, c: _respan(
        ast.InSubquery(c[0], n.query, n.negated), n
    ),
    ast.QuantifiedComparison: lambda n, c: _respan(
        ast.QuantifiedComparison(n.op, c[0], n.quantifier, n.query), n
    ),
    BoxInSubquery: lambda n, c: BoxInSubquery(c[0], n.box, n.negated),
    BoxQuantifiedComparison: lambda n, c: BoxQuantifiedComparison(
        n.op, c[0], n.quantifier_kind, n.box
    ),
}


def transform_expr(expr: ast.Expr, fn: Callable[[ast.Expr], Optional[ast.Expr]]) -> ast.Expr:
    """Rebuild ``expr`` bottom-up; ``fn`` may return a replacement node.

    ``fn`` is applied to every node *after* its children were transformed;
    returning ``None`` keeps the (possibly rebuilt) node. A node is rebuilt
    only when one of its children changed, so a subtree nothing replaced
    comes back as the same object, its :func:`expr_facts` with it.
    Subquery bodies (boxes) are not entered -- rewrites address boxes
    explicitly.
    """

    def rebuild(node: ast.Expr) -> ast.Expr:
        children = node.children()
        if children:
            new = [rebuild(child) for child in children]
            for kept, child in zip(new, children):
                if kept is not child:
                    node = _REBUILD[type(node)](node, new)
                    break
        replacement = fn(node)
        return node if replacement is None else replacement

    return rebuild(expr)


def walk_expr(expr: ast.Expr) -> Iterator[ast.Expr]:
    """Pre-order walk including box-subquery nodes (but not box bodies)."""
    yield expr
    for child in expr.children():
        yield from walk_expr(child)


def column_refs(expr: ast.Expr) -> tuple[ColumnRef, ...]:
    """All :class:`ColumnRef` nodes in ``expr`` (excluding subquery bodies)."""
    return expr_facts(expr).refs


def box_subquery_exprs(expr: ast.Expr) -> tuple[ast.Expr, ...]:
    """All ``Box*`` subquery nodes directly inside ``expr``."""
    return expr_facts(expr).subqueries


def contains_aggregate(expr: ast.Expr) -> bool:
    """Does ``expr`` contain an :class:`~repro.sql.ast.AggregateCall`?"""
    return expr_facts(expr).aggregate


def replace_column_refs(
    expr: ast.Expr, substitute: Callable[[ColumnRef], Optional[ast.Expr]]
) -> ast.Expr:
    """Replace :class:`ColumnRef` nodes; ``substitute`` returns ``None`` to keep."""

    def fn(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ColumnRef):
            return substitute(node)
        return None

    return transform_expr(expr, fn)


def conjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.And):
        result: list[ast.Expr] = []
        for item in expr.items:
            result.extend(conjuncts(item))
        return result
    return [expr]


def conjunction(parts: list[ast.Expr]) -> Optional[ast.Expr]:
    """Combine conjuncts back into one expression (``None`` when empty)."""
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return ast.And(tuple(parts))
