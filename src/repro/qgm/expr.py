"""Resolved expression nodes and generic expression utilities.

After binding, the parser's ``Name`` nodes become :class:`ColumnRef` nodes
(a reference to a column of a specific quantifier) and the AST subquery
expressions become ``Box*`` nodes holding a reference to a QGM box.

The generic :func:`transform_expr` walker rebuilds expression trees with a
node-level substitution function; all rewrite rules are written in terms of
it, so adding an expression node type only requires extending this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional

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


def transform_expr(expr: ast.Expr, fn: Callable[[ast.Expr], Optional[ast.Expr]]) -> ast.Expr:
    """Rebuild ``expr`` bottom-up; ``fn`` may return a replacement node.

    ``fn`` is applied to every node *after* its children were transformed;
    returning ``None`` keeps the (possibly rebuilt) node. Subquery bodies
    (boxes) are not entered -- rewrites address boxes explicitly. A rebuilt
    aggregate call or subquery predicate keeps its source span: the binder
    reports misuse of either at it.
    """

    def rebuild(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.BinaryOp):
            node = ast.BinaryOp(node.op, rebuild(node.left), rebuild(node.right))
        elif isinstance(node, ast.UnaryMinus):
            node = ast.UnaryMinus(rebuild(node.operand))
        elif isinstance(node, ast.Comparison):
            node = ast.Comparison(node.op, rebuild(node.left), rebuild(node.right))
        elif isinstance(node, ast.And):
            node = ast.And(tuple(rebuild(i) for i in node.items))
        elif isinstance(node, ast.Or):
            node = ast.Or(tuple(rebuild(i) for i in node.items))
        elif isinstance(node, ast.Not):
            node = ast.Not(rebuild(node.operand))
        elif isinstance(node, ast.IsNull):
            node = ast.IsNull(rebuild(node.operand), node.negated)
        elif isinstance(node, ast.Like):
            node = ast.Like(rebuild(node.operand), rebuild(node.pattern), node.negated)
        elif isinstance(node, ast.Between):
            node = ast.Between(
                rebuild(node.operand), rebuild(node.low), rebuild(node.high), node.negated
            )
        elif isinstance(node, ast.InList):
            node = ast.InList(
                rebuild(node.operand), tuple(rebuild(i) for i in node.items), node.negated
            )
        elif isinstance(node, ast.FunctionCall):
            node = ast.FunctionCall(node.name, tuple(rebuild(a) for a in node.args))
        elif isinstance(node, ast.AggregateCall):
            if node.argument is not None:
                node = _respan(ast.AggregateCall(
                    node.func, rebuild(node.argument), node.distinct
                ), node)
        elif isinstance(node, ast.Case):
            node = ast.Case(
                tuple((rebuild(c), rebuild(v)) for c, v in node.whens),
                None if node.otherwise is None else rebuild(node.otherwise),
            )
        elif isinstance(node, ast.InSubquery):
            node = _respan(ast.InSubquery(
                rebuild(node.operand), node.query, node.negated
            ), node)
        elif isinstance(node, ast.QuantifiedComparison):
            node = _respan(ast.QuantifiedComparison(
                node.op, rebuild(node.operand), node.quantifier, node.query
            ), node)
        elif isinstance(node, BoxInSubquery):
            node = BoxInSubquery(rebuild(node.operand), node.box, node.negated)
        elif isinstance(node, BoxQuantifiedComparison):
            node = BoxQuantifiedComparison(
                node.op, rebuild(node.operand), node.quantifier_kind, node.box
            )
        replacement = fn(node)
        return node if replacement is None else replacement

    return rebuild(expr)


def walk_expr(expr: ast.Expr) -> Iterator[ast.Expr]:
    """Pre-order walk including box-subquery nodes (but not box bodies)."""
    yield expr
    for child in expr.children():
        yield from walk_expr(child)


def column_refs(expr: ast.Expr) -> list[ColumnRef]:
    """All :class:`ColumnRef` nodes in ``expr`` (excluding subquery bodies)."""
    return [node for node in walk_expr(expr) if isinstance(node, ColumnRef)]


def box_subquery_exprs(expr: ast.Expr) -> list[ast.Expr]:
    """All ``Box*`` subquery nodes directly inside ``expr``."""
    return [node for node in walk_expr(expr) if isinstance(node, BOX_SUBQUERY_TYPES)]


def contains_aggregate(expr: ast.Expr) -> bool:
    """Does ``expr`` contain an :class:`~repro.sql.ast.AggregateCall`?"""
    return any(isinstance(node, ast.AggregateCall) for node in walk_expr(expr))


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
