"""Abstract syntax tree for the supported SQL subset.

Expression nodes are shared with the QGM layer: after binding, ``Name`` nodes
are replaced by ``repro.qgm.expr.ColumnRef`` nodes and subquery expression
nodes carry a reference to a QGM box instead of a ``Select`` AST. Keeping one
expression vocabulary avoids a parallel IR and lossy translations.

All nodes are plain dataclasses; ``children()`` exposes sub-expressions so
the one generic walker (``repro.qgm.expr.walk_expr``, used heavily by the
decorrelation rules) needs no per-node-type knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, TypeVar, Union


class Span(NamedTuple):
    """A half-open ``[start, end)`` character range in the source SQL text.

    ``line``/``column`` are 1-based and point at the first character (they
    come straight from the lexer's tokens). Spans are attached to AST nodes
    out-of-band (see :func:`set_span`) so the frozen dataclass nodes keep
    their value semantics: two structurally equal nodes parsed from
    different places still compare equal.
    """

    start: int
    end: int
    line: int
    column: int

    def location(self) -> str:
        return f"line {self.line}, column {self.column}"


_NodeT = TypeVar("_NodeT")


def set_span(node: _NodeT, span: Span) -> _NodeT:
    """Attach a source span to an AST node (bypassing dataclass freezing).

    The span is deliberately not a dataclass field: it does not participate
    in equality or hashing, and nodes synthesised by rewrites simply have no
    span (:func:`span_of` then returns ``None``).
    """
    object.__setattr__(node, "_source_span", span)
    return node


def span_of(node: object) -> Optional[Span]:
    """The source span attached to ``node``, or ``None`` for synthetic nodes."""
    return getattr(node, "_source_span", None)


class Expr:
    """Base class for expression nodes."""

    #: What one walk of the node finds (``repro.qgm.expr.expr_facts``),
    #: attached out of band like a span; not a dataclass field.
    _facts = None

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions (not including subquery bodies)."""
        return ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, boolean or NULL."""

    value: Any


@dataclass(frozen=True)
class Parameter(Expr):
    """A prepared-statement placeholder (``?``), bound at execution time.

    ``index`` is the 0-based occurrence of the marker in the statement
    text; the plan cache (:mod:`repro.plan.cache`) extracts literals in
    source order and binds them back by this index, so a cached query
    graph can be re-executed with fresh constants without re-parsing."""

    index: int


@dataclass(frozen=True)
class Name(Expr):
    """An unresolved (possibly qualified) column reference, e.g. ``d.building``."""

    parts: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    qualifier: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic: ``+ - * /`` and string concatenation ``||``."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class UnaryMinus(Expr):
    operand: Expr

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class Comparison(Expr):
    """``= <> < <= > >=`` between two scalars."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class And(Expr):
    items: tuple[Expr, ...]

    def children(self):
        return self.items


@dataclass(frozen=True)
class Or(Expr):
    items: tuple[Expr, ...]

    def children(self):
        return self.items


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False

    def children(self):
        return (self.operand, self.pattern)


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self):
        return (self.operand, self.low, self.high)


@dataclass(frozen=True)
class InList(Expr):
    """``x IN (v1, v2, ...)`` with literal/expression alternatives."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self):
        return (self.operand, *self.items)


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Scalar function call (COALESCE, ABS, ...)."""

    name: str
    args: tuple[Expr, ...]

    def children(self):
        return self.args


@dataclass(frozen=True)
class Case(Expr):
    """Searched CASE: ``CASE WHEN cond THEN value ... [ELSE value] END``.

    A missing ELSE yields NULL (SQL default).
    """

    whens: tuple[tuple[Expr, Expr], ...]
    otherwise: Optional[Expr] = None

    def children(self):
        parts: list[Expr] = []
        for condition, value in self.whens:
            parts.append(condition)
            parts.append(value)
        if self.otherwise is not None:
            parts.append(self.otherwise)
        return tuple(parts)


#: Aggregate function names accepted by the parser.
AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


@dataclass(frozen=True)
class AggregateCall(Expr):
    """Aggregate function: ``COUNT(*)`` has ``argument=None``."""

    func: str  # one of AGGREGATE_FUNCTIONS
    argument: Optional[Expr]
    distinct: bool = False

    def children(self):
        return () if self.argument is None else (self.argument,)

    @property
    def is_count(self) -> bool:
        return self.func == "count"


# -- subquery expressions ----------------------------------------------------
# ``query`` holds a Select/SetOp AST before binding; the QGM builder replaces
# these nodes with BoxSubquery variants (see repro.qgm.expr).


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """``(SELECT ...)`` used as a scalar value."""

    query: "QueryBody"


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "QueryBody"
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expr):
    """``x [NOT] IN (SELECT ...)``."""

    operand: Expr
    query: "QueryBody"
    negated: bool = False

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class QuantifiedComparison(Expr):
    """``x <op> ANY/ALL (SELECT ...)`` (SOME is parsed as ANY)."""

    op: str
    operand: Expr
    quantifier: str  # "any" | "all"
    query: "QueryBody"

    def children(self):
        return (self.operand,)


# -- query structure -----------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: expression plus optional alias."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A base table or view reference in FROM, with optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return (self.alias or self.name).lower()


@dataclass(frozen=True)
class DerivedTable:
    """A table expression in FROM.

    Covers both standard ``(SELECT ...) AS alias(cols)`` and the Starburst
    syntax used in the paper's Query 3, ``DT(sumbal) AS (SELECT ...)``.
    """

    query: "QueryBody"
    alias: str
    column_aliases: tuple[str, ...] = ()

    @property
    def binding_name(self) -> str:
        return self.alias.lower()


@dataclass(frozen=True)
class Join:
    """Explicit binary join in FROM: ``a JOIN b ON ...`` or LEFT OUTER JOIN."""

    kind: str  # "inner" | "left"
    left: "FromItem"
    right: "FromItem"
    condition: Optional[Expr]


FromItem = Union[TableRef, DerivedTable, Join]


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A single SELECT block."""

    items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None


@dataclass(frozen=True)
class SetOp:
    """UNION / UNION ALL / INTERSECT / EXCEPT of two query bodies."""

    op: str  # "union" | "intersect" | "except"
    all: bool
    left: "QueryBody"
    right: "QueryBody"
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None


QueryBody = Union[Select, SetOp]


# -- DDL / DML -----------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    not_null: bool = False


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


@dataclass(frozen=True)
class DropIndex:
    name: str
    table: str


@dataclass(frozen=True)
class CreateView:
    name: str
    query: QueryBody


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO t [(cols)] VALUES ...`` or ``INSERT INTO t [(cols)]
    SELECT ...`` (exactly one of ``rows``/``query`` is set)."""

    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expr, ...], ...] = ()
    query: Optional["QueryBody"] = None


Statement = Union[QueryBody, CreateTable, CreateIndex, DropIndex, CreateView, Insert]
