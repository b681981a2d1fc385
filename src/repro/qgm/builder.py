"""AST -> QGM translation (binding).

Responsibilities:

* name resolution through nested scopes -- a reference that resolves to a
  quantifier of an *outer* block is exactly what the paper calls a
  correlation, and needs no special representation: the ``ColumnRef`` simply
  points at the outer quantifier;
* normalisation of aggregation: ``SELECT ... GROUP BY ... HAVING`` becomes a
  three-box pipeline SPJ -> GroupBy -> SPJ, which is the shape the
  decorrelation algorithm operates on (Figure 1 of the paper);
* view expansion, derived tables (including correlated ones, needed for the
  paper's Query 3), star expansion, explicit inner/outer joins;
* the rules a statement must keep -- names, aggregate placement, arities --
  each violation tagged with its SEM diagnostic code.

This is the one binder. Every violation goes through one funnel
(:meth:`_Builder._fail`): :func:`build_qgm` raises the first, and
:func:`bind_collecting` -- the static analyzer's entry point -- records
each one and keeps binding. While collecting, an unknown table or a view
that does not bind becomes a *wildcard* binding that every column resolves
against silently, so one typo does not cascade into more errors.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Optional, Union

from ..errors import BindError, CatalogError, SQLError
from ..sql import ast
from ..sql.parser import parse_statement
from ..storage.catalog import Catalog
from ..storage.table import Table
from .expr import (
    BoxExists,
    BoxInSubquery,
    BoxQuantifiedComparison,
    BoxScalarSubquery,
    ColumnRef,
    column_refs,
    conjuncts,
    contains_aggregate,
    transform_expr,
    walk_expr,
)
from .model import (
    BaseTableBox,
    Box,
    GroupByBox,
    OuterJoinBox,
    OutputColumn,
    Quantifier,
    QueryGraph,
    SelectBox,
    SetOpBox,
)

#: Clauses in which an aggregate call is illegal: it would end up inside an
#: SPJ predicate, which ``validate_graph`` rejects.
_NO_AGGREGATE_CLAUSES = frozenset({"WHERE", "GROUP BY", "join condition"})

#: What a name that failed to bind stands for while collecting.
_STAND_IN = ast.Literal(None)


def _did_you_mean(name: str, candidates) -> Optional[str]:
    close = difflib.get_close_matches(name.lower(), candidates, n=1)
    return f"did you mean {close[0]!r}?" if close else None


@dataclass
class Binding:
    """An alias visible in a scope: a quantifier plus a column-name view.

    ``columns`` maps user-visible column names to the quantifier's actual
    output column names (they differ for outer-join flattening, where both
    sides' columns are exposed through one quantifier with mangled names).
    A ``wildcard`` binding (collecting only) stands for a relation whose
    columns are unknown: no column matches it, and none is an error.
    """

    alias: str
    quantifier: Quantifier
    columns: dict[str, str]  # visible name -> actual output column
    wildcard: bool = False

    def ref(self, visible: str) -> ColumnRef:
        return ColumnRef(self.quantifier, self.columns[visible])


def _binding(alias: str, quantifier: Quantifier, columns: Optional[dict[str, str]]) -> Binding:
    """A binding of ``columns``; ``None`` makes it a wildcard."""
    return Binding(alias, quantifier, columns or {}, columns is None)


@dataclass
class Scope:
    """A lexical scope: the bindings of one query block, linked outward.
    A join condition's scope is not a ``block`` of its own: a name it
    resolves in the FROM clause around it is not a correlation."""

    parent: Optional["Scope"] = None
    bindings: list[Binding] = field(default_factory=list)
    block: bool = True


@dataclass
class BindReport:
    """What :func:`bind_collecting` found in one statement: every rule
    violation (a :class:`BindError` or :class:`CatalogError`, in the order
    found), every correlated reference as ``(name, block levels crossed,
    span)``, and the query's graph when it bound without a violation."""

    errors: list[Union[BindError, CatalogError]] = field(default_factory=list)
    correlations: list[tuple[str, int, Optional[ast.Span]]] = field(default_factory=list)
    graph: Optional[QueryGraph] = None


def expr_equal(a: ast.Expr, b: ast.Expr) -> bool:
    """Structural equality treating ColumnRef as (quantifier identity, column)."""
    if isinstance(a, ColumnRef) or isinstance(b, ColumnRef):
        return (
            isinstance(a, ColumnRef)
            and isinstance(b, ColumnRef)
            and a.same(b)
        )
    if type(a) is not type(b):
        return False
    if isinstance(a, ast.Literal):
        return a.value == b.value and type(a.value) is type(b.value)
    children_a, children_b = a.children(), b.children()
    if len(children_a) != len(children_b):
        return False
    # Compare non-child attributes via a shallow field check.
    for attr in ("op", "func", "name", "negated", "distinct", "quantifier_kind"):
        if getattr(a, attr, None) != getattr(b, attr, None):
            return False
    return all(expr_equal(x, y) for x, y in zip(children_a, children_b))


def _names_outside_aggregates(expr: ast.Expr):
    if isinstance(expr, ast.Name):
        yield expr
    elif not isinstance(expr, ast.AggregateCall):
        for child in expr.children():
            yield from _names_outside_aggregates(child)


class _Builder:
    """Stateful AST -> QGM translator for one statement. With a ``report``
    it collects every violation into it instead of raising the first."""

    def __init__(self, catalog: Catalog, report: Optional[BindReport] = None):
        self.catalog = catalog
        self._name_counter = 0
        self._view_stack: list[str] = []
        self._report = report
        #: Ids of the boxes whose output columns are unknown because they
        #: read a wildcard; only a collecting builder makes one.
        self._opaque: set[int] = set()

    def _fail(
        self, message: str, span: Optional[ast.Span] = None, code: Optional[str] = None,
        hint: Optional[str] = None, error: type = BindError,
    ) -> ast.Expr:
        """The one funnel for a rule violation: raise it, or record it and
        hand back what the caller binds in place of what failed."""
        exc = error(message, span, code, hint)
        if self._report is None:
            raise exc
        self._report.errors.append(exc)
        return _STAND_IN

    def _known(self, *boxes: Box) -> bool:
        """Are the output columns of ``boxes`` known?"""
        return not self._opaque or not any(id(b) in self._opaque for b in boxes)

    # -- entry points ------------------------------------------------------

    def build(self, body: ast.QueryBody) -> QueryGraph:
        self._order_result: list[tuple[int, bool]] = []
        self._visible_columns: Optional[int] = None
        if isinstance(body, ast.Select):
            box = self.build_select(body, Scope(), top=True)
        else:
            box = self.build_query(body, Scope())
            if body.order_by:
                self._resolve_order(body, box, Scope(), allow_hidden=False)
        return QueryGraph(
            root=box, order_by=self._order_result, limit=body.limit,
            visible_columns=self._visible_columns,
        )

    def build_query(self, body: ast.QueryBody, scope: Scope) -> Box:
        if isinstance(body, ast.Select):
            return self.build_select(body, scope)
        if isinstance(body, ast.SetOp):
            return self.build_setop(body, scope)
        raise BindError(f"cannot build query from {type(body).__name__}")

    # -- set operations ------------------------------------------------------

    def build_setop(self, body: ast.SetOp, scope: Scope) -> Box:
        left = self.build_query(body.left, scope)
        right = self.build_query(body.right, scope)
        left_names = left.output_names()
        right_names = right.output_names()
        known = self._known(left, right)
        if len(left_names) != len(right_names) and known:
            self._fail(
                f"{body.op.upper()} arms have different arities "
                f"({len(left_names)} vs {len(right_names)})", ast.span_of(body), "SEM012",
            )
        box = SetOpBox(
            body.op, body.all,
            quantifiers=[],
            output_names=left_names,
        )
        box.quantifiers = [Quantifier.fresh(left, "u"), Quantifier.fresh(right, "u")]
        if not known:
            self._opaque.add(id(box))
        return box

    # -- SELECT blocks -----------------------------------------------------

    def build_select(
        self, select: ast.Select, outer_scope: Scope, top: bool = False
    ) -> Box:
        spj = SelectBox()
        scope = Scope(parent=outer_scope)
        for item in select.from_items:
            self._add_from_item(spj, item, scope)

        where_expr = self._bind(select.where, scope, "WHERE") if select.where else None
        group_exprs = [self._bind(g, scope, "GROUP BY") for g in select.group_by]
        having_expr = self._bind(select.having, scope, "HAVING") if select.having else None
        select_items, opaque = self._expand_stars(select.items, scope)
        bound_items = [
            (self._bind(item.expr, scope, "select list"), item.alias) for item in select_items
        ]
        spj.predicates.extend(conjuncts(where_expr))

        has_aggregates = any(contains_aggregate(e) for e, _ in bound_items)
        having_aggregates = having_expr is not None and contains_aggregate(having_expr)
        if having_expr is not None and not group_exprs and not having_aggregates and not has_aggregates:
            self._fail("HAVING requires GROUP BY or aggregates", ast.span_of(select.having), "SEM008")
        if group_exprs or has_aggregates or having_aggregates:
            box = self._build_aggregation(
                spj, select, scope, select_items, group_exprs, having_expr, bound_items
            )
        else:
            spj.distinct = select.distinct
            spj.outputs = self._make_outputs(bound_items)
            box = spj
        if opaque:
            self._opaque.add(id(box))
        if top and select.order_by:
            self._resolve_order(select, box, scope, allow_hidden=box is spj)
        return box

    def _resolve_order(
        self, body: Union[ast.Select, ast.SetOp], box: Box, scope: Scope, allow_hidden: bool
    ) -> None:
        """Resolve top-level ORDER BY: by output name, position, or -- for
        plain SELECTs -- by any expression over the FROM scope, appending a
        hidden sort column when needed."""
        names = box.output_names()
        visible = len(names)
        items = body.items if isinstance(body, ast.Select) else ()
        for item in body.order_by:
            expr = item.expr
            span = ast.span_of(expr)
            if isinstance(expr, ast.Parameter):
                # A literal here would have been an ordinal, resolved at
                # build time; a parameter cannot be (its value arrives at
                # execution). Refusing keeps the plan cache from freezing
                # one submission's sort position into the shared plan.
                self._fail("ORDER BY position cannot be a parameter", span)
                continue
            position: Optional[int] = None
            # Syntactic match against a select item (covers qualified names
            # and expressions repeated verbatim, e.g. ORDER BY d.name) --
            # only when no * expansion shifted the positions.
            if not any(isinstance(i.expr, ast.Star) for i in items):
                for i, select_item in enumerate(items[:visible]):
                    if select_item.expr == expr:
                        position = i
                        break
            if position is not None:
                pass
            elif isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value - 1
                if not 0 <= position < visible and self._known(box):
                    self._fail(
                        f"ORDER BY position {expr.value} out of range "
                        f"(query produces {visible} column(s))", span, "SEM013",
                    )
                    continue
            elif isinstance(expr, ast.Name) and len(expr.parts) == 1 \
                    and expr.parts[0].lower() in names:
                position = names.index(expr.parts[0].lower())
            elif not allow_hidden or not isinstance(box, SelectBox):
                self._fail(
                    "ORDER BY over aggregated queries and set operations "
                    "supports output column names or positions only", span,
                )
                continue
            else:
                bound = self._bind(expr, scope, "ORDER BY")
                for i, output in enumerate(box.outputs):
                    if expr_equal(output.expr, bound):
                        position = i
                        break
                if position is None:
                    if box.distinct:
                        self._fail(
                            "ORDER BY expression must be in the select list "
                            "of a SELECT DISTINCT", span,
                        )
                        continue
                    hidden_name = self._fresh_name("ord")
                    box.outputs.append(OutputColumn(hidden_name, bound))
                    position = len(box.outputs) - 1
            self._order_result.append((position, item.descending))
        if len(box.output_names()) != visible:
            self._visible_columns = visible

    def _build_aggregation(
        self,
        spj: SelectBox,
        select: ast.Select,
        scope: Scope,
        select_items: list[ast.SelectItem],
        group_exprs: list[ast.Expr],
        having_expr: Optional[ast.Expr],
        bound_items: list[tuple[ast.Expr, Optional[str]]],
    ) -> Box:
        """Normalise into SPJ -> GroupBy -> SPJ (Figure 1's box pipeline)."""
        # 1. Collect aggregate calls appearing anywhere above the SPJ.
        aggregates: list[ast.AggregateCall] = []

        def collect(expr: ast.Expr) -> None:
            for node in walk_expr(expr):
                if isinstance(node, ast.AggregateCall):
                    if not any(expr_equal(node, a) for a in aggregates):
                        aggregates.append(node)

        for expr, _ in bound_items:
            collect(expr)
        if having_expr is not None:
            collect(having_expr)

        # 2. SPJ outputs: each group expression and each aggregate argument.
        spj_outputs: list[tuple[str, ast.Expr]] = []

        def spj_output_for(expr: ast.Expr) -> str:
            for name, existing in spj_outputs:
                if expr_equal(existing, expr):
                    return name
            name = self._fresh_name("g")
            spj_outputs.append((name, expr))
            return name

        group_cols = [spj_output_for(g) for g in group_exprs]
        agg_arg_cols: list[Optional[str]] = [
            None if a.argument is None else spj_output_for(a.argument)
            for a in aggregates
        ]
        spj.outputs = [OutputColumn(n, e) for n, e in spj_outputs]
        if not spj.outputs:
            # COUNT(*) over no grouping columns: the SPJ must still emit rows.
            spj.outputs = [OutputColumn(self._fresh_name("one"), ast.Literal(1))]

        # 3. GroupBy box.
        gq = Quantifier.fresh(spj, "a")
        group_box = GroupByBox(gq)
        group_box.group_by = [gq.ref(c) for c in group_cols]
        group_outputs: list[OutputColumn] = []
        group_col_names: list[str] = []
        for col in group_cols:
            name = self._fresh_name("k")
            group_col_names.append(name)
            group_outputs.append(OutputColumn(name, gq.ref(col)))
        agg_col_names: list[str] = []
        for agg, arg_col in zip(aggregates, agg_arg_cols):
            name = self._fresh_name("agg")
            agg_col_names.append(name)
            argument = None if arg_col is None else gq.ref(arg_col)
            group_outputs.append(
                OutputColumn(name, ast.AggregateCall(agg.func, argument, agg.distinct))
            )
        group_box.outputs = group_outputs

        # 4. When every select item is directly an aggregate or a group
        # expression and there is no HAVING/DISTINCT, the GroupBy box itself
        # is the block (this matches the paper's Figure 1, where the
        # correlated subquery is a bare Aggregate box over an SPJ box).
        if having_expr is None and not select.distinct:
            direct: list[OutputColumn] = []
            for expr, alias in bound_items:
                matched: Optional[ast.Expr] = None
                for agg, arg_col in zip(aggregates, agg_arg_cols):
                    if expr_equal(expr, agg):
                        argument = None if arg_col is None else gq.ref(arg_col)
                        matched = ast.AggregateCall(agg.func, argument, agg.distinct)
                        break
                if matched is None:
                    for group, col in zip(group_exprs, group_cols):
                        if expr_equal(expr, group):
                            matched = gq.ref(col)
                            break
                if matched is None:
                    break
                direct.append(OutputColumn("pending", matched))
            else:
                # Derive user-facing names from the *original* expressions
                # (so ``SELECT building, count(*) ...`` keeps its names).
                named = self._make_outputs(bound_items)
                group_box.outputs = [
                    OutputColumn(n.name, o.expr) for n, o in zip(named, direct)
                ]
                return group_box

        # 5. Final SPJ: HAVING + select items over the GroupBy box. Aggregates
        # and group expressions are replaced by references to GroupBy outputs.
        top = SelectBox(distinct=select.distinct)
        tq = top.add_quantifier(group_box, "h")

        def to_group_level(expr: ast.Expr, original: ast.Expr, clause: str) -> ast.Expr:
            def substitute(node: ast.Expr) -> Optional[ast.Expr]:
                for agg, name in zip(aggregates, agg_col_names):
                    if expr_equal(node, agg):
                        return tq.ref(name)
                for group, name in zip(group_exprs, group_col_names):
                    if expr_equal(node, group):
                        return tq.ref(name)
                return None

            rewritten = transform_expr(expr, substitute)
            # Any remaining reference into the SPJ means a non-grouped column
            # (unless a grouping expression failed to bind while collecting).
            stray = [ref for ref in column_refs(rewritten) if ref.quantifier in spj.quantifiers]
            if stray and all(g is not _STAND_IN for g in group_exprs):
                self._ungrouped(original, clause, stray, scope)
            self._retarget_subquery_correlations(
                rewritten, spj, group_exprs, group_col_names, tq
            )
            return rewritten

        top.outputs = self._make_outputs([
            (to_group_level(e, item.expr, "select list"), alias)
            for (e, alias), item in zip(bound_items, select_items)
        ])
        if having_expr is not None:
            top.predicates = conjuncts(to_group_level(having_expr, select.having, "HAVING"))
        return top

    def _ungrouped(
        self, original: ast.Expr, clause: str, stray: list[ColumnRef], scope: Scope
    ) -> None:
        """SEM011 at each name of ``original`` (the unbound expression) that
        bound to a column left ungrouped."""
        culprits = [
            (str(name), ast.span_of(name))
            for name in _names_outside_aggregates(original)
            if any(
                b.quantifier is ref.quantifier
                and b.columns.get(name.parts[-1].lower()) == ref.column
                and (len(name.parts) == 1 or b.alias == name.parts[0].lower())
                for b in scope.bindings for ref in stray
            )
        ]
        for text, span in culprits or [(stray[0].column, None)]:
            self._fail(
                f"column {text!r} in {clause} must appear in GROUP BY or "
                "inside an aggregate", span, "SEM011",
            )

    def _retarget_subquery_correlations(
        self,
        expr: ast.Expr,
        spj: SelectBox,
        group_exprs: list[ast.Expr],
        group_col_names: list[str],
        tq: Quantifier,
    ) -> None:
        """Fix correlated refs inside HAVING-level subqueries.

        A subquery in HAVING may reference the block's FROM aliases; after
        aggregation normalisation those quantifiers live in a *descendant*
        box, so such references are remapped onto the GroupBy outputs (legal
        only for grouped columns)."""
        from .analysis import rewrite_subtree_refs

        def substitute(ref: ColumnRef) -> Optional[ast.Expr]:
            if ref.quantifier not in spj.quantifiers:
                return None
            for g, name in zip(group_exprs, group_col_names):
                if isinstance(g, ColumnRef) and g.same(ref):
                    return tq.ref(name)
            return self._fail(
                f"correlated reference to non-grouped column {ref.column!r} "
                "from a HAVING/select-level subquery"
            )

        for node in walk_expr(expr):
            if isinstance(node, (BoxScalarSubquery, BoxExists, BoxInSubquery,
                                 BoxQuantifiedComparison)):
                rewrite_subtree_refs(node.box, substitute)

    # -- FROM items ------------------------------------------------------------

    def _add_from_item(self, spj: SelectBox, item: ast.FromItem, scope: Scope) -> None:
        if isinstance(item, (ast.TableRef, ast.DerivedTable)):
            box, columns = self._relation(item, scope)
            q = spj.add_quantifier(box, item.binding_name)
            q.name = item.binding_name
            self._add_binding(scope, _binding(item.binding_name, q, columns), ast.span_of(item))
            return
        if isinstance(item, ast.Join):
            if item.kind == "inner":
                self._add_from_item(spj, item.left, scope)
                self._add_from_item(spj, item.right, scope)
                if item.condition is not None:
                    spj.predicates.extend(
                        conjuncts(self._bind(item.condition, scope, "join condition"))
                    )
                return
            self._add_outer_join(spj, item, scope)
            return
        raise BindError(f"unsupported FROM item {type(item).__name__}")

    def _relation(
        self, item: Union[ast.TableRef, ast.DerivedTable], scope: Scope
    ) -> tuple[Box, Optional[dict[str, str]]]:
        """The box a table, view or derived table binds to, and its column
        view (``None``: a wildcard)."""
        if isinstance(item, ast.TableRef):
            box, columns = self._relation_box(item.name, ast.span_of(item))
        else:
            box = self.build_query(item.query, scope)
            columns = self._apply_column_aliases(box, item)
        return box, None if columns is None else {c: c for c in columns}

    def _add_binding(self, scope: Scope, binding: Binding, span: Optional[ast.Span] = None) -> None:
        if any(b.alias == binding.alias for b in scope.bindings):
            self._fail(f"duplicate alias {binding.alias!r} in FROM", span, "SEM005")
            return
        scope.bindings.append(binding)

    def _add_outer_join(self, spj: SelectBox, item: ast.Join, scope: Scope) -> None:
        """LEFT OUTER JOIN: build an OuterJoinBox exposing both sides' columns
        (with mangled names) through a single quantifier."""
        left_box, left_bindings = self._from_item_as_box(item.left, scope)
        right_box, right_bindings = self._from_item_as_box(item.right, scope)
        preserved = Quantifier.fresh(left_box, "ojl")
        null_producing = Quantifier.fresh(right_box, "ojr")

        join_scope = Scope(parent=scope, block=False)
        outputs: list[OutputColumn] = []
        outer_bindings: list[tuple[str, Optional[dict[str, str]]]] = []
        for quantifier, side_bindings in (
            (preserved, left_bindings),
            (null_producing, right_bindings),
        ):
            for alias, colmap in side_bindings:
                self._add_binding(join_scope, _binding(alias, quantifier, colmap))
                mangled: dict[str, str] = {}
                for visible, actual in (colmap or {}).items():
                    out_name = self._fresh_name(f"{alias}_{visible}")
                    outputs.append(OutputColumn(out_name, quantifier.ref(actual)))
                    mangled[visible] = out_name
                outer_bindings.append((alias, None if colmap is None else mangled))

        condition = self._bind(item.condition, join_scope, "join condition") if item.condition else None
        oj_box = OuterJoinBox(preserved, null_producing, condition, outputs)
        q = spj.add_quantifier(oj_box, "oj")
        for alias, columns in outer_bindings:
            self._add_binding(scope, _binding(alias, q, columns))

    def _from_item_as_box(
        self, item: ast.FromItem, scope: Scope
    ) -> tuple[Box, list[tuple[str, Optional[dict[str, str]]]]]:
        """Build one side of an outer join as a standalone box plus the alias
        views it exposes (``None``: a wildcard)."""
        if isinstance(item, (ast.TableRef, ast.DerivedTable)):
            box, colmap = self._relation(item, scope)
            return box, [(item.binding_name, colmap)]
        if isinstance(item, ast.Join):
            # Wrap a nested join in its own SPJ box.
            inner = SelectBox()
            inner_scope = Scope(parent=scope, block=False)
            self._add_from_item(inner, item, inner_scope)
            outputs: list[OutputColumn] = []
            bindings: list[tuple[str, Optional[dict[str, str]]]] = []
            for binding in inner_scope.bindings:
                mangled: dict[str, str] = {}
                for visible, actual in binding.columns.items():
                    out_name = self._fresh_name(f"{binding.alias}_{visible}")
                    outputs.append(
                        OutputColumn(out_name, binding.quantifier.ref(actual))
                    )
                    mangled[visible] = out_name
                bindings.append((binding.alias, None if binding.wildcard else mangled))
            inner.outputs = outputs
            return inner, bindings
        raise BindError(f"unsupported FROM item {type(item).__name__}")

    def _relation_box(self, name: str, span: Optional[ast.Span]) -> tuple[Box, Optional[list[str]]]:
        """A fresh box for a base table or (expanded) view, and its column
        names: ``None`` for a relation that is unknown or does not bind,
        which only a collecting builder gets past."""
        if self.catalog.has_view(name):
            return self._view_box(name, span)
        table = self._table(name, "table or view", span)
        if table is None:
            return BaseTableBox(name, []), None
        box = BaseTableBox(table.name, table.schema.names())
        return box, box.column_names

    def _table(self, name: str, what: str, span: Optional[ast.Span] = None) -> Optional[Table]:
        try:
            return self.catalog.table(name)
        except CatalogError:
            hint = _did_you_mean(name, self.catalog.relation_names())
            self._fail(f"unknown {what} {name!r}", span, "SEM001", hint, CatalogError)
            return None

    def _insert_target(
        self, statement: ast.Insert
    ) -> Optional[tuple[Table, tuple[int, ...]]]:
        """The table an INSERT writes and the position in it of each column
        the statement's list names -- every column, in order, when it names
        none. An unknown column is SEM002; a column named twice is an
        error too, not a last value that wins."""
        table = self._table(statement.table, "table")
        if table is None:
            return None
        names = table.schema.names()
        if not statement.columns:
            return table, tuple(range(len(names)))
        positions: list[int] = []
        for column in statement.columns:
            name = column.lower()
            if name not in names:
                self._fail(
                    f"unknown column {name!r} in table {table.name!r}",
                    ast.span_of(statement), "SEM002", _did_you_mean(name, names),
                )
            elif names.index(name) in positions:
                self._fail(
                    f"column {name!r} is named twice in the INSERT column list",
                    ast.span_of(statement),
                )
            else:
                positions.append(names.index(name))
        return table, tuple(positions)

    def _view_box(self, name: str, span: Optional[ast.Span]) -> tuple[Box, Optional[list[str]]]:
        """Expand a view. Its body binds raising -- its own errors were its
        CREATE VIEW's to report -- and one that does not bind is reported
        once, at the outermost reference to a view in the statement."""
        key = name.lower()
        if key in self._view_stack:  # inside a view body: raises
            cycle = " -> ".join([*self._view_stack, key])
            self._fail(f"cyclic view definition: {cycle}", span, "SEM001")
        self._view_stack.append(key)
        report, self._report = self._report, None
        try:
            statement = parse_statement(self.catalog.view_sql(name))
            if not isinstance(statement, (ast.Select, ast.SetOp)):
                raise BindError(f"view {name!r} does not define a query")
            box = self.build_query(statement, Scope())
            return box, box.output_names()
        except (SQLError, BindError, CatalogError) as exc:
            if len(self._view_stack) > 1:
                raise
            self._report = report
            self._fail(
                f"view {name!r} does not bind: {getattr(exc, 'message', exc)}", span,
                getattr(exc, "code", None), error=CatalogError if isinstance(exc, CatalogError) else BindError,
            )
            return BaseTableBox(name, []), None
        finally:
            self._view_stack.pop()
            self._report = report

    def _apply_column_aliases(self, box: Box, item: ast.DerivedTable) -> Optional[list[str]]:
        if not self._known(box):
            return None
        names = box.output_names()
        aliases = [a.lower() for a in item.column_aliases]
        if not aliases:
            return names
        if len(aliases) != len(names):
            self._fail(
                f"derived table {item.alias!r} alias list names {len(aliases)} "
                f"column(s) but the query produces {len(names)}", ast.span_of(item), "SEM012",
            )
        elif isinstance(box, SetOpBox):
            box._output_names = aliases
        else:  # a SELECT block: an SPJ or a GroupBy box
            for output, alias in zip(box.outputs, aliases):  # type: ignore[attr-defined]
                output.name = alias
        return aliases

    # -- expressions ---------------------------------------------------------

    def _bind(self, expr: ast.Expr, scope: Scope, clause: str) -> ast.Expr:
        def substitute(node: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(node, ast.Name):
                return self._resolve_name(node, scope)
            if isinstance(node, ast.AggregateCall):
                return self._check_aggregate(node, clause)
            if isinstance(node, ast.ScalarSubquery):
                box = self.build_query(node.query, scope)
                self._require_single_column(box, "scalar", node)
                return BoxScalarSubquery(box)
            if isinstance(node, ast.Exists):
                return BoxExists(self.build_query(node.query, scope), node.negated)
            if isinstance(node, ast.InSubquery):
                box = self.build_query(node.query, scope)
                self._require_single_column(box, "IN", node)
                return BoxInSubquery(node.operand, box, node.negated)
            if isinstance(node, ast.QuantifiedComparison):
                box = self.build_query(node.query, scope)
                self._require_single_column(box, node.quantifier.upper(), node)
                return BoxQuantifiedComparison(
                    node.op, node.operand, node.quantifier, box
                )
            if isinstance(node, ast.Star):
                return self._fail(f"* is not allowed in {clause}", ast.span_of(node), "SEM010")
            return None

        return transform_expr(expr, substitute)

    def _check_aggregate(self, call: ast.AggregateCall, clause: str) -> Optional[ast.Expr]:
        """SEM006 / SEM007 at an aggregate call, its argument already bound."""
        if clause in _NO_AGGREGATE_CLAUSES:
            return self._fail(
                f"aggregate {call.func.upper()} is not allowed in {clause}",
                ast.span_of(call), "SEM006",
            )
        nested = call.argument is not None and next(
            (n for n in walk_expr(call.argument) if isinstance(n, ast.AggregateCall)), None
        )
        if nested:
            self._fail("aggregate calls cannot be nested", ast.span_of(nested), "SEM007")
        return None

    def _require_single_column(self, box: Box, construct: str, node: ast.Expr) -> None:
        n = len(box.output_names())
        if n != 1 and self._known(box):
            self._fail(
                f"{construct} subquery must produce exactly one column, got {n}",
                ast.span_of(node), "SEM009",
            )

    def _resolve_name(self, name: ast.Name, scope: Scope) -> ast.Expr:
        span = ast.span_of(name)
        current: Optional[Scope] = scope
        if len(name.parts) == 1:
            column = name.parts[0].lower()
            while current is not None:
                matches = [b for b in current.bindings if column in b.columns]
                if len(matches) > 1:
                    aliases = " and ".join(repr(m.alias) for m in matches)
                    return self._fail(f"ambiguous column {column!r} (in {aliases})", span, "SEM003")
                if matches:
                    if self._report is not None and current is not scope:
                        self._correlated(column, scope, current, span)
                    return matches[0].ref(column)
                current = current.parent
            return self._unknown_column(column, scope, span)
        if len(name.parts) == 2:
            alias, column = name.parts[0].lower(), name.parts[1].lower()
            while current is not None:
                for binding in current.bindings:
                    if binding.alias != alias:
                        continue
                    if column in binding.columns:
                        if self._report is not None and current is not scope:
                            self._correlated(str(name), scope, current, span)
                        return binding.ref(column)
                    if binding.wildcard:
                        return _STAND_IN
                    return self._fail(
                        f"column {column!r} not found in {alias!r}", span,
                        "SEM002", _did_you_mean(column, binding.columns),
                    )
                current = current.parent
            return self._fail(f"unknown alias {alias!r}", span, "SEM004")
        return self._fail(f"over-qualified name {'.'.join(name.parts)!r}", span, "SEM004")

    def _unknown_column(self, column: str, scope: Scope, span: Optional[ast.Span]) -> ast.Expr:
        candidates: list[str] = []
        current: Optional[Scope] = scope
        while current is not None:
            for binding in current.bindings:
                if binding.wildcard:
                    return _STAND_IN
                candidates.extend(binding.columns)
            current = current.parent
        hint = _did_you_mean(column, candidates)
        return self._fail(f"unknown column {column!r}", span, "SEM002", hint)

    def _correlated(self, name: str, scope: Scope, found: Scope, span: Optional[ast.Span]) -> None:
        """Record a correlated reference with the query blocks it crosses."""
        depth, current = 0, scope
        while current is not found and current is not None:
            depth += current.block
            current = current.parent
        if depth and self._report is not None:
            self._report.correlations.append((name, depth, span))

    def _expand_stars(
        self, items: tuple[ast.SelectItem, ...], scope: Scope
    ) -> tuple[list[ast.SelectItem], bool]:
        """The select list with every ``*`` expanded, and whether one of them
        read a wildcard (the block's outputs are then unknown)."""
        expanded: list[ast.SelectItem] = []
        opaque = False
        for item in items:
            if not isinstance(item.expr, ast.Star):
                expanded.append(item)
                continue
            span = ast.span_of(item.expr)
            if item.expr.qualifier is None:
                bindings = scope.bindings
                if not bindings:
                    self._fail("* with no FROM clause", span, "SEM010")
            else:
                alias = item.expr.qualifier.lower()
                bindings = [b for b in scope.bindings if b.alias == alias]
                if not bindings:
                    self._fail(f"unknown alias {alias!r} in {alias}.*", span, "SEM004")
            for binding in bindings:
                opaque = opaque or binding.wildcard
                for visible in binding.columns:
                    expanded.append(
                        ast.SelectItem(
                            ast.Name((binding.alias, visible)), alias=visible
                        )
                    )
        return expanded, opaque

    def _make_outputs(
        self, bound_items: list[tuple[ast.Expr, Optional[str]]]
    ) -> list[OutputColumn]:
        outputs: list[OutputColumn] = []
        used: set[str] = set()
        for expr, alias in bound_items:
            name = alias
            if name is None:
                if isinstance(expr, ColumnRef):
                    name = expr.column
                elif isinstance(expr, ast.AggregateCall):
                    name = expr.func
                else:
                    name = f"c{len(outputs)}"
            name = name.lower()
            base = name
            counter = 1
            while name in used:
                name = f"{base}_{counter}"
                counter += 1
            used.add(name)
            outputs.append(OutputColumn(name, expr))
        return outputs

    def _fresh_name(self, prefix: str) -> str:
        self._name_counter += 1
        return f"{prefix}_{self._name_counter}"


def build_qgm(body: ast.QueryBody, catalog: Catalog) -> QueryGraph:
    """Bind a parsed query body against ``catalog`` and return its QGM."""
    return _Builder(catalog).build(body)


def bind_table(name: str, catalog: Catalog) -> Table:
    """The base table a CREATE / DROP INDEX names."""
    table = _Builder(catalog)._table(name, "table")
    assert table is not None  # a raising builder returns one or raises
    return table


def bind_insert(
    statement: ast.Insert, catalog: Catalog
) -> tuple[Table, tuple[int, ...]]:
    """An INSERT's target table and where each of its listed columns sits
    in a row of it (see ``_Builder._insert_target``)."""
    target = _Builder(catalog)._insert_target(statement)
    assert target is not None  # a raising builder returns one or raises
    return target


def bind_collecting(statement: ast.Statement, catalog: Catalog) -> BindReport:
    """Bind ``statement`` as :func:`build_qgm` does, recording every rule
    violation instead of raising the first: the static analyzer's entry
    point. An INSERT's target and the query of an ``INSERT ... SELECT`` or
    a CREATE VIEW bind the same way; only a query gets a graph."""
    report = BindReport()
    builder = _Builder(catalog, report)
    if isinstance(statement, ast.Insert):
        builder._insert_target(statement)
    body = statement if isinstance(statement, (ast.Select, ast.SetOp)) else (
        statement.query if isinstance(statement, (ast.CreateView, ast.Insert)) else None
    )
    if body is None:
        return report
    try:
        graph = builder.build(body)
    except (BindError, CatalogError) as exc:
        report.errors.append(exc)
        return report
    if body is statement and not report.errors:
        report.graph = graph
    return report
