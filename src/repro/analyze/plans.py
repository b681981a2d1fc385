"""Static plan contracts: typed verification of box interfaces and plans.

The paper's correctness argument (section 3) is that every rewrite step
leaves the QGM consistent; :mod:`repro.qgm.validate` enforces that at the
*structural* level. This module adds the *typed* level: every box gets an
inferred output contract -- column names, SQL types, nullability with
provenance, uniqueness, and a cardinality bound from :mod:`repro.plan.cost`
-- and every physical plan the planner emits is checked for executor
compatibility against those contracts.

Nullability provenance is the interesting part. Three taints flow through
the contract lattice:

* ``agg-empty`` -- SUM/AVG/MIN/MAX over a possibly-empty input yields NULL
  (ordinary SQL semantics; informational provenance only);
* ``outer-join`` -- the null-producing side of a left outer join;
* ``count-rewrite`` -- a *grouped* COUNT output. A scalar COUNT is total
  (an empty input still produces one row with 0), but once Kim's rewrite
  turns it into a grouped aggregate, empty groups have no row at all: fed
  through an inner join the outer row disappears (the COUNT bug,
  section 2.1), fed through an outer join the 0 becomes NULL. Both
  consumption shapes are therefore statically detectable: ``PLN007`` flags
  the inner-join shape and ``PLN006`` flags null-rejecting use of the
  nullable variant without a COALESCE guard. ``COALESCE(col, 0)`` -- the
  magic rewrite's COUNT-bug fix -- clears the taint.

Two entry points:

* :func:`check_interfaces` -- contracts only, safe on any consistent graph;
  registered as lint rules so :meth:`repro.rewrite.engine.RewriteEngine.check`
  re-verifies typed interfaces after every FEED/ABSORB step.
* :func:`verify_query_plan` / :func:`verify_pre_execution` -- additionally
  check the step list of every SPJ box (reference binding order,
  index/key agreement, ``correlated_to_self`` markings, arities,
  cardinality sanity): the plans they are handed, or a fresh one for a box
  they are handed none for. The compile step
  (:func:`repro.plan.compile.compile_query`) runs this on the plans it is
  about to return when ``REPRO_VALIDATE`` is on; with validation off the
  verifier is never imported (zero overhead, like the ``tracer is None``
  fast paths).

Like :mod:`repro.analyze.lint`, imports from ``repro.plan`` stay at module
level (no cycle: the plan package never imports the analyzers), while this
module is itself imported lazily by the rewrite engine via ``lint``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional, Union

from ..errors import CatalogError, PlanError, SchemaError
from ..plan.cost import estimate_box_rows
from ..plan.planner import (
    HashJoinStep,
    IndexLookupStep,
    PredicateStep,
    ScanStep,
    SelectPlan,
    SubqueryEvalStep,
    plan_select_box,
)
from ..qgm.analysis import external_column_refs, iter_boxes
from ..qgm.expr import (
    BoxExists,
    BoxInSubquery,
    BoxQuantifiedComparison,
    BoxScalarSubquery,
    ColumnRef,
    walk_expr,
)
from ..qgm.model import (
    BaseTableBox,
    Box,
    GroupByBox,
    OuterJoinBox,
    QueryGraph,
    SelectBox,
    SetOpBox,
)
from ..sql import ast
from ..storage.catalog import Catalog
from ..types import SQLType
from .diagnostics import Diagnostic, Severity
from .lint import register_rule

#: Nullability provenance tags (the taint half of the contract lattice).
TAINT_AGG_EMPTY = "agg-empty"
TAINT_OUTER_JOIN = "outer-join"
TAINT_COUNT_REWRITE = "count-rewrite"


@dataclass(frozen=True)
class ColumnContract:
    """One output column's inferred contract.

    ``type`` is ``None`` when inference cannot pin a declared type (an
    unknown function, a contract over an unbound catalog); unknown never
    produces a diagnostic -- only *known-wrong* does.
    """

    name: str
    type: Optional[SQLType]
    nullable: bool
    taint: frozenset[str] = frozenset()

    def describe(self) -> str:
        text = self.name or "<expr>"
        text += f" {self.type.value}" if self.type is not None else " ?"
        text += "" if self.nullable else " NOT NULL"
        if self.taint:
            text += " [" + ",".join(sorted(self.taint)) + "]"
        return text


def _subtree_refs_to_box(box: SelectBox, subquery_box: Box) -> set[int]:
    """ids of ``box``'s quantifiers referenced from anywhere inside a
    subquery's subtree (its correlations into this box), by a walk of its
    own: the verifier does not read the planner's graph facts."""
    own = {id(q) for q in box.quantifiers}
    return {
        id(ref.quantifier)
        for _, ref in external_column_refs(subquery_box)
        if id(ref.quantifier) in own
    }


_UNKNOWN = ColumnContract("", None, True)
_BOOL = ColumnContract("", SQLType.BOOL, True)

_Resolver = Callable[[ColumnRef], Optional[ColumnContract]]


@dataclass(frozen=True)
class BoxContract:
    """A box's inferred output interface.

    ``unique`` lists column-name tuples known to be duplicate-free;
    ``exactly_one`` marks boxes guaranteed to produce a single row (scalar
    aggregates and pure projections over them); ``rows`` is the optimizer's
    cardinality bound (``None`` without a catalog).
    """

    box_id: int
    kind: str
    columns: tuple[ColumnContract, ...]
    unique: tuple[tuple[str, ...], ...] = ()
    exactly_one: bool = False
    rows: Optional[float] = None

    def column(self, name: str) -> Optional[ColumnContract]:
        wanted = name.lower()
        for col in self.columns:
            if col.name == wanted:
                return col
        return None

    def names(self) -> list[str]:
        return [c.name for c in self.columns]


class ContractInferencer:
    """Infers :class:`BoxContract` for every box of a graph (memoized --
    the post-magic QGM is a DAG and shared boxes are typed once), recording
    coded problems as a side effect."""

    def __init__(self, catalog: Optional[Catalog] = None):
        self.catalog = catalog
        self.memo: dict[int, BoxContract] = {}
        self.problems: list[Diagnostic] = []
        self._in_progress: set[int] = set()
        self._reported: set[tuple[str, int, str]] = set()

    # -- reporting ---------------------------------------------------------

    def _report(
        self, code: str, severity: Severity, box: Box, message: str,
        hint: Optional[str] = None, key: str = "",
    ) -> None:
        dedup = (code, box.id, key or message)
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        self.problems.append(Diagnostic(
            code, severity, f"box {box.id} ({box.kind}): {message}", hint=hint,
        ))

    # -- box contracts -----------------------------------------------------

    def contract(self, box: Box) -> BoxContract:
        cached = self.memo.get(box.id)
        if cached is not None:
            return cached
        if box.id in self._in_progress:
            # A cyclic graph is QGM001's problem; give up on typing it.
            return BoxContract(box.id, box.kind, tuple(
                ColumnContract(n, None, True) for n in box.output_names()
            ))
        self._in_progress.add(box.id)
        try:
            result = self._infer(box)
        finally:
            self._in_progress.discard(box.id)
        self.memo[box.id] = result
        return result

    def _infer(self, box: Box) -> BoxContract:
        if isinstance(box, BaseTableBox):
            return self._infer_base_table(box)
        if isinstance(box, SelectBox):
            return self._infer_select(box)
        if isinstance(box, GroupByBox):
            return self._infer_groupby(box)
        if isinstance(box, SetOpBox):
            return self._infer_setop(box)
        if isinstance(box, OuterJoinBox):
            return self._infer_outerjoin(box)
        return BoxContract(box.id, box.kind, tuple(
            ColumnContract(n, None, True) for n in box.output_names()
        ))

    def _rows(self, box: Box) -> Optional[float]:
        if self.catalog is None:
            return None
        try:
            return estimate_box_rows(self.catalog, box)
        except (CatalogError, SchemaError):
            return None

    def _infer_base_table(self, box: BaseTableBox) -> BoxContract:
        schema = None
        if self.catalog is not None:
            try:
                schema = self.catalog.table(box.table_name).schema
            except CatalogError:
                schema = None  # QGM001 reports the missing table
        columns = []
        for name in box.column_names:
            if schema is not None and schema.has_column(name):
                col = schema.column(name)
                columns.append(ColumnContract(col.name, col.type, col.nullable))
            else:
                columns.append(ColumnContract(name, None, True))
        unique: tuple[tuple[str, ...], ...] = ()
        if schema is not None and schema.primary_key:
            unique = (tuple(schema.primary_key),)
        return BoxContract(
            box.id, box.kind, tuple(columns), unique=unique,
            rows=self._rows(box),
        )

    def _default_resolver(self, box: Box) -> _Resolver:
        def resolve(ref: ColumnRef) -> Optional[ColumnContract]:
            producer = self.contract(ref.quantifier.box)
            col = producer.column(ref.column)
            if col is None:
                self._report(
                    "PLN001", Severity.ERROR, box,
                    f"column {ref.column!r} of quantifier "
                    f"{ref.quantifier.name!r} does not exist in the contract "
                    f"of box {ref.quantifier.box.id} "
                    f"(columns: {', '.join(producer.names()) or 'none'})",
                    key=f"{ref.quantifier.name}.{ref.column}",
                )
                return None
            return col
        return resolve

    def _infer_select(self, box: SelectBox) -> BoxContract:
        resolve = self._default_resolver(box)
        for predicate in box.predicates:
            self.expr_contract(predicate, resolve, box)
        columns = tuple(
            replace(self.expr_contract(o.expr, resolve, box), name=o.name.lower())
            for o in box.outputs
        )
        self._nullability_hazards(box, resolve)

        unique: list[tuple[str, ...]] = []
        out_names = [c.name for c in columns]
        if box.distinct and out_names:
            unique.append(tuple(out_names))
        if len(box.quantifiers) == 1:
            # A pure projection passes its child's keys through when every
            # key column survives as a bare reference.
            q = box.quantifiers[0]
            child = self.contract(q.box)
            projected = {
                o.expr.column: o.name.lower()
                for o in box.outputs
                if isinstance(o.expr, ColumnRef) and o.expr.quantifier is q
            }
            for key in child.unique:
                if all(col in projected for col in key):
                    mapped = tuple(projected[col] for col in key)
                    if mapped not in unique:
                        unique.append(mapped)
        children = [self.contract(q.box) for q in box.quantifiers]
        exactly_one = (
            bool(children)
            and all(c.exactly_one for c in children)
            and not box.predicates
        )
        return BoxContract(
            box.id, box.kind, columns, unique=tuple(unique),
            exactly_one=exactly_one, rows=self._rows(box),
        )

    def _infer_groupby(self, box: GroupByBox) -> BoxContract:
        resolve = self._default_resolver(box)
        for group_expr in box.group_by:
            self.expr_contract(group_expr, resolve, box)
        columns: list[ColumnContract] = []
        # A grouped COUNT is the COUNT-bug's raw material: empty groups have
        # no output row. Grouping over an outer join's preserved domain
        # (the Ganski/Wong fix) re-establishes totality, so it stays clean.
        grouped_count_hazard = (
            not box.is_scalar
            and not isinstance(box.quantifier.box, OuterJoinBox)
        )
        for output in box.outputs:
            col = replace(
                self.expr_contract(output.expr, resolve, box),
                name=output.name.lower(),
            )
            if grouped_count_hazard and any(
                isinstance(n, ast.AggregateCall) and n.is_count
                for n in walk_expr(output.expr)
            ):
                col = replace(col, taint=col.taint | {TAINT_COUNT_REWRITE})
            columns.append(col)

        unique: tuple[tuple[str, ...], ...] = ()
        if box.group_by:
            # Outputs that are bare copies of the grouping columns form a
            # key of the result when they cover every grouping expression.
            mapped: list[str] = []
            covered = 0
            for group_expr in box.group_by:
                if not isinstance(group_expr, ColumnRef):
                    continue
                for output in box.outputs:
                    if isinstance(output.expr, ColumnRef) and \
                            output.expr.same(group_expr):
                        mapped.append(output.name.lower())
                        covered += 1
                        break
            if covered == len(box.group_by) and mapped:
                unique = (tuple(mapped),)
        elif columns:
            unique = (tuple(c.name for c in columns),)
        return BoxContract(
            box.id, box.kind, tuple(columns), unique=unique,
            exactly_one=box.is_scalar, rows=self._rows(box),
        )

    def _infer_setop(self, box: SetOpBox) -> BoxContract:
        children = [self.contract(q.box) for q in box.quantifiers]
        columns: list[ColumnContract] = []
        for position, name in enumerate(box.output_names()):
            branch_cols = [
                c.columns[position] for c in children
                if position < len(c.columns)
            ]
            columns.append(_merge_contracts(branch_cols, name))
        return BoxContract(
            box.id, box.kind, tuple(columns), rows=self._rows(box),
        )

    def _infer_outerjoin(self, box: OuterJoinBox) -> BoxContract:
        plain = self._default_resolver(box)
        if box.condition is not None:
            # The condition is evaluated against actual join candidates,
            # before any NULL padding: plain resolution applies.
            self.expr_contract(box.condition, plain, box)

        def resolve(ref: ColumnRef) -> Optional[ColumnContract]:
            col = plain(ref)
            if col is not None and ref.quantifier is box.null_producing:
                return replace(
                    col, nullable=True, taint=col.taint | {TAINT_OUTER_JOIN},
                )
            return col

        columns = tuple(
            replace(self.expr_contract(o.expr, resolve, box), name=o.name.lower())
            for o in box.outputs
        )
        return BoxContract(
            box.id, box.kind, columns, rows=self._rows(box),
        )

    # -- expression contracts ----------------------------------------------

    def expr_contract(
        self, expr: ast.Expr, resolve: _Resolver, box: Box
    ) -> ColumnContract:
        """Bottom-up typing of one expression in ``box``'s context."""
        if isinstance(expr, ColumnRef):
            return resolve(expr) or _UNKNOWN
        if isinstance(expr, ast.Literal):
            return _literal_contract(expr.value)
        if isinstance(expr, ast.BinaryOp):
            left = self.expr_contract(expr.left, resolve, box)
            right = self.expr_contract(expr.right, resolve, box)
            taint = left.taint | right.taint
            if expr.op == "||":
                return ColumnContract(
                    "", SQLType.STR, left.nullable or right.nullable, taint)
            if expr.op == "/":
                # Division by zero yields NULL in this engine.
                return ColumnContract("", SQLType.FLOAT, True, taint)
            result = _numeric_join(left.type, right.type)
            return ColumnContract(
                "", result, left.nullable or right.nullable, taint)
        if isinstance(expr, ast.UnaryMinus):
            operand = self.expr_contract(expr.operand, resolve, box)
            return replace(operand, name="")
        if isinstance(expr, ast.Comparison):
            left = self.expr_contract(expr.left, resolve, box)
            right = self.expr_contract(expr.right, resolve, box)
            nullable = (left.nullable or right.nullable) and expr.op != "<=>"
            return ColumnContract(
                "", SQLType.BOOL, nullable, left.taint | right.taint)
        if isinstance(expr, (ast.And, ast.Or)):
            parts = [self.expr_contract(e, resolve, box) for e in expr.items]
            return ColumnContract(
                "", SQLType.BOOL,
                any(p.nullable for p in parts),
                frozenset().union(*(p.taint for p in parts)) if parts
                else frozenset(),
            )
        if isinstance(expr, ast.Not):
            operand = self.expr_contract(expr.operand, resolve, box)
            return ColumnContract("", SQLType.BOOL, operand.nullable, operand.taint)
        if isinstance(expr, ast.IsNull):
            self.expr_contract(expr.operand, resolve, box)
            return ColumnContract("", SQLType.BOOL, False)
        if isinstance(expr, (ast.Like, ast.Between, ast.InList)):
            parts = [self.expr_contract(e, resolve, box) for e in expr.children()]
            return ColumnContract(
                "", SQLType.BOOL,
                any(p.nullable for p in parts),
                frozenset().union(*(p.taint for p in parts)) if parts
                else frozenset(),
            )
        if isinstance(expr, ast.FunctionCall):
            return self._function_contract(expr, resolve, box)
        if isinstance(expr, ast.Case):
            return self._case_contract(expr, resolve, box)
        if isinstance(expr, ast.AggregateCall):
            return self._aggregate_contract(expr, resolve, box)
        if isinstance(expr, BoxScalarSubquery):
            sub = self.contract(expr.box)
            out = sub.columns[0] if sub.columns else _UNKNOWN
            # An empty subquery result reads as NULL unless the box is a
            # guaranteed single-row producer (scalar aggregate).
            return ColumnContract(
                "", out.type, out.nullable or not sub.exactly_one, out.taint)
        if isinstance(expr, BoxExists):
            self.contract(expr.box)
            return ColumnContract("", SQLType.BOOL, False)
        if isinstance(expr, (BoxInSubquery, BoxQuantifiedComparison)):
            self.expr_contract(expr.operand, resolve, box)
            self.contract(expr.box)
            return _BOOL
        return _UNKNOWN

    def _function_contract(
        self, expr: ast.FunctionCall, resolve: _Resolver, box: Box
    ) -> ColumnContract:
        args = [self.expr_contract(a, resolve, box) for a in expr.args]
        if expr.name.lower() == "coalesce" and args:
            result = next((a.type for a in args if a.type is not None), None)
            nullable = all(a.nullable for a in args)
            if nullable:
                taint = frozenset().union(*(a.taint for a in args))
            else:
                # A non-nullable fallback restores totality: this is the
                # magic rewrite's COUNT-bug fix, so the taint is cleared.
                taint = frozenset()
            return ColumnContract("", result, nullable, taint)
        if expr.name.lower() == "abs" and args:
            return replace(args[0], name="")
        taint = frozenset().union(*(a.taint for a in args)) if args \
            else frozenset()
        return ColumnContract("", None, True, taint)

    def _case_contract(
        self, expr: ast.Case, resolve: _Resolver, box: Box
    ) -> ColumnContract:
        values: list[ColumnContract] = []
        for condition, value in expr.whens:
            self.expr_contract(condition, resolve, box)
            values.append(self.expr_contract(value, resolve, box))
        if expr.otherwise is not None:
            values.append(self.expr_contract(expr.otherwise, resolve, box))
        merged = _merge_contracts(values, "")
        if expr.otherwise is None:
            merged = replace(merged, nullable=True)
        return merged

    def _aggregate_contract(
        self, expr: ast.AggregateCall, resolve: _Resolver, box: Box
    ) -> ColumnContract:
        argument = (
            self.expr_contract(expr.argument, resolve, box)
            if expr.argument is not None else None
        )
        if expr.is_count:
            # COUNT never yields NULL -- within its own box. Grouped COUNT
            # totality loss is tainted at the GroupByBox level.
            return ColumnContract("", SQLType.INT, False)
        taint = (argument.taint if argument else frozenset()) \
            | {TAINT_AGG_EMPTY}
        if expr.func in ("sum", "avg"):
            if argument is not None and argument.type in (
                SQLType.STR, SQLType.BOOL, SQLType.DATE,
            ):
                self._report(
                    "PLN005", Severity.ERROR, box,
                    f"{expr.func.upper()} over a {argument.type.value} input "
                    f"is ill-typed",
                    hint="SUM/AVG require an INT or FLOAT argument",
                    key=f"{expr.func}:{argument.type.value}",
                )
            if expr.func == "avg":
                return ColumnContract("", SQLType.FLOAT, True, taint)
            result = argument.type if argument is not None else None
            return ColumnContract("", result, True, taint)
        # MIN/MAX preserve the argument type (strings and dates included).
        result = argument.type if argument is not None else None
        return ColumnContract("", result, True, taint)

    # -- nullability hazards (the COUNT bug, statically) --------------------

    def _nullability_hazards(self, box: SelectBox, resolve: _Resolver) -> None:
        joins = len(box.quantifiers) >= 2
        for predicate in box.predicates:
            self._scan_hazard(box, predicate, resolve, joins, guarded=False)

    def _scan_hazard(
        self, box: SelectBox, expr: ast.Expr, resolve: _Resolver,
        joins: bool, guarded: bool,
    ) -> None:
        if isinstance(expr, ast.FunctionCall) and \
                expr.name.lower() == "coalesce":
            guarded = True
        elif isinstance(expr, ast.IsNull):
            guarded = True
        elif isinstance(expr, ast.Comparison) and expr.op == "<=>":
            guarded = True
        if isinstance(expr, ColumnRef):
            producer = self.contract(expr.quantifier.box)
            col = producer.column(expr.column)
            if col is not None and TAINT_COUNT_REWRITE in col.taint \
                    and not guarded:
                if col.nullable:
                    self._report(
                        "PLN006", Severity.WARNING, box,
                        f"COUNT-derived column "
                        f"{expr.quantifier.name}.{expr.column} is nullable "
                        f"({'/'.join(sorted(col.taint))}) and consumed "
                        f"null-rejectingly: empty groups yield NULL where "
                        f"the original query produced 0",
                        hint="wrap the column in COALESCE(col, 0) -- the "
                             "magic rewrite's COUNT-bug fix",
                        key=f"{expr.quantifier.name}.{expr.column}",
                    )
                elif joins and any(
                    expr.quantifier is q for q in box.quantifiers
                ):
                    self._report(
                        "PLN007", Severity.WARNING, box,
                        f"grouped COUNT column "
                        f"{expr.quantifier.name}.{expr.column} is consumed "
                        f"through an inner join: empty groups have no row, "
                        f"so outer rows silently disappear (the paper's "
                        f"COUNT bug, section 2.1)",
                        hint="join through a left outer join plus "
                             "COALESCE (Ganski/Wong fix), or use the magic "
                             "strategy",
                        key=f"{expr.quantifier.name}.{expr.column}",
                    )
            return
        for child in expr.children():
            self._scan_hazard(box, child, resolve, joins, guarded)


def _literal_contract(value: object) -> ColumnContract:
    if value is None:
        return ColumnContract("", None, True)
    if isinstance(value, bool):
        return ColumnContract("", SQLType.BOOL, False)
    if isinstance(value, int):
        return ColumnContract("", SQLType.INT, False)
    if isinstance(value, float):
        return ColumnContract("", SQLType.FLOAT, False)
    return ColumnContract("", SQLType.STR, False)


def _numeric_join(
    left: Optional[SQLType], right: Optional[SQLType]
) -> Optional[SQLType]:
    if SQLType.FLOAT in (left, right):
        return SQLType.FLOAT
    if left is SQLType.INT and right is SQLType.INT:
        return SQLType.INT
    return None


def _merge_contracts(
    parts: list[ColumnContract], name: str
) -> ColumnContract:
    """Positional merge (set operations, CASE branches): first known type
    wins when branches agree, unknown otherwise; nullability and taint are
    unioned."""
    if not parts:
        return replace(_UNKNOWN, name=name)
    known = {p.type for p in parts if p.type is not None}
    merged_type = known.pop() if len(known) == 1 else None
    return ColumnContract(
        name,
        merged_type,
        any(p.nullable for p in parts),
        frozenset().union(*(p.taint for p in parts)),
    )


# -- graph-interface checking (wired into the rewrite engine's lint) ---------


def _root_of(graph: Union[QueryGraph, Box]) -> Box:
    return graph.root if isinstance(graph, QueryGraph) else graph


def check_interfaces(
    graph: Union[QueryGraph, Box], catalog: Optional[Catalog] = None
) -> ContractInferencer:
    """Type every box interface of the graph; the returned inferencer holds
    the contracts (``.memo``) and the coded problems (``.problems``)."""
    inferencer = ContractInferencer(catalog)
    for box in iter_boxes(_root_of(graph)):
        inferencer.contract(box)
    return inferencer


def interface_diagnostics(
    graph: Union[QueryGraph, Box], catalog: Optional[Catalog] = None
) -> list[Diagnostic]:
    """Contract-level diagnostics only (no physical planning): safe to run
    on every intermediate rewrite graph."""
    return check_interfaces(graph, catalog).problems


def _make_interface_rule(code: str):
    def rule(
        graph: Union[QueryGraph, Box], catalog: Optional[Catalog]
    ) -> list[Diagnostic]:
        return [
            d for d in interface_diagnostics(graph, catalog) if d.code == code
        ]
    return rule


for _code, _title, _paper in (
    ("PLN001", "contract column resolution",
     'section 3: rewrite steps must preserve box interfaces'),
    ("PLN005", "typed aggregate inputs",
     'section 2: aggregate subqueries compute over typed columns'),
    ("PLN006", "COUNT-derived nullability provenance",
     'section 2.1: the COUNT bug as a nullability violation'),
    ("PLN007", "grouped COUNT through inner join",
     "section 2.1: Kim's rewrite drops empty groups"),
):
    register_rule(_code, _title, _paper)(_make_interface_rule(_code))


# -- physical-plan verification ----------------------------------------------


def verify_select_plan(
    catalog: Catalog,
    plan: SelectPlan,
    inferencer: Optional[ContractInferencer] = None,
) -> list[Diagnostic]:
    """Check one planned SPJ box for executor compatibility.

    Verifies access-step coverage (PLN010), reference binding order
    (PLN002), column resolution in step expressions (PLN001), index/key
    agreement (PLN003), ``correlated_to_self`` markings (PLN004), step
    arities (PLN009), and cardinality sanity (PLN008).
    """
    inf = inferencer if inferencer is not None else ContractInferencer(catalog)
    box = plan.box
    diags: list[Diagnostic] = []
    own = {id(q): q for q in box.quantifiers}

    def report(code: str, severity: Severity, message: str,
               hint: Optional[str] = None) -> None:
        diags.append(Diagnostic(
            code, severity, f"box {box.id} (select): {message}", hint=hint,
        ))

    # PLN010: every quantifier bound exactly once, no foreign quantifiers.
    access_steps = [
        s for s in plan.steps
        if isinstance(s, (ScanStep, IndexLookupStep, HashJoinStep))
    ]
    access_ids = [id(s.quantifier) for s in access_steps]
    for qid, q in own.items():
        bound_count = access_ids.count(qid)
        if bound_count == 0:
            report("PLN010", Severity.ERROR,
                   f"quantifier {q.name!r} has no access step")
        elif bound_count > 1:
            report("PLN010", Severity.ERROR,
                   f"quantifier {q.name!r} is bound by {bound_count} "
                   f"access steps")
    for step in access_steps:
        if id(step.quantifier) not in own:
            report("PLN010", Severity.ERROR,
                   f"access step binds foreign quantifier "
                   f"{step.quantifier.name!r} not ranged over by this box")

    # PLN008: cardinality bound sanity.
    rows = plan.estimated_rows
    if not isinstance(rows, (int, float)) or math.isnan(rows) \
            or math.isinf(rows) or rows < 0:
        report("PLN008", Severity.ERROR,
               f"estimated cardinality {rows!r} is not a finite "
               f"non-negative number")
    for placement in plan.scalar_placement.values():
        if not isinstance(placement, int) or placement < 0:
            report("PLN008", Severity.ERROR,
                   f"scalar subquery placement {placement!r} is not a "
                   f"valid barrier index")

    def check_refs(expr: ast.Expr, bound: set[int], what: str) -> None:
        for node in walk_expr(expr):
            if not isinstance(node, ColumnRef):
                continue
            qid = id(node.quantifier)
            if qid in own and qid not in bound:
                report("PLN002", Severity.ERROR,
                       f"{what} reads {node.quantifier.name}.{node.column} "
                       f"before the access step binding "
                       f"{node.quantifier.name!r}")
            producer = inf.contract(node.quantifier.box)
            if producer.column(node.column) is None:
                report("PLN001", Severity.ERROR,
                       f"{what} references column {node.column!r} absent "
                       f"from box {node.quantifier.box.id}'s contract")

    bound: set[int] = set()
    for step in plan.steps:
        if isinstance(step, ScanStep):
            expected = bool(_subtree_refs_to_box(box, step.quantifier.box))
            if step.correlated_to_self and not expected:
                report("PLN004", Severity.ERROR,
                       f"scan of {step.quantifier.name!r} is marked "
                       f"correlated_to_self but its subtree references no "
                       f"quantifier of this box")
            elif expected and not step.correlated_to_self:
                report("PLN004", Severity.ERROR,
                       f"scan of {step.quantifier.name!r} is not marked "
                       f"correlated_to_self but its subtree references "
                       f"quantifiers of this box (it must be re-executed "
                       f"per outer row)")
            if expected:
                required = _subtree_refs_to_box(box, step.quantifier.box)
                if not required <= bound:
                    names = sorted(
                        own[qid].name for qid in required - bound if qid in own
                    )
                    report("PLN002", Severity.ERROR,
                           f"correlated scan of {step.quantifier.name!r} "
                           f"runs before its correlation quantifiers "
                           f"({', '.join(names)}) are bound")
            bound.add(id(step.quantifier))
        elif isinstance(step, IndexLookupStep):
            if len(step.key_columns) != len(step.key_exprs):
                report("PLN009", Severity.ERROR,
                       f"index lookup on {step.quantifier.name!r} has "
                       f"{len(step.key_columns)} key columns but "
                       f"{len(step.key_exprs)} key expressions")
            if not isinstance(step.quantifier.box, BaseTableBox):
                report("PLN003", Severity.ERROR,
                       f"index lookup on {step.quantifier.name!r} targets a "
                       f"{step.quantifier.box.kind} box (only base tables "
                       f"have indexes)")
            else:
                try:
                    table = catalog.table(step.quantifier.box.table_name)
                    index = table.find_index(list(step.key_columns))
                except (CatalogError, SchemaError) as exc:
                    index = None
                    table = None
                    report("PLN003", Severity.ERROR,
                           f"index lookup on {step.quantifier.name!r} cannot "
                           f"be resolved: {exc}")
                if table is not None:
                    if index is None:
                        report(
                            "PLN003", Severity.ERROR,
                            f"no index on {step.quantifier.box.table_name}"
                            f"({', '.join(step.key_columns)}) for lookup "
                            f"step (claimed {step.index_name!r})")
                    elif index.name != step.index_name:
                        report(
                            "PLN003", Severity.ERROR,
                            f"index lookup names {step.index_name!r} but the "
                            f"index on ({', '.join(step.key_columns)}) is "
                            f"{index.name!r}")
            for expr in step.key_exprs:
                check_refs(expr, bound, "index key expression")
            bound.add(id(step.quantifier))
        elif isinstance(step, HashJoinStep):
            if len(step.build_exprs) != len(step.probe_exprs):
                report("PLN009", Severity.ERROR,
                       f"hash join on {step.quantifier.name!r} has "
                       f"{len(step.build_exprs)} build keys but "
                       f"{len(step.probe_exprs)} probe keys")
            if step.null_safe and \
                    len(step.null_safe) != len(step.build_exprs):
                report("PLN009", Severity.ERROR,
                       f"hash join on {step.quantifier.name!r} has "
                       f"{len(step.null_safe)} null-safe flags for "
                       f"{len(step.build_exprs)} key pairs")
            if _subtree_refs_to_box(box, step.quantifier.box):
                report("PLN004", Severity.ERROR,
                       f"hash join on {step.quantifier.name!r} builds over a "
                       f"child correlated to this box (must be a correlated "
                       f"scan)")
            this_q = id(step.quantifier)
            for expr in step.build_exprs:
                for node in walk_expr(expr):
                    if isinstance(node, ColumnRef):
                        qid = id(node.quantifier)
                        if qid in own and qid != this_q:
                            report(
                                "PLN002", Severity.ERROR,
                                f"hash-join build expression reads "
                                f"{node.quantifier.name}.{node.column}, not "
                                f"the joined quantifier "
                                f"{step.quantifier.name!r}")
                check_refs(expr, bound | {this_q}, "hash-join build key")
            for expr in step.probe_exprs:
                check_refs(expr, bound, "hash-join probe key")
            bound.add(this_q)
        elif isinstance(step, PredicateStep):
            check_refs(step.predicate, bound, "predicate")
        elif isinstance(step, SubqueryEvalStep):
            required = _subtree_refs_to_box(box, step.node.box)
            if not required <= bound:
                names = sorted(
                    own[qid].name for qid in required - bound if qid in own
                )
                report("PLN002", Severity.ERROR,
                       f"scalar subquery of box {step.node.box.id} is "
                       f"evaluated before its correlation quantifiers "
                       f"({', '.join(names)}) are bound")
    return diags


def verify_query_plan(
    catalog: Catalog,
    graph: Union[QueryGraph, Box],
    plans: Optional[Mapping[int, Any]] = None,
) -> tuple[list[Diagnostic], dict]:
    """Full verification: typed interfaces plus a checked step list for
    every SPJ box -- the one in ``plans`` (``{box.id: plan}``, what the
    executor is about to run), planned here only for a box that has none
    (a bare graph: ``repro lint``, the analysis report). Returns the
    diagnostics and a contract summary (the payload of the
    ``plan.verified`` event)."""
    root = _root_of(graph)
    inferencer = check_interfaces(root, catalog)
    diagnostics = list(inferencer.problems)
    checked = 0
    steps = 0
    for box in iter_boxes(root):
        if not isinstance(box, SelectBox):
            continue
        plan = plans.get(box.id) if plans else None
        if plan is None:
            try:
                plan = plan_select_box(catalog, box)
            except PlanError as exc:
                diagnostics.append(Diagnostic(
                    "PLN008", Severity.ERROR,
                    f"box {box.id} (select): planning failed: {exc}",
                ))
                continue
        diagnostics.extend(verify_select_plan(catalog, plan, inferencer))
        checked += 1
        steps += len(plan.steps)
    contracts = list(inferencer.memo.values())
    columns = [col for c in contracts for col in c.columns]
    summary = {
        "boxes": len(contracts),
        "plans": checked,
        "steps": steps,
        "columns": len(columns),
        "nullable_columns": sum(1 for col in columns if col.nullable),
        "tainted_columns": sum(1 for col in columns if col.taint),
        "errors": sum(
            1 for d in diagnostics if d.severity is Severity.ERROR),
        "warnings": sum(
            1 for d in diagnostics if d.severity is Severity.WARNING),
    }
    return diagnostics, summary


def verify_pre_execution(
    catalog: Catalog,
    graph: QueryGraph,
    plans: Optional[Mapping[int, Any]] = None,
) -> dict:
    """The ``REPRO_VALIDATE`` pre-execution gate: verify every plan of the
    rewritten graph (``plans``: the ones about to run), raising
    :class:`~repro.errors.PlanError` on any error-level finding; returns
    the contract summary for the ``plan.verified`` event."""
    diagnostics, summary = verify_query_plan(catalog, graph, plans)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        details = "; ".join(f"[{d.code}] {d.message}" for d in errors)
        raise PlanError(f"plan contract violated: {details}")
    return summary
