"""The ``Database`` facade: DDL/DML plus strategy-parameterised querying.

Typical use::

    from repro import Database, Strategy

    db = Database()
    db.execute_script(open("schema.sql").read())
    result = db.execute(correlated_sql, strategy=Strategy.MAGIC)
    print(result.columns, result.rows, result.metrics.subquery_invocations)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

from ..errors import BindError, ExecutionError, ReproError
from ..exec import ExecutionContext, Metrics, execute_graph
from ..faults import FaultRegistry
from ..guard import ExecutionGuard, Limits, guard_for
from ..plan.cache import CachedPlan
from ..plan.compile import compile_query, no_mark
from ..qgm import build_qgm, graph_to_text
from ..qgm.builder import bind_insert, bind_table
from ..qgm.model import QueryGraph
from ..sql import ast
from ..sql.parser import parse_statement
from ..sql.printer import to_sql
from ..storage import Catalog, Column, Schema
from ..types import SQLType
from .strategies import Strategy

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..trace import Tracer


@dataclass
class Result:
    """Rows plus schema and work counters for one executed statement.

    ``sql`` is the originating statement's text (used in error messages);
    ``degradations`` records the strategy fallback chain taken when
    ``execute(..., fallback=True)`` had to degrade (empty otherwise);
    ``tracer`` is the span collector when the query ran traced
    (``execute(..., tracer=...)``), ``None`` otherwise.
    """

    columns: list[str]
    rows: list[tuple]
    metrics: Metrics
    sql: str = ""
    degradations: list = field(default_factory=list)
    tracer: Optional["Tracer"] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """The single value of a 1x1 result.

        Raises a typed :class:`~repro.errors.ExecutionError` -- naming the
        originating query -- on an empty result instead of the ambiguous
        ``IndexError``/``None`` a bare row access would give.
        """
        origin = f" for query: {self.sql.strip()}" if self.sql else ""
        if not self.rows:
            raise ExecutionError(f"scalar() on an empty result{origin}")
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() on a {len(self.rows)}x{len(self.columns)} "
                f"result{origin}"
            )
        return self.rows[0][0]


def _const_value(expr: ast.Expr) -> Any:
    """Evaluate a constant expression (INSERT ... VALUES entries)."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.UnaryMinus):
        value = _const_value(expr.operand)
        return None if value is None else -value
    if isinstance(expr, ast.BinaryOp):
        from ..types import ARITHMETIC

        return ARITHMETIC[expr.op](
            _const_value(expr.left), _const_value(expr.right)
        )
    raise BindError("INSERT values must be constant expressions")


class Database:
    """An in-memory database with pluggable correlated-query strategies.

    ``validate`` turns on per-step rewrite invariant checking (the paper's
    section-3 consistency contract plus all lint rules, after every rewrite
    step); ``None`` defers to the ``REPRO_VALIDATE`` environment variable.

    ``faults`` is a deterministic fault-injection registry
    (:class:`repro.faults.FaultRegistry`); ``None`` defers to the
    ``REPRO_FAULTS`` environment variable (unset = no injection).

    ``events`` (a :class:`repro.obs.events.EventLog`) receives the
    engine-level events -- the rewrite engine (``query.degraded``), the
    guard (``guard.budget_exceeded``), the fault registry (``fault.fired``)
    and the plan verifier (``plan.verified``) emit into it, attributed to
    whatever query id the caller has scoped. A query's *lifecycle*
    (``query.started`` / ``query.finished``, slow-query capture) has one
    owner, the :class:`~repro.serve.service.QueryService`; a one-worker
    service is how to get it around a single query. ``None`` (the
    default) is the zero-overhead path.

    ``plan_cache`` (a :class:`repro.plan.cache.PlanCache`, shareable
    across facades) turns on prepared statements: repeated submissions of
    one template with different literals reuse one compiled query and pay
    only executor time, invalidating on any catalog change. ``None`` (the
    default) compiles every submission.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        validate: Optional[bool] = None,
        faults: Optional[FaultRegistry] = None,
        events=None,
        plan_cache=None,
    ):
        from ..rewrite import RewriteEngine

        self.catalog = catalog if catalog is not None else Catalog()
        self.faults = faults if faults is not None else FaultRegistry.from_env()
        self.events = events
        self.engine = RewriteEngine(
            self.catalog, validate=validate, faults=self.faults, events=events
        )
        if events is not None and self.faults is not None:
            self.faults.events = events
        self.plan_cache = plan_cache

    # -- DDL / DML -----------------------------------------------------------

    def execute_script(
        self,
        sql: str,
        strategy: Strategy = Strategy.NESTED_ITERATION,
        cse_mode: str = "recompute",
        limits: Optional[Limits] = None,
        fallback: bool = False,
    ) -> list[Result]:
        """Run a ``;``-separated script; returns one Result per statement.

        Each statement's source text is threaded onto its :class:`Result`
        (``result.sql``) and into any error it raises -- a failing DDL or
        INSERT names the originating statement the same way
        :meth:`Result.scalar` names its query. The whole script is parsed
        before the first statement executes, so a syntax error anywhere
        runs nothing. ``strategy``, ``cse_mode``, ``limits`` and
        ``fallback`` are :meth:`execute`'s, applied to every query in the
        script (``limits`` to each one afresh). The error of a failing
        statement carries the results of the ones before it
        (``exc.results``)."""
        from ..sql.splitter import split_statements

        sources = split_statements(sql)
        statements = [parse_statement(s) for s in sources]
        results: list[Result] = []
        for statement, source in zip(statements, sources):
            try:
                results.append(self._execute_statement(
                    statement, source, strategy=strategy, cse_mode=cse_mode,
                    limits=limits, fallback=fallback,
                ))
            except ReproError as exc:
                exc.results = results  # type: ignore[attr-defined]
                raise
        return results

    @staticmethod
    def _name_statement(exc: ReproError, sql: str) -> None:
        """Append the originating statement to ``exc``'s message (once) and
        stash it on ``exc.sql``; long statements are truncated."""
        if not sql or getattr(exc, "sql", ""):
            return
        exc.sql = sql  # type: ignore[attr-defined]
        text = " ".join(sql.split())
        if len(text) > 120:
            text = text[:117] + "..."
        exc.args = (f"{exc.args[0]} [in statement: {text}]",) + exc.args[1:]

    def _execute_statement(
        self, statement: ast.Statement, sql: str = "", **query
    ) -> Result:
        """One parsed statement; ``query`` holds the options of
        :meth:`_query`, used when the statement is one."""
        try:
            return self._execute_statement_inner(statement, sql, query)
        except ReproError as exc:
            self._name_statement(exc, sql)
            raise

    def _execute_statement_inner(
        self, statement: ast.Statement, sql: str, query: dict
    ) -> Result:
        if isinstance(statement, ast.CreateTable):
            columns = [
                Column(c.name, SQLType[c.type_name], nullable=not c.not_null)
                for c in statement.columns
            ]
            self.catalog.create_table(
                statement.name, Schema(columns, primary_key=statement.primary_key)
            )
            return Result([], [], Metrics(), sql=sql)
        if isinstance(statement, ast.CreateIndex):
            table = bind_table(statement.table, self.catalog)
            table.create_index(
                statement.name, list(statement.columns), unique=statement.unique
            )
            # Index DDL goes through the table, not the catalog: bump the
            # catalog generation explicitly so cached plans (which may have
            # chosen access paths) are invalidated.
            self.catalog.invalidate_stats(statement.table)
            return Result([], [], Metrics(), sql=sql)
        if isinstance(statement, ast.DropIndex):
            bind_table(statement.table, self.catalog).drop_index(statement.name)
            self.catalog.invalidate_stats(statement.table)
            return Result([], [], Metrics(), sql=sql)
        if isinstance(statement, ast.CreateView):
            # Views are validated eagerly then stored as SQL text.
            build_qgm(statement.query, self.catalog)
            self.catalog.create_view(statement.name, to_sql(statement.query))
            return Result([], [], Metrics(), sql=sql)
        if isinstance(statement, ast.Insert):
            return self._insert(statement, sql=sql)
        if isinstance(statement, (ast.Select, ast.SetOp)):
            return self._query(statement, sql=sql, **query)
        raise BindError(f"unsupported statement {type(statement).__name__}")

    def _insert(self, statement: ast.Insert, sql: str = "") -> Result:
        """All rows or none: every row is built and checked before the
        table takes any (:meth:`~repro.storage.table.Table.insert_many`)."""
        table, positions = bind_insert(statement, self.catalog)
        if statement.query is not None:
            value_rows: list[tuple] = self._query(statement.query).rows
        else:
            value_rows = [
                tuple(_const_value(e) for e in row_exprs)
                for row_exprs in statement.rows
            ]
        rows = []
        for values in value_rows:
            if len(values) != len(positions):
                raise BindError(
                    f"INSERT arity mismatch: {len(positions)} column(s), "
                    f"a row of {len(values)} value(s)"
                )
            row: list[Any] = [None] * len(table.schema)
            for position, value in zip(positions, values):
                row[position] = value
            rows.append(row)
        inserted = table.insert_many(rows)
        self.catalog.invalidate_stats(table.name)
        metrics = Metrics()
        metrics.rows_output = inserted
        return Result([], [], metrics, sql=sql)

    # -- queries ---------------------------------------------------------------

    def execute(
        self,
        sql: str,
        strategy: Strategy = Strategy.NESTED_ITERATION,
        cse_mode: str = "recompute",
        decorrelate_existential: bool = True,
        limits: Optional[Limits] = None,
        guard: Optional[ExecutionGuard] = None,
        fallback: bool = False,
        disabled=None,
        tracer: Optional["Tracer"] = None,
        phases=None,
    ) -> Result:
        """Parse, bind, rewrite per ``strategy``, and execute one statement.

        A query takes two steps: it is compiled
        (:func:`repro.plan.compile.compile_query` -- parse, bind, rewrite,
        plan every box, verify under validation) and the compiled query is
        run. With a plan cache the lookup comes first: a hit runs the
        stored entry with this submission's literal values, a miss compiles
        the parameterized text -- once, on this facade's engine, under the
        options below -- stores it (:meth:`repro.plan.cache.PlanCache.compile`
        holds the rule) and runs it the same way.

        ``cse_mode`` controls whether shared boxes created by decorrelation
        (the supplementary table) are recomputed per reference (the paper's
        Starburst behaviour) or materialised once.
        ``decorrelate_existential`` is the paper's section 4.4 knob: when
        False, magic decorrelation leaves EXISTS/IN/ANY/ALL subqueries
        correlated instead of building CI boxes over materialised results.

        ``limits`` (a :class:`repro.guard.Limits`) bounds the execution:
        exceeding any budget raises a typed
        :class:`~repro.errors.BudgetExceeded` within one executor step,
        carrying the metrics snapshot at trip time. ``guard`` passes a
        pre-built :class:`repro.guard.ExecutionGuard` instead -- useful for
        cooperative cancellation from another thread. ``limits=None`` (the
        default) adds no overhead.

        ``fallback=True`` enables graceful degradation: if the requested
        strategy's rewrite fails, the engine retries along
        ``requested -> magic -> nested iteration`` and records the taken
        chain as :class:`~repro.rewrite.engine.DegradationEvent`s on
        ``Result.degradations``. ``disabled`` (fallback mode only) is a
        per-strategy veto callable forwarded to
        :meth:`~repro.rewrite.engine.RewriteEngine.rewrite_with_fallback`
        -- the query service's circuit breakers use it to skip quarantined
        strategies without re-paying their rewrite.

        ``tracer`` (a :class:`repro.trace.Tracer`) collects the span tree
        -- one aggregate node per rewrite step and per plan node -- and is
        returned on ``Result.tracer``. ``None`` (the default) is the
        zero-overhead untraced path.

        ``phases`` (a :class:`repro.obs.phases.PhaseTimeline`) receives
        phase marks as the pipeline advances -- ``plan_cache`` after the
        cache lookup, ``rewrite`` after parse+rewrite, ``optimize`` after
        physical planning (and plan verification, under validation),
        ``execute`` after the operator graph runs -- so a caller measuring
        whole-query latency on the same clock can attribute every
        interval. ``None`` (the default) adds no overhead.
        """
        mark = no_mark if phases is None else phases.mark
        guard = self._guard(limits, guard)
        live = dict(
            fallback=fallback, disabled=disabled, guard=guard,
            faults=self.faults, tracer=tracer, mark=mark,
        )
        compiled, values = None, ()
        if self.plan_cache is not None:
            # The catalog generation is read *before* the lookup, so an
            # artifact stored after this miss carries a stamp from no later
            # than its own build inputs -- DDL racing the compile leaves
            # the stored stamp behind and the entry self-invalidates on the
            # next lookup.
            prepared = self.plan_cache.prepare(
                sql, strategy=strategy, cse_mode=cse_mode,
                decorrelate_existential=decorrelate_existential,
                generation=self.catalog.generation(), disabled=disabled,
            )
            mark("plan_cache")
            if prepared is not None:
                compiled = prepared.entry
                if compiled is None and prepared.fillable:
                    compiled = self.plan_cache.compile(
                        prepared, self.catalog, self.engine, **live
                    )
                if compiled is not None:
                    values = prepared.values
        if compiled is None:
            statement = parse_statement(sql)
            if not isinstance(statement, (ast.Select, ast.SetOp)):
                return self._execute_statement(statement, sql)
            compiled = compile_query(
                statement, self.catalog, self.engine, strategy,
                decorrelate_existential=decorrelate_existential, **live,
            )
        return self._run(
            compiled, values, cse_mode,
            sql=sql, guard=guard, tracer=tracer, mark=mark,
        )

    def _guard(
        self, limits: Optional[Limits], guard: Optional[ExecutionGuard]
    ) -> Optional[ExecutionGuard]:
        """The one place ``limits`` become a guard, and the guard gets
        this facade's event log (budget trips are engine-level events)."""
        if guard is None:
            guard = guard_for(limits)
        if guard is not None and self.events is not None:
            guard.events = self.events
        return guard

    def _query(
        self,
        statement: ast.QueryBody,
        strategy: Strategy = Strategy.NESTED_ITERATION,
        cse_mode: str = "recompute",
        limits: Optional[Limits] = None,
        fallback: bool = False,
        sql: str = "",
    ) -> Result:
        """Compile and run a query that arrived parsed (a script's, an
        ``INSERT ... SELECT``'s): no plan cache, this facade's engine."""
        guard = self._guard(limits, None)
        compiled = compile_query(
            statement, self.catalog, self.engine, strategy,
            fallback=fallback, guard=guard, faults=self.faults,
        )
        return self._run(compiled, (), cse_mode, sql=sql, guard=guard)

    def _run(
        self,
        compiled: CachedPlan,
        values: tuple = (),
        cse_mode: str = "recompute",
        *,
        sql: str = "",
        guard: Optional[ExecutionGuard] = None,
        tracer: Optional["Tracer"] = None,
        mark=no_mark,
    ) -> Result:
        """The one run step: execute a compiled query with this
        submission's ``?`` values. The artifact is only read -- its plans
        are copied into the execution's own context -- so one cached entry
        serves concurrent runs."""
        ctx = ExecutionContext(
            self.catalog, compiled.graph.root, cse_mode,
            guard=guard, faults=self.faults, tracer=tracer, params=values,
        )
        ctx.seed_plans(compiled.plans, compiled.shared)
        try:
            rows, metrics = execute_graph(compiled.graph, self.catalog, ctx)
        except ReproError as exc:
            # The plan that failed is the one the chain ended on: the chain
            # leaves with the error, as it does from rewrite_with_fallback.
            exc.degradations = list(compiled.degradations)  # type: ignore[attr-defined]
            raise
        mark("execute")
        return Result(
            compiled.graph.output_names(), rows, metrics, sql=sql,
            degradations=list(compiled.degradations), tracer=tracer,
        )

    def rewrite(
        self,
        statement: ast.QueryBody,
        strategy: Strategy,
        decorrelate_existential: bool = True,
        tracer: Optional["Tracer"] = None,
    ) -> QueryGraph:
        """Build the QGM and apply the strategy's rewrite (validated).

        With validation enabled on the engine, the validator and lint rules
        also run after every individual rewrite step."""
        graph = build_qgm(statement, self.catalog)
        return self.engine.rewrite(
            graph, strategy,
            decorrelate_existential=decorrelate_existential, tracer=tracer,
        )

    def analyze(self, sql: str):
        """Static analysis of one statement: coded diagnostics, correlation
        patterns, and per-strategy applicability verdicts. Never raises on
        bad SQL -- problems come back as diagnostics in the report."""
        from ..analyze import analyze_sql

        return analyze_sql(sql, self.catalog)

    def explain(
        self,
        sql: str,
        strategy: Strategy = Strategy.NESTED_ITERATION,
        analyze: bool = False,
        cse_mode: str = "recompute",
        tracer: Optional["Tracer"] = None,
    ) -> str:
        """The (rewritten) QGM as text -- the engine's EXPLAIN.

        ``analyze=True`` is the engine's ``EXPLAIN ANALYZE``: the query is
        rewritten and *executed* under a :class:`repro.trace.Tracer`, and
        the rendering becomes the physical plan annotated per operator
        with observed calls, rows, cache hits and elapsed time, followed
        by the rewrite timeline, a per-operator breakdown table, and a
        reconciliation footer checking that the summed per-span metric
        deltas reproduce the whole-query totals exactly. ``tracer`` lets
        callers pass a pre-built collector (e.g. with a fake clock) and
        inspect the span tree afterwards."""
        if not analyze:
            return graph_to_text(self._compile(sql, "EXPLAIN", strategy).graph)

        from ..exec.metrics import SUM_FIELD_NAMES
        from ..plan.pretty import plan_to_text
        from ..trace import (
            Tracer,
            render_operator_table,
            render_rewrite_timeline,
        )

        if tracer is None:
            tracer = Tracer()
        compiled = self._compile(sql, "EXPLAIN", strategy, tracer)
        result = self._run(compiled, (), cse_mode, tracer=tracer)
        rows, metrics = result.rows, result.metrics
        span_totals = tracer.metric_totals()
        query_totals = {
            name: getattr(metrics, name) for name in SUM_FIELD_NAMES
        }
        if span_totals == query_totals:
            verdict = "per-span metric deltas reconcile exactly with query totals"
        else:  # pragma: no cover - the attribution invariant failing
            diffs = ", ".join(
                f"{k}: spans={span_totals[k]} query={query_totals[k]}"
                for k in SUM_FIELD_NAMES
                if span_totals[k] != query_totals[k]
            )
            verdict = f"per-span metric deltas DIVERGE from query totals ({diffs})"
        key = getattr(strategy, "value", strategy)
        return "\n".join([
            # The step lists the executor ran, not a fresh plan of them.
            plan_to_text(
                self.catalog, compiled.graph, tracer=tracer,
                plans=compiled.plans,
            ),
            "",
            "Rewrite timeline:",
            render_rewrite_timeline(tracer, indent="  "),
            "",
            "Per-operator breakdown:",
            render_operator_table(tracer, indent="  "),
            "",
            f"Execution: {len(rows)} rows via strategy {key!r}, "
            f"total work {metrics.total_work()}, "
            f"peak live materialisation {metrics.peak_rows_materialized} rows; "
            + verdict,
        ])

    def explain_plan(
        self, sql: str, strategy: Strategy = Strategy.NESTED_ITERATION
    ) -> str:
        """The physical plan after the strategy's rewrite: access paths,
        join order, predicate placement and -- the paper's section 7
        concern -- where correlated subqueries are evaluated."""
        from ..plan.pretty import plan_to_text

        compiled = self._compile(sql, "EXPLAIN PLAN", strategy)
        return plan_to_text(self.catalog, compiled.graph, plans=compiled.plans)

    def rewritten_sql(
        self, sql: str, strategy: Strategy = Strategy.MAGIC
    ) -> str:
        """The rewritten query as CREATE VIEW statements plus a final
        SELECT -- the presentation the paper uses in section 2.1 for the
        magic-decorrelated example."""
        from ..qgm.sqlgen import graph_to_sql

        return graph_to_sql(self._compile(sql, "rewritten_sql", strategy).graph)

    def _compile(
        self, sql: str, what: str, strategy: Strategy, tracer=None
    ) -> CachedPlan:
        """The compiled query an explain entry point renders; ``what``
        names the entry point to a caller who handed it something else."""
        statement = parse_statement(sql)
        if not isinstance(statement, (ast.Select, ast.SetOp)):
            raise BindError(f"{what} is only available for queries")
        return compile_query(
            statement, self.catalog, self.engine, strategy,
            faults=self.faults, tracer=tracer,
        )
