"""The QGM executor.

Each box kind has an evaluation routine; SPJ boxes are first compiled by the
planner (:mod:`repro.plan.planner`) into a step list that fixes access paths,
join order and correlated-subquery placement. There is exactly **one**
executor: nested iteration and the decorrelated strategies differ only in
the QGM they hand over, which mirrors how the paper compares rewrites inside
a single system (Starburst).

Expressions are not interpreted per row. The first time a box runs, its
expressions and plan steps are compiled into closures (:func:`plan_box`,
"compiled plans" below) that are kept beside the physical plan, so every
later invocation of the box -- each outer row of a nested iteration, each
hit of a cached plan -- only calls them.

Common-subexpression handling follows the paper:

* boxes with a single parent that are uncorrelated are materialised once per
  query (ordinary temp-table behaviour -- this is what makes the paper's CI
  boxes "repeated correlated selections *on the result* of the decorrelated
  subquery" rather than repeated recomputations);
* boxes with several parents (the supplementary table after magic
  decorrelation) follow ``cse_mode``: ``"recompute"`` re-executes per
  reference -- "the version of Starburst on which the experiments were run
  always recomputes common sub-expressions" (section 5.1) -- while
  ``"materialize"`` computes them once (the paper's hypothesised
  improvement, measured by the ablation benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import concat, itemgetter
from typing import (
    Any,
    Callable,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
    TYPE_CHECKING,
)

from ..errors import ExecutionError
from ..qgm.analysis import external_column_refs, parent_edges
from ..qgm.expr import ColumnRef, column_refs, conjuncts
from ..qgm.model import (
    BaseTableBox,
    Box,
    GroupByBox,
    OuterJoinBox,
    Quantifier,
    QueryGraph,
    SelectBox,
    SetOpBox,
)
from ..plan.planner import (
    HashJoinStep,
    IndexLookupStep,
    PredicateStep,
    ScanStep,
    SelectPlan,
    SubqueryEvalStep,
    plan_select_box,
    step_label,
)
from ..sql import ast
from ..storage.catalog import Catalog
from ..types import sort_key
from .aggregates import compute_aggregate
from .evaluate import (
    Compiled,
    Env,
    compile_expr,
    flat_position,
    reads_only,
    scalar_subquery_value,
)
from .metrics import Metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..faults import FaultRegistry
    from ..guard import ExecutionGuard
    from ..trace import Tracer


def box_label(box: Box) -> str:
    """The short operator name a box carries in traces and plan output."""
    if isinstance(box, BaseTableBox):
        return f"table {box.table_name} [{box.id}]"
    return f"{box.kind} [{box.id}]"


class ExecutionContext:
    """Per-query state: catalog, metrics, plan cache, CSE materialisation.

    ``guard`` (optional) is the cooperative budget checker of
    :mod:`repro.guard`; it is consulted at step granularity so budget trips
    and cancellation are observed within one executor step. ``faults``
    (optional) is the deterministic fault-injection registry of
    :mod:`repro.faults`. ``tracer`` (optional) is the span collector of
    :mod:`repro.trace`, fed one aggregated span per box and per plan step.
    All three default to ``None`` -- the zero-overhead path.
    """

    def __init__(
        self,
        catalog: Catalog,
        root: Box,
        cse_mode: str = "recompute",
        guard: Optional["ExecutionGuard"] = None,
        faults: Optional["FaultRegistry"] = None,
        tracer: Optional["Tracer"] = None,
        params: tuple = (),
    ):
        if cse_mode not in ("recompute", "materialize"):
            raise ExecutionError(f"unknown cse_mode {cse_mode!r}")
        self.catalog = catalog
        self.cse_mode = cse_mode
        #: Bound values for ``ast.Parameter`` placeholders (plan-cache hits
        #: execute a shared parameterized graph with per-query values here).
        self.params = params
        self.metrics = Metrics()
        self.guard = guard
        self.faults = faults
        self.tracer = tracer
        if guard is not None:
            guard.attach(self.metrics)
        if tracer is not None:
            tracer.attach(self.metrics)
        self._root = root
        self._parents = parent_edges(root)
        #: box id -> SelectPlan / GroupByPlan / OuterJoinPlan, closures
        #: compiled (see :func:`plan_box`).
        self._plans: dict[int, Any] = {}
        self._cache: dict[int, list[tuple]] = {}
        self._correlated: dict[int, bool] = {}
        self._executions: dict[int, int] = {}

    # -- helpers -----------------------------------------------------------

    def checkpoint(self) -> None:
        """One cooperative guardrail check (no-op without a guard)."""
        if self.guard is not None:
            self.guard.check()

    def seed_plans(self, plans: dict) -> None:
        """Pre-populate the per-box plan table (``{box.id: plan}``, as
        :func:`plan_box` returns them).

        Plan-cache hits seed the plans computed at fill time; the shared
        dict is copied from, never mutated, so one cached entry -- and the
        closures compiled into it -- can serve concurrent executions. A
        :class:`SelectPlan` straight from the planner is compiled in place
        when its box first runs, so it must not be seeded into contexts
        that run concurrently."""
        self._plans.update(plans)

    def plan(self, box: Box):
        """The (cached) plan for one SPJ, GROUP BY or outer-join box, its
        expressions compiled: built the first time the box runs, reused by
        every later invocation of it."""
        plan = self._plans.get(box.id)
        if plan is None:
            if self.faults is not None and isinstance(box, SelectBox):
                self.faults.trigger("plan.select", detail=f"box {box.id}")
            plan = plan_box(self.catalog, box, guard=self.guard)
            self._plans[box.id] = plan
        return plan

    def is_box_correlated(self, box: Box) -> bool:
        """Does ``box``'s subtree reference quantifiers outside itself?"""
        cached = self._correlated.get(box.id)
        if cached is None:
            cached = bool(external_column_refs(box))
            self._correlated[box.id] = cached
        return cached

    def subquery_rows(
        self, box: Box, env: Env, first_only: bool = False
    ) -> list[tuple]:
        """Execute a subquery box from an expression context (one invocation)."""
        self.metrics.subquery_invocations += 1
        self.checkpoint()
        if self.faults is not None:
            self.faults.trigger("exec.subquery", detail=f"box {box.id}")
        return self.box_rows(box, env)

    # -- box dispatch ------------------------------------------------------

    def box_rows(self, box: Box, env: Env) -> list[tuple]:
        """The output rows of ``box`` under ``env``, with CSE caching."""
        correlated = self.is_box_correlated(box)
        if not correlated:
            cached = self._cache.get(box.id)
            if cached is not None:
                if self.tracer is not None:
                    self.tracer.cache_hit(
                        ("box", box.id), box_label(box), "operator"
                    )
                return cached
        tracer = self.tracer
        if tracer is None:
            return self._execute_box(box, env, correlated)
        frame = tracer.begin(("box", box.id), box_label(box), "operator")
        rows: Optional[list[tuple]] = None
        try:
            rows = self._execute_box(box, env, correlated)
            return rows
        finally:
            tracer.end(frame, rows_out=0 if rows is None else len(rows))

    def _execute_box(
        self, box: Box, env: Env, correlated: bool
    ) -> list[tuple]:
        if not isinstance(box, BaseTableBox):
            count = self._executions.get(box.id, 0) + 1
            self._executions[box.id] = count
            if count > 1:
                self.metrics.boxes_recomputed += 1
        rows = self._compute(box, env)
        if not correlated and not isinstance(box, BaseTableBox) and (
            len(self._parents.get(box.id, ())) <= 1
            or self.cse_mode == "materialize"
            or self._forces_materialisation(box)
        ):
            self._cache[box.id] = rows
            self.metrics.materialize(len(rows))
            self.checkpoint()
        return rows

    def release_materializations(self) -> None:
        """Drop every CSE/temp cache, releasing its rows from the live
        materialisation count -- query teardown (the metrics keep the
        cumulative and high-water figures)."""
        for rows in self._cache.values():
            self.metrics.release(len(rows))
        self._cache.clear()

    @staticmethod
    def _forces_materialisation(box: Box) -> bool:
        """Boxes whose operator must materialise its result anyway
        (duplicate elimination, grouping, set operations): re-reading that
        temp is free in any engine, so shared references are served from it
        even under ``cse_mode="recompute"``. The paper's recompute problem
        concerns *streamable* common subexpressions -- specifically the
        supplementary SPJ box ("the common sub-expression formed by the
        supplementary table"), which this predicate deliberately excludes.
        """
        if isinstance(box, (GroupByBox, SetOpBox)):
            return True
        return isinstance(box, SelectBox) and box.distinct

    def _compute(self, box: Box, env: Env) -> list[tuple]:
        if isinstance(box, BaseTableBox):
            return self._rows_base(box)
        if isinstance(box, SelectBox):
            return self._rows_select(box, env)
        if isinstance(box, GroupByBox):
            return self._rows_groupby(box, env)
        if isinstance(box, SetOpBox):
            return self._rows_setop(box, env)
        if isinstance(box, OuterJoinBox):
            return self._rows_outerjoin(box, env)
        raise ExecutionError(f"cannot execute box kind {box.kind!r}")

    # -- base table --------------------------------------------------------

    def _rows_base(self, box: BaseTableBox) -> list[tuple]:
        if self.faults is not None:
            self.faults.trigger("storage.scan", detail=box.table_name)
        table = self.catalog.table(box.table_name)
        self.metrics.rows_scanned += len(table)
        self.checkpoint()
        return table.rows

    # -- SPJ ------------------------------------------------------------------

    def _rows_select(self, box: SelectBox, outer_env: Env) -> list[tuple]:
        plan = self.plan(box)
        compiled = plan.compiled
        if compiled is None:
            # Seeded straight from the planner, not yet compiled.
            compiled = plan.compiled = compile_select(plan)
        tracer = self.tracer
        # What the box's expressions read (see "compiled plans" below): the
        # flat row of the quantifiers bound so far, or an Env.
        members: list = [()] if compiled.positional else [outer_env]
        for index, run in enumerate(compiled.steps):
            if not members:
                break
            if tracer is None:
                self.checkpoint()
                members = run(self, members, outer_env)
                continue
            frame = tracer.begin(
                ("step", box.id, index), step_label(plan.steps[index]), "step",
                rows_in=len(members),
            )
            out: Optional[list] = None
            try:
                self.checkpoint()
                out = run(self, members, outer_env)
                members = out
            finally:
                tracer.end(frame, rows_out=0 if out is None else len(out))
        rows = list(compiled.project(members, self))
        if box.distinct:
            rows = _dedupe(rows)
        return rows

    # -- GROUP BY ---------------------------------------------------------------

    def _rows_groupby(self, box: GroupByBox, env: Env) -> list[tuple]:
        q = box.quantifier
        if self.faults is not None:
            self.faults.trigger("exec.group", detail=f"box {box.id}")
        plan = self.plan(box)
        input_rows = self.box_rows(q.box, env)
        self.metrics.rows_grouped += len(input_rows)
        self.checkpoint()

        # What the compiled expressions read: the input rows themselves,
        # or one Env per row when some expression looks beyond them.
        members = (
            input_rows if plan.positional
            else [env.bind(q, row) for row in input_rows]
        )
        groups: dict[tuple, list] = {}
        for key, member in zip(plan.keys(members, self), members):
            group = groups.get(key)
            if group is None:
                groups[key] = [member]
            else:
                group.append(member)

        if box.is_scalar and not groups:
            groups[()] = []

        # The grouping work table holds the full input partitioned by key
        # until aggregation finishes -- a transient materialisation.
        self.metrics.materialize(len(input_rows))
        self.checkpoint()
        try:
            guard = self.guard
            rows: list[tuple] = []
            for group in groups.values():
                values = []
                for func, distinct, argument, value in plan.outputs:
                    if func is None:
                        values.append(value(group[0] if group else env, self))
                    else:
                        values.append(compute_aggregate(
                            func,
                            None if argument is None else argument(group, self),
                            len(group), distinct, guard=guard,
                        ))
                rows.append(tuple(values))
            return rows
        finally:
            self.metrics.release(len(input_rows))

    # -- set operations ------------------------------------------------------

    def _rows_setop(self, box: SetOpBox, env: Env) -> list[tuple]:
        from collections import Counter

        child_rows = [self.box_rows(q.box, env) for q in box.quantifiers]
        if box.op == "union":
            merged: list[tuple] = []
            for rows in child_rows:
                merged.extend(rows)
            return merged if box.all else _dedupe(merged)
        if box.op == "intersect":
            if box.all:
                # Bag intersection: min of multiplicities.
                counts = Counter(child_rows[0])
                for rows in child_rows[1:]:
                    other = Counter(rows)
                    counts = Counter(
                        {r: min(n, other[r]) for r, n in counts.items() if r in other}
                    )
                result: list[tuple] = []
                for row in child_rows[0]:
                    if counts.get(row, 0) > 0:
                        counts[row] -= 1
                        result.append(row)
                return result
            common = set(child_rows[0])
            for rows in child_rows[1:]:
                common &= set(rows)
            return _dedupe([r for r in child_rows[0] if r in common])
        if box.op == "except":
            if box.all:
                # Bag difference: multiplicities subtract.
                removed_counts = Counter()
                for rows in child_rows[1:]:
                    removed_counts.update(rows)
                result = []
                for row in child_rows[0]:
                    if removed_counts.get(row, 0) > 0:
                        removed_counts[row] -= 1
                    else:
                        result.append(row)
                return result
            removed = set()
            for rows in child_rows[1:]:
                removed |= set(rows)
            return _dedupe([r for r in child_rows[0] if r not in removed])
        raise ExecutionError(f"unknown set operation {box.op!r}")

    # -- outer join -----------------------------------------------------------

    def _rows_outerjoin(self, box: OuterJoinBox, env: Env) -> list[tuple]:
        left_q, right_q = box.preserved, box.null_producing
        plan = self.plan(box)
        left_rows = self.box_rows(left_q.box, env)
        right_rows = self.box_rows(right_q.box, env)
        null_row = (None,) * len(right_q.box.output_names())
        condition = plan.condition

        # Flat ``left + right`` rows when nothing else is read, else Envs.
        if plan.positional:
            lefts, pair = left_rows, concat
        else:
            lefts = [env.bind(left_q, row) for row in left_rows]

            def pair(left: Env, row: tuple) -> Env:
                return left.bind(right_q, row)

        buckets: Optional[dict[tuple, list[tuple]]] = None
        n_built = 0
        if plan.left_keys is not None:
            null_safe = plan.null_safe
            rights = (
                right_rows if plan.positional
                else [env.bind(right_q, row) for row in right_rows]
            )
            buckets = {}
            for key, row in zip(plan.right_keys(rights, self), right_rows):
                if None in key:
                    key = _join_key(key, null_safe)
                    if key is None:
                        continue
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [row]
                else:
                    bucket.append(row)
                n_built += 1
            # Transient build-side materialisation, as in a hash-join step.
            self.metrics.materialize(n_built)
            self.checkpoint()
            left_keys = plan.left_keys(lefts, self)
        else:
            left_keys = repeat(None)

        joined: list = []
        n_joined = 0
        try:
            for key, left in zip(left_keys, lefts):
                if buckets is None:
                    matches: Sequence[tuple] = right_rows
                else:
                    if None in key:
                        key = _join_key(key, null_safe)
                    matches = () if key is None else buckets.get(key, ())
                matched = False
                for row in matches:
                    both = pair(left, row)
                    if condition is None or condition(both, self) is True:
                        matched = True
                        n_joined += 1
                        joined.append(both)
                if not matched:
                    joined.append(pair(left, null_row))
            return list(plan.project(joined, self))
        finally:
            self.metrics.rows_joined += n_joined
            self.metrics.release(n_built)


# -- compiled plans -------------------------------------------------------------
#
# Everything below runs once per box, not per row: it resolves a box's
# expressions into closures (repro.exec.evaluate) and its plan steps into
# ``run(ctx, members, outer_env)`` functions. No closure captures an
# ExecutionContext, so the result is stored beside the physical plan and
# shared by every invocation of the box and every execution of a cached
# graph.
#
# A box is compiled in one of two modes. *Positional*: all its expressions
# read only the box's own quantifiers (no outer reference, no subquery), so
# the rows bound so far are kept as one flat tuple -- each quantifier's
# columns at a fixed offset -- and expressions index it. Otherwise its
# bindings live in an Env, which also carries the outer bindings that
# correlated references and nested boxes need. Either way the compiled
# expressions take ``(member, ctx)``; only how a member is extended by one
# more row differs.

#: One compiled plan step: the members after the step, given those before.
StepFunction = Callable[["ExecutionContext", list, Env], list]
#: One value (or tuple of values) per member of a batch, lazily.
BatchFunction = Callable[[Sequence, "ExecutionContext"], Iterable]
#: Quantifier -> position of its first column in a flat row; ``None`` = Env.
Offsets = Optional[dict[Quantifier, int]]


@dataclass(frozen=True)
class CompiledSelect:
    """The executable form of a :class:`SelectPlan` (its ``compiled``)."""

    positional: bool
    steps: tuple[StepFunction, ...]
    #: members -> output rows (before DISTINCT).
    project: BatchFunction


class CompiledOutput(NamedTuple):
    """One GROUP BY output: an aggregate (``func`` set; ``argument`` maps
    a group's members to its input values, ``None`` for ``COUNT(*)``) or a
    plain expression evaluated on a representative member (``value``)."""

    func: Optional[str] = None
    distinct: bool = False
    argument: Optional[BatchFunction] = None
    value: Optional[Compiled] = None


@dataclass(frozen=True)
class GroupByPlan:
    positional: bool
    keys: BatchFunction
    outputs: tuple[CompiledOutput, ...]


@dataclass(frozen=True)
class OuterJoinPlan:
    positional: bool
    #: Hash keys of an all-equality ON condition, else all three ``None``.
    left_keys: Optional[BatchFunction]
    right_keys: Optional[BatchFunction]
    null_safe: Optional[tuple[bool, ...]]
    condition: Optional[Compiled]
    project: BatchFunction


def plan_box(catalog: Catalog, box: Box, guard=None):
    """The executor's plan for one box, its expressions compiled: a
    :class:`SelectPlan` (cost-based, see :mod:`repro.plan.planner`) for an
    SPJ box, a :class:`GroupByPlan` or :class:`OuterJoinPlan` for those
    kinds, ``None`` for kinds that evaluate no expression."""
    if isinstance(box, SelectBox):
        plan = plan_select_box(catalog, box, guard=guard)
        plan.compiled = compile_select(plan)
        return plan
    if isinstance(box, GroupByBox):
        return _compile_groupby(box)
    if isinstance(box, OuterJoinBox):
        return _compile_outerjoin(box)
    return None


def compile_select(plan: SelectPlan) -> CompiledSelect:
    """Compile the steps and the projection of one SPJ plan."""
    box = plan.box
    offsets = None
    # A child correlated to this box is run once per member and reads this
    # box's bindings from the Env it is handed.
    if reads_only(box.own_exprs(), box.quantifiers) and not any(
        isinstance(step, ScanStep) and step.correlated_to_self
        for step in plan.steps
    ):
        offsets = _flat_offsets(plan.join_order)
    return CompiledSelect(
        positional=offsets is not None,
        steps=tuple(_compile_step(step, offsets) for step in plan.steps),
        project=_compile_tuples([o.expr for o in box.outputs], offsets),
    )


def _flat_offsets(quantifiers: Iterable[Quantifier]) -> dict[Quantifier, int]:
    """Where each quantifier's columns start when their rows are
    concatenated in this order."""
    offsets, width = {}, 0
    for q in quantifiers:
        offsets[q] = width
        width += len(q.box.output_names())
    return offsets


def _extender(q: Quantifier, offsets: Offsets) -> Callable:
    """``extend(member, row)``: the member with a row of ``q`` bound too."""
    if offsets is not None:
        return concat
    # Env.bind, spelled out: one call per row instead of two.
    return lambda env, row: Env({**env.bindings, q: row}, env.values)


def _compile_values(expr: ast.Expr, offsets: Offsets = None) -> BatchFunction:
    """``expr`` over a batch of members."""
    if offsets is not None and isinstance(expr, ColumnRef):
        getter = itemgetter(flat_position(expr, offsets))
        return lambda members, ctx: map(getter, members)
    fn = compile_expr(expr, offsets)
    return lambda members, ctx: map(fn, members, repeat(ctx))


def _compile_tuples(
    exprs: Sequence[ast.Expr], offsets: Offsets = None
) -> BatchFunction:
    """The tuple of ``exprs`` over a batch of members: join and group keys,
    projections."""
    if len(exprs) == 1:
        values = _compile_values(exprs[0], offsets)
        return lambda members, ctx: zip(values(members, ctx))
    if offsets is not None and exprs and all(
        isinstance(e, ColumnRef) for e in exprs
    ):
        getter = itemgetter(*[flat_position(e, offsets) for e in exprs])
        return lambda members, ctx: map(getter, members)
    fns = tuple(compile_expr(e, offsets) for e in exprs)

    def tuple_of(member, ctx):
        return tuple([fn(member, ctx) for fn in fns])

    return lambda members, ctx: map(tuple_of, members, repeat(ctx))


def _compile_step(step, offsets: Offsets) -> StepFunction:
    if isinstance(step, ScanStep):
        return _compile_scan(step, offsets)
    if isinstance(step, IndexLookupStep):
        return _compile_index_lookup(step, offsets)
    if isinstance(step, HashJoinStep):
        return _compile_hash_join(step, offsets)
    if isinstance(step, PredicateStep):
        predicate = compile_expr(step.predicate, offsets)
        # WHERE semantics: UNKNOWN does not qualify.
        return lambda ctx, members, outer_env: [
            m for m in members if predicate(m, ctx) is True
        ]
    if isinstance(step, SubqueryEvalStep):
        node = step.node
        key = id(node)
        return lambda ctx, envs, outer_env: [
            env.with_value(key, scalar_subquery_value(node, env, ctx))
            for env in envs
        ]
    raise ExecutionError(f"unknown plan step {step!r}")


def _compile_scan(step: ScanStep, offsets: Offsets) -> StepFunction:
    q = step.quantifier
    child = q.box
    detail = f"scan {q.name}"
    extend = _extender(q, offsets)

    def scan_per_env(ctx, envs, outer_env):
        if ctx.faults is not None:
            ctx.faults.trigger("exec.join", detail=detail)
        metrics = ctx.metrics
        result: list[Env] = []
        for env in envs:
            metrics.subquery_invocations += 1
            child_rows = ctx.box_rows(child, env)
            metrics.rows_joined += len(child_rows)
            result.extend([env.bind(q, row) for row in child_rows])
        return result

    def scan(ctx, members, outer_env):
        if ctx.faults is not None:
            ctx.faults.trigger("exec.join", detail=detail)
        child_rows = ctx.box_rows(child, outer_env)
        ctx.metrics.rows_joined += len(child_rows) * len(members)
        return [extend(m, row) for m in members for row in child_rows]

    return scan_per_env if step.correlated_to_self else scan


def _compile_index_lookup(step: IndexLookupStep, offsets: Offsets) -> StepFunction:
    q = step.quantifier
    table_name = q.box.table_name
    index_name = step.index_name
    extend = _extender(q, offsets)
    keys = (
        _compile_values(step.key_exprs[0], offsets)
        if len(step.key_exprs) == 1
        else _compile_tuples(step.key_exprs, offsets)
    )

    def index_lookup(ctx, members, outer_env):
        if ctx.faults is not None:
            ctx.faults.trigger("storage.index_lookup", detail=index_name)
        table = ctx.catalog.table(table_name)
        index = table.indexes.get(index_name)
        if index is None:
            raise ExecutionError(
                f"index {index_name!r} disappeared during execution"
            )
        metrics = ctx.metrics
        lookup, fetch = index.lookup, table.fetch
        result = []
        for key, member in zip(keys(members, ctx), members):
            metrics.index_lookups += 1
            row_ids = lookup(key)
            metrics.index_rows += len(row_ids)
            result.extend([extend(member, fetch(rid)) for rid in row_ids])
        return result

    return index_lookup


def _compile_hash_join(step: HashJoinStep, offsets: Offsets) -> StepFunction:
    q = step.quantifier
    child = q.box
    detail = f"hash join {q.name}"
    extend = _extender(q, offsets)
    null_safe = step.null_safe if any(step.null_safe) else None
    # The build side is plain columns of ``q`` (see the planner): it reads
    # the child's rows as they are, whatever the rest of the box reads.
    build_keys = _compile_tuples(step.build_exprs, {q: 0})
    probe_keys = _compile_tuples(step.probe_exprs, offsets)

    def hash_join(ctx, members, outer_env):
        if ctx.faults is not None:
            ctx.faults.trigger("exec.join", detail=detail)
        metrics = ctx.metrics
        child_rows = ctx.box_rows(child, outer_env)
        buckets: dict[tuple, list[tuple]] = {}
        n_built = 0
        for key, row in zip(build_keys(child_rows, ctx), child_rows):
            if None in key:
                key = _join_key(key, null_safe)
                if key is None:
                    continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
            n_built += 1
        # The build side is a transient materialisation: it lives for
        # the probe phase only, so it counts against the live/high-water
        # figures and is released when the step completes.
        metrics.materialize(n_built)
        ctx.checkpoint()
        n_joined = 0
        try:
            result = []
            for key, member in zip(probe_keys(members, ctx), members):
                if None in key:
                    key = _join_key(key, null_safe)
                    if key is None:
                        continue
                matches = buckets.get(key)
                if matches is not None:
                    n_joined += len(matches)
                    result.extend([extend(member, row) for row in matches])
            return result
        finally:
            metrics.rows_joined += n_joined
            metrics.release(n_built)

    return hash_join


def _compile_groupby(box: GroupByBox) -> GroupByPlan:
    q = box.quantifier
    aggregates = [
        o.expr for o in box.outputs if isinstance(o.expr, ast.AggregateCall)
    ]
    plain = [
        o.expr for o in box.outputs
        if not isinstance(o.expr, ast.AggregateCall)
    ]
    arguments = [a.argument for a in aggregates if a.argument is not None]
    # A scalar aggregate over no rows evaluates its plain outputs against
    # the outer Env, so those keep the Env mode.
    positional = reads_only([*box.group_by, *plain, *arguments], (q,)) and not (
        box.is_scalar and plain
    )
    offsets = {q: 0} if positional else None
    outputs = []
    for output in box.outputs:
        expr = output.expr
        if not isinstance(expr, ast.AggregateCall):
            outputs.append(CompiledOutput(value=compile_expr(expr, offsets)))
        elif expr.argument is None:
            outputs.append(CompiledOutput(expr.func, expr.distinct))
        else:
            outputs.append(CompiledOutput(
                expr.func, expr.distinct,
                _compile_values(expr.argument, offsets),
            ))
    return GroupByPlan(
        positional, _compile_tuples(box.group_by, offsets), tuple(outputs)
    )


def _compile_outerjoin(box: OuterJoinBox) -> OuterJoinPlan:
    left_q, right_q = box.preserved, box.null_producing
    positional = reads_only(box.own_exprs(), (left_q, right_q))
    offsets = right_alone = None
    if positional:
        offsets = _flat_offsets((left_q, right_q))
        right_alone = {right_q: 0}
    left_keys = right_keys = null_safe = None
    equi = _equi_condition(box)
    if equi is not None:
        left_exprs, right_exprs, flags = equi
        # Left keys read columns of the preserved side only, which start
        # the flat row: the same closures serve the left row alone.
        left_keys = _compile_tuples(left_exprs, offsets)
        right_keys = _compile_tuples(right_exprs, right_alone)
        null_safe = flags if any(flags) else None
    return OuterJoinPlan(
        positional=positional,
        left_keys=left_keys,
        right_keys=right_keys,
        null_safe=null_safe,
        condition=(
            None if box.condition is None
            else compile_expr(box.condition, offsets)
        ),
        project=_compile_tuples([o.expr for o in box.outputs], offsets),
    )


class _NullKey:
    """Sentinel standing in for NULL in null-safe join keys."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<NULL>"


_NULL_KEY = _NullKey()


def _join_key(values: tuple, null_safe: Optional[tuple[bool, ...]]):
    """The hashable form of join-key ``values`` that hold a NULL (the
    others are their own keys): ``None`` when a component that is not
    null-safe is NULL -- at once when ``null_safe`` is ``None``, the join
    having no ``<=>`` pair at all."""
    if null_safe is None:
        return None
    key = []
    for value, safe in zip(values, null_safe):
        if value is None:
            if not safe:
                return None
            key.append(_NULL_KEY)
        else:
            key.append(value)
    return tuple(key)


def _dedupe(rows: list[tuple]) -> list[tuple]:
    seen: set[tuple] = set()
    result = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            result.append(row)
    return result


def _equi_condition(box: OuterJoinBox):
    """Split the ON condition into hashable equi-keys when it is a
    conjunction of (possibly null-safe) equalities between the two sides;
    None otherwise. Returns (left_keys, right_keys, null_safe_flags)."""
    if box.condition is None:
        return None
    left_keys: list[ast.Expr] = []
    right_keys: list[ast.Expr] = []
    null_safe: list[bool] = []
    for conjunct in conjuncts(box.condition):
        if not (
            isinstance(conjunct, ast.Comparison)
            and conjunct.op in ("=", "<=>")
        ):
            return None
        sides = {}
        for expr in (conjunct.left, conjunct.right):
            quantifiers = {id(r.quantifier) for r in column_refs(expr)}
            if quantifiers == {id(box.preserved)}:
                sides["left"] = expr
            elif quantifiers == {id(box.null_producing)}:
                sides["right"] = expr
            else:
                return None
        if set(sides) != {"left", "right"}:
            return None
        left_keys.append(sides["left"])
        right_keys.append(sides["right"])
        null_safe.append(conjunct.op == "<=>")
    if not left_keys:
        return None
    return tuple(left_keys), tuple(right_keys), tuple(null_safe)




def execute_graph(
    graph: QueryGraph,
    catalog: Catalog,
    cse_mode: str = "recompute",
    ctx: Optional[ExecutionContext] = None,
    limits=None,
    guard: Optional["ExecutionGuard"] = None,
    faults: Optional["FaultRegistry"] = None,
    tracer: Optional["Tracer"] = None,
) -> tuple[list[tuple], Metrics]:
    """Execute a QGM query graph; returns (rows, metrics).

    ``limits`` (a :class:`repro.guard.Limits`) builds a fresh guard for this
    execution; alternatively pass a pre-built ``guard`` (e.g. to cancel the
    query from another thread). ``faults`` enables deterministic fault
    injection, ``tracer`` per-operator span collection. All default to
    ``None`` -- no overhead.
    """
    if ctx is None:
        if guard is None and limits is not None:
            from ..guard import guard_for

            guard = guard_for(limits)
        ctx = ExecutionContext(
            catalog, graph.root, cse_mode,
            guard=guard, faults=faults, tracer=tracer,
        )
    if ctx.tracer is None:
        try:
            rows = _run_graph(graph, ctx)
        finally:
            ctx.release_materializations()
        return rows, ctx.metrics
    # Root "query" span: wraps the whole execution (including ORDER BY /
    # LIMIT / projection and the rows_output bump) so the exclusive
    # per-span deltas telescope to the final Metrics totals exactly.
    frame = ctx.tracer.begin(("query",), "query", "query")
    rows = None
    try:
        rows = _run_graph(graph, ctx)
        return rows, ctx.metrics
    finally:
        ctx.release_materializations()
        ctx.tracer.end(frame, rows_out=0 if rows is None else len(rows))


def _run_graph(graph: QueryGraph, ctx: ExecutionContext) -> list[tuple]:
    ctx.checkpoint()
    rows = list(ctx.box_rows(graph.root, Env()))
    if graph.order_by:
        rows.sort(
            key=lambda row: tuple(
                _order_key(row[pos], desc) for pos, desc in graph.order_by
            )
        )
    if graph.limit is not None:
        rows = rows[: graph.limit]
    if graph.visible_columns is not None:
        rows = [row[: graph.visible_columns] for row in rows]
    ctx.metrics.rows_output += len(rows)
    return rows


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


def _order_key(value, descending: bool):
    key = sort_key(value)
    return _Reversed(key) if descending else key
