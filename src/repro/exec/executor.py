"""The QGM executor.

Each box kind has an evaluation routine; SPJ boxes are first compiled by the
planner (:mod:`repro.plan.planner`) into a step list that fixes access paths,
join order and correlated-subquery placement. There is exactly **one**
executor: nested iteration and the decorrelated strategies differ only in
the QGM they hand over, which mirrors how the paper compares rewrites inside
a single system (Starburst).

Expressions are not interpreted per row. Before a query runs (or, in a
context nothing was seeded into, the first time a box runs) each box's
expressions and plan steps are compiled into closures (:func:`plan_box`,
"compiled plans" below) that are kept beside the physical plan, so every
invocation of the box -- each outer row of a nested iteration, each
hit of a cached plan -- only calls them. Rows have one representation, the
flat tuple; a correlated box is handed the outer values it reads as the
first slots of its row.

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

An execution runs with the cyclic collector paused (:func:`execute_graph`).
"""

from __future__ import annotations

import gc
import threading
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, compress, islice, repeat
from operator import add, getitem, itemgetter
from typing import (
    Any,
    Callable,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
    TYPE_CHECKING,
)

from ..errors import ExecutionError, SchemaError
from ..qgm.analysis import GraphFacts, shared_boxes
from ..qgm.expr import ColumnRef, box_subquery_exprs, column_refs, conjuncts
from ..qgm.model import (
    BaseTableBox,
    Box,
    GroupByBox,
    OuterJoinBox,
    QueryGraph,
    SelectBox,
    SetOpBox,
)
from ..plan.cost import TableSource
from ..plan.planner import (
    HashJoinStep,
    IndexLookupStep,
    PredicateStep,
    ScanStep,
    SelectPlan,
    Step,
    SubqueryEvalStep,
    plan_select_box,
    step_label,
)
from ..sql import ast
from ..storage.catalog import Catalog
from ..types import comparable_classes, sort_key
from .aggregates import aggregate_column
from .evaluate import (
    Filter,
    LookupFilter,
    Offsets,
    Pick,
    column_position,
    compile_expr,
    compile_filter,
    compile_lookup_filter,
    flat_position,
    outer_values,
    row_layout,
    scalar_subquery_value,
    slots_of,
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


class RunRows(list):
    """The rows of an outer join, and ``runs``: how many consecutive rows
    each preserved row produced, in order -- one for a row padded with
    NULLs. The runs ride on the list, so they live and die with the rows
    they describe, and a cached result keeps them. A GROUP BY whose keys
    read only the preserved side (``GroupByPlan.by_runs``) keys each run
    once instead of each row."""

    __slots__ = ("runs",)

    def __init__(self, rows: Iterable[tuple], runs: list[int]):
        super().__init__(rows)
        self.runs = runs


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
        #: box id -> SelectPlan / GroupByPlan / OuterJoinPlan / SetOpPlan,
        #: closures compiled (see :func:`plan_box`).
        self._plans: dict[int, Any] = {}
        #: ids of the boxes with several parents -- the one fact about the
        #: graph no single box's plan holds; derived on first use unless
        #: seeded.
        self._shared: Optional[frozenset[int]] = None
        self._cache: dict[int, list[tuple]] = {}
        self._executions: dict[int, int] = {}

    # -- helpers -----------------------------------------------------------

    def checkpoint(self) -> None:
        """One cooperative guardrail check (no-op without a guard)."""
        if self.guard is not None:
            self.guard.check()

    def seed_plans(
        self, plans: dict, shared: Optional[frozenset[int]] = None
    ) -> None:
        """Pre-populate the per-box plan table (``{box.id: plan}``, as
        :func:`plan_box` returns them) and, with ``shared``, the graph fact
        that travels beside it (:func:`~repro.qgm.analysis.shared_boxes`).

        Every run of a compiled query seeds what its compile step built;
        the shared dict is copied from, never mutated, so one cached entry
        -- and the closures compiled into it -- can serve concurrent
        executions. A :class:`SelectPlan` straight from the planner is
        compiled in place when its box first runs, so it must not be
        seeded into contexts that run concurrently. Whatever is not seeded
        is derived on first use."""
        self._plans.update(plans)
        self._shared = shared

    def plan(self, box: Box):
        """The compiled plan of one SPJ, GROUP BY, set-operation or
        outer-join box: the seeded one, else built the first time the box
        runs; reused by every later invocation of it."""
        plan = self._plans.get(box.id)
        if plan is None:
            plan = plan_box(self.catalog, box, self.guard, self.faults)
            self._plans[box.id] = plan
        if isinstance(plan, SelectPlan):
            if plan.compiled is None:
                # Seeded straight from the planner, not yet compiled.
                plan.compiled = compile_select(plan)
            return plan.compiled
        return plan

    def subquery_rows(self, box: Box, outer: tuple) -> list[tuple]:
        """Execute a subquery box from an expression context (one invocation)."""
        self.metrics.subquery_invocations += 1
        self.checkpoint()
        if self.faults is not None:
            self.faults.trigger("exec.subquery", detail=f"box {box.id}")
        return self.box_rows(box, outer)

    # -- box dispatch ------------------------------------------------------

    def box_rows(self, box: Box, outer: tuple = ()) -> list[tuple]:
        """The output rows of ``box``, with CSE caching. ``outer`` holds the
        values its subtree reads from enclosing boxes, as whoever runs it
        picked them (:func:`~repro.exec.evaluate.outer_values`); a box that
        is handed none is uncorrelated, and only such a result is kept."""
        if not outer:
            cached = self._cache.get(box.id)
            if cached is not None:
                if self.tracer is not None:
                    self.tracer.cache_hit(
                        ("box", box.id), box_label(box), "operator"
                    )
                return cached
        tracer = self.tracer
        if tracer is None:
            return self._execute_box(box, outer)
        frame = tracer.begin(("box", box.id), box_label(box), "operator")
        rows: Optional[list[tuple]] = None
        try:
            rows = self._execute_box(box, outer)
            return rows
        finally:
            tracer.end(frame, rows_out=0 if rows is None else len(rows))

    def _execute_box(self, box: Box, outer: tuple) -> list[tuple]:
        if isinstance(box, BaseTableBox):
            return self._rows_base(box)
        count = self._executions.get(box.id, 0) + 1
        self._executions[box.id] = count
        if count > 1:
            self.metrics.boxes_recomputed += 1
        rows = self._compute(box, outer)
        if not outer and (
            self.cse_mode == "materialize"
            or self._forces_materialisation(box)
            or not self._is_shared(box)
        ):
            self._cache[box.id] = rows
            self.metrics.materialize(len(rows))
            self.checkpoint()
        return rows

    def _is_shared(self, box: Box) -> bool:
        """Does ``box`` have several parents?"""
        if self._shared is None:
            self._shared = shared_boxes(self._root)
        return box.id in self._shared

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

    def _compute(self, box: Box, outer: tuple) -> list[tuple]:
        plan = self.plan(box)
        if plan is None:
            raise ExecutionError(f"cannot execute box kind {box.kind!r}")
        if len(outer) != len(plan.params):
            # Nobody binds them: checked before the box reads any row.
            raise ExecutionError(
                f"unbound quantifier: box {box.id} reads {list(plan.params)} "
                f"from enclosing boxes and was handed {len(outer)} value(s)"
            )
        if isinstance(box, SelectBox):
            return self._rows_select(box, plan, outer)
        if isinstance(box, GroupByBox):
            return self._rows_groupby(box, plan, outer)
        if isinstance(box, SetOpBox):
            return self._rows_setop(box, plan, outer)
        return self._rows_outerjoin(box, plan, outer)

    # -- base table --------------------------------------------------------

    def _rows_base(self, box: BaseTableBox) -> list[tuple]:
        if self.faults is not None:
            self.faults.trigger("storage.scan", detail=box.table_name)
        table = self.catalog.table(box.table_name)
        self.metrics.rows_scanned += len(table)
        self.checkpoint()
        return table.rows

    # -- SPJ ------------------------------------------------------------------

    def _rows_select(
        self, box: SelectBox, compiled: "CompiledSelect", outer: tuple
    ) -> list[tuple]:
        tracer, metrics = self.tracer, self.metrics
        # One member per combination of rows bound so far: the outer values,
        # then what each step appended (see "compiled plans" below).
        members: list[tuple] = [outer]
        # What the plan as written hands the next step. A lookup that
        # applies the filter after it hands on what it fetched -- its
        # ``index_rows``, a lookup emitting one member per fetched row --
        # so that filter's step still gets its checkpoint and its span.
        handed = 1
        for index, run in enumerate(compiled.steps):
            if not handed:
                break
            frame = None if tracer is None else tracer.begin(
                ("step", box.id, index), compiled.labels[index], "step",
                rows_in=handed,
            )
            handed, fetched = 0, metrics.index_rows
            try:
                self.checkpoint()
                members = run(self, members, outer)
                if index in compiled.fused:
                    handed = metrics.index_rows - fetched
                else:
                    handed = len(members)
            finally:
                if frame is not None:
                    tracer.end(frame, rows_out=handed)
        rows = compiled.project(members, self)
        if box.distinct:
            rows = _dedupe(rows)
        return rows

    # -- GROUP BY ---------------------------------------------------------------

    def _rows_groupby(
        self, box: GroupByBox, plan: "GroupByPlan", outer: tuple
    ) -> list[tuple]:
        if self.faults is not None:
            self.faults.trigger("exec.group", detail=f"box {box.id}")
        input_rows = self.box_rows(box.quantifier.box, plan.inputs[0](outer))
        runs = getattr(input_rows, "runs", None) if plan.by_runs else None
        self.metrics.rows_grouped += len(input_rows)
        self.checkpoint()

        # A member is the outer values, then the input row.
        members = [outer + row for row in input_rows] if outer else input_rows
        # Aggregation by value: a group is the aggregate arguments of its
        # members (see ``GroupByPlan.arguments``), not the members. A plain
        # output that is a group expression reads the group's key; any
        # other reads the first member of the group.
        arguments = plan.arguments(members, self)
        firsts: Sequence[tuple] = ()
        if plan.keys is None:
            # A scalar aggregate: one group, over no rows too -- the input
            # columns of its plain outputs are then NULL.
            firsts = members[:1] or [outer + plan.no_row]
            keys: list = []
            groups = [list(arguments)]
        else:
            heads = members
            if runs is not None and len(runs) < len(members):
                # The rows one preserved row produced have its key: each
                # run is keyed by its first member (``plan.by_runs``).
                starts = islice(accumulate(runs, initial=0), len(runs))
                heads = list(map(members.__getitem__, starts))
            else:
                runs = None
            key_of = plan.keys(heads, self)
            if plan.firsts:
                key_of = list(key_of)
                first_of: dict = {}
                _drain(map(first_of.setdefault, key_of, heads))
                firsts = list(first_of.values())
            partition = _buckets(key_of, arguments, runs)
            # The first key object of each group, in the order the groups
            # appeared: what ``first_of`` holds them by too.
            keys = list(partition)
            groups = list(partition.values())

        # The grouping work table holds the full input partitioned by key
        # until aggregation finishes -- a transient materialisation.
        self.metrics.materialize(len(input_rows))
        self.checkpoint()
        try:
            guard = self.guard
            sizes = list(map(len, groups))
            if plan.n_arguments > 1:
                # Per group, one tuple of values per argument.
                no_values = ((),) * plan.n_arguments
                groups = [tuple(zip(*group)) or no_values for group in groups]
            columns: list[Iterable] = []
            for func, distinct, slot, values, key in plan.outputs:
                if key is not None:
                    columns.append(
                        keys if plan.key_width == 1 else map(itemgetter(key), keys)
                    )
                elif func is None:
                    columns.append(values(firsts, self))
                else:
                    if slot is None:
                        inputs: Optional[Iterable] = None  # COUNT(*): the sizes
                    elif plan.n_arguments == 1:
                        inputs = groups
                    else:
                        inputs = map(itemgetter(slot), groups)
                    columns.append(
                        aggregate_column(func, inputs, sizes, distinct, guard)
                    )
            return list(zip(*columns)) if columns else [()] * len(sizes)
        finally:
            self.metrics.release(len(input_rows))

    # -- set operations ------------------------------------------------------

    def _rows_setop(
        self, box: SetOpBox, plan: "SetOpPlan", outer: tuple
    ) -> list[tuple]:
        child_rows = [
            self.box_rows(q.box, pick(outer))
            for q, pick in zip(box.quantifiers, plan.inputs)
        ]
        _check_setop_classes(box, child_rows)
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

    def _rows_outerjoin(
        self, box: OuterJoinBox, plan: "OuterJoinPlan", outer: tuple
    ) -> list[tuple]:
        left_q, right_q = box.preserved, box.null_producing
        left_rows = self.box_rows(left_q.box, plan.inputs[0](outer))
        right_rows = self.box_rows(right_q.box, plan.inputs[1](outer))
        null_row = (None,) * len(right_q.box.output_names())

        # A member is the outer values, then the left row, then the right.
        lefts = [outer + row for row in left_rows] if outer else left_rows

        n_built = 0
        if plan.keys is not None:
            built = _hash_build(plan.keys, right_rows, lefts, self)
            n_built = built.size
            # Transient build-side materialisation, as in a hash-join step.
            self.metrics.materialize(n_built)
            self.checkpoint()
            probes = list(built.probes)
            found = list(map(built.table.get, probes))

        joined: list = []
        # How many rows each left produced, in order: one when padded.
        runs: list = []
        n_joined = 0
        try:
            if plan.keys is None:
                # No equi-key: every right row is a candidate of every left.
                candidates: Iterable = repeat(right_rows)
            elif _comparable_keys(plan.keys.width, built.keys, probes):
                # The ON condition is the equi-key, which every hash match
                # satisfies unless two of the key values are incomparable:
                # the whole batch at once, a left nothing matched padded.
                if built.unique:
                    joined = [
                        left + (null_row if row is None else row)
                        for left, row in zip(lefts, found)
                    ]
                    runs = [1] * len(lefts)
                else:
                    joined = [
                        left + row for left, rows in zip(lefts, found)
                        for row in rows or (null_row,)
                    ]
                    runs = [len(rows) if rows else 1 for rows in found]
                n_joined = len(joined) - found.count(None)
                return RunRows(plan.project(joined, self), runs)
            elif built.unique:
                # One row per key: the batch of candidates of a left.
                candidates = [None if row is None else (row,) for row in found]
            else:
                candidates = found
            for left, matches in zip(lefts, candidates):
                if matches:
                    # The ON condition over the whole batch of candidates: a
                    # hash match is re-checked pair by pair here, because
                    # two values that hash alike need not be comparable (1
                    # and TRUE), and the first such pair is the error.
                    both = [left + row for row in matches]
                    for keep in plan.condition:
                        both = keep(both, self)
                    if both:
                        n_joined += len(both)
                        joined.extend(both)
                        runs.append(len(both))
                        continue
                joined.append(left + null_row)
                runs.append(1)
            return RunRows(plan.project(joined, self), runs)
        finally:
            self.metrics.rows_joined += n_joined
            self.metrics.release(n_built)


# -- compiled plans -------------------------------------------------------------
#
# Everything below runs once per box, not per row: it resolves a box's
# expressions into closures (repro.exec.evaluate) and its plan steps into
# ``run(ctx, members, outer)`` functions. No closure captures an
# ExecutionContext or a row, so the result is stored beside the physical
# plan and shared by every invocation of the box and every execution of a
# cached graph.
#
# Row layout. The members of a box are flat tuples: first the values the
# box's subtree reads from enclosing boxes (``params``, one slot each, the
# ``outer`` tuple the box is run with), then what the box binds, in plan-step
# order -- the columns of each quantifier in join order for an SPJ box, with
# one slot for each scalar subquery value a SubqueryEvalStep evaluates where
# that step runs; the input row for GROUP BY; ``left + right`` for an outer
# join. Every reference, own or outer, is a fixed slot of that tuple. A box
# that runs another one -- a child of its FROM list, a subquery of one of
# its expressions -- picks that box's outer values out of its own row
# (``outer_values``): out of ``outer`` when the child is run once, out of
# each member when it is run per member.

#: One compiled plan step: the members after the step, given those before
#: and the outer values the box was handed.
StepFunction = Callable[["ExecutionContext", list, tuple], list]
#: One value (or tuple of values) per member of a batch, lazily.
BatchFunction = Callable[[Sequence, "ExecutionContext"], Iterable]
#: The output rows of a box, given its members: a list.
RowsFunction = Callable[[list, "ExecutionContext"], list]


@dataclass(frozen=True)
class CompiledSelect:
    """The executable form of a :class:`SelectPlan` (its ``compiled``)."""

    #: The outer references of the box's subtree: the first slots of a row.
    params: tuple[ColumnRef, ...]
    steps: tuple[StepFunction, ...]
    #: ``step_label`` of each step, for traces.
    labels: tuple[str, ...]
    #: Which steps are index lookups that apply the filter step after them
    #: to what they fetch (see :func:`compile_select`).
    fused: frozenset[int]
    #: members -> output rows (before DISTINCT).
    project: RowsFunction


class CompiledOutput(NamedTuple):
    """One GROUP BY output: an aggregate (``func`` set; ``argument`` is its
    slot among the box's aggregate arguments, ``None`` for ``COUNT(*)``),
    a group expression (``key``: its slot in the group key) or another
    plain expression, over the first member of each group (``values``)."""

    func: Optional[str] = None
    distinct: bool = False
    argument: Optional[int] = None
    values: Optional[BatchFunction] = None
    key: Optional[int] = None


@dataclass(frozen=True)
class GroupByPlan:
    params: tuple[ColumnRef, ...]
    #: One :data:`Pick` per child quantifier (here and below).
    inputs: tuple[Pick, ...]
    #: The group key of each member (:func:`_compile_key`); ``None`` for a
    #: scalar aggregate, whose input is one group.
    keys: Optional[BatchFunction]
    #: How many expressions the group key has.
    key_width: int
    #: Does the key read only the preserved side of the outer join the box
    #: groups (:func:`_keys_read_preserved`)? Then the input's runs are
    #: keyed, not its rows.
    by_runs: bool
    #: Does an output read the first member of each group?
    firsts: bool
    #: What each member adds to its group, by the same compiler: the
    #: arguments of the box's aggregates -- the value itself when there is
    #: one, a tuple of several, ``()`` of none.
    arguments: BatchFunction
    n_arguments: int
    outputs: tuple[CompiledOutput, ...]
    #: An all-NULL input row: what the plain outputs of a scalar aggregate
    #: over no rows are evaluated on.
    no_row: tuple


@dataclass(frozen=True)
class OuterJoinPlan:
    params: tuple[ColumnRef, ...]
    inputs: tuple[Pick, ...]
    #: The hash keys of an all-equality ON condition -- the right rows are
    #: built, the left members probe -- else ``None``.
    keys: Optional["JoinKeys"]
    #: The ON condition, one filter per conjunct: ``left + right``
    #: candidates -> those it is TRUE for.
    condition: tuple[Filter, ...]
    project: RowsFunction


@dataclass(frozen=True)
class SetOpPlan:
    params: tuple[ColumnRef, ...]
    inputs: tuple[Pick, ...]


def plan_box(
    catalog: TableSource, box: Box, guard=None, faults=None,
    graph_facts: Optional[GraphFacts] = None,
):
    """The executor's plan for one box, its expressions compiled: a
    :class:`SelectPlan` (cost-based, see :mod:`repro.plan.planner`) for an
    SPJ box, a :class:`GroupByPlan`, :class:`OuterJoinPlan` or
    :class:`SetOpPlan` for those kinds, ``None`` for a base table.
    ``guard`` makes planning an SPJ box cancellable; ``faults`` carries the
    ``plan.select`` injection site; ``graph_facts`` as for
    :func:`~repro.plan.planner.plan_select_box`."""
    if isinstance(box, BaseTableBox):
        return None
    if isinstance(box, SelectBox) and faults is not None:
        faults.trigger("plan.select", detail=f"box {box.id}")
    facts = graph_facts or GraphFacts(box)
    if isinstance(box, SelectBox):
        plan = plan_select_box(catalog, box, guard, facts)
        plan.compiled = compile_select(plan, facts)
        return plan
    if isinstance(box, GroupByBox):
        return _compile_groupby(box, facts)
    if isinstance(box, OuterJoinBox):
        return _compile_outerjoin(box, facts)
    if isinstance(box, SetOpBox):
        params, offsets = row_layout(box, (), facts)
        return SetOpPlan(params, _inputs(box, offsets))
    return None


def _inputs(box: Box, offsets: Offsets) -> tuple[Pick, ...]:
    """One :data:`Pick` per child quantifier of ``box``."""
    return tuple(outer_values(q.box, offsets) for q in box.child_quantifiers())


def compile_select(plan: SelectPlan, graph_facts: Optional[GraphFacts] = None) -> CompiledSelect:
    """Compile the steps and the projection of one SPJ plan.

    A filter right after an index lookup that tests a column of the fetched
    row against a value known before the probe
    (:func:`~repro.exec.evaluate.compile_lookup_filter`) is applied by the
    lookup itself, which then builds ``member + row`` only for the rows that
    stay; the filter's own step hands its members on as they are."""
    box = plan.box
    bound = [
        step.node if isinstance(step, SubqueryEvalStep) else step.quantifier
        for step in plan.steps if not isinstance(step, PredicateStep)
    ]
    params, offsets = row_layout(box, bound, graph_facts)
    steps: list[StepFunction] = []
    fused: set[int] = set()
    for index, step in enumerate(plan.steps):
        after = plan.steps[index + 1] if index + 1 < len(plan.steps) else None
        keep = (
            compile_lookup_filter(after.predicate, offsets, step.quantifier)
            if isinstance(step, IndexLookupStep) and isinstance(after, PredicateStep)
            else None
        )
        if index - 1 in fused:
            steps.append(_kept_by_lookup)
        elif keep is not None:
            steps.append(_compile_index_lookup(
                step, offsets, keep, _is_key_equality(step, after.predicate)
            ))
            fused.add(index)
        else:
            steps.append(_compile_step(step, offsets))
    project = _compile_rows(
        [o.expr for o in box.outputs], offsets, _row_width(params, bound)
    )
    if len(plan.steps) == 1 and isinstance(plan.steps[0], ScanStep):
        project = _keeping_runs(project)
    return CompiledSelect(
        params=params,
        steps=tuple(steps),
        labels=tuple(step_label(step) for step in plan.steps),
        fused=frozenset(fused),
        project=project,
    )


def _keeping_runs(project: RowsFunction) -> RowsFunction:
    """``project`` for a box whose one step is a scan: its members are its
    child's rows, one for one, so an outer join's runs (:class:`RunRows`)
    are the runs of the projection too."""

    def keeping_runs(members, ctx):
        rows = project(members, ctx)
        if type(members) is RunRows and rows is not members:
            return RunRows(rows, members.runs)
        return rows

    return keeping_runs


def _kept_by_lookup(ctx, members, outer):
    """The step of a filter the lookup ahead of it applied."""
    return members


def _compile_values(expr: ast.Expr, offsets: Offsets) -> BatchFunction:
    """``expr`` over a batch of members, as an iterator that costs a Python
    call per member only where ``expr`` needs its closure: a column is an
    ``itemgetter`` map, a literal repeats."""
    if isinstance(expr, ColumnRef):
        getter = itemgetter(flat_position(expr, offsets))
        return lambda members, ctx: map(getter, members)
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda members, ctx: repeat(value, len(members))
    fn = compile_expr(expr, offsets)
    return lambda members, ctx: map(fn, members, repeat(ctx))


def _compile_tuples(exprs: Sequence[ast.Expr], offsets: Offsets) -> BatchFunction:
    """Columnar projection -- the tuple of ``exprs`` over a batch of members
    (output rows, composite keys): the columns of :func:`_compile_values`
    zipped, so the tuples are built in C whatever the columns are, and as
    many as there are members although a literal reads none."""
    if not exprs:
        return lambda members, ctx: repeat((), len(members))
    if len(exprs) > 1 and all(isinstance(e, ColumnRef) for e in exprs):
        slots = [flat_position(e, offsets) for e in exprs]
        if slots == list(range(slots[0], slots[0] + len(slots))):
            # Adjacent slots in order: one slice of each member.
            span = slice(slots[0], slots[0] + len(slots))
            return lambda members, ctx: map(getitem, members, repeat(span))
        getter = itemgetter(*slots)
        return lambda members, ctx: map(getter, members)
    columns = [_compile_values(e, offsets) for e in exprs]
    return lambda members, ctx: zip(*[column(members, ctx) for column in columns])


def _compile_rows(
    exprs: Sequence[ast.Expr], offsets: Offsets, width: int
) -> RowsFunction:
    """The output rows of a box over its members. When the outputs are the
    ``width`` slots of a member in order -- ``SELECT *`` of one table, an
    outer join that keeps both sides -- the members are the rows and
    nothing is copied; any other projection is :func:`_compile_tuples`."""
    if len(exprs) == width and all(
        isinstance(e, ColumnRef) and flat_position(e, offsets) == slot
        for slot, e in enumerate(exprs)
    ):
        return _members
    tuples = _compile_tuples(exprs, offsets)
    return lambda members, ctx: list(tuples(members, ctx))


def _members(members, ctx):
    """The identity projection."""
    return members


def _row_width(params: Sequence, bound: Iterable) -> int:
    """How many slots a member has: one per outer value, then those of what
    the box binds (``row_layout``)."""
    return len(params) + sum(map(slots_of, bound))


def _compile_key(exprs: Sequence[ast.Expr], offsets: Offsets) -> BatchFunction:
    """The key ``exprs`` make of each member -- hash-join, outer-join and
    index probe keys, group keys, aggregate arguments: the bare value of a
    one-column key (what magic decorrelation's join on the correlation
    column is), a tuple otherwise. NULL is a value like any other here; a
    join says which of them match nothing in its :class:`JoinKeys`."""
    if len(exprs) == 1:
        return _compile_values(exprs[0], offsets)
    return _compile_tuples(exprs, offsets)


def _compile_step(step: Step, offsets: Offsets) -> StepFunction:
    if isinstance(step, ScanStep):
        return _compile_scan(step, offsets)
    if isinstance(step, IndexLookupStep):
        return _compile_index_lookup(step, offsets)
    if isinstance(step, HashJoinStep):
        return _compile_hash_join(step, offsets)
    if isinstance(step, PredicateStep):
        keep = compile_filter(step.predicate, offsets)
        return lambda ctx, members, outer: keep(members, ctx)
    if isinstance(step, SubqueryEvalStep):
        box = step.node.box
        pick = outer_values(box, offsets)
        # The value takes the next slot of the row.
        return lambda ctx, members, outer: [
            m + (scalar_subquery_value(box, pick(m), ctx),) for m in members
        ]
    raise ExecutionError(f"unknown plan step {step!r}")


def _compile_scan(step: ScanStep, offsets: Offsets) -> StepFunction:
    q = step.quantifier
    child = q.box
    detail = f"scan {q.name}"
    pick = outer_values(child, offsets)

    def scan_per_member(ctx, members, outer):
        if ctx.faults is not None:
            ctx.faults.trigger("exec.join", detail=detail)
        metrics = ctx.metrics
        result: list[tuple] = []
        # Counted per member, not once per step: the child box runs inside
        # this loop, and its checkpoints must see the current
        # ``subquery_invocations`` for the invocation budget to stay exact.
        for m in members:
            metrics.subquery_invocations += 1
            child_rows = ctx.box_rows(child, pick(m))
            metrics.rows_joined += len(child_rows)
            result.extend([m + row for row in child_rows])
        return result

    def scan(ctx, members, outer):
        if ctx.faults is not None:
            ctx.faults.trigger("exec.join", detail=detail)
        child_rows = ctx.box_rows(child, pick(outer))
        ctx.metrics.rows_joined += len(child_rows) * len(members)
        if len(members) == 1 and not members[0]:
            # The first step of an uncorrelated box: the members are the
            # child's rows -- a snapshot, as a table may grow meanwhile --
            # and an outer join's runs go with them.
            if type(child_rows) is RunRows:
                return RunRows(child_rows, child_rows.runs)
            return list(child_rows)
        return [m + row for m in members for row in child_rows]

    return scan_per_member if step.correlated_to_self else scan


def _compile_index_lookup(
    step: IndexLookupStep, offsets: Offsets, keep: Optional[LookupFilter] = None,
    by_key: bool = False,
) -> StepFunction:
    """``keep`` is the filter after the lookup, when the lookup applies it
    (:func:`compile_select`): the rows counted are the rows fetched either
    way. ``by_key``: that filter is the equality the lookup probes by
    (:func:`_is_key_equality`)."""
    q = step.quantifier
    table_name = q.box.table_name
    index_name = step.index_name
    keys = _compile_key(step.key_exprs, offsets)
    key_position = column_position(q.box, step.key_columns[0])

    def index_lookup(ctx, members, outer):
        if ctx.faults is not None:
            ctx.faults.trigger("storage.index_lookup", detail=index_name)
        table = ctx.catalog.table(table_name)
        index = table.indexes.get(index_name)
        if index is None:
            raise ExecutionError(
                f"index {index_name!r} disappeared during execution"
            )
        # One probe of the whole batch (the index's ``probe``), which hands
        # back the rows each key matched: ``table.rows`` is the table's
        # append-only read surface.
        probes = list(keys(members, ctx))
        found = index.probe(probes, table.rows)
        sizes = list(map(len, found))
        ctx.metrics.index_lookups += len(probes)
        ctx.metrics.index_rows += sum(sizes)
        schema = table.schema
        if keep is not None and not by_key:
            return keep(members, found, schema, ctx)
        # The probe's own equality holds for every row the index matched
        # unless a probe cannot be compared with the keys it fetched, which
        # are all of the key column's stored class: one value of that class
        # stands for them. Else the filter, pair by pair, raises the error
        # of the first pair.
        if keep is None or _comparable(
            probes, (schema.stored_class(key_position)(),)
        ):
            owners = chain.from_iterable(map(repeat, members, sizes))
            return list(map(add, owners, chain.from_iterable(found)))
        return keep(members, found, schema, ctx)

    return index_lookup


def _is_key_equality(step: IndexLookupStep, predicate: ast.Expr) -> bool:
    """Is ``predicate`` the equality ``step`` probes its index by -- the key
    column ``=`` the key expression, either way round?"""
    if not (isinstance(predicate, ast.Comparison) and predicate.op == "="):
        return False
    (column,), (probe,) = step.key_columns, step.key_exprs
    for fetched, other in (
        (predicate.left, predicate.right), (predicate.right, predicate.left)
    ):
        if (
            isinstance(fetched, ColumnRef) and fetched.quantifier is step.quantifier
            and fetched.column == column
            and (other is probe or (
                isinstance(other, ColumnRef) and isinstance(probe, ColumnRef)
                and other.same(probe)
            ))
        ):
            return True
    return False


def _comparable_keys(width: int, *keys: Iterable) -> bool:
    """:func:`_comparable`, component by component, for join keys of
    ``width`` components (a bare value when there is one)."""
    if width == 1:
        return _comparable(*keys)
    return all(
        _comparable(*[map(itemgetter(i), column) for column in keys])
        for i in range(width)
    )


def _comparable(*columns: Iterable) -> bool:
    """May any two of the non-NULL values of ``columns`` be compared, by
    the rule of ``=`` (:func:`~repro.types.comparable_classes`)? Two equal
    values of comparable classes are then equal to SQL as well."""
    classes: set = set()
    for column in columns:
        classes.update(map(type, column))
    classes.discard(type(None))
    return comparable_classes(classes)


def _compile_hash_join(step: HashJoinStep, offsets: Offsets) -> StepFunction:
    q = step.quantifier
    child = q.box
    detail = f"hash join {q.name}"
    pick = outer_values(child, offsets)
    # The build side is plain columns of ``q`` (see the planner): it reads
    # the child's rows as they are.
    keys = _compile_join_keys(
        step.build_exprs, {q: 0}, step.probe_exprs, offsets, step.null_safe
    )

    def hash_join(ctx, members, outer):
        if ctx.faults is not None:
            ctx.faults.trigger("exec.join", detail=detail)
        metrics = ctx.metrics
        child_rows = ctx.box_rows(child, pick(outer))
        built = _hash_build(keys, child_rows, members, ctx)
        # The build side is a transient materialisation: it lives for
        # the probe phase only, so it counts against the live/high-water
        # figures and is released when the step completes.
        metrics.materialize(built.size)
        ctx.checkpoint()
        found = map(built.table.get, built.probes)
        result: list[tuple] = []
        try:
            if built.unique:
                result = [
                    member + row for member, row in zip(members, found)
                    if row is not None
                ]
            else:
                result = [
                    member + row for member, rows in zip(members, found)
                    if rows for row in rows
                ]
            return result
        finally:
            metrics.rows_joined += len(result)
            metrics.release(built.size)

    return hash_join


class JoinKeys(NamedTuple):
    """The equi-key of a hash-join step or of an outer join, compiled
    (:func:`_compile_key`) for each side."""

    #: Over the rows that are built into the hash table.
    build: BatchFunction
    #: Over the members that probe it.
    probe: BatchFunction
    #: Which NULLs match nothing: ``True`` / ``False`` for the one-column
    #: key that is compared with ``=`` / ``<=>``, the positions of the
    #: ``=`` components of a composite key.
    strict: Any
    #: How many components the key has.
    width: int


def _compile_join_keys(
    build_exprs: Sequence[ast.Expr], build_offsets: Offsets,
    probe_exprs: Sequence[ast.Expr], probe_offsets: Offsets,
    null_safe: Sequence[bool],
) -> JoinKeys:
    """``null_safe[i]``: component ``i`` is compared with ``<=>``."""
    if len(null_safe) == 1:
        strict: Any = not null_safe[0]
    else:
        strict = tuple(i for i, safe in enumerate(null_safe) if not safe)
    return JoinKeys(
        _compile_key(build_exprs, build_offsets),
        _compile_key(probe_exprs, probe_offsets),
        strict,
        len(null_safe),
    )


class HashTable(NamedTuple):
    """The hash build of a join (:func:`_hash_build`)."""

    #: Join key -> the built row when ``unique``, else the list of them.
    table: dict
    #: How many rows it holds.
    size: int
    unique: bool
    #: The key of every row built: the table itself when ``unique``. A
    #: bucket holds rows whose keys are equal but may differ in class (``1``
    #: and ``TRUE``), which its one key does not show.
    keys: Iterable
    #: The probe key of each member, in order.
    probes: Iterable


def _hash_build(
    keys: JoinKeys, rows: Sequence[tuple], members: Sequence[tuple],
    ctx: "ExecutionContext",
) -> HashTable:
    """``rows`` by join key, and the probe keys of ``members`` -- the one
    hash build, a hash-join step's and an outer join's. While no two rows
    share a key, a key maps to its row and no bucket list is made; the
    build switches to buckets at the first chunk of rows that shows a
    duplicate (:func:`_unique_table`), so a build over few distinct keys
    pays for one chunk.

    A build with more rows than there are probes (:func:`_keeps_probed`)
    keeps only the rows whose key some probe carries, the probe keys
    computed first: a row kept is exactly one a probe's lookup finds, by
    the same hash and ``==``. Keys of classes that hash alike without being
    comparable (``1`` and ``TRUE``) are kept, for the re-check that refuses
    them.

    NULL is decided after the build, once per distinct key and not once
    per row: ``None`` hashes and equals only itself, so a component
    compared with ``<=>`` needs nothing, and the keys with a NULL in a
    component compared with ``=`` (``keys.strict``) are dropped -- a probe
    for one then finds nothing."""
    probes: Iterable = keys.probe(members, ctx)  # lazy
    if _keeps_probed(members, rows):
        probes = list(probes)
        rows = list(compress(
            rows, map(set(probes).__contains__, keys.build(rows, ctx))
        ))
    # The chunks tried are keyed again: a build key reads its row and
    # nothing else, and the keys are held only when the table is buckets.
    table = _unique_table(keys.build(rows, ctx), rows)
    unique = table is not None
    if table is None:
        held: Iterable = list(keys.build(rows, ctx))
        table = _buckets(held, rows)
    else:
        held = table
    strict = keys.strict
    if strict is True:
        table.pop(None, None)
    elif strict:
        for key in [key for key in table if None in key]:
            if any(key[i] is None for i in strict):
                del table[key]
    size = len(table) if unique else sum(map(len, table.values()))
    return HashTable(table, size, unique, held, probes)


def _keeps_probed(members: Sequence, rows: Sequence) -> bool:
    """Does a build keep only the rows some probe can find? When there are
    fewer probes than rows to build: a batch of probes as large as the
    build would cost its set more than the rows it drops."""
    return len(members) < len(rows)


#: How many rows the unique build adds before it looks for a duplicate.
_CHUNK = 1024


def _unique_table(keys: Iterable, rows: Sequence[tuple]) -> Optional[dict]:
    """``{key: row}`` when no two of ``rows`` share a key, else ``None`` --
    decided a chunk at a time, so that a build with duplicates stops early."""
    table: dict = {}
    pairs = zip(keys, rows)
    for done in range(_CHUNK, len(rows) + _CHUNK, _CHUNK):
        table.update(islice(pairs, _CHUNK))
        if len(table) < min(done, len(rows)):
            return None
    return table


def _buckets(
    keys: Iterable, values: Iterable, runs: Optional[Iterable[int]] = None
) -> dict:
    """``values`` partitioned by ``keys`` (paired in order): key -> the
    list of its values, keys in the order they first appear. With ``runs``
    each key is that of a run of so many consecutive values, which all join
    its group, a run's key computed before its values. The loop runs in C
    -- a ``defaultdict`` makes each list, ``list.append`` (``list.extend``
    by a slice of a run) fills it."""
    buckets: defaultdict = defaultdict(list)
    if runs is None:
        _drain(map(list.append, map(buckets.__getitem__, keys), values))
    else:
        values = iter(values)
        _drain(map(
            list.extend, map(buckets.__getitem__, keys),
            map(islice, repeat(values), runs),
        ))
    return buckets


def _drain(iterator: Iterable) -> None:
    """Run ``iterator`` to its end for its effects, in C."""
    deque(iterator, maxlen=0)


def _compile_groupby(box: GroupByBox, graph_facts: GraphFacts) -> GroupByPlan:
    q = box.quantifier
    params, offsets = row_layout(box, (q,), graph_facts)
    arguments: list[ast.Expr] = []
    outputs = []
    for output in box.outputs:
        expr = output.expr
        if not isinstance(expr, ast.AggregateCall):
            key = next((
                slot for slot, group in enumerate(box.group_by)
                if isinstance(expr, ColumnRef) and isinstance(group, ColumnRef)
                and expr.same(group)
            ), None)
            outputs.append(
                CompiledOutput(key=key) if key is not None
                else CompiledOutput(values=_compile_values(expr, offsets))
            )
        elif expr.argument is None:
            outputs.append(CompiledOutput(expr.func, expr.distinct))
        else:
            outputs.append(
                CompiledOutput(expr.func, expr.distinct, len(arguments))
            )
            arguments.append(expr.argument)
    return GroupByPlan(
        params=params,
        inputs=_inputs(box, offsets),
        keys=None if box.is_scalar else _compile_key(box.group_by, offsets),
        key_width=len(box.group_by),
        by_runs=_keys_read_preserved(box),
        firsts=any(o.func is None and o.key is None for o in outputs),
        arguments=_compile_key(arguments, offsets),
        n_arguments=len(arguments),
        outputs=tuple(outputs),
        no_row=(None,) * len(q.box.output_names()),
    )


def _keys_read_preserved(box: GroupByBox) -> bool:
    """Does every group key of ``box`` read only the preserved side of the
    outer join under it (:func:`_reads_preserved`)? The rows one preserved
    row produced then have one key."""
    return not box.is_scalar and all(
        _reads_preserved(key, box.quantifier) for key in box.group_by
    )


def _reads_preserved(expr: ast.Expr, quantifier) -> bool:
    """Does ``expr``, over the rows of ``quantifier``, read only columns an
    outer join takes from its preserved side -- directly, or through SPJ
    boxes over that join alone, whose one step, a scan, hands its runs on
    (:func:`_keeping_runs`)? A value of an enclosing box is one per
    invocation; a subquery is not looked into, and does not qualify."""
    if box_subquery_exprs(expr):
        return False
    box = quantifier.box
    passes = isinstance(box, SelectBox) and len(box.quantifiers) == 1 and (
        not box.predicates
    )
    for ref in column_refs(expr):
        if ref.quantifier is not quantifier:
            continue  # a value of an enclosing box
        if isinstance(box, OuterJoinBox):
            column = box.outputs[column_position(box, ref.column)].expr
            if box_subquery_exprs(column) or any(
                read.quantifier is box.null_producing
                for read in column_refs(column)
            ):
                return False
        elif not passes or not _reads_preserved(
            box.outputs[column_position(box, ref.column)].expr,
            box.quantifiers[0],
        ):
            return False
    return True


def _compile_outerjoin(box: OuterJoinBox, graph_facts: GraphFacts) -> OuterJoinPlan:
    left_q, right_q = box.preserved, box.null_producing
    params, offsets = row_layout(box, (left_q, right_q), graph_facts)
    keys = None
    equi = _equi_condition(box)
    if equi is not None:
        left_exprs, right_exprs, null_safe = equi
        # Left keys read columns of the preserved side only, which come
        # before the right row: the same closures serve a member that has
        # no right row yet. Right keys read the right row alone.
        keys = _compile_join_keys(
            right_exprs, {right_q: 0}, left_exprs, offsets, null_safe
        )
    return OuterJoinPlan(
        params=params,
        inputs=_inputs(box, offsets),
        keys=keys,
        condition=tuple(
            compile_filter(conjunct, offsets)
            for conjunct in conjuncts(box.condition)
        ),
        project=_compile_rows(
            [o.expr for o in box.outputs], offsets,
            _row_width(params, (left_q, right_q)),
        ),
    )


def _dedupe(rows: list[tuple]) -> list[tuple]:
    """``rows`` without duplicates, in first-appearance order."""
    return list(dict.fromkeys(rows))


def _check_setop_classes(box: SetOpBox, child_rows: Sequence[list]) -> None:
    """A set operation puts the columns of several boxes into one, and what
    reads it next -- DISTINCT, GROUP BY, the set operation itself -- goes by
    hash, where 1 and TRUE are one value: the classes its branches deliver
    per column must be comparable by the rule of ``=``
    (:func:`~repro.types.comparable_classes`; NULL goes with everything)."""
    for position, name in enumerate(box.output_names()):
        column = itemgetter(position)
        classes: set = set()
        for rows in child_rows:
            classes.update(map(type, map(column, rows)))
        classes.discard(type(None))
        if not comparable_classes(classes):
            first, second = next(
                pair for pair in combinations(
                    sorted(classes, key=lambda cls: cls.__name__), 2
                ) if not comparable_classes(set(pair))
            )
            raise SchemaError(
                f"{box.op} column {name!r} cannot compare "
                f"{first.__name__} with {second.__name__}"
            )


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


#: Executions in flight in this process, and whether the collector is off
#: because the first of them turned it off (see :func:`execute_graph`).
_paused = 0
_owned = False
_pause_lock = threading.Lock()


def _pause_collector() -> None:
    global _paused, _owned
    with _pause_lock:
        if _paused == 0 and not _owned:
            _owned = gc.isenabled()
            gc.disable()
        _paused += 1


def _resume_collector() -> None:
    """Leave the pause. Every execution that leaves pays what the pause
    owes -- one collection of the oldest generation past its threshold,
    the one CPython would have run -- so a pause that other threads keep
    open never starves the collector; the last one out turns the
    collector back on if the pause turned it off. The collection runs
    before that, so no automatic one can run it a second time."""
    global _paused, _owned
    with _pause_lock:
        _paused -= 1
        owed = _owned
    if not owed:
        return
    counts, thresholds = gc.get_count(), gc.get_threshold()
    if thresholds[0]:
        for generation in (2, 1, 0):
            if counts[generation] > thresholds[generation]:
                gc.collect(generation)
                break
    with _pause_lock:
        if _paused == 0 and _owned:
            _owned = False
            gc.enable()


def execute_graph(
    graph: QueryGraph,
    catalog: Catalog,
    ctx: Optional[ExecutionContext] = None,
) -> tuple[list[tuple], Metrics]:
    """Execute a QGM query graph; returns (rows, metrics).

    ``ctx`` is the execution's :class:`ExecutionContext` -- it carries the
    ``cse_mode``, the bound ``?`` values, the guard, the fault registry,
    the tracer and whatever plans were seeded into it. Without one the
    graph runs in a bare context that plans each box as it first runs.

    The cyclic collector is paused while the graph runs: rows, members
    and buckets are tuples, lists and dicts of values and never form a
    cycle, so a collection inside an execution only walks live rows.
    """
    if ctx is None:
        ctx = ExecutionContext(catalog, graph.root)
    _pause_collector()
    try:
        return _execute(graph, ctx)
    finally:
        _resume_collector()


def _execute(
    graph: QueryGraph, ctx: ExecutionContext
) -> tuple[list[tuple], Metrics]:
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
    rows = list(ctx.box_rows(graph.root))
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
