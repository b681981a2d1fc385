"""Planning a SelectBox: access paths, join order, subquery placement.

The planner turns one SPJ box into an ordered list of *steps*:

* an access step per quantifier -- index lookup, hash join, or scan;
* predicate steps placed as early as their references allow;
* scalar-subquery evaluation steps, placed *cost-based*: section 7 of the
  paper notes the optimizer decides where the correlated subquery is applied
  (after the outer joins for Query 1, before them for Query 2), and that
  magic decorrelation reuses that choice to form the supplementary table.
  :func:`plan_select_box` therefore records the chosen placement, and the
  decorrelation rewrite asks for it via ``subquery_placement``.

Correlated children (e.g. the correlated derived table of the paper's
Query 3) must be re-executed per outer row; their access steps are marked
``correlated_to_self`` so the executor performs -- and counts -- one
invocation per binding, which is exactly the nested-iteration behaviour the
paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional, Union

from ..errors import PlanError
from ..qgm.analysis import GraphFacts
from ..qgm.expr import BoxScalarSubquery, ColumnRef, expr_facts
from ..qgm.model import BaseTableBox, Box, Quantifier, SelectBox
from ..sql import ast
from .cost import TableSource, column_ndv, estimate_box_rows, predicate_selectivity


@dataclass
class ScanStep:
    """Materialise-and-iterate over a child box's rows.

    When ``correlated_to_self`` the child references quantifiers of this box
    and is re-executed (and counted as a subquery invocation) per member row.
    """

    quantifier: Quantifier
    correlated_to_self: bool = False


@dataclass
class IndexLookupStep:
    """Probe a base-table index with key expressions over bound values."""

    quantifier: Quantifier
    index_name: str
    key_columns: tuple[str, ...]
    key_exprs: tuple[ast.Expr, ...]


@dataclass
class HashJoinStep:
    """Build a hash table on the child's rows, probe with bound-side keys.

    ``null_safe[i]`` marks ``<=>`` key pairs: NULL keys participate (NULL
    matches NULL) instead of being dropped as ordinary equality requires.
    Left out, every pair is an ordinary equality.
    """

    quantifier: Quantifier
    build_exprs: tuple[ast.Expr, ...]  # over the new quantifier
    probe_exprs: tuple[ast.Expr, ...]  # over already-bound quantifiers/outer
    null_safe: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if not self.null_safe:
            self.null_safe = (False,) * len(self.build_exprs)


@dataclass
class PredicateStep:
    predicate: ast.Expr


@dataclass
class SubqueryEvalStep:
    """Evaluate a scalar subquery once per member row; its value takes the
    next slot of the row."""

    node: BoxScalarSubquery


Step = Union[ScanStep, IndexLookupStep, HashJoinStep, PredicateStep, SubqueryEvalStep]


def step_label(step: Step) -> str:
    """A short, stable operator name for one step -- the identity traces
    and ``EXPLAIN ANALYZE`` annotations display (the full predicate/key
    text lives in :mod:`repro.plan.pretty`)."""
    if isinstance(step, ScanStep):
        suffix = " (correlated)" if step.correlated_to_self else ""
        return f"scan {step.quantifier.name}{suffix}"
    if isinstance(step, IndexLookupStep):
        return f"index lookup {step.quantifier.name} via {step.index_name}"
    if isinstance(step, HashJoinStep):
        return f"hash join {step.quantifier.name}"
    if isinstance(step, PredicateStep):
        return "filter"
    if isinstance(step, SubqueryEvalStep):
        return f"scalar subquery (box {step.node.box.id})"
    return type(step).__name__  # pragma: no cover - future step kinds


@dataclass
class SelectPlan:
    box: SelectBox
    steps: list[Step]
    #: Estimated member cardinality after the final step (for diagnostics).
    estimated_rows: float
    #: id(scalar node) -> barrier index where it is evaluated; consumed by
    #: the magic decorrelation rewrite to form the supplementary table.
    scalar_placement: dict[int, int] = field(default_factory=dict)
    #: Quantifiers in chosen join order (barrier i binds order[i-1]).
    join_order: list[Quantifier] = field(default_factory=list)
    #: The executor's closures for ``steps`` and the projection
    #: (:func:`repro.exec.executor.compile_select`); the planner, and the
    #: rewrites that only ask it for a placement, leave it empty.
    compiled: Optional[Any] = field(default=None, repr=False, compare=False)


# ---- the fact table ---------------------------------------------------------
#
# Everything the join-order search asks about a box is derived once, when
# plan_select_box starts, and read from here by every candidate the search
# tries. A set of this box's quantifiers is a bitmask: bit i is
# box.quantifiers[i]. The table lives for one call (DESIGN section 18); what
# it needs of the box's children -- their correlations and row estimates --
# it reads from the graph's table, which the compile step shares among all
# boxes of the final graph (DESIGN section 19).


class _EqKey(NamedTuple):
    """A join key for binding one quantifier: a subquery-free ``=`` / ``<=>``
    predicate with a plain column of the quantifier on one side, usable
    once everything the other side reads is bound."""

    pred: int  # index into _BoxFacts.predicates
    ref: ColumnRef  # a column of the quantifier being bound
    other: ast.Expr  # over bound quantifiers and anything outer
    other_requires: int  # this box's quantifiers ``other`` reads
    null_safe: bool


class _QuantifierFacts:
    """What the search reads about one quantifier of the box."""

    __slots__ = ("q", "bit", "requires", "correlated", "rows", "keys", "probes", "ndv")

    def __init__(self, q: Quantifier, bit: int, requires: int, rows: float):
        self.q = q
        self.bit = bit
        #: Quantifiers the child's subtree references: they are bound first,
        #: and the child is re-run per member row (``correlated_to_self``).
        self.requires = requires
        self.correlated = bool(requires)
        self.rows = rows
        self.keys: list[_EqKey] = []
        #: key column -> (its single-column index's name, rows per probe),
        #: None when the column has no such index
        self.probes: dict[str, Optional[tuple[str, float]]] = {}
        #: key column -> distinct values (for a hash join's selectivity)
        self.ndv: dict[str, int] = {}


class _PredicateFacts:
    """What the search reads about one predicate of the box."""

    __slots__ = ("expr", "requires", "scalars", "selectivity")

    def __init__(self, expr: ast.Expr, requires: int, scalars: list[BoxScalarSubquery]):
        self.expr = expr
        #: Quantifiers bound before the predicate can run. Scalar subquery
        #: bodies are excluded (their values arrive via SubqueryEvalStep);
        #: every other subquery runs inline, so its correlations count.
        self.requires = requires
        self.scalars = scalars
        #: Computed on first use (_apply_path_preds).
        self.selectivity: Optional[float] = None


class _BoxFacts:
    """What the join-order search reads about one SPJ box."""

    def __init__(self, catalog: TableSource, box: SelectBox, graph: GraphFacts):
        self.catalog = catalog
        self.box = box
        self.graph = graph
        self._bit = {id(q): 1 << i for i, q in enumerate(box.quantifiers)}
        self.quantifiers = [
            _QuantifierFacts(
                q, 1 << i, self._subtree_mask(q.box),
                estimate_box_rows(catalog, q.box, graph.rows),
            )
            for i, q in enumerate(box.quantifiers)
        ]
        self._by_id = {id(qf.q): qf for qf in self.quantifiers}
        self.predicates: list[_PredicateFacts] = []
        for predicate in box.predicates:
            self._add_predicate(predicate)
        for qf in self.quantifiers:
            if qf.keys:
                self._key_facts(qf)

        # Scalar subquery nodes in predicates and outputs, with the
        # quantifiers their correlations require.
        nodes = [node for pf in self.predicates for node in pf.scalars]
        for output in box.outputs:
            nodes += [
                n for n in expr_facts(output.expr).subqueries
                if isinstance(n, BoxScalarSubquery)
            ]
        self.scalars: list[tuple[BoxScalarSubquery, int]] = []
        seen: set[int] = set()
        for node in nodes:
            if id(node) not in seen:
                seen.add(id(node))
                self.scalars.append((node, self._subtree_mask(node.box)))

    def _subtree_mask(self, subquery_box: Box) -> int:
        """This box's quantifiers the subtree of ``subquery_box`` reads: its
        correlations into this box."""
        mask = 0
        for ref in self.graph.outer_refs(subquery_box):
            mask |= self._bit.get(id(ref.quantifier), 0)
        return mask

    def _refs_mask(self, expr: ast.Expr) -> int:
        """This box's quantifiers ``expr`` references directly (not
        entering subquery bodies)."""
        mask = 0
        for ref in expr_facts(expr).refs:
            mask |= self._bit.get(id(ref.quantifier), 0)
        return mask

    def _add_predicate(self, predicate: ast.Expr) -> None:
        pi = len(self.predicates)
        requires = self._refs_mask(predicate)
        scalars: list[BoxScalarSubquery] = []
        inline: list[ast.Expr] = []
        for node in expr_facts(predicate).subqueries:
            if isinstance(node, BoxScalarSubquery):
                scalars.append(node)
            else:
                inline.append(node)
        for node in inline:
            requires |= self._subtree_mask(node.box)
        self.predicates.append(_PredicateFacts(predicate, requires, scalars))

        if scalars or inline or not isinstance(predicate, ast.Comparison) \
                or predicate.op not in ("=", "<=>"):
            return
        for side, other in (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        ):
            qf = self._by_id.get(id(side.quantifier)) if isinstance(side, ColumnRef) else None
            if qf is None:
                continue
            other_requires = self._refs_mask(other)
            if not other_requires & qf.bit:
                qf.keys.append(
                    _EqKey(pi, side, other, other_requires, predicate.op == "<=>")
                )

    def _key_facts(self, qf: _QuantifierFacts) -> None:
        """Index and distinct-value facts for the columns of ``qf``'s keys."""
        catalog = self.catalog
        if isinstance(qf.q.box, BaseTableBox):
            table = catalog.table(qf.q.box.table_name)
            stats = catalog.stats(qf.q.box.table_name)
            for key in qf.keys:
                column = key.ref.column
                if key.null_safe or column in qf.probes:
                    continue
                index = table.find_index([column])
                if index is None:
                    qf.probes[column] = None
                else:
                    ndv = max(1, stats.column(column).n_distinct)
                    qf.probes[column] = (index.name, max(stats.row_count / ndv, 0.001))
        if not qf.correlated:
            for key in qf.keys:
                if key.ref.column not in qf.ndv:
                    qf.ndv[key.ref.column] = column_ndv(catalog, key.ref) or 10


_AccessStep = Union[ScanStep, IndexLookupStep, HashJoinStep]
#: (cost, out_rows, step, predicates the step's estimate already applies)
_Access = tuple[float, float, _AccessStep, tuple[int, ...]]


class _Barrier(NamedTuple):
    """One point of a join order: the access step that binds a quantifier
    (none at barrier 0), everything bound by then, the estimated rows
    after it, and the predicates that become eligible there."""

    step: Optional[_AccessStep]
    bound: int
    rows: float
    placed: tuple[int, ...]


def plan_select_box(
    catalog: TableSource, box: SelectBox, guard=None, graph_facts: Optional[GraphFacts] = None
) -> SelectPlan:
    """Cost-based plan of one SPJ box: exact join ordering (dynamic
    programming) up to ``_DP_LIMIT`` quantifiers, greedy beyond; ties
    between equally cheap orders go to FROM-list order.

    ``guard`` (a :class:`repro.guard.ExecutionGuard`) makes planning itself
    a cooperative cancellation/timeout point: plans are built lazily during
    execution, so a tripped budget must also stop the planner.
    ``graph_facts`` is the table of a graph holding ``box`` that nobody
    mutates meanwhile (the compile step's); without one the call builds
    its own, of ``box``'s subtree.
    """
    if guard is not None:
        guard.check()
    facts = _BoxFacts(catalog, box, graph_facts or GraphFacts(box))

    # ---- join-order search -------------------------------------------------
    # Selinger-style dynamic programming over quantifier subsets for small
    # FROM lists (exact under the step cost model), greedy beyond that.
    search = _order_dp if len(box.quantifiers) <= _DP_LIMIT else _order_greedy
    barriers = search(facts)

    # ---- scalar subquery placement (paper section 7) ---------------------
    scalar_barrier: dict[int, int] = {}
    for node, required in facts.scalars:
        feasible = [
            i for i, barrier in enumerate(barriers) if not required & ~barrier.bound
        ]
        if not feasible:
            raise PlanError(f"scalar subquery of box {box.id} cannot be placed")
        # Cheapest point = fewest invocations = smallest member cardinality.
        scalar_barrier[id(node)] = min(feasible, key=lambda i: (barriers[i].rows, i))

    # Predicates that read scalar values must wait for their evaluation.
    pred_barrier = {pi: i for i, barrier in enumerate(barriers) for pi in barrier.placed}
    for pi, pf in enumerate(facts.predicates):
        if pf.scalars:
            pred_barrier[pi] = max(
                [pred_barrier[pi]] + [scalar_barrier[id(s)] for s in pf.scalars]
            )

    # ---- assemble -------------------------------------------------------
    # Within a barrier: its access step, then scalar-free predicates, then
    # scalar evaluations (invoked on the survivors), then the predicates
    # that read their values.
    steps: list[Step] = []
    for index, barrier in enumerate(barriers):
        if barrier.step is not None:
            steps.append(barrier.step)
        here = [pf for pi, pf in enumerate(facts.predicates) if pred_barrier[pi] == index]
        steps += [PredicateStep(pf.expr) for pf in here if not pf.scalars]
        steps += [
            SubqueryEvalStep(node)
            for node, _ in facts.scalars
            if scalar_barrier[id(node)] == index
        ]
        steps += [PredicateStep(pf.expr) for pf in here if pf.scalars]

    return SelectPlan(
        box=box,
        steps=steps,
        estimated_rows=barriers[-1].rows,
        scalar_placement=scalar_barrier,
        join_order=[b.step.quantifier for b in barriers if b.step is not None],
    )


#: Maximum FROM-list size for exact dynamic-programming join ordering.
_DP_LIMIT = 8


def _apply_path_preds(
    facts: _BoxFacts,
    bound: int,
    pending: tuple[int, ...],
    used: tuple[int, ...],
    rows: float,
) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """Place the pending predicates ``bound`` makes eligible and multiply in
    their selectivity, unless the access path that bound them (``used``)
    already accounts for it. Returns ``(rows, placed, still_pending)``."""
    placed: list[int] = []
    still: list[int] = []
    for pi in pending:
        pf = facts.predicates[pi]
        if pf.requires & ~bound:
            still.append(pi)
            continue
        placed.append(pi)
        if pi not in used:
            if pf.selectivity is None:
                pf.selectivity = predicate_selectivity(facts.catalog, pf.expr)
            rows = max(rows * pf.selectivity, 0.001)
    return rows, tuple(placed), tuple(still)


def _first_barrier(facts: _BoxFacts) -> tuple[_Barrier, tuple[int, ...]]:
    """Barrier 0, before any quantifier is bound, and what is pending after it."""
    everything = tuple(range(len(facts.predicates)))
    rows, placed, pending = _apply_path_preds(facts, 0, everything, (), 1.0)
    return _Barrier(None, 0, rows, placed), pending


def _order_greedy(facts: _BoxFacts) -> list[_Barrier]:
    """Greedy ordering: cheapest next access at every step; of equally
    cheap ones, the first in FROM order."""
    first, pending = _first_barrier(facts)
    barriers = [first]
    bound = 0
    remaining = list(facts.quantifiers)
    while remaining:
        best: Optional[tuple[_QuantifierFacts, _Access]] = None
        for qf in remaining:
            if qf.requires & ~bound:
                continue
            access = _best_access(facts, qf, bound, barriers[-1].rows)
            if best is None or access[:2] < best[1][:2]:
                best = (qf, access)
        if best is None:
            raise PlanError(
                f"cannot order quantifiers of box {facts.box.id}: "
                "circular correlated derived tables?"
            )
        qf, (_, out_rows, step, used) = best
        bound |= qf.bit
        remaining.remove(qf)
        rows, placed, pending = _apply_path_preds(
            facts, bound, pending, used, max(out_rows, 0.001)
        )
        barriers.append(_Barrier(step, bound, rows, placed))
    return barriers


def _order_dp(facts: _BoxFacts) -> list[_Barrier]:
    """Exact join ordering: dynamic programming over quantifier subsets.

    Layer k holds, per subset of k quantifiers (a bitmask), the cheapest
    way found to bind it: accumulated cost, the predicates still pending,
    and its barriers. States are expanded in the order they were reached,
    quantifiers in FROM order, and a candidate replaces a state only when
    strictly cheaper, so ties go to the order found first. The winner's
    barriers are the plan: their rows are the estimates the search
    computed, so the order is not planned a second time.
    """
    first, pending = _first_barrier(facts)
    states: dict[int, tuple[float, tuple[int, ...], tuple[_Barrier, ...]]] = {
        0: (0.0, pending, (first,))
    }
    for _ in facts.quantifiers:
        next_states: dict[int, tuple[float, tuple[int, ...], tuple[_Barrier, ...]]] = {}
        for bound, (cost, pending, barriers) in states.items():
            env_rows = barriers[-1].rows
            for qf in facts.quantifiers:
                if qf.bit & bound or qf.requires & ~bound:
                    continue
                step_cost, out_rows, step, used = _best_access(facts, qf, bound, env_rows)
                total = cost + step_cost
                key = bound | qf.bit
                existing = next_states.get(key)
                if existing is not None and not total < existing[0]:
                    continue
                rows, placed, still = _apply_path_preds(
                    facts, key, pending, used, max(out_rows, 0.001)
                )
                next_states[key] = (total, still, barriers + (_Barrier(step, key, rows, placed),))
        if not next_states:
            raise PlanError(
                f"cannot order quantifiers of box {facts.box.id}: "
                "circular correlated derived tables?"
            )
        states = next_states
    ((_, _, barriers),) = states.values()
    return list(barriers)


def _best_access(
    facts: _BoxFacts, qf: _QuantifierFacts, bound: int, env_rows: float
) -> _Access:
    """Best access path for binding ``qf``'s quantifier next, after
    ``bound`` with ``env_rows`` rows so far.

    Returns ``(cost, out_rows, step, used)`` -- ``used`` lists predicates
    whose selectivity the access path already accounts for (so the caller
    does not apply it twice). Arithmetic on the fact table only.
    """
    # Keys whose other side is computable from bound quantifiers (plus
    # anything outer, which is always available). Their predicates require
    # this quantifier, so they are all still pending.
    keys = [key for key in qf.keys if not key.other_requires & ~bound]

    # (cost, out_rows, how): how is (key, index name) for an index lookup,
    # every key for a hash join, None for a scan.
    candidates: list[tuple[float, float, Union[tuple[_EqKey, str], list[_EqKey], None]]] = []

    # Index lookup on a base table (not for null-safe keys: hash indexes
    # drop NULL probes by design).
    for key in keys:
        probe = None if key.null_safe else qf.probes.get(key.ref.column)
        if probe is not None:
            index_name, matches = probe
            candidates.append(
                (env_rows * (1.0 + matches), max(env_rows * matches, 0.001), (key, index_name))
            )

    # Hash join (child must not depend on this box's other quantifiers).
    if keys and not qf.correlated:
        selectivity = 1.0
        for key in keys:
            selectivity *= 1.0 / max(1, qf.ndv[key.ref.column])
        matches = max(qf.rows * selectivity, 0.001)
        candidates.append(
            (qf.rows + env_rows * (1.0 + matches), max(env_rows * matches, 0.001), keys)
        )

    # Plain (nested-loop) scan is always possible.
    scan_cost = env_rows * qf.rows + (qf.rows if not qf.correlated else 0.0)
    candidates.append((scan_cost, max(env_rows * qf.rows, 0.001), None))

    cost, out_rows, how = min(candidates, key=lambda c: (c[0], c[1]))
    q = qf.q
    if how is None:
        return cost, out_rows, ScanStep(q, qf.correlated), ()
    if isinstance(how, list):
        step = HashJoinStep(
            q,
            tuple(key.ref for key in how),
            tuple(key.other for key in how),
            tuple(key.null_safe for key in how),
        )
        return cost, out_rows, step, tuple(key.pred for key in how)
    key, index_name = how
    lookup = IndexLookupStep(q, index_name, (key.ref.column,), (key.other,))
    return cost, out_rows, lookup, (key.pred,)
