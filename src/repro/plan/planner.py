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
from typing import Any, Optional, Union

from ..errors import PlanError
from ..qgm.analysis import external_column_refs
from ..qgm.expr import (
    BOX_SUBQUERY_TYPES,
    BoxScalarSubquery,
    ColumnRef,
    walk_expr,
)
from ..qgm.model import BaseTableBox, Box, Quantifier, SelectBox
from ..sql import ast
from ..storage.catalog import Catalog
from .cost import estimate_box_rows, predicate_selectivity


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


def _own_refs(box: SelectBox, expr: ast.Expr) -> set[int]:
    """ids of this box's quantifiers referenced directly by ``expr``
    (not entering subquery bodies)."""
    own = {id(q) for q in box.quantifiers}
    return {
        id(node.quantifier)
        for node in walk_expr(expr)
        if isinstance(node, ColumnRef) and id(node.quantifier) in own
    }


def _subtree_refs_to_box(box: SelectBox, subquery_box: Box) -> set[int]:
    """ids of ``box``'s quantifiers referenced from anywhere inside a
    subquery's subtree (its correlations into this box)."""
    own = {id(q) for q in box.quantifiers}
    return {
        id(ref.quantifier)
        for _, ref in external_column_refs(subquery_box)
        if id(ref.quantifier) in own
    }


def _predicate_requirements(box: SelectBox, predicate: ast.Expr) -> set[int]:
    """Quantifiers of ``box`` that must be bound before ``predicate`` can be
    evaluated. Scalar subquery *bodies* are excluded (their values arrive
    via SubqueryEvalStep), every other subquery runs inline."""
    required = _own_refs(box, predicate)
    for node in walk_expr(predicate):
        if isinstance(node, BOX_SUBQUERY_TYPES) and not isinstance(
            node, BoxScalarSubquery
        ):
            required |= _subtree_refs_to_box(box, node.box)
    return required


def plan_select_box(catalog: Catalog, box: SelectBox, guard=None) -> SelectPlan:
    """Greedy cost-based ordering of one SPJ box.

    ``guard`` (a :class:`repro.guard.ExecutionGuard`) makes planning itself
    a cooperative cancellation/timeout point: plans are built lazily during
    execution, so a tripped budget must also stop the planner.
    """
    if guard is not None:
        guard.check()
    quantifier_by_id = {id(q): q for q in box.quantifiers}

    simple_preds: list[tuple[ast.Expr, set[int], list[BoxScalarSubquery]]] = []
    for predicate in box.predicates:
        scalars = [
            node
            for node in walk_expr(predicate)
            if isinstance(node, BoxScalarSubquery)
        ]
        simple_preds.append(
            (predicate, _predicate_requirements(box, predicate), scalars)
        )

    # Scalar subquery nodes in predicates and outputs, with the quantifiers
    # their correlations require.
    scalar_nodes: list[tuple[BoxScalarSubquery, set[int]]] = []
    seen_scalar_ids: set[int] = set()

    def note_scalars(expr: ast.Expr) -> None:
        for node in walk_expr(expr):
            if isinstance(node, BoxScalarSubquery) and id(node) not in seen_scalar_ids:
                seen_scalar_ids.add(id(node))
                scalar_nodes.append((node, _subtree_refs_to_box(box, node.box)))

    for predicate in box.predicates:
        note_scalars(predicate)
    for output in box.outputs:
        note_scalars(output.expr)

    # Child-box correlation into this box (correlated derived tables).
    child_requirements: dict[int, set[int]] = {}
    child_rows: dict[int, float] = {}
    for q in box.quantifiers:
        child_requirements[id(q)] = _subtree_refs_to_box(box, q.box)
        child_rows[id(q)] = estimate_box_rows(catalog, q.box)

    # ---- join-order search -------------------------------------------------
    # Selinger-style dynamic programming over quantifier subsets for small
    # FROM lists (exact under the step cost model), greedy beyond that.
    search = _order_dp if len(box.quantifiers) <= _DP_LIMIT else _order_greedy
    barriers, pred_barrier = search(
        catalog, box, simple_preds, child_requirements, child_rows,
        quantifier_by_id,
    )

    # ---- scalar subquery placement (paper section 7) ---------------------
    scalar_barrier: dict[int, int] = {}
    for node, required in scalar_nodes:
        feasible = [
            i for i in range(len(barriers))
            if required <= _bound_at(box, barriers, i)
        ]
        if not feasible:
            raise PlanError(f"scalar subquery of box {box.id} cannot be placed")
        # Cheapest point = fewest invocations = smallest member cardinality.
        best_barrier = min(feasible, key=lambda i: (barriers[i]["rows"], i))
        scalar_barrier[id(node)] = best_barrier

    # Predicates that read scalar values must wait for their evaluation.
    for pi, (predicate, required, scalars) in enumerate(simple_preds):
        if pi in pred_barrier and scalars:
            barrier = max(
                [pred_barrier[pi]] + [scalar_barrier[id(s)] for s in scalars]
            )
            pred_barrier[pi] = barrier

    # ---- assemble -------------------------------------------------------
    steps: list[Step] = []
    for index, barrier in enumerate(barriers):
        steps.extend(barrier["steps"])
        for node, _ in scalar_nodes:
            if scalar_barrier[id(node)] == index:
                steps.append(SubqueryEvalStep(node))
        for pi, (predicate, _, scalars) in enumerate(simple_preds):
            if pred_barrier.get(pi) == index:
                # Scalar-free predicates go before scalar evaluations of the
                # same barrier; handled by ordering below.
                steps.append(PredicateStep(predicate))

    steps = _order_within_barriers(steps)
    join_order = [
        step.quantifier
        for step in steps
        if isinstance(step, (ScanStep, IndexLookupStep, HashJoinStep))
    ]
    return SelectPlan(
        box=box,
        steps=steps,
        estimated_rows=barriers[-1]["rows"],
        scalar_placement=scalar_barrier,
        join_order=join_order,
    )


#: Maximum FROM-list size for exact dynamic-programming join ordering.
_DP_LIMIT = 8


def _apply_path_preds(
    catalog: Catalog,
    simple_preds,
    bound: set[int],
    pending: set[int],
    consumed: set[int],
    rows: float,
    barrier_index: int,
    pred_barrier: dict[int, int],
) -> tuple[float, set[int]]:
    """Apply newly-eligible predicates at a barrier: record their placement
    and multiply in their selectivity (unless an access path consumed it)."""
    still_pending = set(pending)
    for pi in sorted(pending):
        predicate, required, _scalars = simple_preds[pi]
        if required <= bound:
            still_pending.discard(pi)
            pred_barrier[pi] = barrier_index
            if pi not in consumed:
                rows = max(rows * predicate_selectivity(catalog, predicate), 0.001)
    return rows, still_pending


def _order_greedy(
    catalog, box, simple_preds, child_requirements, child_rows, quantifier_by_id
) -> tuple[list[dict], dict[int, int]]:
    """Greedy ordering: cheapest next access at every step."""
    bound: set[int] = set()
    remaining = [id(q) for q in box.quantifiers]
    barriers: list[dict] = [{"steps": [], "rows": 1.0}]
    pending: set[int] = set(range(len(simple_preds)))
    pred_barrier: dict[int, int] = {}
    consumed: set[int] = set()
    est_rows, pending = _apply_path_preds(
        catalog, simple_preds, bound, pending, consumed, 1.0, 0, pred_barrier
    )
    barriers[0]["rows"] = est_rows

    while remaining:
        best = None
        for qid in remaining:
            if not child_requirements[qid] <= bound:
                continue
            q = quantifier_by_id[qid]
            access = _best_access(
                catalog, box, q, bound, simple_preds, sorted(pending),
                est_rows, child_rows[qid],
            )
            if access is None:
                continue
            cost, out_rows, step, used_preds = access
            key = (cost, out_rows, qid)
            if best is None or key < (best[0], best[1], best[2]):
                best = (cost, out_rows, qid, step, used_preds)
        if best is None:
            raise PlanError(
                f"cannot order quantifiers of box {box.id}: "
                "circular correlated derived tables?"
            )
        _, out_rows, qid, step, used_preds = best
        bound.add(qid)
        remaining.remove(qid)
        consumed |= used_preds
        est_rows = max(out_rows, 0.001)
        barriers.append({"steps": [step], "rows": est_rows})
        est_rows, pending = _apply_path_preds(
            catalog, simple_preds, bound, pending, consumed, est_rows,
            len(barriers) - 1, pred_barrier,
        )
        barriers[-1]["rows"] = est_rows
    return barriers, pred_barrier


def _order_dp(
    catalog, box, simple_preds, child_requirements, child_rows, quantifier_by_id
) -> tuple[list[dict], dict[int, int]]:
    """Exact join ordering: dynamic programming over quantifier subsets.

    Each DP state keeps the cheapest way to have bound that subset; the
    value carries accumulated cost, estimated rows, the chosen steps, and
    which predicates were consumed by access paths along the way.
    """
    all_ids = [id(q) for q in box.quantifiers]
    n = len(all_ids)
    # state value: (cost, rows, steps, consumed, order)
    initial_pending = frozenset(range(len(simple_preds)))
    start_rows = 1.0
    throwaway: dict[int, int] = {}
    start_rows, start_pending = _apply_path_preds(
        catalog, simple_preds, set(), set(initial_pending), set(),
        start_rows, 0, throwaway,
    )
    states: dict[frozenset, tuple] = {
        frozenset(): (0.0, start_rows, [], frozenset(), [])
    }
    for _ in range(n):
        next_states: dict[frozenset, tuple] = {}
        for subset, (cost, rows, steps, consumed, order) in states.items():
            if len(subset) != len(order):
                continue
            bound = set(subset)
            pending = {
                pi for pi in initial_pending
                if not simple_preds[pi][1] <= bound
            }
            for qid in all_ids:
                if qid in subset or not child_requirements[qid] <= bound:
                    continue
                q = quantifier_by_id[qid]
                access = _best_access(
                    catalog, box, q, bound, simple_preds, sorted(pending),
                    rows, child_rows[qid],
                )
                if access is None:
                    continue
                step_cost, out_rows, step, used = access
                new_bound = bound | {qid}
                new_consumed = set(consumed) | used
                new_rows, _ = _apply_path_preds(
                    catalog, simple_preds, new_bound,
                    {pi for pi in pending
                     if simple_preds[pi][1] <= new_bound},
                    new_consumed, max(out_rows, 0.001), 0, {},
                )
                key = frozenset(new_bound)
                candidate = (
                    cost + step_cost, new_rows, steps + [step],
                    frozenset(new_consumed), order + [qid],
                )
                existing = next_states.get(key)
                if existing is None or candidate[0] < existing[0]:
                    next_states[key] = candidate
        if not next_states and n:
            raise PlanError(
                f"cannot order quantifiers of box {box.id}: "
                "circular correlated derived tables?"
            )
        states = next_states if next_states else states
        if frozenset(all_ids) in states:
            break
    final = states.get(frozenset(all_ids))
    if final is None and n > 0:
        raise PlanError(f"cannot order quantifiers of box {box.id}")
    if n == 0:
        final = (0.0, start_rows, [], frozenset(), [])

    # Replay the winning order to build barriers and predicate placement.
    _, _, steps, consumed_f, order = final
    consumed = set(consumed_f)
    barriers: list[dict] = [{"steps": [], "rows": 1.0}]
    pending = set(initial_pending)
    pred_barrier: dict[int, int] = {}
    bound: set[int] = set()
    rows, pending = _apply_path_preds(
        catalog, simple_preds, bound, pending, consumed, 1.0, 0, pred_barrier
    )
    barriers[0]["rows"] = rows
    for step, qid in zip(steps, order):
        bound.add(qid)
        # Re-estimate rows from the access step's statistics by replaying
        # _best_access is unnecessary: recompute from scratch keeps the DP
        # and replay consistent enough for placement purposes.
        q = quantifier_by_id[qid]
        access = _best_access(
            catalog, box, q, bound - {qid}, simple_preds, sorted(pending),
            rows, child_rows[qid],
        )
        out_rows = access[1] if access is not None else rows
        rows = max(out_rows, 0.001)
        barriers.append({"steps": [step], "rows": rows})
        rows, pending = _apply_path_preds(
            catalog, simple_preds, bound, pending, consumed, rows,
            len(barriers) - 1, pred_barrier,
        )
        barriers[-1]["rows"] = rows
    return barriers, pred_barrier


def _bound_at(box: SelectBox, barriers: list[dict], index: int) -> set[int]:
    bound: set[int] = set()
    for barrier in barriers[: index + 1]:
        for step in barrier["steps"]:
            if isinstance(step, (ScanStep, IndexLookupStep, HashJoinStep)):
                bound.add(id(step.quantifier))
    return bound


def _order_within_barriers(steps: list[Step]) -> list[Step]:
    """Within one barrier, run scalar-free predicates before scalar
    evaluations (filter first, then invoke subqueries on survivors)."""
    result: list[Step] = []
    block: list[Step] = []

    def flush() -> None:
        plain = [
            s for s in block
            if isinstance(s, PredicateStep)
            and not any(
                isinstance(n, BoxScalarSubquery) for n in walk_expr(s.predicate)
            )
        ]
        evals = [s for s in block if isinstance(s, SubqueryEvalStep)]
        scalar_preds = [
            s for s in block
            if isinstance(s, PredicateStep) and not any(s is p for p in plain)
        ]
        result.extend(plain + evals + scalar_preds)
        block.clear()

    for step in steps:
        if isinstance(step, (ScanStep, IndexLookupStep, HashJoinStep)):
            flush()
            result.append(step)
        else:
            block.append(step)
    flush()
    return result


def _best_access(
    catalog: Catalog,
    box: SelectBox,
    q,
    bound: set[int],
    simple_preds,
    pending_preds,
    env_rows: float,
    q_rows: float,
) -> Optional[tuple[float, float, Step, set[int]]]:
    """Best access path for binding ``q`` next.

    Returns ``(cost, out_rows, step, consumed_pred_indexes)`` -- the last
    element lists predicates whose selectivity the access path already
    accounts for (so the caller does not apply it twice).
    """
    correlated_to_self = bool(_subtree_refs_to_box(box, q.box))
    own_id = id(q)

    # Collect equality predicates usable for index lookup / hash join:
    # one side is a plain column of q, the other is computable from bound
    # quantifiers (plus anything outer, which is always available).
    # (pred_index, col, q_side, other, null_safe)
    eq_pairs: list[tuple[int, str, ast.Expr, ast.Expr, bool]] = []
    for pi in pending_preds:
        predicate, _, scalars = simple_preds[pi]
        if scalars or not isinstance(predicate, ast.Comparison) \
                or predicate.op not in ("=", "<=>"):
            continue
        if any(isinstance(n, BOX_SUBQUERY_TYPES) for n in walk_expr(predicate)):
            continue
        for q_side, other in (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        ):
            if not (isinstance(q_side, ColumnRef) and q_side.quantifier is q):
                continue
            other_own = _own_refs(box, other)
            if other_own <= bound and own_id not in other_own:
                eq_pairs.append(
                    (pi, q_side.column, q_side, other, predicate.op == "<=>")
                )
                break

    candidates: list[tuple[float, float, Step, set[int]]] = []

    # Index lookup on a base table (not for null-safe pairs: hash indexes
    # drop NULL probes by design).
    if isinstance(q.box, BaseTableBox) and eq_pairs:
        table = catalog.table(q.box.table_name)
        stats = catalog.stats(q.box.table_name)
        for pi, column, _, other, null_safe in eq_pairs:
            if null_safe:
                continue
            index = table.find_index([column])
            if index is None:
                continue
            ndv = max(1, stats.column(column).n_distinct)
            matches = max(stats.row_count / ndv, 0.001)
            cost = env_rows * (1.0 + matches)
            out_rows = max(env_rows * matches, 0.001)
            candidates.append(
                (
                    cost,
                    out_rows,
                    IndexLookupStep(q, index.name, (column,), (other,)),
                    {pi},
                )
            )

    # Hash join (child must not depend on this box's other quantifiers).
    if eq_pairs and not correlated_to_self:
        build = tuple(pair[2] for pair in eq_pairs)
        probe = tuple(pair[3] for pair in eq_pairs)
        null_safe = tuple(pair[4] for pair in eq_pairs)
        selectivity = 1.0
        for _, column, q_side, _, _ in eq_pairs:
            ndv = _ndv_of(catalog, q_side)
            selectivity *= 1.0 / max(1, ndv)
        matches = max(q_rows * selectivity, 0.001)
        cost = q_rows + env_rows * (1.0 + matches)
        out_rows = max(env_rows * matches, 0.001)
        candidates.append(
            (
                cost,
                out_rows,
                HashJoinStep(q, build, probe, null_safe),
                {pair[0] for pair in eq_pairs},
            )
        )

    # Plain (nested-loop) scan is always possible.
    scan_cost = env_rows * q_rows + (q_rows if not correlated_to_self else 0.0)
    candidates.append(
        (
            scan_cost,
            max(env_rows * q_rows, 0.001),
            ScanStep(q, correlated_to_self),
            set(),
        )
    )

    return min(candidates, key=lambda c: (c[0], c[1])) if candidates else None


def _ndv_of(catalog: Catalog, ref: ast.Expr) -> int:
    from .cost import column_ndv

    if isinstance(ref, ColumnRef):
        ndv = column_ndv(catalog, ref)
        if ndv:
            return ndv
    return 10
