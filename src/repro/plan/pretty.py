"""Textual rendering of physical plans (the engine's EXPLAIN PLAN).

Walks the query graph and prints, for every SPJ box, the step list the
planner chose: access paths (scan / index lookup / hash join), predicate
placement, and -- the paper's section 7 concern -- where each correlated
scalar subquery is evaluated relative to the joins.

With a :class:`repro.trace.Tracer` from an actual execution, every line
additionally carries ``EXPLAIN ANALYZE``-style annotations (calls, rows,
cache hits, elapsed) pulled from the tracer's per-operator aggregates.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, TYPE_CHECKING

from ..qgm.analysis import iter_boxes
from ..qgm.model import (
    BaseTableBox,
    Box,
    GroupByBox,
    OuterJoinBox,
    QueryGraph,
    SelectBox,
    SetOpBox,
)
from ..qgm.pretty import expr_to_text
from ..storage.catalog import Catalog
from .planner import (
    HashJoinStep,
    IndexLookupStep,
    PredicateStep,
    ScanStep,
    SubqueryEvalStep,
    plan_select_box,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..trace import Tracer


def _annotation(stats) -> str:
    """One ``(actual: ...)`` suffix from a flattened operator aggregate."""
    if stats is None:
        return "  (never executed)"
    parts = [f"calls={stats.calls}"]
    if stats.rows_in:
        parts.append(f"rows_in={stats.rows_in}")
    parts.append(f"rows_out={stats.rows_out}")
    if stats.cache_hits:
        parts.append(f"cache_hits={stats.cache_hits}")
    parts.append(f"time={stats.elapsed * 1000:.3f}ms")
    return "  (actual: " + " ".join(parts) + ")"


def _step_to_text(step, own: set[int]) -> str:
    if isinstance(step, ScanStep):
        suffix = "  [re-executed per row: correlated]" if step.correlated_to_self else ""
        return f"scan {step.quantifier.name} (box {step.quantifier.box.id}){suffix}"
    if isinstance(step, IndexLookupStep):
        keys = ", ".join(
            f"{col} = {expr_to_text(e, own)}"
            for col, e in zip(step.key_columns, step.key_exprs)
        )
        return (
            f"index lookup {step.quantifier.name} via {step.index_name} "
            f"on {keys}"
        )
    if isinstance(step, HashJoinStep):
        pairs = ", ".join(
            f"{expr_to_text(b, own)} {'<=>' if ns else '='} {expr_to_text(p, own)}"
            for b, p, ns in zip(
                step.build_exprs, step.probe_exprs, step.null_safe
            )
        )
        return f"hash join {step.quantifier.name} on {pairs}"
    if isinstance(step, PredicateStep):
        return f"filter {expr_to_text(step.predicate, own)}"
    if isinstance(step, SubqueryEvalStep):
        return f"evaluate scalar subquery (box {step.node.box.id}) per row"
    return repr(step)


def plan_to_text(
    catalog: Catalog,
    graph: QueryGraph | Box,
    tracer: Optional["Tracer"] = None,
    plans: Optional[Mapping[int, Any]] = None,
) -> str:
    """Render the physical plan of every box in the graph: the step list
    in ``plans`` (``{box.id: plan}``, a compiled query's), planned here
    only for an SPJ box that has none (a bare graph).

    With ``tracer`` (the span collector of an actual execution) every box
    header and step line is annotated ``EXPLAIN ANALYZE``-style with the
    observed calls, rows and elapsed time; plan nodes the execution never
    reached are marked ``(never executed)``."""
    root = graph.root if isinstance(graph, QueryGraph) else graph
    stats = tracer.operator_stats() if tracer is not None else None

    def box_note(box: Box) -> str:
        if stats is None:
            return ""
        return _annotation(stats.get(("box", box.id)))

    def step_note(box: Box, index: int) -> str:
        if stats is None:
            return ""
        return _annotation(stats.get(("step", box.id, index)))

    sections: list[str] = []
    for box in iter_boxes(root):
        if isinstance(box, SelectBox):
            plan = plans.get(box.id) if plans else None
            if plan is None:
                plan = plan_select_box(catalog, box)
            own = {id(q) for q in box.quantifiers}
            lines = [
                f"[{box.id}] SELECT{' DISTINCT' if box.distinct else ''} "
                f"(est. {plan.estimated_rows:.1f} rows)" + box_note(box)
            ]
            for index, step in enumerate(plan.steps):
                lines.append(
                    f"    {_step_to_text(step, own)}" + step_note(box, index)
                )
            sections.append("\n".join(lines))
        elif isinstance(box, GroupByBox):
            n_keys = len(box.group_by)
            sections.append(
                f"[{box.id}] HASH AGGREGATE ({n_keys} grouping "
                f"column{'s' if n_keys != 1 else ''})" + box_note(box)
            )
        elif isinstance(box, SetOpBox):
            sections.append(
                f"[{box.id}] {box.op.upper()}{' ALL' if box.all else ''} "
                f"of {len(box.quantifiers)} inputs" + box_note(box)
            )
        elif isinstance(box, OuterJoinBox):
            sections.append(
                f"[{box.id}] LEFT OUTER HASH/NL JOIN" + box_note(box)
            )
        elif isinstance(box, BaseTableBox):
            sections.append(
                f"[{box.id}] TABLE {box.table_name}" + box_note(box)
            )
    return "\n".join(sections)
