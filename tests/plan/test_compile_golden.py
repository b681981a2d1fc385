"""Golden compile artifacts: what :func:`~repro.plan.compile.compile_query`
hands the executor for the paper's queries, pinned box by box.

For Q1, the Q1 variant, Q2, Q3 and EMP/DEPT under every strategy the
compiled query is dumped and compared with ``golden/compile.json``:

* the physical plan of the whole graph, rendered from the artifact's own
  plans (``plan_to_text(..., plans=...)``);
* per box, in graph order: its kind, the plan's type, its outer
  references (``params``, the first slots of the box's row) and the
  row-slot offsets of everything the box binds and runs, from
  :func:`~repro.exec.evaluate.row_layout`;
* per SPJ box, the step labels, the fused lookups, ``repr`` of the
  estimated cardinality, the scalar placements and the join order;
* per GROUP BY box, the key width, argument count and each output's
  aggregate, argument slot and key slot;
* the ids of the shared boxes.

Box ids and quantifier names carry process-global counters, so every run
of digits in them is normalized to ``#`` (the estimates are not). The
compiles run with validation off. Regenerate after an intentional change
with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/plan/test_compile_golden.py
"""

import json
import os
import re
from pathlib import Path

import pytest

from repro.errors import NotApplicableError
from repro.exec.evaluate import row_layout
from repro.exec.executor import GroupByPlan, OuterJoinPlan, SetOpPlan
from repro.plan.compile import compile_query
from repro.plan.planner import PredicateStep, SelectPlan, SubqueryEvalStep
from repro.plan.pretty import plan_to_text
from repro.qgm.analysis import GraphFacts
from repro.qgm.model import Box, Quantifier
from repro.rewrite import RewriteEngine
from repro.tpcd import (
    EMP_DEPT_QUERY,
    QUERY_1,
    QUERY_1_VARIANT,
    QUERY_2,
    QUERY_3,
    load_empdept,
    load_tpcd,
)

GOLDEN = Path(__file__).parent / "golden" / "compile.json"

STRATEGIES = ["ni", "kim", "dayal", "magic", "magic_opt"]
QUERIES = {
    "q1": QUERY_1,
    "q1v": QUERY_1_VARIANT,
    "q2": QUERY_2,
    "q3": QUERY_3,
    "empdept": EMP_DEPT_QUERY,
}


def _digits(text: str) -> str:
    return re.sub(r"\d+", "#", text)


def _cells() -> list[tuple[str, str, str]]:
    """(cell name, query name, strategy) for every pinned cell."""
    return [
        (f"{query}/{strategy}", query, strategy)
        for query in QUERIES
        for strategy in STRATEGIES
    ]


def _slot_key(key) -> str:
    """One key of a row layout: a column of an outer or bound quantifier,
    a bound quantifier, a pre-evaluated scalar subquery node, or a box
    the layout's box runs."""
    if isinstance(key, tuple):
        quantifier, column = key
        return _digits(f"{quantifier.name}.{column}")
    if isinstance(key, Quantifier):
        return _digits(f"quantifier {key.name}")
    if isinstance(key, Box):
        return _digits(f"box {key.id}")
    return _digits(f"scalar box {key.box.id}")


def _members(box: Box, plan) -> tuple:
    """What ``plan`` binds into its box's row, in slot order."""
    if isinstance(plan, SelectPlan):
        return tuple(
            step.node if isinstance(step, SubqueryEvalStep) else step.quantifier
            for step in plan.steps if not isinstance(step, PredicateStep)
        )
    if isinstance(plan, SetOpPlan):
        return ()
    return tuple(box.child_quantifiers())


def _dump_box(box: Box, plan, facts: GraphFacts) -> dict:
    layout_params, offsets = row_layout(box, _members(box, plan), facts)
    params = plan.compiled.params if isinstance(plan, SelectPlan) else plan.params
    assert [repr(r) for r in params] == [repr(r) for r in layout_params]
    entry: dict = {
        "kind": box.kind,
        "plan": type(plan).__name__,
        "params": [_digits(repr(ref)) for ref in params],
        "offsets": [[_slot_key(k), v] for k, v in offsets.items()],
    }
    if isinstance(plan, SelectPlan):
        position = {id(q): i for i, q in enumerate(box.quantifiers)}
        entry.update(
            steps=list(plan.compiled.labels),
            fused=sorted(plan.compiled.fused),
            estimated_rows=repr(plan.estimated_rows),
            scalar_placement=sorted(plan.scalar_placement.values()),
            join_order=[
                _digits(f"{q.name}@{position[id(q)]}") for q in plan.join_order
            ],
        )
        entry["steps"] = [_digits(label) for label in entry["steps"]]
    elif isinstance(plan, GroupByPlan):
        entry.update(
            key_width=plan.key_width,
            n_arguments=plan.n_arguments,
            firsts=plan.firsts,
            outputs=[
                [o.func, o.distinct, o.argument, o.key, o.values is not None]
                for o in plan.outputs
            ],
        )
    elif isinstance(plan, OuterJoinPlan):
        entry.update(hash_keys=plan.keys is not None, condition=len(plan.condition))
    return entry


def _dump(catalog, sql: str, strategy: str) -> dict:
    compiled = compile_query(
        sql, catalog, RewriteEngine(catalog, validate=False), strategy
    )
    facts = GraphFacts(compiled.graph.root)
    boxes = [
        _dump_box(box, compiled.plans[box.id], facts)
        for box in facts.boxes if box.id in compiled.plans
    ]
    ids = {box.id: i for i, box in enumerate(facts.boxes)}
    return json.loads(json.dumps({
        "plan": _digits(plan_to_text(catalog, compiled.graph, plans=compiled.plans)),
        "boxes": boxes,
        "shared": sorted(ids[box_id] for box_id in compiled.shared),
    }))


@pytest.fixture(scope="module")
def dumps() -> dict:
    catalogs = {"tpcd": load_tpcd(scale_factor=0.001), "empdept": load_empdept()}
    result = {}
    for name, query, strategy in _cells():
        catalog = catalogs["empdept" if query == "empdept" else "tpcd"]
        try:
            result[name] = _dump(catalog, QUERIES[query], strategy)
        except NotApplicableError:
            continue
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN.exists(), f"golden file missing; run with REGEN_GOLDEN=1: {GOLDEN}"
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("cell", [c[0] for c in _cells()])
def test_compiled_query_matches_golden(dumps, golden, cell):
    assert dumps.get(cell) == golden.get(cell)


def test_every_applicable_cell_is_pinned(dumps, golden):
    assert sorted(dumps) == sorted(golden)
    # Kim and Dayal refuse Query 3 (paper section 5.3); everything else compiles.
    assert len(golden) == len(_cells()) - 2
