"""Golden plans: what the planner decides for every SPJ box of the paper's
queries, pinned digit for digit.

For each query x strategy x catalog the rewritten graph is planned box by
box and compared with ``golden/planner.json``:

* the physical plan of the whole graph (``plan_to_text``);
* per SPJ box, ``repr`` of the estimated cardinality (every digit), the
  barriers the scalar subqueries are placed at, and the join order (each
  quantifier's name and its position in the FROM list).

Box ids and quantifier names carry process-global counters, so every run
of digits in the plan text and the quantifier names is normalized to ``#``
(the estimates are not normalized). One more cell pins the greedy search:
a ten-quantifier chain, beyond the exact search's limit. Regenerate after
an intentional plan change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/plan/test_planner_golden.py
"""

import json
import os
import re
from pathlib import Path

import pytest

from repro.api.strategies import Strategy
from repro.errors import NotApplicableError
from repro.plan.planner import plan_select_box
from repro.plan.pretty import plan_to_text
from repro.qgm import build_qgm
from repro.qgm.analysis import iter_boxes
from repro.qgm.model import SelectBox
from repro.rewrite import RewriteEngine
from repro.sql.parser import parse_statement
from repro.storage import Catalog, Column, Schema
from repro.tpcd import (
    EMP_DEPT_QUERY,
    QUERY_1,
    QUERY_1_VARIANT,
    QUERY_2,
    QUERY_3,
    load_empdept,
    load_tpcd,
)
from repro.types import SQLType

GOLDEN = Path(__file__).parent / "golden" / "planner.json"

STRATEGIES = ["ni", "kim", "dayal", "magic", "magic_opt"]
TPCD_QUERIES = {
    "q1": QUERY_1,
    "q1v": QUERY_1_VARIANT,
    "q2": QUERY_2,
    "q3": QUERY_3,
}

#: Ten copies of one table joined in a chain: more quantifiers than the
#: exact search plans, and every join ties with its mirror image.
CHAIN_QUERY = (
    "SELECT 1 FROM "
    + ", ".join(f"small s{i}" for i in range(10))
    + " WHERE "
    + " AND ".join(f"s{i}.v = s{i + 1}.v" for i in range(9))
)


def _digits(text: str) -> str:
    return re.sub(r"\d+", "#", text)


def _chain_catalog() -> Catalog:
    catalog = Catalog()
    small = catalog.create_table(
        "small",
        Schema(
            [Column("id", SQLType.INT, nullable=False),
             Column("k", SQLType.INT), Column("v", SQLType.INT)],
            primary_key=["id"],
        ),
    )
    small.insert_many([(i, i % 4, i % 5) for i in range(20)])
    return catalog


def _catalogs() -> dict:
    catalogs = {f"sf{sf}": load_tpcd(scale_factor=sf) for sf in (0.001, 0.01)}
    catalogs["empdept"] = load_empdept()
    catalogs["chain"] = _chain_catalog()
    return catalogs


def _cells() -> list[tuple[str, str, str, str]]:
    """(cell name, catalog key, sql, strategy) for every pinned cell."""
    cells = [
        (f"{name}/{strategy}/{sf}", sf, sql, strategy)
        for sf in ("sf0.001", "sf0.01")
        for name, sql in TPCD_QUERIES.items()
        for strategy in STRATEGIES
    ]
    cells += [
        (f"empdept/{strategy}", "empdept", EMP_DEPT_QUERY, strategy)
        for strategy in STRATEGIES
    ]
    cells.append(("chain10/ni", "chain", CHAIN_QUERY, "ni"))
    return cells


def _dump(catalog: Catalog, sql: str, strategy: str) -> dict:
    graph = build_qgm(parse_statement(sql), catalog)
    graph = RewriteEngine(catalog, validate=False).rewrite(
        graph, Strategy(strategy)
    )
    boxes = []
    for box in iter_boxes(graph.root):
        if isinstance(box, SelectBox):
            plan = plan_select_box(catalog, box)
            position = {id(q): i for i, q in enumerate(box.quantifiers)}
            boxes.append({
                "estimated_rows": repr(plan.estimated_rows),
                "scalar_placement": sorted(plan.scalar_placement.values()),
                "join_order": [
                    f"{_digits(q.name)}@{position[id(q)]}" for q in plan.join_order
                ],
            })
    return {"plan": _digits(plan_to_text(catalog, graph)), "boxes": boxes}


@pytest.fixture(scope="module")
def dumps() -> dict:
    catalogs = _catalogs()
    result = {}
    for name, key, sql, strategy in _cells():
        try:
            result[name] = _dump(catalogs[key], sql, strategy)
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
def test_plans_match_golden(dumps, golden, cell):
    assert dumps.get(cell) == golden.get(cell)


def test_every_applicable_cell_is_pinned(dumps, golden):
    assert sorted(dumps) == sorted(golden)
    # Kim and Dayal refuse Query 3 (paper section 5.3); everything else plans.
    assert len(golden) == len(_cells()) - 4
