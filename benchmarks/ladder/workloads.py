"""The ladder's inputs: query templates, workloads, cells and the request stream.

The five paper templates are copied verbatim from ``repro.tpcd.queries``
with their literals turned into ``{name}`` slots (``run.py --selfcheck``
holds the copies to the originals), so the benchmark keeps its inputs when
that module moves. ``emp_point`` is the ladder's own sixth family: the
cheapest cacheable statement, which makes the serving overhead visible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro import Database, Strategy
from repro.errors import NotApplicableError
from repro.sql import parse_statement

NI = Strategy.NESTED_ITERATION
DECORRELATED = (Strategy.KIM, Strategy.DAYAL, Strategy.MAGIC, Strategy.MAGIC_OPT)
ALL_FIVE = (NI,) + DECORRELATED

TEMPLATES: dict[str, str] = {
    "q1": """
    Select s.s_name, s.s_acctbal, s.s_address, s.s_phone, s.s_comment
    From Parts p, Suppliers s, Partsupp ps
    Where s.s_nation = '{nation}' and p.p_size = {size} and p.p_type = '{ptype}'
      and p.p_partkey = ps.ps_partkey and s.s_suppkey = ps.ps_suppkey
      and ps.ps_supplycost =
        (Select min(ps1.ps_supplycost)
         From Partsupp ps1, Suppliers s1
         Where p.p_partkey = ps1.ps_partkey
           and s1.s_suppkey = ps1.ps_suppkey
           and s1.s_nation = '{nation}')
""",
    "q1v": """
    Select s.s_name, s.s_acctbal, s.s_address, s.s_phone, s.s_comment
    From Parts p, Suppliers s, Partsupp ps
    Where s.s_region in ('{region_a}', '{region_b}') and p.p_type = '{ptype}'
      and p.p_partkey = ps.ps_partkey and s.s_suppkey = ps.ps_suppkey
      and ps.ps_supplycost =
        (Select min(ps1.ps_supplycost)
         From Partsupp ps1, Suppliers s1
         Where p.p_partkey = ps1.ps_partkey
           and s1.s_suppkey = ps1.ps_suppkey
           and s1.s_region in ('{region_a}', '{region_b}'))
""",
    "q2": """
    Select sum(l.l_extendedprice * l.l_quantity) / 5
    From Lineitem l, Parts p
    Where p.p_partkey = l.l_partkey and p.p_brand = '{brand}'
      and p.p_container = '{container}' and l.l_quantity <
        (Select 0.2 * avg(l1.l_quantity)
         From Lineitem l1 Where l1.l_partkey = p.p_partkey)
""",
    "q3": """
    Select s.s_name, s.s_nation, dt.sumbal
    From Suppliers s, DT(sumbal) AS
      (Select sum(bal) From DDT(bal) AS
        ((Select a.c_acctbal From Customers a
          Where a.c_mktsegment = '{segment_a}' and a.c_nation = s.s_nation)
         Union All
         (Select b.c_acctbal From Customers b
          Where b.c_mktsegment = '{segment_b}' and b.c_nation = s.s_nation)))
    Where s.s_region = '{region}'
""",
    "empdept": """
    Select D.name From Dept D
    Where D.budget < {budget} and D.num_emps >
      (Select Count(*) From Emp E Where D.building = E.building)
""",
    "emp_point": """
    Select E.name, E.building, E.salary From Emp E Where E.salary >= {salary}
""",
}

#: The paper's literals: every engine workload runs the templates at these.
DEFAULTS: dict[str, dict[str, object]] = {
    "q1": {"nation": "FRANCE", "size": 15, "ptype": "BRASS"},
    "q1v": {"region_a": "AMERICA", "region_b": "EUROPE", "ptype": "BRASS"},
    "q2": {"brand": "Brand#23", "container": "6 PACK"},
    "q3": {"segment_a": "BUILDING", "segment_b": "AUTOMOBILE", "region": "EUROPE"},
    "empdept": {"budget": 10000},
    "emp_point": {"salary": 120.0},
}

#: The one slot per family that the ``service_cached`` stream varies, and
#: the values it draws from (the full domain of the generated column).
STREAM_SLOTS: dict[str, tuple[str, tuple]] = {
    "emp_point": ("salary", tuple(40.0 + 2.5 * i for i in range(64))),
    "empdept": ("budget", tuple(range(1000, 20001, 1000))),
    "q2": ("brand", tuple(f"Brand#{m}{n}" for m in range(1, 6) for n in range(1, 6))),
    "q3": ("region", ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")),
    "q1": ("size", tuple(range(1, 51))),
}


def render(family: str, literals: dict[str, object] | None = None) -> str:
    """The family's SQL text with ``literals`` over the paper's defaults."""
    return TEMPLATES[family].format(**{**DEFAULTS[family], **(literals or {})})


@dataclass(frozen=True)
class Cell:
    """One query class: a template family under one strategy."""

    family: str
    strategy: Strategy

    @property
    def name(self) -> str:
        return f"{self.family}/{self.strategy.value}"


@dataclass(frozen=True)
class Workload:
    """One rung of the ladder. ``candidates`` are (family, strategies)
    pairs before applicability is known; ``mix`` (``service_cached``
    only) gives each family's share of the request stream."""

    name: str
    why: str
    tpcd_scale: float
    empdept: bool
    candidates: tuple[tuple[str, tuple[Strategy, ...]], ...]
    excluded: frozenset[tuple[str, Strategy]] = frozenset()
    warmup_passes: int = 0
    mix: tuple[tuple[str, float], ...] = ()


PAPER_FAMILIES = ("q1", "q1v", "q2", "q3")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="set_oriented",
            why="decorrelated bars of Figures 5, 6, 8, 9: scan, hash-join and group-by "
            "work in exec; a front-end change must show nothing; latency_ms_p95 is the "
            "slowest query of a pass, so it aliases slowest_cell_ms",
            tpcd_scale=0.01,
            empdept=False,
            candidates=tuple((f, DECORRELATED) for f in PAPER_FAMILIES),
            warmup_passes=2,
        ),
        Workload(
            name="nested_iteration",
            why="NI bars of the same figures: the same exec layer tuple-at-a-time, so "
            "per-invocation set-up cost shows here as a loss; latency_ms_p95 is the "
            "slowest query of a pass, so it aliases slowest_cell_ms",
            tpcd_scale=0.005,
            empdept=False,
            candidates=tuple((f, (NI,)) for f in PAPER_FAMILIES),
            warmup_passes=2,
        ),
        Workload(
            name="frontend",
            why="compile-bound traffic on a tiny catalog: the only workload where "
            "lexer, parser, QGM, rewrite or planner time moves an end-to-end number",
            tpcd_scale=0.001,
            empdept=True,
            candidates=tuple((f, ALL_FIVE) for f in PAPER_FAMILIES + ("empdept",)),
            # Exec-bound at any scale, so they would hide the front end.
            excluded=frozenset(
                {("q1v", NI), ("q2", Strategy.KIM), ("q2", Strategy.DAYAL)}
            ),
            warmup_passes=5,
        ),
        Workload(
            name="service_cached",
            why="serving steady state: QueryService with a warm plan cache and "
            "closed-loop clients; frontend is its bypass (no cache, no service)",
            tpcd_scale=0.005,
            empdept=True,
            candidates=(
                ("emp_point", (NI,)),
                ("empdept", ALL_FIVE),
                ("q2", (NI, Strategy.MAGIC, Strategy.MAGIC_OPT)),
                ("q3", (NI, Strategy.MAGIC, Strategy.MAGIC_OPT)),
                ("q1", (NI, Strategy.MAGIC)),
            ),
            mix=(
                ("emp_point", 0.50),
                ("empdept", 0.20),
                ("q2", 0.15),
                ("q3", 0.10),
                ("q1", 0.05),
            ),
        ),
    )
}

ENGINE_WORKLOADS = ("set_oriented", "nested_iteration", "frontend")


def discover_cells(db: Database, workload: Workload) -> tuple[list[Cell], list[Cell]]:
    """Split the workload's candidates into the cells a strategy can
    rewrite and the ones it refuses with :class:`NotApplicableError`
    (Kim and Dayal on Q3). Any other error propagates: a candidate that
    fails for another reason is a broken benchmark, not a skipped cell."""
    cells: list[Cell] = []
    not_applicable: list[Cell] = []
    for family, strategies in workload.candidates:
        statement = parse_statement(render(family))
        for strategy in strategies:
            if (family, strategy) in workload.excluded:
                continue
            cell = Cell(family, strategy)
            try:
                db.rewrite(statement, strategy)
            except NotApplicableError:
                not_applicable.append(cell)
            else:
                cells.append(cell)
    return cells, not_applicable


@dataclass(frozen=True)
class Request:
    """One request of the ``service_cached`` stream."""

    cell: Cell
    literals: tuple[tuple[str, object], ...]
    sql: str


def request_stream(seed: int, cells: list[Cell], workload: Workload) -> Iterator[Request]:
    """The endless seeded request stream: a family by the workload's mix,
    a strategy among that family's cells, a value for the family's slot."""
    rng = random.Random(seed)
    families = [family for family, _ in workload.mix]
    weights = [share for _, share in workload.mix]
    by_family = {f: [c for c in cells if c.family == f] for f in families}
    while True:
        family = rng.choices(families, weights)[0]
        cell = rng.choice(by_family[family])
        slot, values = STREAM_SLOTS[family]
        literals = {slot: rng.choice(values)}
        yield Request(cell, tuple(literals.items()), render(family, literals))
