"""The ladder's catalogs: TPC-D at a workload's scale, plus its own EMP/DEPT.

The data is the same on every run. ``--seed`` drives the order of the
cells and the request stream, never the rows: regenerating TPC-D from the
run seed moves the work itself (Q1-variant under nested iteration makes
332 to 490 subquery invocations over three seeds at scale 0.01), and a
metric whose work changes with the seed cannot be held to a bound.
"""

from __future__ import annotations

import random
import time

from repro.storage import Catalog, Column, Schema
from repro.tpcd import load_tpcd
from repro.types import SQLType

#: The generator seed of every ladder catalog (the repository's default).
DATA_SEED = 19960226

N_DEPTS = 26
N_EMPS = 160
#: Seven staffed buildings and one that holds departments but no employee:
#: the section-2 situation in which Kim's method loses rows (the COUNT bug).
STAFFED_BUILDINGS = tuple(f"B{i}" for i in range(7))
EMPTY_BUILDING = "B7"


def build_empdept(catalog: Catalog) -> None:
    """Create and fill DEPT (26 rows) and EMP (160 rows) in ``catalog``."""
    rng = random.Random(DATA_SEED)
    dept = catalog.create_table(
        "dept",
        Schema(
            [
                Column("name", SQLType.STR, nullable=False),
                Column("budget", SQLType.FLOAT),
                Column("num_emps", SQLType.INT),
                Column("building", SQLType.STR),
            ],
            primary_key=["name"],
        ),
    )
    emp = catalog.create_table(
        "emp",
        Schema(
            [
                Column("empno", SQLType.INT, nullable=False),
                Column("name", SQLType.STR),
                Column("building", SQLType.STR),
                Column("salary", SQLType.FLOAT),
            ],
            primary_key=["empno"],
        ),
    )
    for i in range(N_DEPTS):
        # Every fourth department sits in the employee-free building.
        building = EMPTY_BUILDING if i % 4 == 3 else rng.choice(STAFFED_BUILDINGS)
        dept.insert(
            (
                f"dept{i:02d}",
                round(rng.uniform(100.0, 20000.0), 2),
                rng.randrange(0, 60),
                building,
            )
        )
    for i in range(N_EMPS):
        emp.insert(
            (
                i + 1,
                f"emp{i:04d}",
                rng.choice(STAFFED_BUILDINGS),
                round(rng.uniform(40.0, 200.0), 2),
            )
        )
    emp.create_index("emp_building_idx", ["building"])
    catalog.invalidate_stats("dept")
    catalog.invalidate_stats("emp")


def build_catalog(tpcd_scale: float, empdept: bool) -> tuple[Catalog, dict[str, float]]:
    """The catalog of one workload, with its statistics computed.

    Returns the catalog and how long loading (``load_s``) and the first
    statistics pass (``stats_s``) took, in seconds.
    """
    started = time.perf_counter()
    catalog = load_tpcd(scale_factor=tpcd_scale, seed=DATA_SEED)
    if empdept:
        build_empdept(catalog)
    loaded = time.perf_counter()
    for table in catalog.tables():
        catalog.stats(table.name)
    return catalog, {
        "load_s": loaded - started,
        "stats_s": time.perf_counter() - loaded,
    }
