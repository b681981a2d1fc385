"""EMP/DEPT generator for the section-2 example and the parallel experiments.

"Each employee is assigned to a building in which he/she works. Each
department is situated in a building, but may have employees in other
buildings as well."
"""

from __future__ import annotations

import random

from ..storage import Catalog, Column, Schema
from ..types import SQLType


def create_empdept_schema(catalog: Catalog, with_indexes: bool = True) -> None:
    catalog.create_table(
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
    catalog.create_table(
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
    if with_indexes:
        catalog.table("emp").create_index("emp_building_idx", ["building"])


def load_empdept(
    n_depts: int = 100,
    n_emps: int = 2000,
    n_buildings: int = 20,
    seed: int = 2,
    with_indexes: bool = True,
    empty_building_fraction: float = 0.1,
    catalog: Catalog | None = None,
) -> Catalog:
    """A populated EMP/DEPT catalog.

    ``empty_building_fraction`` of the buildings hold departments but no
    employees -- the situation that triggers the COUNT bug. ``catalog``
    loads the tables into an existing catalog (e.g. alongside TPC-D for a
    mixed workload) instead of creating a fresh one.
    """
    rng = random.Random(seed)
    if catalog is None:
        catalog = Catalog()
    create_empdept_schema(catalog, with_indexes=with_indexes)
    dept = catalog.table("dept")
    emp = catalog.table("emp")
    buildings = [f"B{i}" for i in range(n_buildings)]
    n_empty = max(1, int(n_buildings * empty_building_fraction))
    staffed = buildings[:-n_empty] if n_empty < n_buildings else buildings[:1]
    dept.insert_many([
        (
            f"dept{i:04d}",
            round(rng.uniform(100.0, 20000.0), 2),
            rng.randrange(0, 60),
            buildings[rng.randrange(len(buildings))],
        )
        for i in range(n_depts)
    ])
    emp.insert_many([
        (
            i + 1,
            f"emp{i:05d}",
            staffed[rng.randrange(len(staffed))],
            round(rng.uniform(40.0, 200.0), 2),
        )
        for i in range(n_emps)
    ])
    return catalog
