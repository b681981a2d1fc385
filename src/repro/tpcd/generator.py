"""Deterministic TPC-D data generator.

Seeded per table, so any table can be regenerated independently and a given
``(seed, scale_factor)`` pair always produces identical data. Value
distributions are uniform (as in TPC-D) with selectivities calibrated so the
paper's reported subquery invocation counts reproduce at scale factor 0.1:

* Query 1: ~6 invocations, no duplicate bindings (p_size + p_type +
  s_nation cut the join to a handful of rows);
* Query 1 variant: ~3 954 invocations of which ~2 138 distinct;
* Query 2: ~209 invocations, bindings keyed by p_partkey;
* Query 3: ~209 invocations with only 5 distinct binding values (the five
  European nations).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..storage import Catalog
from .schema import (
    MARKET_SEGMENTS,
    NATIONS,
    PART_BRANDS,
    PART_CONTAINERS,
    PART_SIZES,
    PART_TYPES,
    SUPPLIERS_PER_PART,
    create_tpcd_schema,
    paper_row_counts,
)


@dataclass
class TPCDGenerator:
    """Generate TPC-D tables into a catalog."""

    scale_factor: float = 0.01
    seed: int = 19960226  # ICDE 1996

    def _rng(self, table: str) -> random.Random:
        return random.Random((self.seed, table, self.scale_factor).__repr__())

    def counts(self) -> dict[str, int]:
        return paper_row_counts(self.scale_factor)

    # -- per-table generators ----------------------------------------------

    def generate_suppliers(self, catalog: Catalog) -> int:
        rng = self._rng("suppliers")
        table = catalog.table("suppliers")
        n = self.counts()["suppliers"]

        def rows():
            for key in range(1, n + 1):
                nation, region = NATIONS[rng.randrange(len(NATIONS))]
                yield (
                    key,
                    f"Supplier#{key:09d}",
                    f"{rng.randrange(1, 999)} Main St",
                    nation,
                    region,
                    f"{rng.randrange(10, 35)}-{rng.randrange(100, 999)}-{rng.randrange(1000, 9999)}",
                    round(rng.uniform(-999.99, 9999.99), 2),
                    "generated supplier",
                )

        return table.insert_many(rows())

    def generate_parts(self, catalog: Catalog) -> int:
        rng = self._rng("parts")
        table = catalog.table("parts")
        n = self.counts()["parts"]
        return table.insert_many(
            (
                key,
                f"Part#{key:09d}",
                PART_BRANDS[rng.randrange(len(PART_BRANDS))],
                PART_TYPES[rng.randrange(len(PART_TYPES))],
                PART_SIZES[rng.randrange(len(PART_SIZES))],
                PART_CONTAINERS[rng.randrange(len(PART_CONTAINERS))],
                round(900 + (key % 1000) * 0.5, 2),
            )
            for key in range(1, n + 1)
        )

    def generate_partsupp(self, catalog: Catalog) -> int:
        rng = self._rng("partsupp")
        table = catalog.table("partsupp")
        counts = self.counts()
        n_suppliers = counts["suppliers"]

        def rows():
            for part in range(1, counts["parts"] + 1):
                # TPC-D picks 4 distinct suppliers per part.
                suppliers = rng.sample(
                    range(1, n_suppliers + 1), min(SUPPLIERS_PER_PART, n_suppliers)
                )
                for supplier in suppliers:
                    yield (
                        part,
                        supplier,
                        rng.randrange(1, 10_000),
                        round(rng.uniform(1.0, 1000.0), 2),
                    )

        return table.insert_many(rows())

    def generate_customers(self, catalog: Catalog) -> int:
        rng = self._rng("customers")
        table = catalog.table("customers")
        n = self.counts()["customers"]

        def rows():
            for key in range(1, n + 1):
                nation, region = NATIONS[rng.randrange(len(NATIONS))]
                yield (
                    key,
                    f"Customer#{key:09d}",
                    nation,
                    region,
                    round(rng.uniform(-999.99, 9999.99), 2),
                    MARKET_SEGMENTS[rng.randrange(len(MARKET_SEGMENTS))],
                )

        return table.insert_many(rows())

    def generate_lineitem(self, catalog: Catalog) -> int:
        rng = self._rng("lineitem")
        table = catalog.table("lineitem")
        counts = self.counts()
        n = counts["lineitem"]
        n_parts = counts["parts"]
        n_suppliers = counts["suppliers"]

        def rows():
            order = 0
            line = 7  # forces a new order at the first row
            for _ in range(n):
                if line >= 7:
                    order += 1
                    line = 1
                yield (
                    order,
                    line,
                    rng.randrange(1, n_parts + 1),
                    rng.randrange(1, n_suppliers + 1),
                    float(rng.randrange(1, 51)),
                    round(rng.uniform(900.0, 105_000.0), 2),
                    round(rng.uniform(0.0, 0.1), 2),
                )
                line += rng.randrange(1, 3)

        return table.insert_many(rows())

    def generate_all(self, catalog: Catalog) -> dict[str, int]:
        """Generate every table; returns actual row counts per table."""
        produced = {
            "suppliers": self.generate_suppliers(catalog),
            "parts": self.generate_parts(catalog),
            "partsupp": self.generate_partsupp(catalog),
            "customers": self.generate_customers(catalog),
            "lineitem": self.generate_lineitem(catalog),
        }
        for name in produced:
            catalog.invalidate_stats(name)
        return produced


def load_tpcd(
    scale_factor: float = 0.01,
    seed: int = 19960226,
    with_indexes: bool = True,
) -> Catalog:
    """Create and populate a TPC-D catalog (schema + data + indexes)."""
    catalog = Catalog()
    create_tpcd_schema(catalog, with_indexes=with_indexes)
    TPCDGenerator(scale_factor=scale_factor, seed=seed).generate_all(catalog)
    return catalog
