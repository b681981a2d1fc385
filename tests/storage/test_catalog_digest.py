"""Golden digest of the loaded TPC-D + EMP/DEPT catalog.

Loading and ANALYZE may get faster, but what they store may not move: every
row (``repr``, so ``1`` and ``1.0`` differ), every index's keys in insertion
order with the row ids ``lookup`` finds for each, its size and NULL flag, and
every table's statistics -- what an index holds, not how its buckets hold
it. The digests were recorded on the id-only bucket shape and must hold
unmodified under any hash seed.
"""

import hashlib

import pytest

from repro.storage import Catalog, compute_table_stats
from repro.tpcd import load_empdept, load_tpcd

GOLDEN = {
    0.001: "5731f4c5fda81fa5b0225fcb76559ad1d01783fe5db004eed1bbe33e3a447c35",
    0.01: "01ffa6e0c5e54739d0cca662fb6bb8f988276d5a3dc86f0cea4cd5f10ccb3f8b",
}


def catalog_digest(catalog: Catalog) -> str:
    digest = hashlib.sha256()
    for table in sorted(catalog.tables(), key=lambda t: t.name):
        digest.update(f"table {table.name} {len(table.rows)}\n".encode())
        for row in table.rows:
            digest.update(repr(row).encode())
            digest.update(b"\n")
        for name in sorted(table.indexes):
            index = table.indexes[name]
            digest.update(repr((
                name, index.column_positions, index.unique, index._nulls,
                len(index),
            )).encode())
            for key in index._map:
                digest.update(repr((key, index.lookup(key))).encode())
        digest.update(repr(compute_table_stats(table)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("scale", sorted(GOLDEN))
def test_loaded_catalog_matches_its_golden_digest(scale):
    catalog = load_tpcd(scale_factor=scale)
    load_empdept(catalog=catalog)
    assert catalog_digest(catalog) == GOLDEN[scale]
