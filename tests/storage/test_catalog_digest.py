"""Golden digest of the loaded TPC-D + EMP/DEPT catalog.

Loading and ANALYZE may get faster, but what they store may not move: every
row (``repr``, so ``1`` and ``1.0`` differ), every index's key -> row-id map
in insertion order with its bucket shapes (bare id or list), each index's
NULL flag, and every table's statistics. The digests were recorded before
the batch load paths existed; they must hold unmodified under any hash seed.
"""

import hashlib

import pytest

from repro.storage import Catalog, compute_table_stats
from repro.tpcd import load_empdept, load_tpcd

GOLDEN = {
    0.001: "95b7336b70a6eb9235c3d066ec27855d8908cad98126e06b7a61d0bb4cc1dc7d",
    0.01: "86251111dd9663c0a4573ad5e6347546e48a5abec4a1faee9945f8c9df93d25a",
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
                index._map,
            )).encode())
        digest.update(repr(compute_table_stats(table)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("scale", sorted(GOLDEN))
def test_loaded_catalog_matches_its_golden_digest(scale):
    catalog = load_tpcd(scale_factor=scale)
    load_empdept(catalog=catalog)
    assert catalog_digest(catalog) == GOLDEN[scale]
