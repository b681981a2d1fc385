"""Edge-case coverage for storage: empty tables, stats corner cases."""

import pytest

from repro.storage import Catalog, Column, Schema, compute_table_stats
from repro.types import SQLType


def make_table(catalog=None, name="t"):
    cat = catalog or Catalog()
    return cat.create_table(
        name,
        Schema([Column("a", SQLType.INT), Column("b", SQLType.STR)]),
    )


class TestEmptyTables:
    def test_stats_of_empty_table(self):
        table = make_table()
        stats = compute_table_stats(table)
        assert stats.row_count == 0
        a = stats.column("a")
        assert a.n_distinct == 0 and a.n_null == 0
        assert a.min_value is None and a.max_value is None

    def test_scan_empty(self):
        table = make_table()
        assert list(table.scan()) == []

    def test_index_on_empty_table(self):
        table = make_table()
        idx = table.create_index("i", ["a"])
        assert idx.lookup(1) == []


class TestAllNullColumn:
    def test_stats(self):
        table = make_table()
        table.insert((None, None))
        table.insert((None, None))
        stats = compute_table_stats(table).column("a")
        assert stats.n_null == 2
        assert stats.n_distinct == 0


class TestMixedValues:
    def test_min_max_with_negatives(self):
        table = make_table()
        table.insert((-5, "a"))
        table.insert((3, "b"))
        stats = compute_table_stats(table).column("a")
        assert (stats.min_value, stats.max_value) == (-5, 3)

    def test_float_column_coercion_in_stats(self):
        cat = Catalog()
        t = cat.create_table(
            "f", Schema([Column("x", SQLType.FLOAT)])
        )
        t.insert((1,))
        t.insert((2.5,))
        stats = compute_table_stats(t).column("x")
        assert stats.min_value == 1.0
        assert stats.n_distinct == 2


class TestCatalogEdges:
    def test_drop_then_recreate(self):
        cat = Catalog()
        make_table(cat)
        cat.stats("t")
        cat.drop_table("t")
        table = make_table(cat)
        table.insert((1, "x"))
        assert cat.stats("t").row_count == 1

    def test_is_key_on_keyless_table(self):
        cat = Catalog()
        make_table(cat)
        assert not cat.is_key("t", ["a", "b"])

    def test_view_name_blocks_table(self):
        from repro.errors import CatalogError

        cat = Catalog()
        cat.create_view("v", "SELECT 1")
        with pytest.raises(CatalogError):
            make_table(cat, name="v")
