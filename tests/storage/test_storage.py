"""Unit tests for schemas, tables, indexes, catalog and statistics."""

import pytest

from repro.errors import CatalogError, SchemaError
from repro.storage import (
    Catalog,
    Column,
    HashIndex,
    Schema,
    Table,
    compute_table_stats,
)
from repro.types import SQLType


def emp_schema() -> Schema:
    return Schema(
        [
            Column("empno", SQLType.INT, nullable=False),
            Column("name", SQLType.STR),
            Column("building", SQLType.STR),
            Column("salary", SQLType.FLOAT),
        ],
        primary_key=["empno"],
    )


class TestSchema:
    def test_case_insensitive_lookup(self):
        s = emp_schema()
        assert s.position("EMPNO") == 0
        assert s.position("Building") == 2
        assert s.has_column("NAME")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", SQLType.INT), Column("A", SQLType.STR)])

    def test_unknown_pk_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", SQLType.INT)], primary_key=["b"])

    def test_validate_row_arity(self):
        s = emp_schema()
        with pytest.raises(SchemaError):
            s.validate_row((1, "x", "b"))

    def test_validate_row_types(self):
        s = emp_schema()
        row = s.validate_row((1, "alice", "B1", 10))
        assert row == (1, "alice", "B1", 10.0)
        assert isinstance(row[3], float)

    def test_not_null_enforced(self):
        s = emp_schema()
        with pytest.raises(SchemaError):
            s.validate_row((None, "x", "B1", 1.0))

    def test_key_positions(self):
        assert emp_schema().key_positions() == (0,)


class TestTable:
    def make(self) -> Table:
        t = Table("emp", emp_schema())
        t.insert((1, "alice", "B1", 100.0))
        t.insert((2, "bob", "B1", 200.0))
        t.insert((3, "carol", "B2", None))
        return t

    def test_insert_and_scan(self):
        t = self.make()
        assert len(t) == 3
        assert list(t.scan())[1] == (2, "bob", "B1", 200.0)

    def test_primary_key_uniqueness(self):
        t = self.make()
        with pytest.raises(SchemaError):
            t.insert((1, "dup", "B9", 0.0))
        assert len(t) == 3  # failed insert left table unchanged

    def test_primary_key_not_null(self):
        t = self.make()
        with pytest.raises(SchemaError):
            t.insert((None, "x", "B1", 0.0))

    def test_hash_index_lookup(self):
        t = self.make()
        t.create_index("emp_building", ["building"])
        idx = t.indexes["emp_building"]
        assert sorted(idx.lookup("B1")) == [0, 1]
        assert idx.lookup("B9") == []
        assert idx.lookup(None) == []

    def test_index_maintained_on_insert(self):
        t = self.make()
        t.create_index("emp_building", ["building"])
        t.insert((4, "dave", "B1", 50.0))
        assert sorted(t.indexes["emp_building"].lookup("B1")) == [0, 1, 3]

    def test_drop_index(self):
        t = self.make()
        t.create_index("emp_building", ["building"])
        t.drop_index("emp_building")
        assert "emp_building" not in t.indexes
        with pytest.raises(CatalogError):
            t.drop_index("emp_building")

    def test_cannot_drop_pk_index(self):
        t = self.make()
        with pytest.raises(CatalogError):
            t.drop_index("emp_pkey")

    def test_find_index(self):
        t = self.make()
        t.create_index("emp_building", ["building"])
        assert t.find_index(["building"]) is not None
        assert t.find_index(["empno"]) is not None  # pk index
        assert t.find_index(["salary"]) is None

    def test_duplicate_index_name_rejected(self):
        t = self.make()
        t.create_index("i1", ["building"])
        with pytest.raises(CatalogError):
            t.create_index("i1", ["salary"])


class TestIndexUnits:
    def test_hash_index_composite(self):
        idx = HashIndex("i", (0, 1))
        idx.insert(0, ("a", 1, "x"))
        idx.insert(1, ("a", 2, "y"))
        idx.insert(2, ("a", 1, "z"))
        assert sorted(idx.lookup(("a", 1))) == [0, 2]
        assert idx.lookup(("a", None)) == []

    def test_hash_unique_violation(self):
        idx = HashIndex("i", (0,), unique=True)
        idx.insert(0, ("k",))
        with pytest.raises(SchemaError):
            idx.insert(1, ("k",))

    def test_hash_unique_allows_multiple_nulls(self):
        idx = HashIndex("i", (0,), unique=True)
        idx.insert(0, (None,))
        idx.insert(1, (None,))  # SQL allows repeated NULLs in unique indexes

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_lookup_hands_out_a_new_list(self, rows):
        idx = HashIndex("i", (0,))
        for row_id in range(rows):
            idx.insert(row_id, ("a",))
        idx.lookup("a").append(7)
        idx.lookup("a").clear()
        assert idx.lookup("a") == list(range(rows))
        assert len(idx) == rows


class TestCatalog:
    def test_create_and_lookup(self):
        cat = Catalog()
        cat.create_table("emp", emp_schema())
        assert cat.has_table("EMP")
        assert cat.table("Emp").name == "emp"

    def test_duplicate_rejected(self):
        cat = Catalog()
        cat.create_table("emp", emp_schema())
        with pytest.raises(CatalogError):
            cat.create_table("EMP", emp_schema())

    def test_views(self):
        cat = Catalog()
        cat.create_view("v", "SELECT 1")
        assert cat.has_view("V")
        assert cat.view_sql("v") == "SELECT 1"
        with pytest.raises(CatalogError):
            cat.create_table("v", emp_schema())
        cat.drop_view("v")
        assert not cat.has_view("v")

    def test_drop_table(self):
        cat = Catalog()
        cat.create_table("emp", emp_schema())
        cat.drop_table("emp")
        with pytest.raises(CatalogError):
            cat.table("emp")

    def test_is_key(self):
        cat = Catalog()
        t = cat.create_table("emp", emp_schema())
        assert cat.is_key("emp", ["empno"])
        assert cat.is_key("emp", ["empno", "name"])  # superset of pk
        assert not cat.is_key("emp", ["building"])
        t.create_index("u_name", ["name"], unique=True)
        assert cat.is_key("emp", ["name"])


class TestStats:
    def test_column_stats(self):
        t = Table("emp", emp_schema())
        t.insert((1, "a", "B1", 10.0))
        t.insert((2, "b", "B1", None))
        t.insert((3, "c", "B2", 30.0))
        stats = compute_table_stats(t)
        assert stats.row_count == 3
        b = stats.column("building")
        assert b.n_distinct == 2
        assert b.n_null == 0
        assert (b.min_value, b.max_value) == ("B1", "B2")
        s = stats.column("salary")
        assert s.n_null == 1
        assert s.n_distinct == 2

    def test_stats_cache_invalidation(self):
        cat = Catalog()
        t = cat.create_table("emp", emp_schema())
        t.insert((1, "a", "B1", 10.0))
        s1 = cat.stats("emp")
        assert s1.row_count == 1
        assert cat.stats("emp") is s1  # cached
        t.insert((2, "b", "B2", 20.0))
        s2 = cat.stats("emp")
        assert s2.row_count == 2
