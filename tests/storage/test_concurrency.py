"""Storage-layer thread-safety: the races the query service depends on.

Each test hammers one documented critical section from many threads and
asserts the invariant the lock is supposed to protect.  A barrier lines
every thread up on the contended operation to maximise interleaving.
"""

import sys
import threading

import pytest

from repro.storage import Catalog, Column, Schema
from repro.storage.catalog import CatalogError
from repro.types import SQLType


def _schema() -> Schema:
    return Schema(
        [
            Column("id", SQLType.INT, nullable=False),
            Column("val", SQLType.STR),
        ],
        primary_key=["id"],
    )


def _run_threads(n: int, target) -> list:
    """Run ``target(i)`` in ``n`` threads behind a barrier; collect results
    or raised exceptions per thread."""
    barrier = threading.Barrier(n)
    results: list = [None] * n
    def wrapper(i: int) -> None:
        barrier.wait()
        try:
            results[i] = target(i)
        except Exception as exc:  # noqa: BLE001 - collected for assertions
            results[i] = exc
    threads = [
        threading.Thread(target=wrapper, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
        assert not t.is_alive(), "storage operation wedged"
    return results


class TestCatalogRaces:
    def test_racing_create_table_has_one_winner(self):
        catalog = Catalog()
        results = _run_threads(
            8, lambda i: catalog.create_table("t", _schema())
        )
        errors = [r for r in results if isinstance(r, Exception)]
        assert len(errors) == 7
        assert all(isinstance(e, CatalogError) for e in errors)
        assert catalog.has_table("t")
        assert len(list(catalog.tables())) == 1

    def test_racing_create_view_has_one_winner(self):
        catalog = Catalog()
        results = _run_threads(
            8, lambda i: catalog.create_view("v", f"SELECT {i}")
        )
        errors = [r for r in results if isinstance(r, Exception)]
        assert len(errors) == 7
        winner = next(i for i, r in enumerate(results) if r is None)
        assert catalog.view_sql("v") == f"SELECT {winner}"

    def test_generation_never_loses_a_bump(self):
        # The plan cache's staleness stamp: every DDL/stats mutation must
        # advance ``generation()`` exactly once even under contention -- a
        # lost bump would let a cached plan outlive the change it raced.
        catalog = Catalog()
        catalog.create_table("t", _schema())
        start = catalog.generation()

        def work(i: int) -> None:
            for k in range(50):
                if i % 2 == 0:
                    catalog.invalidate_stats("t")
                else:
                    catalog.create_table(f"t_{i}_{k}", _schema())

        results = _run_threads(8, work)
        assert not any(isinstance(r, Exception) for r in results), results
        assert catalog.generation() == start + 8 * 50

    def test_generation_reads_are_monotonic_during_ddl(self):
        catalog = Catalog()
        catalog.create_table("t", _schema())

        def work(i: int) -> None:
            if i == 0:
                for k in range(200):
                    catalog.invalidate_stats("t")
                return
            last = -1
            for _ in range(200):
                seen = catalog.generation()
                assert seen >= last, "generation moved backwards"
                last = seen

        results = _run_threads(8, work)
        assert not any(isinstance(r, Exception) for r in results), results

    def test_stats_invalidation_is_never_lost(self):
        # Writers insert + invalidate; readers pull stats throughout.  At
        # the end one more invalidate + read must see the final row count
        # (a stale cache line would betray a lost invalidation).
        catalog = Catalog()
        table = catalog.create_table("t", _schema())

        def work(i: int) -> None:
            for k in range(50):
                if i % 2 == 0:  # writer
                    table.insert((i * 1000 + k, f"v{k}"))
                    catalog.invalidate_stats("t")
                else:  # reader
                    stats = catalog.stats("t")
                    assert 0 <= stats.row_count <= 8 * 50

        results = _run_threads(8, work)
        assert not any(isinstance(r, Exception) for r in results), results
        catalog.invalidate_stats("t")
        assert catalog.stats("t").row_count == len(table) == 4 * 50


class TestTableRaces:
    def test_concurrent_inserts_lose_nothing(self):
        catalog = Catalog()
        table = catalog.create_table("t", _schema())

        def work(i: int) -> None:
            for k in range(100):
                table.insert((i * 1000 + k, f"w{i}"))

        results = _run_threads(8, work)
        assert not any(isinstance(r, Exception) for r in results), results
        assert len(table) == 800
        ids = [row[0] for row in table.scan()]
        assert len(set(ids)) == 800  # no duplicated/lost row under the pk

    def test_create_index_during_inserts_is_complete(self):
        # DDL races data: whatever rows exist when the index becomes
        # visible were backfilled, and every later insert maintains it --
        # so after the dust settles the index must cover every row.
        catalog = Catalog()
        table = catalog.create_table("t", _schema())
        created = threading.Event()

        def work(i: int):
            if i == 0:
                index = table.create_index("t_val", ["val"])
                created.set()
                return index
            for k in range(200):
                table.insert((i * 1000 + k, f"w{i % 3}"))
            return None

        results = _run_threads(8, work)
        assert not any(isinstance(r, Exception) for r in results), results
        assert created.is_set()
        index = table.indexes["t_val"]
        indexed = sum(
            len(index.lookup(f"w{v}")) for v in range(3)
        )
        assert indexed == len(table) == 7 * 200

    def test_duplicate_key_race_admits_exactly_one(self):
        catalog = Catalog()
        table = catalog.create_table("t", _schema())
        results = _run_threads(8, lambda i: table.insert((42, f"w{i}")))
        errors = [r for r in results if isinstance(r, Exception)]
        assert len(errors) == 7  # unique pk: one winner, seven typed errors
        assert len(table) == 1

    def test_failed_insert_leaves_table_unchanged(self):
        catalog = Catalog()
        table = catalog.create_table("t", _schema())
        table.insert((1, "a"))
        with pytest.raises(Exception):
            table.insert((1, "dup"))
        assert len(table) == 1
        assert list(table.scan()) == [(1, "a")]


class TestLookupRaces:
    """Lock-free readers probe an index while inserts add rows under keys
    it already holds, so a key's bucket grows during the probe. Threads
    switch every microsecond here, so that a reader is interrupted between
    any two of its reads."""

    @pytest.fixture(autouse=True)
    def _switch_often(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def test_a_probe_is_a_copy_of_each_bucket(self):
        catalog = Catalog()
        table = catalog.create_table("t", _schema())
        index = table.create_index("t_val", ["val"])
        table.insert_many([(k, f"v{k % 4}") for k in range(8)])
        keys = [f"v{k}" for k in range(4)] * 4

        def work(i: int):
            if i < 2:
                for k in range(300):
                    table.insert((1000 * (i + 1) + k, f"v{k % 4}"))
                return None
            for _ in range(100):
                found = index.probe(keys, table.rows)
                sizes = list(map(len, found))
                assert all(
                    row[1] == key for key, rows in zip(keys, found) for row in rows
                )
                assert list(map(len, found)) == sizes
            return None

        results = _run_threads(6, work)
        assert not any(isinstance(r, Exception) for r in results), results

    def test_an_index_lookup_joins_each_row_to_its_own_key(self):
        from repro import Database, Strategy

        db = Database()
        db.execute_script(
            "CREATE TABLE dept (name TEXT PRIMARY KEY, budget FLOAT, building TEXT);"
            "CREATE TABLE emp (empno INT PRIMARY KEY, building TEXT);"
            "CREATE INDEX emp_building ON emp (building);"
            "INSERT INTO dept VALUES ('a', 1.0, 'B1'), ('b', 2.0, 'B2'),"
            " ('c', 3.0, 'B1'), ('d', 4.0, 'B3');"
            "INSERT INTO emp VALUES (1, 'B1'), (2, 'B2'), (3, 'B2'), (4, 'B3');"
        )
        emp = db.catalog.table("emp")
        sql = (
            "SELECT d.building, e.building FROM dept d, emp e "
            "WHERE e.building = d.building AND d.budget > 0"
        )

        def work(i: int):
            if i < 2:
                for k in range(200):
                    emp.insert((1000 * (i + 1) + k, f"B{k % 3 + 1}"))
                return None
            for _ in range(30):
                rows = db.execute(sql, strategy=Strategy.MAGIC).rows
                assert rows and all(left == right for left, right in rows)
            return None

        results = _run_threads(4, work)
        assert not any(isinstance(r, Exception) for r in results), results

    def test_batches_race_probes_and_analyze(self):
        # Whole batches go in (some with NULL keys, which go row by row)
        # while readers probe the index and ANALYZE the table: a probe
        # finds only rows that are stored under its key, and statistics
        # describe exactly the rows they count.
        catalog = Catalog()
        table = catalog.create_table("t", _schema())
        index = table.create_index("t_val", ["val"])
        keys = [f"v{k}" for k in range(5)]

        def work(i: int):
            if i < 2:
                for b in range(20):
                    base = 100_000 * (i + 1) + 100 * b
                    table.insert_many(
                        (base + k, None if b % 5 == 0 and k % 7 == 0 else f"v{k % 5}")
                        for k in range(50)
                    )
                return None
            for _ in range(20):
                for key, rows in zip(keys, index.probe(keys, table.rows)):
                    assert all(row[1] == key for row in rows)
                stats = catalog.stats("t")
                val = stats.column("val")
                assert stats.row_count <= len(table)
                assert val.n_null + val.n_distinct <= stats.row_count
            return None

        results = _run_threads(4, work)
        assert not any(isinstance(r, Exception) for r in results), results
        assert len(table) == 2 * 20 * 50
        rebuilt = type(index)("t_val", index.column_positions)
        for row_id, row in enumerate(table.rows):
            rebuilt.insert(row_id, row)
        assert repr(rebuilt._map) == repr(index._map)
        assert rebuilt._nulls == index._nulls
