"""The cyclic collector during an execution: ``execute_graph`` pauses it and
restores it however the execution ends, leaves a host's own choice alone,
and every execution that leaves pays the collection the pause owes -- so
one that other threads hold open never starves the collector."""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro import Database, Strategy
from repro.errors import BudgetExceeded, ExecutionError, QueryCancelled
from repro.guard import ExecutionGuard, Limits
from repro.tpcd import load_tpcd
from repro.tpcd.queries import QUERY_2

COUNT_QUERY = """
    SELECT d.name FROM dept d
    WHERE d.num_emps > (SELECT count(*) FROM emp e WHERE e.building = d.building)
"""
#: ``dept`` x ``emp``: every pair, enough live tuples to pass gen 0's
#: threshold once the result is kept.
CROSS_QUERY = "SELECT d.name, e.name, e.salary FROM dept d, emp e"


@pytest.fixture
def db(empdept_catalog) -> Database:
    emp = empdept_catalog.table("emp")
    emp.insert_many(
        [(n, f"e{n}", f"B{n % 3}", float(n)) for n in range(100, 400)]
    )
    return Database(empdept_catalog)


@pytest.fixture(scope="module")
def tpcd_db() -> Database:
    return Database(load_tpcd(scale_factor=0.01))


class Collections:
    """Counts the collections started while it is installed."""

    def __init__(self):
        self.started = []

    def __call__(self, phase, info):
        if phase == "start":
            self.started.append(info["generation"])

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class TestRestored:
    def test_after_a_normal_return(self, db):
        assert len(db.execute(COUNT_QUERY).rows) > 0
        assert gc.isenabled()

    def test_after_an_execution_error(self, db):
        with pytest.raises(ExecutionError, match="more than one row"):
            db.execute(
                "SELECT d.name FROM dept d WHERE d.budget > "
                "(SELECT e.salary FROM emp e)"
            )
        assert gc.isenabled()

    def test_after_a_guard_trip(self, db):
        with pytest.raises(BudgetExceeded):
            db.execute(COUNT_QUERY, limits=Limits(max_rows_scanned=1))
        assert gc.isenabled()

    def test_after_a_cancel(self, db):
        guard = ExecutionGuard(Limits())
        guard.cancel()
        with pytest.raises(QueryCancelled):
            db.execute(COUNT_QUERY, guard=guard)
        assert gc.isenabled()

    def test_a_host_that_disabled_the_collector_keeps_it_disabled(self, db):
        gc.disable()
        try:
            with Collections() as seen:
                db.execute(CROSS_QUERY)
                with pytest.raises(BudgetExceeded):
                    db.execute(COUNT_QUERY, limits=Limits(max_rows_scanned=1))
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen.started == []

    def test_four_threads_leave_the_collector_enabled(self, db):
        errors = []

        def run():
            try:
                for n in range(50):
                    db.execute(COUNT_QUERY if n % 2 else CROSS_QUERY)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert gc.isenabled()


class MarkingGuard(ExecutionGuard):
    """Writes the start of the execution (``attach``, after compile) and
    each ``check()`` into the same list the collector writes its
    collections into, so the list says which came first."""

    def __init__(self, log):
        super().__init__(Limits())
        self.log = log

    def attach(self, metrics):
        self.log.append("attach")
        super().attach(metrics)

    def check(self):
        self.log.append("check")
        super().check()


def test_a_large_execution_collects_only_at_its_exit(tpcd_db):
    log = []
    guard = MarkingGuard(log)

    def collected(phase, info):
        if phase == "start":
            log.append("collect")

    tpcd_db.execute(QUERY_2, strategy=Strategy.DAYAL)  # compile caches warm
    gc.collect()
    gc.callbacks.append(collected)
    try:
        result = tpcd_db.execute(QUERY_2, strategy=Strategy.DAYAL, guard=guard)
    finally:
        gc.callbacks.remove(collected)
    assert result.metrics.rows_scanned >= 60_000
    first, last = log.index("attach"), len(log) - log[::-1].index("check")
    assert "collect" not in log[first:last]
    assert log[last:].count("collect") <= 1


class HoldingGuard(ExecutionGuard):
    """Parks its execution at its first ``check()`` after compile (once
    the execution attached its metrics) until released."""

    def __init__(self):
        super().__init__(Limits())
        self.entered = threading.Event()
        self.release = threading.Event()

    def check(self):
        if self.metrics is not None:
            self.entered.set()
            assert self.release.wait(30)
        super().check()


class Cycle:
    def __init__(self):
        self.me = self


def test_an_execution_held_open_does_not_starve_the_collector(db):
    held = HoldingGuard()
    outcome = []
    holder = threading.Thread(
        target=lambda: outcome.append(db.execute(COUNT_QUERY, guard=held))
    )
    holder.start()
    try:
        assert held.entered.wait(30)
        assert not gc.isenabled()  # the held execution keeps the pause open
        sentinel = weakref.ref(Cycle())
        kept = []

        def allocate():
            for _ in range(10):
                kept.append(db.execute(CROSS_QUERY).rows)

        with Collections() as seen:
            worker = threading.Thread(target=allocate)
            worker.start()
            worker.join()
        assert len(kept) == 10
        assert seen.started, "no collection ran while the pause was held"
        assert sentinel() is None, "a cycle outlived the collections owed"
        assert holder.is_alive()
    finally:
        held.release.set()
        holder.join()
    assert len(outcome) == 1 and gc.isenabled()
