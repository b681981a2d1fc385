"""Plan-cached executions racing DML/DDL: never a stale answer.

The cache stores rewrite artifacts, not rows -- but a plan built against
one catalog generation must not survive into the next.  These tests
hammer cached executions from many threads while writers insert and run
index DDL, asserting the §9 freshness contract: an execution started
after a mutation completes reflects that mutation, every failure is a
typed :class:`~repro.errors.ReproError`, and the hit/miss/invalidation
counters still reconcile exactly with the emitted ``plan.cache_*``
events afterwards.
"""

import threading

from repro import Database, QueryService
from repro.errors import ReproError
from repro.obs.events import EventLog, RingSink, count_by_kind
from repro.plan.cache import PlanCache
from repro.tpcd import load_empdept

#: One shape, many literals -- every thread shares the cached template.
TEMPLATE = "select empno, name from emp where salary >= {} order by empno"


def _run_threads(n: int, target) -> list:
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
        t.join(60)
        assert not t.is_alive(), "plan-cached execution wedged"
    return results


class TestInsertRaces:
    def test_read_after_insert_always_sees_the_row(self):
        """Writers insert a row then immediately re-run the shared cached
        template: the execution *started after the insert returned* must
        include the new row, however the readers' hits and refills
        interleave with the invalidation."""
        sink = RingSink(capacity=262144)
        events = EventLog(sink)
        cache = PlanCache(events=events)
        db = Database(load_empdept(), plan_cache=cache, events=events)
        db.execute(TEMPLATE.format(0))  # prime the template

        def work(i: int) -> None:
            if i < 2:  # writers
                for k in range(20):
                    empno = 90000 + i * 1000 + k
                    db.execute(
                        f"insert into emp values ({empno}, 'w', 'b1', 60.0)"
                    )
                    rows = db.execute(TEMPLATE.format(0)).rows
                    assert (empno, "w") in rows, "stale read after insert"
            else:  # readers: cache hits on rotating literals
                for k in range(60):
                    db.execute(TEMPLATE.format((k % 4) * 50))

        results = _run_threads(8, work)
        assert not any(isinstance(r, Exception) for r in results), results
        counts = count_by_kind(sink.events())
        snap = cache.snapshot()
        assert counts.get("plan.cache_hit", 0) == snap["hits"]
        assert counts.get("plan.cache_miss", 0) == snap["misses"]
        assert (
            counts.get("plan.cache_invalidated", 0) == snap["invalidations"]
        )
        # 40 inserts, each bumping the generation: at least one later
        # lookup per bump noticed (racing lookups may batch onto one).
        assert snap["invalidations"] >= 1
        assert snap["hits"] >= 1

    def test_index_ddl_racing_cached_reads_stays_typed(self):
        """Index create/drop churns the generation while readers hammer
        the cached shape: every outcome is correct rows or a typed
        ``ReproError`` -- never a stale plan against a vanished index,
        never an untyped crash."""
        cache = PlanCache()
        db = Database(load_empdept(), plan_cache=cache)
        sql = "select name from emp where building = 'b1' order by name"
        expected = db.execute(sql).rows  # fills the entry, pre-DDL epoch
        first_bump = threading.Event()
        ddl_done = threading.Event()

        def work(i: int) -> None:
            if i == 0:  # DDL churn
                try:
                    for k in range(15):
                        db.execute("create index emp_bldg on emp (building)")
                        first_bump.set()
                        db.execute("drop index emp_bldg on emp")
                finally:
                    first_bump.set()
                    ddl_done.set()
                return
            # The overlap is arranged, not hoped for: no reader starts
            # before the catalog has moved past the primed entry's epoch
            # (so its first lookup finds that entry stale), and each keeps
            # reading until the DDL thread has bumped the epoch under it
            # at least once more, however fast 40 reads go by.
            assert first_bump.wait(30), "DDL thread never got going"
            started_at = db.catalog.generation()
            reads = 0
            while reads < 40 or (
                db.catalog.generation() == started_at
                and not ddl_done.is_set()
            ):
                try:
                    assert db.execute(sql).rows == expected
                except ReproError:
                    pass  # typed failures are allowed under DDL races
                reads += 1

        results = _run_threads(6, work)
        assert not any(isinstance(r, Exception) for r in results), results
        assert cache.snapshot()["invalidations"] >= 1


class TestCachedService:
    def test_service_stats_reconcile_under_load(self):
        """The shared cache behind ``QueryService`` workers: concurrent
        submissions over a handful of literals hit the same entries, and
        :meth:`QueryService.stats` surfaces counters that reconcile with
        the cache's own snapshot."""
        cache = PlanCache()
        db = Database(load_empdept())
        with QueryService(
            db, workers=4, max_queue=100, plan_cache=cache
        ) as service:
            tickets = [
                service.submit(TEMPLATE.format((i % 5) * 25), deadline=30.0)
                for i in range(40)
            ]
            for ticket in tickets:
                assert ticket.result(timeout=30) is not None
            stats = service.stats()
        snap = cache.snapshot()
        assert stats.plan_cache_hits == snap["hits"]
        assert stats.plan_cache_misses == snap["misses"]
        assert stats.plan_cache_invalidations == snap["invalidations"]
        assert stats.plan_cache == snap
        # 40 submissions over 5 literals of one shape: one miss per
        # racing first-touch at worst, hits for the long tail.
        assert snap["hits"] + snap["misses"] == 40
        assert snap["hits"] >= 30
