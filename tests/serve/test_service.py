"""QueryService: admission control, deadlines, cancellation, stats."""

import threading

import pytest

from repro import Database, FaultRegistry, Limits, QueryService, Strategy
from repro.errors import (
    AdmissionRejected,
    BudgetExceeded,
    FaultInjectedError,
    ParseError,
    QueryCancelled,
    ReproError,
)
from repro.tpcd import EMP_DEPT_QUERY

#: EMP/DEPT reference answer (see tests/conftest.py for the data).
EXPECTED = [("d_low",), ("research",), ("sales",)]


class Gate(FaultRegistry):
    """A registry whose ``storage.scan`` trigger blocks until released.

    Deterministic way to wedge a worker mid-query: the executing query
    parks inside its first table scan (``started`` set), every later
    submission queues behind it, and ``release`` lets everything proceed.
    """

    def __init__(self):
        super().__init__(0, ())
        self.started = threading.Event()
        self.release = threading.Event()

    def trigger(self, site: str, detail: str = "") -> None:
        if site == "storage.scan":
            self.started.set()
            assert self.release.wait(30), "gate never released"


@pytest.fixture
def gate() -> Gate:
    return Gate()


@pytest.fixture
def gated_db(empdept_catalog, gate) -> Database:
    return Database(empdept_catalog, faults=gate)


class TestBasics:
    def test_result_matches_direct_execution(self, db):
        with QueryService(db, workers=2) as service:
            ticket = service.submit(EMP_DEPT_QUERY, strategy=Strategy.MAGIC)
            result = ticket.result(timeout=30)
        assert sorted(result.rows) == EXPECTED
        assert ticket.state == "completed"
        assert ticket.latency is not None

    def test_many_concurrent_queries_all_answer(self, db):
        with QueryService(db, workers=4, max_queue=100) as service:
            tickets = [
                service.submit(EMP_DEPT_QUERY, strategy=s)
                for _ in range(10)
                for s in (Strategy.NESTED_ITERATION, Strategy.MAGIC)
            ]
            for ticket in tickets:
                assert sorted(ticket.result(timeout=30).rows) == EXPECTED
        stats = service.stats()
        assert stats.completed == 20
        assert stats.reconciles()

    def test_strategy_accepts_enum_and_string(self, db):
        with QueryService(db, workers=1) as service:
            a = service.submit(EMP_DEPT_QUERY, strategy="magic")
            b = service.submit(EMP_DEPT_QUERY, strategy=Strategy.MAGIC)
            assert a.result(30).rows == b.result(30).rows


class TestAdmissionControl:
    def test_queue_overflow_raises_typed_error(self, gated_db, gate):
        service = QueryService(gated_db, workers=1, max_queue=2)
        try:
            service.submit(EMP_DEPT_QUERY)   # wedges the only worker
            assert gate.started.wait(30)     # ... confirmed mid-scan
            service.submit(EMP_DEPT_QUERY)   # queue slot 1
            service.submit(EMP_DEPT_QUERY)   # queue slot 2
            with pytest.raises(AdmissionRejected) as info:
                service.submit(EMP_DEPT_QUERY)
            error = info.value
            assert error.reason == "queue full"
            assert error.queue_depth == 2
            assert error.max_queue == 2
            assert error.in_flight == 1
            assert "2/2" in str(error)
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.rejected == 1
        assert stats.submitted == 4
        assert stats.completed == 3
        assert stats.reconciles()

    def test_closed_service_rejects(self, db):
        service = QueryService(db, workers=1)
        service.close()
        with pytest.raises(AdmissionRejected) as info:
            service.submit(EMP_DEPT_QUERY)
        assert info.value.reason == "service closed"
        assert service.stats().reconciles()

    def test_zero_queue_means_workers_only(self, gated_db, gate):
        service = QueryService(gated_db, workers=1, max_queue=0)
        try:
            service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)
            with pytest.raises(AdmissionRejected):
                service.submit(EMP_DEPT_QUERY)
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        assert service.stats().reconciles()


class ArmableGate(FaultRegistry):
    """Like :class:`Gate`, but only wedges once ``armed`` -- so a query
    can complete first (seeding the latency EMA) before the worker jams."""

    def __init__(self):
        super().__init__(0, ())
        self.armed = False
        self.started = threading.Event()
        self.release = threading.Event()

    def trigger(self, site: str, detail: str = "") -> None:
        if site == "storage.scan" and self.armed:
            self.started.set()
            assert self.release.wait(30), "gate never released"


class TestRetryAfterHint:
    def test_no_hint_before_any_completion(self, gated_db, gate):
        # The first rejection of a cold service has no latency estimate to
        # offer: the hint is absent, not a made-up number.
        service = QueryService(gated_db, workers=1, max_queue=0)
        try:
            service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)
            with pytest.raises(AdmissionRejected) as info:
                service.submit(EMP_DEPT_QUERY)
            assert info.value.retry_after_hint is None
            assert "retry after" not in str(info.value)
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.rejected == 1
        assert stats.rejected_with_hint == 0
        assert stats.reconciles()

    def test_hint_present_after_completions(self, empdept_catalog):
        gate = ArmableGate()
        db = Database(empdept_catalog, faults=gate)
        service = QueryService(db, workers=1, max_queue=1)
        try:
            # Seed the EMA with one completed query, then jam the worker.
            service.submit(EMP_DEPT_QUERY).result(timeout=30)
            gate.armed = True
            service.submit(EMP_DEPT_QUERY)   # wedges the only worker
            assert gate.started.wait(30)
            service.submit(EMP_DEPT_QUERY)   # fills the single queue slot
            with pytest.raises(AdmissionRejected) as info:
                service.submit(EMP_DEPT_QUERY)
            hint = info.value.retry_after_hint
            assert hint is not None and hint > 0
            assert "retry after ~" in str(info.value)
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.rejected == 1
        assert stats.rejected_with_hint == 1
        assert stats.as_dict()["rejected_with_hint"] == 1
        assert "repro_queries_rejected_with_hint_total 1" in (
            stats.export("prometheus")
        )
        assert stats.reconciles()


class TestDeadlines:
    def test_deadline_expired_while_queued_trips_immediately(
        self, gated_db, gate
    ):
        # The doomed query's deadline expires while it waits behind the
        # wedged worker; the worker's pre-execution check must trip it
        # without running anything (zero work in the metrics snapshot).
        service = QueryService(gated_db, workers=1, max_queue=4)
        try:
            service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)
            doomed = service.submit(EMP_DEPT_QUERY, deadline=0.0)
            gate.release.set()
            with pytest.raises(BudgetExceeded) as info:
                doomed.result(timeout=30)
            assert info.value.budget == "timeout"
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        assert service.stats().failed == 1
        assert service.stats().reconciles()

    def test_default_deadline_applies(self, db):
        with QueryService(db, workers=1, default_deadline=0.0) as service:
            ticket = service.submit(EMP_DEPT_QUERY)
            with pytest.raises(BudgetExceeded):
                ticket.result(timeout=30)

    def test_limits_merge_with_deadline(self):
        merged = QueryService._merge_limits(
            Limits(timeout=5.0, max_rows_scanned=10), 1.0
        )
        assert merged.timeout == 1.0
        assert merged.max_rows_scanned == 10
        merged = QueryService._merge_limits(Limits(timeout=0.5), 1.0)
        assert merged.timeout == 0.5
        merged = QueryService._merge_limits(None, 2.0)
        assert merged.timeout == 2.0
        merged = QueryService._merge_limits(Limits(max_rows_scanned=7), None)
        assert merged.timeout is None
        assert merged.max_rows_scanned == 7


class TestCancellation:
    def test_cancel_queued_query(self, gated_db, gate):
        service = QueryService(gated_db, workers=1, max_queue=4)
        try:
            service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)
            victim = service.submit(EMP_DEPT_QUERY)
            assert service.cancel(victim.query_id)
            gate.release.set()
            with pytest.raises(QueryCancelled) as info:
                victim.result(timeout=30)
            assert info.value.metrics is not None
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.cancelled == 1
        assert stats.reconciles()

    def test_cancel_running_query_by_id(self, gated_db, gate):
        # Cross-thread cancel of a query that is mid-scan: the cancel flag
        # is observed at the next guard check, within one executor step.
        service = QueryService(gated_db, workers=1)
        try:
            ticket = service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)          # wedged inside the scan
            assert service.cancel(ticket.query_id)
            gate.release.set()
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=30)
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        assert service.stats().cancelled == 1

    def test_cancel_unknown_or_finished_returns_false(self, db):
        with QueryService(db, workers=1) as service:
            ticket = service.submit(EMP_DEPT_QUERY)
            ticket.result(timeout=30)
            assert not service.cancel(ticket.query_id)
            assert not service.cancel(99999)

    def test_close_without_drain_cancels_queued(self, gated_db, gate):
        service = QueryService(gated_db, workers=1, max_queue=8)
        service.submit(EMP_DEPT_QUERY)
        assert gate.started.wait(30)
        victims = [service.submit(EMP_DEPT_QUERY) for _ in range(3)]
        gate.release.set()
        service.close(drain=False, timeout=30)
        for victim in victims:
            assert victim.done
            assert isinstance(victim.error(), QueryCancelled)
        assert service.stats().reconciles()


class JoinFault(FaultRegistry):
    """Fails the first hash-join build, then none."""

    def __init__(self):
        super().__init__(0, ())
        self.armed = True

    def trigger(self, site: str, detail: str = "") -> None:
        if site == "exec.join" and self.armed:
            self.armed = False
            raise FaultInjectedError(site, 0, "synthetic join failure")


class TestFirstQueryFails:
    """A worker thread survives a failure that is the first thing its
    facade ever sees (its engine has run no fallback yet)."""

    def _then_serves(self, service, first):
        assert first.wait(30)
        assert first.state == "failed"
        assert all(thread.is_alive() for thread in service._threads)
        result = service.submit(EMP_DEPT_QUERY, strategy="magic").result(30)
        assert sorted(result.rows) == EXPECTED
        service.close(timeout=30)
        assert not any(thread.is_alive() for thread in service._threads)
        assert service.stats().reconciles()

    def test_malformed_statement(self, db):
        service = QueryService(db, workers=1)
        first = service.submit("Selec nonsense frm", strategy="magic")
        self._then_serves(service, first)
        assert isinstance(first.error(), ParseError)

    def test_execution_fault_on_a_plan_cache_hit(self, empdept_catalog):
        from repro.plan.cache import PlanCache

        cache = PlanCache()
        # Another facade over the same catalog fills the shared cache.
        Database(empdept_catalog, plan_cache=cache).execute(
            EMP_DEPT_QUERY, strategy=Strategy.MAGIC
        )
        db = Database(empdept_catalog, faults=JoinFault())
        service = QueryService(db, workers=1, plan_cache=cache)
        first = service.submit(EMP_DEPT_QUERY, strategy="magic")
        self._then_serves(service, first)
        assert isinstance(first.error(), FaultInjectedError)
        assert cache.snapshot()["hits"] == 2
        assert service.stats().breakers["magic"]["consecutive_failures"] == 0


class TestStats:
    def test_reconciliation_after_mixed_outcomes(self, db):
        with QueryService(db, workers=2, max_queue=50) as service:
            tickets = [service.submit(EMP_DEPT_QUERY) for _ in range(6)]
            tickets.append(service.submit(EMP_DEPT_QUERY, deadline=0.0))
            for ticket in tickets:
                ticket.wait(30)
        stats = service.stats()
        assert stats.submitted == 7
        assert stats.completed + stats.failed == 7
        assert stats.reconciles()
        assert stats.latency_p50_ms is not None
        assert stats.latency_p95_ms >= stats.latency_p50_ms

    def test_per_worker_fault_scope_replicates_registry(self, empdept_catalog):
        registry = FaultRegistry.parse("5:exec.join=0")
        base = Database(empdept_catalog, faults=registry)
        with QueryService(base, workers=2, fault_scope="worker") as service:
            for _ in range(4):
                service.submit(EMP_DEPT_QUERY).result(timeout=30)
        # Worker replicas were used: the base registry's per-site trigger
        # counters never moved.
        assert registry._counts == {}

    def test_shared_fault_scope_uses_base_registry(self, empdept_catalog):
        registry = FaultRegistry.parse("5:exec.join=0")
        base = Database(empdept_catalog, faults=registry)
        with QueryService(base, workers=2, fault_scope="shared") as service:
            for _ in range(4):
                service.submit(EMP_DEPT_QUERY).result(timeout=30)
        assert registry._counts  # the shared schedule advanced

    def test_bad_configuration_rejected(self, db):
        with pytest.raises(ValueError):
            QueryService(db, workers=0)
        with pytest.raises(ValueError):
            QueryService(db, max_queue=-1)
        with pytest.raises(ValueError):
            QueryService(db, fault_scope="bogus")


class SteppingClock:
    """A fake monotonic clock that leaps forward on every read -- any
    code path still timing itself on ``time.monotonic`` instead of the
    injected clock shows up as a real-time stall."""

    def __init__(self, step: float = 10.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestDrainClock:
    def test_drain_deadline_runs_on_the_injected_clock(self, gated_db, gate):
        """Regression: ``drain`` used to call ``time.monotonic()``
        directly, so a fake-clock service measured its drain timeout in
        real seconds. With a clock that leaps 10s per read, a 5s drain
        deadline must expire on the *fake* timebase (immediately), not
        after 5 real seconds."""
        import time as _time

        clock = SteppingClock(step=10.0)
        service = QueryService(gated_db, workers=1, clock=clock)
        try:
            service.submit(EMP_DEPT_QUERY)   # wedges the only worker
            assert gate.started.wait(30)
            start = _time.perf_counter()
            assert service.drain(timeout=5.0) is False
            assert _time.perf_counter() - start < 2.0
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)

    def test_drain_with_frozen_clock_never_expires(self, gated_db, gate):
        """The mirror image: on a frozen fake clock the deadline never
        arrives, so drain waits for idleness and reports True."""
        service = QueryService(gated_db, workers=1, clock=lambda: 100.0)
        try:
            service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)
            releaser = threading.Timer(0.1, gate.release.set)
            releaser.start()
            assert service.drain(timeout=5.0) is True
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)


class TestTracing:
    def test_trace_ring_is_bounded_and_newest_last(self, db):
        with QueryService(db, workers=1, trace=True,
                          trace_history=2) as service:
            tickets = [
                service.submit(EMP_DEPT_QUERY, strategy="magic")
                for _ in range(3)
            ]
            for ticket in tickets:
                ticket.result(timeout=30)
        traces = service.recent_traces()
        assert len(traces) == 2  # the oldest summary was evicted
        assert [t["query_id"] for t in traces] == [
            tickets[1].query_id, tickets[2].query_id
        ]
        for summary in traces:
            assert summary["outcome"] == "completed"
            assert summary["strategy"] == "magic"
            assert summary["sql"] == EMP_DEPT_QUERY
            assert summary["latency_ms"] >= 0
            assert summary["metrics"]["total_work"] > 0
            assert summary["operators"], "per-operator breakdown missing"
            assert len(summary["operators"]) <= 8

    def test_failed_queries_are_traced_too(self, db):
        with QueryService(db, workers=1, trace=True) as service:
            ticket = service.submit(EMP_DEPT_QUERY, deadline=0.0)
            ticket.wait(30)
        (summary,) = service.recent_traces()
        assert summary["outcome"] == "failed"

    def test_untraced_service_keeps_no_history(self, db):
        with QueryService(db, workers=1) as service:
            service.submit(EMP_DEPT_QUERY).result(timeout=30)
        assert service.recent_traces() == []
        assert service.stats().recent_traces == []

    def test_trace_history_must_be_positive(self, db):
        with pytest.raises(ValueError):
            QueryService(db, trace_history=0)


class TestStatsExport:
    @pytest.fixture
    def drained(self, db):
        with QueryService(db, workers=2, trace=True) as service:
            for _ in range(3):
                service.submit(EMP_DEPT_QUERY, strategy="magic")
            service.drain(timeout=30)
            yield service

    def test_histograms_cover_every_observation(self, drained):
        stats = drained.stats()
        hist = stats.latency_histogram
        assert hist["count"] == 3
        assert list(hist["buckets"]) == sorted(hist["buckets"])
        # Cumulative: monotone non-decreasing, last bound <= count.
        counts = list(hist["buckets"].values())
        assert counts == sorted(counts)
        assert counts[-1] <= hist["count"]
        depth = stats.queue_depth_histogram
        assert depth["count"] == 3

    def test_json_export_round_trips(self, drained):
        import json

        payload = json.loads(drained.stats().export("json"))
        assert payload["completed"] == 3
        assert payload["latency_histogram"]["count"] == 3
        assert len(payload["recent_traces"]) == 3

    def test_prometheus_export_format(self, drained):
        text = drained.stats().export("prometheus")
        assert "# TYPE repro_queries_completed_total counter" in text
        assert "repro_queries_completed_total 3" in text
        assert "# TYPE repro_in_flight gauge" in text
        assert "# TYPE repro_query_latency_seconds histogram" in text
        assert 'repro_query_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_query_latency_seconds_count 3" in text
        assert 'repro_breaker_open{strategy="magic"} 0' in text
        assert text.endswith("\n")

    def test_unknown_export_format_rejected(self, drained):
        with pytest.raises(ValueError):
            drained.stats().export("xml")


class TestClose:
    def test_close_timeout_bounds_the_whole_pool(self, gated_db, gate):
        """Regression: ``close(timeout=t)`` joined each worker for up to
        ``t``, so four stuck workers cost ``4 t``. The timeout is one
        deadline for the pool."""
        import time as _time

        service = QueryService(gated_db, workers=4)
        try:
            tickets = [service.submit(EMP_DEPT_QUERY) for _ in range(4)]
            assert gate.started.wait(30)
            limit = _time.monotonic() + 30
            while service.stats().in_flight < 4:   # all four at the gate
                assert _time.monotonic() < limit
                _time.sleep(0.005)
            start = _time.perf_counter()
            service.close(drain=True, timeout=0.25)
            assert _time.perf_counter() - start < 0.75  # not 4 x 0.25
            assert not any(ticket.done for ticket in tickets)
        finally:
            gate.release.set()
        service.close()                                # now it drains
        assert all(not thread.is_alive() for thread in service._threads)
        stats = service.stats()
        assert stats.completed == 4
        assert stats.reconciles()


# -- every way out of the service ----------------------------------------------

class FakeClock:
    """Time passes exactly when something calls ``advance``."""

    def __init__(self):
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


#: One tick of the fake clock; a power of two, so every reading, latency
#: and phase duration is exact in binary floating point.
TICK = 0.125


class TickingGate(FaultRegistry):
    """Every table scan takes one ``TICK`` of fake time; once ``armed``,
    a scan also parks its worker until ``release`` (like :class:`Gate`)."""

    def __init__(self, clock: FakeClock):
        super().__init__(0, ())
        self.clock = clock
        self.armed = False
        self.started = threading.Event()
        self.release = threading.Event()

    def trigger(self, site: str, detail: str = "") -> None:
        if site == "storage.scan":
            self.clock.advance(TICK)
            if self.armed:
                self.started.set()
                assert self.release.wait(30), "gate never released"


class Exits:
    """One service on a fake clock with an event log and phases on, plus
    the moves the scenarios below are made of."""

    def __init__(self, catalog):
        from repro.obs import EventLog, RingSink

        self.clock = FakeClock()
        self.gate = TickingGate(self.clock)
        self.db = Database(catalog, faults=self.gate)
        self.sink = RingSink(capacity=16384)
        self.log = EventLog(self.sink)
        self.service = None

    def start(self, **options) -> QueryService:
        self.service = QueryService(
            self.db, workers=1, clock=self.clock, events=self.log,
            phases=True, **options,
        )
        return self.service

    def warm(self) -> None:
        """One completed query: the latency EMA and the estimator learn."""
        self.service.submit(EMP_DEPT_QUERY).result(timeout=30)

    def park_worker(self):
        """Wedge the only worker mid-scan; returns the wedged ticket."""
        self.gate.armed = True
        ticket = self.service.submit(EMP_DEPT_QUERY)
        assert self.gate.started.wait(30)
        return ticket

    def refused(self, reason: str, **submit) -> None:
        with pytest.raises(AdmissionRejected) as info:
            self.service.submit(EMP_DEPT_QUERY, **submit)
        assert info.value.reason == reason


def _overload(**knobs):
    from repro.serve.overload import OverloadConfig

    base = dict(brownout_max_level=0, class_quotas={})
    return OverloadConfig(**{**base, **knobs})


# Each scenario drives ``Exits`` to one terminal edge and returns
# (ticket or None for a refusal, terminal event kind, its outcome field,
#  the counter that moved, counters moved by the *other* tickets).

def _completed(x):
    ticket = x.start().submit(EMP_DEPT_QUERY, strategy="magic")
    ticket.result(timeout=30)
    return ticket, "query.finished", "completed", "completed", {}


def _typed_failure(x):
    ticket = x.start().submit("SELECT nothing FROM nowhere")
    assert ticket.wait(30)
    assert isinstance(ticket.error(), ReproError)
    return ticket, "query.finished", "failed", "failed", {}


def _budget_expired_at_dequeue(x):
    service = x.start()
    x.park_worker()
    ticket = service.submit(EMP_DEPT_QUERY, deadline=TICK)
    x.clock.advance(2 * TICK)
    x.gate.release.set()
    assert ticket.wait(30)
    assert isinstance(ticket.error(), BudgetExceeded)
    return ticket, "query.finished", "failed", "failed", {"completed": 1}


def _cancelled_while_queued(x):
    service = x.start()
    x.park_worker()
    ticket = service.submit(EMP_DEPT_QUERY)
    assert service.cancel(ticket.query_id)
    x.gate.release.set()
    assert ticket.wait(30)
    return ticket, "query.finished", "cancelled", "cancelled", {"completed": 1}


def _cancelled_while_running(x):
    service = x.start()
    ticket = x.park_worker()
    assert service.cancel(ticket.query_id)
    x.gate.release.set()
    assert ticket.wait(30)
    return ticket, "query.finished", "cancelled", "cancelled", {}


def _shed(x):
    service = x.start(max_queue=1, overload=_overload())
    x.park_worker()
    ticket = service.submit(EMP_DEPT_QUERY, priority="low")
    service.submit(EMP_DEPT_QUERY, priority="high")   # takes its slot
    assert ticket.done and ticket.state == "shed"
    return ticket, "overload.shed", None, "shed", {"completed": 2}


def _expired_in_queue(x):
    service = x.start(overload=_overload())
    x.park_worker()
    ticket = service.submit(EMP_DEPT_QUERY, deadline=TICK)
    x.clock.advance(2 * TICK)
    service.evaluate_overload()
    assert ticket.done and ticket.state == "expired"
    return (
        ticket, "overload.expired", None, "expired_in_queue",
        {"completed": 1},
    )


def _refused_service_closed(x):
    x.start().close()
    x.refused("service closed")
    return None, "query.rejected", None, "rejected", {}


def _refused_queue_full(x):
    x.start(max_queue=0)
    x.park_worker()
    x.refused("queue full")
    return None, "query.rejected", None, "rejected", {"completed": 1}


def _refused_class_quota(x):
    service = x.start(
        max_queue=2, overload=_overload(class_quotas={"low": 0.5})
    )
    x.park_worker()
    service.submit(EMP_DEPT_QUERY, priority="low")    # the quota of one
    x.refused("class quota", priority="low")
    return None, "query.rejected", None, "rejected", {"completed": 2}


def _refused_deadline_unmeetable(x):
    x.start(overload=_overload())
    x.warm()
    x.park_worker()
    x.refused("deadline unmeetable", deadline=TICK / 2)
    return None, "query.rejected", None, "rejected", {"completed": 2}


EXITS = [
    _completed, _typed_failure, _budget_expired_at_dequeue,
    _cancelled_while_queued, _cancelled_while_running, _shed,
    _expired_in_queue, _refused_service_closed, _refused_queue_full,
    _refused_class_quota, _refused_deadline_unmeetable,
]
OUTCOME_COUNTERS = (
    "completed", "failed", "cancelled", "shed", "expired_in_queue",
    "rejected",
)
TERMINAL_KINDS = (
    "query.finished", "overload.shed", "overload.expired", "query.rejected",
)
#: ``query.rejected`` carries the same payload whatever the reason.
REJECTED_KEYS = {"reason", "retry_after_hint", "queue_depth"}


@pytest.mark.parametrize("scenario", EXITS, ids=lambda f: f.__name__[1:])
def test_every_way_out_is_settled_once(empdept_catalog, scenario):
    from repro.obs import count_by_kind, validate_events
    from repro.obs.events import ENVELOPE_KEYS

    x = Exits(empdept_catalog)
    try:
        ticket, kind, outcome, counter, others = scenario(x)
    finally:
        x.gate.release.set()
        if x.service is not None:
            x.service.close(drain=True, timeout=30)
    stats, events = x.service.stats(), x.sink.events()
    target = ticket.query_id if ticket is not None else max(
        e["query_id"] for e in events if e["kind"] == "query.submitted"
    )

    # Exactly one terminal event for the query, of the expected kind.
    [terminal] = [
        e for e in events
        if e["query_id"] == target and e["kind"] in TERMINAL_KINDS
    ]
    assert terminal["kind"] == kind
    assert terminal.get("outcome") == outcome
    if kind == "query.rejected":
        assert set(terminal) - set(ENVELOPE_KEYS) == REJECTED_KEYS

    # Its counter moved by one; nothing else moved but what the
    # scenario's other tickets account for.
    expected = dict.fromkeys(OUTCOME_COUNTERS, 0)
    expected.update(others)
    expected[counter] += 1
    assert {c: getattr(stats, c) for c in OUTCOME_COUNTERS} == expected
    assert stats.reconciles()

    # Events == counters, for every terminal kind at once.
    kinds = count_by_kind(events)
    assert kinds.get("query.rejected", 0) == stats.rejected
    assert kinds.get("overload.shed", 0) == stats.shed
    assert kinds.get("overload.expired", 0) == stats.expired_in_queue
    ran = stats.completed + stats.failed + stats.cancelled
    assert kinds.get("query.finished", 0) == ran
    assert kinds.get("query.phases", 0) == stats.admitted
    assert validate_events(events) == len(events)

    # An admitted ticket: phases sum to the latency exactly (the fake
    # clock ticks in powers of two), one queue-wait sample each.
    assert stats.queue_wait_histogram["count"] == stats.admitted
    if ticket is not None:
        assert ticket.done and ticket.state != "running"
        assert sum(ticket.phases.durations.values()) == ticket.latency
        [phases] = [
            e for e in events
            if e["query_id"] == target and e["kind"] == "query.phases"
        ]
        assert phases["phases"] == ticket.phases.as_ms_dict()
        assert ticket.summary()["outcome"] == ticket.state


# -- the stats snapshot as data --------------------------------------------------

def _fixed_run(catalog) -> QueryService:
    """A deterministic run on the fake clock: one query alone, then one
    parked with one queued behind it and one refused, then the drain."""
    clock = FakeClock()
    gate = TickingGate(clock)
    service = QueryService(
        Database(catalog, faults=gate), workers=1, max_queue=1,
        clock=clock, phases=True,
    )
    try:
        service.submit(EMP_DEPT_QUERY, strategy="magic").result(timeout=30)
        gate.armed = True
        service.submit(EMP_DEPT_QUERY, strategy="magic")
        assert gate.started.wait(30)
        service.submit(EMP_DEPT_QUERY)
        with pytest.raises(AdmissionRejected):
            service.submit(EMP_DEPT_QUERY)
    finally:
        gate.release.set()
        service.close(drain=True, timeout=30)
    return service


def test_as_dict_is_every_field_and_round_trips(empdept_catalog):
    import json
    from dataclasses import fields

    from repro.serve.service import ServiceStats

    stats = _fixed_run(empdept_catalog).stats()
    data = stats.as_dict()
    assert set(data) == {f.name for f in fields(ServiceStats)}
    assert json.loads(json.dumps(data)) == json.loads(stats.export("json"))
    assert data["latency_histogram"]["buckets"]["0.5"] == 3
    assert data["breaker_transitions"] == []
    assert list(data["phase_histograms"]) == list(stats.phase_histograms)


def test_prometheus_text_is_byte_identical_to_the_parent(empdept_catalog):
    stats = _fixed_run(empdept_catalog).stats()
    assert stats.export("prometheus") == PARENT_PROMETHEUS


#: ``export("prometheus")`` of ``_fixed_run`` at the commit before the
#: service was reorganised around one policy and one settle function, plus
#: the ``optimize`` phase block: physical planning is a phase of every
#: compile since the pipeline became one function (it was booked to
#: ``execute`` before, and reported only under validation).
PARENT_PROMETHEUS = """\
# HELP repro_queries_submitted_total Queries submitted (admitted + rejected)
# TYPE repro_queries_submitted_total counter
repro_queries_submitted_total 4
# HELP repro_queries_admitted_total Queries admitted into the service
# TYPE repro_queries_admitted_total counter
repro_queries_admitted_total 3
# HELP repro_queries_rejected_total Submissions rejected by admission control
# TYPE repro_queries_rejected_total counter
repro_queries_rejected_total 1
# HELP repro_queries_rejected_with_hint_total Rejections carrying a retry_after_hint backoff estimate
# TYPE repro_queries_rejected_with_hint_total counter
repro_queries_rejected_with_hint_total 1
# HELP repro_queries_rejected_futile_total Rejections because the deadline was provably unmeetable
# TYPE repro_queries_rejected_futile_total counter
repro_queries_rejected_futile_total 0
# HELP repro_queries_completed_total Queries that produced a result
# TYPE repro_queries_completed_total counter
repro_queries_completed_total 3
# HELP repro_queries_failed_total Queries that raised a typed error
# TYPE repro_queries_failed_total counter
repro_queries_failed_total 0
# HELP repro_queries_cancelled_total Queries cancelled cooperatively
# TYPE repro_queries_cancelled_total counter
repro_queries_cancelled_total 0
# HELP repro_queries_shed_total Queued tickets shed to make room for higher-priority work
# TYPE repro_queries_shed_total counter
repro_queries_shed_total 0
# HELP repro_queries_expired_in_queue_total Queued tickets evicted because their deadline expired before a worker picked them up
# TYPE repro_queries_expired_in_queue_total counter
repro_queries_expired_in_queue_total 0
# HELP repro_slow_queries_total Queries over the slow-query threshold
# TYPE repro_slow_queries_total counter
repro_slow_queries_total 0
# HELP repro_plan_cache_hits_total Plan-cache lookups served from a cached rewritten plan
# TYPE repro_plan_cache_hits_total counter
repro_plan_cache_hits_total 0
# HELP repro_plan_cache_misses_total Plan-cache lookups that paid the full rewrite pipeline
# TYPE repro_plan_cache_misses_total counter
repro_plan_cache_misses_total 0
# HELP repro_plan_cache_invalidations_total Plan-cache entries dropped for a stale catalog generation
# TYPE repro_plan_cache_invalidations_total counter
repro_plan_cache_invalidations_total 0
# HELP repro_in_flight Queries executing right now
# TYPE repro_in_flight gauge
repro_in_flight 0
# HELP repro_queue_depth Queries waiting right now
# TYPE repro_queue_depth gauge
repro_queue_depth 0
# HELP repro_workers Worker pool size
# TYPE repro_workers gauge
repro_workers 1
# HELP repro_max_queue Wait-queue capacity
# TYPE repro_max_queue gauge
repro_max_queue 1
# HELP repro_brownout_level Current brownout ladder level (0 normal .. 3 cheapest strategy forced)
# TYPE repro_brownout_level gauge
repro_brownout_level 0
# HELP repro_query_latency_seconds Query latency from submission to completion
# TYPE repro_query_latency_seconds histogram
repro_query_latency_seconds_bucket{le="0.001"} 0
repro_query_latency_seconds_bucket{le="0.005"} 0
repro_query_latency_seconds_bucket{le="0.01"} 0
repro_query_latency_seconds_bucket{le="0.05"} 0
repro_query_latency_seconds_bucket{le="0.1"} 0
repro_query_latency_seconds_bucket{le="0.5"} 3
repro_query_latency_seconds_bucket{le="1.0"} 3
repro_query_latency_seconds_bucket{le="5.0"} 3
repro_query_latency_seconds_bucket{le="30.0"} 3
repro_query_latency_seconds_bucket{le="+Inf"} 3
repro_query_latency_seconds_sum 0.75
repro_query_latency_seconds_count 3
# HELP repro_queue_depth_at_admission Wait-queue depth sampled at each admission
# TYPE repro_queue_depth_at_admission histogram
repro_queue_depth_at_admission_bucket{le="0"} 3
repro_queue_depth_at_admission_bucket{le="1"} 3
repro_queue_depth_at_admission_bucket{le="2"} 3
repro_queue_depth_at_admission_bucket{le="4"} 3
repro_queue_depth_at_admission_bucket{le="8"} 3
repro_queue_depth_at_admission_bucket{le="16"} 3
repro_queue_depth_at_admission_bucket{le="32"} 3
repro_queue_depth_at_admission_bucket{le="64"} 3
repro_queue_depth_at_admission_bucket{le="+Inf"} 3
repro_queue_depth_at_admission_sum 0
repro_queue_depth_at_admission_count 3
# HELP repro_queue_wait_seconds Queue wait from admission to worker dequeue (or to shed/expiry for tickets that never ran)
# TYPE repro_queue_wait_seconds histogram
repro_queue_wait_seconds_bucket{le="0.001"} 2
repro_queue_wait_seconds_bucket{le="0.005"} 2
repro_queue_wait_seconds_bucket{le="0.01"} 2
repro_queue_wait_seconds_bucket{le="0.05"} 2
repro_queue_wait_seconds_bucket{le="0.1"} 2
repro_queue_wait_seconds_bucket{le="0.5"} 3
repro_queue_wait_seconds_bucket{le="1.0"} 3
repro_queue_wait_seconds_bucket{le="5.0"} 3
repro_queue_wait_seconds_bucket{le="30.0"} 3
repro_queue_wait_seconds_bucket{le="+Inf"} 3
repro_queue_wait_seconds_sum 0.125
repro_queue_wait_seconds_count 3
# HELP repro_phase_seconds Per-phase share of query latency (admit/queue/plan_cache/rewrite/optimize/execute/drain)
# TYPE repro_phase_seconds histogram
repro_phase_seconds_bucket{phase="admit",le="0.001"} 3
repro_phase_seconds_bucket{phase="admit",le="0.005"} 3
repro_phase_seconds_bucket{phase="admit",le="0.01"} 3
repro_phase_seconds_bucket{phase="admit",le="0.05"} 3
repro_phase_seconds_bucket{phase="admit",le="0.1"} 3
repro_phase_seconds_bucket{phase="admit",le="0.5"} 3
repro_phase_seconds_bucket{phase="admit",le="1.0"} 3
repro_phase_seconds_bucket{phase="admit",le="5.0"} 3
repro_phase_seconds_bucket{phase="admit",le="30.0"} 3
repro_phase_seconds_bucket{phase="admit",le="+Inf"} 3
repro_phase_seconds_sum{phase="admit"} 0.0
repro_phase_seconds_count{phase="admit"} 3
repro_phase_seconds_bucket{phase="queue",le="0.001"} 2
repro_phase_seconds_bucket{phase="queue",le="0.005"} 2
repro_phase_seconds_bucket{phase="queue",le="0.01"} 2
repro_phase_seconds_bucket{phase="queue",le="0.05"} 2
repro_phase_seconds_bucket{phase="queue",le="0.1"} 2
repro_phase_seconds_bucket{phase="queue",le="0.5"} 3
repro_phase_seconds_bucket{phase="queue",le="1.0"} 3
repro_phase_seconds_bucket{phase="queue",le="5.0"} 3
repro_phase_seconds_bucket{phase="queue",le="30.0"} 3
repro_phase_seconds_bucket{phase="queue",le="+Inf"} 3
repro_phase_seconds_sum{phase="queue"} 0.125
repro_phase_seconds_count{phase="queue"} 3
repro_phase_seconds_bucket{phase="rewrite",le="0.001"} 3
repro_phase_seconds_bucket{phase="rewrite",le="0.005"} 3
repro_phase_seconds_bucket{phase="rewrite",le="0.01"} 3
repro_phase_seconds_bucket{phase="rewrite",le="0.05"} 3
repro_phase_seconds_bucket{phase="rewrite",le="0.1"} 3
repro_phase_seconds_bucket{phase="rewrite",le="0.5"} 3
repro_phase_seconds_bucket{phase="rewrite",le="1.0"} 3
repro_phase_seconds_bucket{phase="rewrite",le="5.0"} 3
repro_phase_seconds_bucket{phase="rewrite",le="30.0"} 3
repro_phase_seconds_bucket{phase="rewrite",le="+Inf"} 3
repro_phase_seconds_sum{phase="rewrite"} 0.0
repro_phase_seconds_count{phase="rewrite"} 3
repro_phase_seconds_bucket{phase="optimize",le="0.001"} 3
repro_phase_seconds_bucket{phase="optimize",le="0.005"} 3
repro_phase_seconds_bucket{phase="optimize",le="0.01"} 3
repro_phase_seconds_bucket{phase="optimize",le="0.05"} 3
repro_phase_seconds_bucket{phase="optimize",le="0.1"} 3
repro_phase_seconds_bucket{phase="optimize",le="0.5"} 3
repro_phase_seconds_bucket{phase="optimize",le="1.0"} 3
repro_phase_seconds_bucket{phase="optimize",le="5.0"} 3
repro_phase_seconds_bucket{phase="optimize",le="30.0"} 3
repro_phase_seconds_bucket{phase="optimize",le="+Inf"} 3
repro_phase_seconds_sum{phase="optimize"} 0.0
repro_phase_seconds_count{phase="optimize"} 3
repro_phase_seconds_bucket{phase="execute",le="0.001"} 0
repro_phase_seconds_bucket{phase="execute",le="0.005"} 0
repro_phase_seconds_bucket{phase="execute",le="0.01"} 0
repro_phase_seconds_bucket{phase="execute",le="0.05"} 0
repro_phase_seconds_bucket{phase="execute",le="0.1"} 0
repro_phase_seconds_bucket{phase="execute",le="0.5"} 3
repro_phase_seconds_bucket{phase="execute",le="1.0"} 3
repro_phase_seconds_bucket{phase="execute",le="5.0"} 3
repro_phase_seconds_bucket{phase="execute",le="30.0"} 3
repro_phase_seconds_bucket{phase="execute",le="+Inf"} 3
repro_phase_seconds_sum{phase="execute"} 0.625
repro_phase_seconds_count{phase="execute"} 3
repro_phase_seconds_bucket{phase="drain",le="0.001"} 3
repro_phase_seconds_bucket{phase="drain",le="0.005"} 3
repro_phase_seconds_bucket{phase="drain",le="0.01"} 3
repro_phase_seconds_bucket{phase="drain",le="0.05"} 3
repro_phase_seconds_bucket{phase="drain",le="0.1"} 3
repro_phase_seconds_bucket{phase="drain",le="0.5"} 3
repro_phase_seconds_bucket{phase="drain",le="1.0"} 3
repro_phase_seconds_bucket{phase="drain",le="5.0"} 3
repro_phase_seconds_bucket{phase="drain",le="30.0"} 3
repro_phase_seconds_bucket{phase="drain",le="+Inf"} 3
repro_phase_seconds_sum{phase="drain"} 0.0
repro_phase_seconds_count{phase="drain"} 3
# HELP repro_breaker_open Circuit breaker state (1 open, 0 closed/half-open)
# TYPE repro_breaker_open gauge
repro_breaker_open{strategy="magic"} 0
repro_breaker_open{strategy="ni"} 0
"""
