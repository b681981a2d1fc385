"""Adaptive overload control: estimator, brownout, service.

The unit half exercises the primitives in ``repro.serve.overload`` on
explicit fake clocks; the integration half drives a real
:class:`~repro.serve.QueryService` with gated workers and a settable
clock, so every overload decision (eager expiry, priority shedding,
futility rejection, the brownout ladder and the ``retry_after_hint``
arithmetic) is observed through public behaviour.
"""

import dataclasses
import threading

import pytest

from repro import Database, FaultRegistry, Limits, QueryService
from repro.errors import AdmissionRejected, BudgetExceeded, QueryShed
from repro.guard import ExecutionGuard
from repro.obs import EventLog, RingSink
from repro.serve.overload import (
    BROWNOUT_RUNGS,
    BrownoutController,
    OverloadConfig,
    ServiceTimeEstimator,
    fingerprint,
    normalize_sql,
    priority_rank,
)
from repro.tpcd import EMP_DEPT_QUERY

#: EMP/DEPT reference answer (see tests/conftest.py for the data).
EXPECTED = [("d_low",), ("research",), ("sales",)]


# -- fakes and gates ----------------------------------------------------------

class SettableClock:
    """A fake monotonic clock advanced only by explicit ``advance``
    calls -- time passes exactly when the test says it does."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


class Gate(FaultRegistry):
    """Parks the executing query inside its first table scan until
    released (same shape as the service suite's gate)."""

    def __init__(self):
        super().__init__(0, ())
        self.started = threading.Event()
        self.release = threading.Event()

    def trigger(self, site: str, detail: str = "") -> None:
        if site == "storage.scan":
            self.started.set()
            assert self.release.wait(30), "gate never released"


class ScanGate(FaultRegistry):
    """Parks the worker at *every* ``storage.scan`` while armed.

    The test releases scans one handshake at a time and advances the
    fake clock while the worker is parked, so each query's measured
    execution time is an exact, chosen number of fake seconds.
    """

    def __init__(self):
        super().__init__(0, ())
        self.armed = False
        self.parked = threading.Semaphore(0)
        self.proceed = threading.Semaphore(0)

    def trigger(self, site: str, detail: str = "") -> None:
        if site == "storage.scan" and self.armed:
            self.parked.release()
            assert self.proceed.acquire(timeout=30), "gate never released"


class ScanCounter(FaultRegistry):
    """Counts ``storage.scan`` passes (to learn how many handshakes one
    query costs a :class:`ScanGate`)."""

    def __init__(self):
        super().__init__(0, ())
        self.scans = 0

    def trigger(self, site: str, detail: str = "") -> None:
        if site == "storage.scan":
            self.scans += 1


def count_scans(catalog, strategy: str) -> int:
    counter = ScanCounter()
    db = Database(catalog, faults=counter)
    db.execute(EMP_DEPT_QUERY, strategy=strategy)
    assert counter.scans > 0
    return counter.scans


def run_through(gate: ScanGate, clock: SettableClock, n_scans: int,
                seconds: float) -> None:
    """Walk one parked query through all its scans, advancing the fake
    clock by ``seconds`` while it sits in the first one."""
    assert gate.parked.acquire(timeout=30)
    clock.advance(seconds)
    gate.proceed.release()
    for _ in range(n_scans - 1):
        assert gate.parked.acquire(timeout=30)
        gate.proceed.release()


# -- unit: fingerprints and priorities ---------------------------------------

class TestFingerprint:
    def test_literals_and_whitespace_do_not_change_the_shape(self):
        a = "SELECT name FROM dept WHERE num_emps > 10"
        b = "select  name\n from dept where num_emps >   999"
        assert normalize_sql(a) == normalize_sql(b)
        assert fingerprint(a) == fingerprint(b)

    def test_string_literals_are_stripped(self):
        a = "SELECT * FROM emp WHERE building = 'b1'"
        b = "SELECT * FROM emp WHERE building = 'it''s'"
        assert fingerprint(a) == fingerprint(b)

    def test_different_shapes_differ(self):
        assert fingerprint("SELECT a FROM t") != fingerprint(
            "SELECT b FROM t"
        )

    def test_identifiers_keep_their_digits(self):
        # ``t2`` is an identifier, not a literal: it must survive.
        assert "t2" in normalize_sql("SELECT a FROM t2")

    def test_priority_rank(self):
        assert priority_rank("high") == 0
        assert priority_rank("normal") == 1
        assert priority_rank("low") == 2
        with pytest.raises(ValueError):
            priority_rank("urgent")


# -- unit: service-time estimator --------------------------------------------

def small_estimator(max_shapes: int) -> ServiceTimeEstimator:
    """An estimator whose LRU tables hold only ``max_shapes`` entries."""
    est = ServiceTimeEstimator()
    est.MAX_SHAPES = max_shapes
    return est


class TestEstimator:
    def test_cold_estimator_offers_nothing(self):
        est = ServiceTimeEstimator()
        assert est.estimate("fp", "magic") is None
        assert est.global_mean() is None
        assert est.cheapest("fp", ("magic", "ni")) is None

    def test_lookup_chain_key_then_shape_then_global(self):
        est = ServiceTimeEstimator()
        est.observe("fp1", "magic", 1.0)
        assert est.estimate("fp1", "magic") == 1.0     # exact key
        assert est.estimate("fp1", "dayal") == 1.0     # shape aggregate
        assert est.estimate("other", "magic") == 1.0   # global mean

    def test_ema_smoothing(self):
        est = ServiceTimeEstimator()
        est.observe("fp", "magic", 1.0)
        est.observe("fp", "magic", 3.0)
        assert est.estimate("fp", "magic") == pytest.approx(0.2 * 3.0 + 0.8 * 1.0)

    def test_cheapest_requires_evidence_per_candidate(self):
        est = ServiceTimeEstimator()
        est.observe("fp", "ni", 2.0)
        est.observe("fp", "magic", 0.1)
        assert est.cheapest("fp", ("ni", "magic", "dayal")) == "magic"
        # No candidate with history -> no forced guess.
        assert est.cheapest("fp", ("dayal", "kim")) is None

    def test_lru_bound_on_shapes(self):
        est = small_estimator(2)
        for i in range(5):
            est.observe(f"fp{i}", "magic", 1.0)
        assert len(est._by_key) == 2
        assert len(est._by_shape) == 2
        assert est.as_dict()["observations"] == 5

    def test_reads_refresh_recency_under_churn(self):
        """Regression: a hot shape that is only ever *read* (admission
        checks it every arrival) must survive a flood of one-off shapes
        that are merely observed -- ``estimate()`` hits refresh LRU
        recency on both the key and shape tiers."""
        est = small_estimator(4)
        est.observe("hot", "magic", 1.0)
        for i in range(50):
            assert est.estimate("hot", "magic") == 1.0   # key-tier read
            assert est.estimate("hot", "dayal") == 1.0   # shape-tier read
            est.observe(f"cold{i}", "ni", 2.0)
        assert ("hot", "magic") in est._by_key
        assert "hot" in est._by_shape

    def test_cheapest_refreshes_consulted_keys_under_churn(self):
        """Regression: the brownout ladder consults ``cheapest()`` for
        the same hot shape on every forced dequeue; the consulted keys
        must not be evicted by churn between consultations."""
        est = small_estimator(3)
        est.observe("hot", "magic", 0.1)
        est.observe("hot", "ni", 0.5)
        for i in range(20):
            assert est.cheapest("hot", ("magic", "ni")) == "magic"
            est.observe(f"cold{i}", "dayal", 1.0)
        assert ("hot", "magic") in est._by_key
        assert ("hot", "ni") in est._by_key

    def test_validation(self):
        est = ServiceTimeEstimator()
        est.observe("fp", "magic", -1.0)  # ignored, not folded in
        assert est.global_mean() is None


# -- unit: the brownout ladder -------------------------------------------------

class TestBrownoutController:
    def test_steps_down_after_dwell_one_level_at_a_time(self):
        ctl = BrownoutController(dwell_s=1.0, cooldown_s=1.0)
        assert ctl.observe(0.9, now=0.0) is None      # dwell starts
        assert ctl.observe(0.9, now=0.5) is None      # still dwelling
        assert ctl.observe(0.9, now=1.0) == (0, 1)
        # Re-dwell before the next rung: no immediate second step.
        assert ctl.observe(0.9, now=1.5) is None
        assert ctl.observe(0.9, now=2.0) == (1, 2)
        assert ctl.observe(0.9, now=3.0) == (2, 3)
        assert ctl.observe(0.9, now=10.0) is None     # max level holds
        assert ctl.level == 3

    def test_between_watermarks_resets_both_timers(self):
        ctl = BrownoutController(dwell_s=1.0)
        ctl.observe(0.9, now=0.0)
        ctl.observe(0.6, now=0.5)      # back between the watermarks
        assert ctl.observe(0.9, now=1.2) is None  # dwell restarted
        assert ctl.observe(0.9, now=2.2) == (0, 1)

    def test_recovery_needs_sustained_low_utilization(self):
        ctl = BrownoutController(dwell_s=0.0, cooldown_s=2.0)
        ctl.observe(1.0, now=0.0)              # -> level 1
        assert ctl.level == 1
        assert ctl.observe(0.1, now=1.0) is None   # cooling
        assert ctl.observe(0.1, now=3.0) == (1, 0)
        assert ctl.level == 0

    def test_oscillation_around_one_watermark_never_flaps(self):
        ctl = BrownoutController(dwell_s=1.0, cooldown_s=1.0)
        ctl.observe(0.9, now=0.0)
        ctl.observe(0.9, now=1.0)
        assert ctl.level == 1
        # Utilization hovers just under the high watermark: the level
        # must hold (no step down, and no recovery either).
        for i in range(20):
            assert ctl.observe(0.7, now=2.0 + i) is None
        assert ctl.level == 1

    def test_max_level_zero_disables_stepping(self):
        ctl = BrownoutController(dwell_s=0.0, max_level=0)
        assert ctl.observe(5.0, now=0.0) is None
        assert ctl.level == 0

    def test_rung_properties(self):
        ctl = BrownoutController()
        ctl.level = 1
        assert not ctl.tightening_budgets
        ctl.level = 2
        assert ctl.tightening_budgets and not ctl.forcing_cheapest
        ctl.level = 3
        assert ctl.forcing_cheapest

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutController(dwell_s=-1)
        with pytest.raises(ValueError):
            BrownoutController(max_level=len(BROWNOUT_RUNGS))


class TestOverloadConfig:
    def test_quota_rounds_up_and_unlisted_classes_are_free(self):
        config = OverloadConfig()
        assert config.quota_for("low", 3) == 2       # ceil(1.5)
        assert config.quota_for("normal", 10) == 9
        assert config.quota_for("high", 10) is None

    def test_only_the_four_tuned_knobs_are_configurable(self):
        # Deadline admission, eager expiry and priority shedding are
        # always on; the watermarks, budget scale and estimator smoothing
        # are constants of the classes that read them.
        assert [f.name for f in dataclasses.fields(OverloadConfig)] == [
            "class_quotas", "brownout_dwell_s", "brownout_cooldown_s",
            "brownout_max_level",
        ]


class TestGuardDeadline:
    def test_expired_predicate_matches_the_check_comparison(self):
        clock = SettableClock()
        guard = ExecutionGuard(Limits(timeout=1.0), clock=clock)
        assert guard.deadline == pytest.approx(1.0)
        assert not guard.expired()
        clock.advance(0.99)
        assert not guard.expired()
        clock.advance(0.02)
        assert guard.expired()

    def test_no_timeout_never_expires(self):
        guard = ExecutionGuard(Limits(), clock=SettableClock())
        assert guard.deadline is None
        assert not guard.expired()


# -- integration: the service under overload control ---------------------------

@pytest.fixture
def gate() -> Gate:
    return Gate()


@pytest.fixture
def gated_db(empdept_catalog, gate) -> Database:
    return Database(empdept_catalog, faults=gate)


#: Overload control with the adaptive *reactions* most tests don't want
#: (brownout, class quotas) switched off, so each test isolates one
#: mechanism.
PLAIN = OverloadConfig(brownout_max_level=0, class_quotas={})


class TestEagerExpiry:
    def test_expired_queued_ticket_frees_the_slot_without_a_worker(
        self, gated_db, gate
    ):
        sink = RingSink(capacity=16384)
        service = QueryService(
            gated_db, workers=1, max_queue=4, overload=PLAIN,
            events=EventLog(sink),
        )
        try:
            service.submit(EMP_DEPT_QUERY)       # wedges the only worker
            assert gate.started.wait(30)
            doomed = service.submit(EMP_DEPT_QUERY, deadline=0.0)
            assert service.evaluate_overload() == 0  # sweeps the queue
            assert doomed.done
            assert doomed.state == "expired"
            assert doomed.started_at is None     # no worker ever ran it
            with pytest.raises(BudgetExceeded) as info:
                doomed.result(timeout=1)
            assert info.value.budget == "timeout"
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.expired_in_queue == 1
        assert stats.completed == 1
        assert stats.failed == 0                 # distinct outcome
        assert stats.reconciles()
        expired = [
            e for e in sink.events() if e["kind"] == "overload.expired"
        ]
        assert [e["query_id"] for e in expired] == [doomed.query_id]

    def test_seed_behaviour_unchanged_without_overload(
        self, gated_db, gate
    ):
        # Same scenario, overload off: the expired ticket waits for a
        # worker and resolves as a plain failure.
        service = QueryService(gated_db, workers=1, max_queue=4)
        try:
            service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)
            doomed = service.submit(EMP_DEPT_QUERY, deadline=0.0)
            assert not doomed.done
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.expired_in_queue == 0
        assert stats.failed == 1
        assert stats.reconciles()


class TestPriorityScheduling:
    def test_high_priority_sheds_the_newest_low_ticket(
        self, gated_db, gate
    ):
        sink = RingSink(capacity=16384)
        service = QueryService(
            gated_db, workers=1, max_queue=2, overload=PLAIN,
            events=EventLog(sink),
        )
        try:
            service.submit(EMP_DEPT_QUERY)       # wedges the only worker
            assert gate.started.wait(30)
            low_old = service.submit(EMP_DEPT_QUERY, priority="low")
            low_new = service.submit(EMP_DEPT_QUERY, priority="low")
            urgent = service.submit(EMP_DEPT_QUERY, priority="high")
            # The newest lowest-priority ticket was shed, not the oldest.
            assert low_new.done and not low_old.done
            assert low_new.state == "shed"
            with pytest.raises(QueryShed) as info:
                low_new.result(timeout=1)
            assert info.value.priority == "low"
            gate.release.set()
            assert sorted(urgent.result(timeout=30).rows) == EXPECTED
            assert sorted(low_old.result(timeout=30).rows) == EXPECTED
            # Priority order: the high ticket ran before the older low.
            assert urgent.started_at < low_old.started_at
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.shed == 1
        assert stats.completed == 3
        assert stats.reconciles()
        shed_events = [
            e for e in sink.events() if e["kind"] == "overload.shed"
        ]
        assert [e["query_id"] for e in shed_events] == [low_new.query_id]
        assert shed_events[0]["priority"] == "low"

    def test_equal_priority_never_sheds(self, gated_db, gate):
        service = QueryService(
            gated_db, workers=1, max_queue=1, overload=PLAIN
        )
        try:
            service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)
            service.submit(EMP_DEPT_QUERY, priority="normal")
            with pytest.raises(AdmissionRejected) as info:
                service.submit(EMP_DEPT_QUERY, priority="normal")
            assert info.value.reason == "queue full"
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        assert service.stats().shed == 0
        assert service.stats().reconciles()

    def test_class_quota_caps_low_priority_queue_share(
        self, gated_db, gate
    ):
        # max_queue=4 with the default low quota 0.5 -> at most 2 queued
        # low tickets while the service is contended.
        service = QueryService(
            gated_db, workers=1, max_queue=4,
            overload=OverloadConfig(brownout_max_level=0),
        )
        try:
            service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)
            service.submit(EMP_DEPT_QUERY, priority="low")
            service.submit(EMP_DEPT_QUERY, priority="low")
            with pytest.raises(AdmissionRejected) as info:
                service.submit(EMP_DEPT_QUERY, priority="low")
            assert info.value.reason == "class quota"
            # The classes above are untouched by the low quota.
            service.submit(EMP_DEPT_QUERY, priority="normal")
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.rejected == 1
        assert stats.completed == 4
        assert stats.reconciles()

    def test_unknown_priority_rejected_before_any_counter_moves(self, db):
        with QueryService(db, workers=1, overload=PLAIN) as service:
            with pytest.raises(ValueError):
                service.submit(EMP_DEPT_QUERY, priority="urgent")
        assert service.stats().submitted == 0


class TestDeadlineAwareAdmission:
    def test_futile_submission_rejected_when_contended(
        self, empdept_catalog
    ):
        clock = SettableClock()
        gate = ScanGate()
        db = Database(empdept_catalog, faults=gate)
        n_scans = count_scans(empdept_catalog, "ni")
        service = QueryService(
            db, workers=1, max_queue=4, overload=PLAIN, clock=clock
        )
        try:
            gate.armed = True
            # Warm the estimator: one completion at exactly 1.0 fake
            # seconds of execution.
            warm = service.submit(EMP_DEPT_QUERY)
            run_through(gate, clock, n_scans, seconds=1.0)
            assert sorted(warm.result(timeout=30).rows) == EXPECTED
            # Jam the worker, then queue one ticket behind it.
            service.submit(EMP_DEPT_QUERY)
            assert gate.parked.acquire(timeout=30)
            service.submit(EMP_DEPT_QUERY)
            # This deadline cannot cover ~1s of queue wait plus ~1s of
            # its own execution: rejected, with the predicted wait as
            # the retry hint.
            with pytest.raises(AdmissionRejected) as info:
                service.submit(EMP_DEPT_QUERY, deadline=0.1)
            assert info.value.reason == "deadline unmeetable"
            assert info.value.retry_after_hint > 0
            # A *meetable* deadline at the same depth is admitted.
            ok = service.submit(EMP_DEPT_QUERY, deadline=60.0)
            gate.proceed.release()
            for _ in range(n_scans - 1):
                assert gate.parked.acquire(timeout=30)
                gate.proceed.release()
            run_through(gate, clock, n_scans, seconds=1.0)
            run_through(gate, clock, n_scans, seconds=1.0)
            assert sorted(ok.result(timeout=30).rows) == EXPECTED
        finally:
            gate.armed = False
            gate.proceed.release()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.rejected_futile == 1
        assert stats.reconciles()

    def test_idle_workers_execute_even_doomed_queries(self, db):
        # Futility rejection only pays under contention: with an idle
        # worker the service runs the query and lets the guard decide.
        with QueryService(db, workers=2, overload=PLAIN) as service:
            service.submit(EMP_DEPT_QUERY).result(timeout=30)  # warm
            ticket = service.submit(EMP_DEPT_QUERY, deadline=0.0)
            ticket.wait(30)
        stats = service.stats()
        assert stats.rejected_futile == 0
        assert stats.reconciles()


class TestRetryHintAccuracy:
    def test_hint_tracks_the_actual_drain_time_on_a_stepped_clock(
        self, empdept_catalog
    ):
        """The satellite contract: a rejection's ``retry_after_hint``
        must be within a factor of two of the *actual* time it took the
        backlog present at rejection to drain -- measured on the same
        fake clock the estimator learned from (1.0 s per execution,
        stepped while the worker is parked mid-scan)."""
        clock = SettableClock()
        gate = ScanGate()
        db = Database(empdept_catalog, faults=gate)
        n_scans = count_scans(empdept_catalog, "ni")
        service = QueryService(
            db, workers=1, max_queue=2, overload=PLAIN, clock=clock
        )
        try:
            gate.armed = True
            for _ in range(2):  # warm: EMA settles at exactly 1.0 s
                warm = service.submit(EMP_DEPT_QUERY)
                run_through(gate, clock, n_scans, seconds=1.0)
                warm.result(timeout=30)
            # Backlog at rejection: one running (parked at its first
            # scan) + two queued, all the same 1.0 s shape.
            running = service.submit(EMP_DEPT_QUERY)
            assert gate.parked.acquire(timeout=30)
            queued = [service.submit(EMP_DEPT_QUERY) for _ in range(2)]
            rejected_at = clock.now
            with pytest.raises(AdmissionRejected) as info:
                service.submit(EMP_DEPT_QUERY)
            hint = info.value.retry_after_hint
            assert hint is not None and hint > 0
            # Drain on the fake clock: 1.0 s each for the running query
            # and the two queued ones.
            clock.advance(1.0)
            gate.proceed.release()
            for _ in range(n_scans - 1):
                assert gate.parked.acquire(timeout=30)
                gate.proceed.release()
            for ticket in queued:
                run_through(gate, clock, n_scans, seconds=1.0)
            running.result(timeout=30)
            for ticket in queued:
                ticket.result(timeout=30)
            actual_wait = clock.now - rejected_at
            assert actual_wait == pytest.approx(3.0)
            # The hint is (queued estimates + half the running query +
            # one mean) / workers = (1 + 1 + 0.5 + 1) / 1 = 3.5 -- on
            # the right order of magnitude, never off by 2x.
            assert hint == pytest.approx(3.5)
            assert actual_wait / 2 <= hint <= actual_wait * 2
        finally:
            gate.armed = False
            gate.proceed.release()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.rejected_with_hint == 1
        assert stats.reconciles()


class TestBrownoutLadderIntegration:
    def test_ladder_walks_down_under_pressure_and_back_up(
        self, gated_db, gate
    ):
        sink = RingSink(capacity=16384)
        config = OverloadConfig(brownout_dwell_s=0.0, brownout_cooldown_s=0.0)
        service = QueryService(
            gated_db, workers=1, max_queue=8, overload=config,
            trace=True, events=EventLog(sink),
        )
        try:
            # Each submission is a pressure observation; with zero dwell
            # the ladder steps one rung per saturated sample.
            service.submit(EMP_DEPT_QUERY)       # util 1.0 -> level 1
            assert gate.started.wait(30)
            service.submit(EMP_DEPT_QUERY)       # util 2.0 -> level 2
            tightened = service.submit(          # util 3.0 -> level 3
                EMP_DEPT_QUERY, limits=Limits(max_rows_scanned=100),
            )
            # Level 2+ halves the row budgets of newly admitted work;
            # the deadline contract is never touched.
            assert tightened.guard.limits.max_rows_scanned == 50
            assert service.stats().brownout_level == 3
            # Level 3 vetoes everything but the cheapest strategy (the
            # default "magic" while the estimator has no evidence).
            forced = service.submit(EMP_DEPT_QUERY, strategy="dayal")
            gate.release.set()
            result = forced.result(timeout=30)
            assert sorted(result.rows) == EXPECTED
            assert any(
                "forcing cheapest" in (event.message or "")
                for event in result.degradations
            )
            service.drain(timeout=30)
            # Recovery, one rung per cooled observation -- never a jump
            # straight back to normal.
            assert service.evaluate_overload() == 2
            assert service.evaluate_overload() == 1
            assert service.evaluate_overload() == 0
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        transitions = stats.brownout_transitions
        assert [(t["from"], t["to"]) for t in transitions] == [
            (0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)
        ]
        assert transitions[0]["rung"] == BROWNOUT_RUNGS[1]
        assert transitions[0]["direction"] == "down"
        assert transitions[-1]["direction"] == "up"
        assert [
            (e["from"], e["to"]) for e in sink.events()
            if e["kind"] == "overload.brownout"
        ] == [(t["from"], t["to"]) for t in transitions]
        # Rung 1 shed observability: every query here was dequeued at
        # level >= 1, so nothing was traced despite trace=True.
        assert stats.recent_traces == []
        assert stats.reconciles()

    def test_brownout_veto_does_not_poison_breakers(
        self, gated_db, gate
    ):
        config = OverloadConfig(brownout_dwell_s=0.0, brownout_cooldown_s=0.0)
        service = QueryService(
            gated_db, workers=1, max_queue=8, overload=config
        )
        try:
            service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)
            for _ in range(3):                   # drive to level 3
                service.submit(EMP_DEPT_QUERY)
            vetoed = [
                service.submit(EMP_DEPT_QUERY, strategy="dayal")
                for _ in range(5)
            ]
            gate.release.set()
            for ticket in vetoed:
                ticket.result(timeout=30)
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        # Five consecutive vetoes of "dayal" must not have opened its
        # breaker: a brownout veto is not a strategy failure. (The veto
        # consults no breaker, so "dayal" has one only if the estimator
        # happened to price it cheapest for some ticket -- a matter of
        # timings, not of this test.)
        dayal = service.stats().breakers.get("dayal", {"state": "closed"})
        assert dayal["state"] == "closed"
        assert service.stats().reconciles()


class TestOverloadStatsExport:
    @pytest.fixture
    def stats_after_mixed_outcomes(self, gated_db, gate):
        service = QueryService(
            gated_db, workers=1, max_queue=2, overload=PLAIN
        )
        try:
            service.submit(EMP_DEPT_QUERY)
            assert gate.started.wait(30)
            service.submit(EMP_DEPT_QUERY, deadline=0.0)  # will expire
            service.evaluate_overload()
            service.submit(EMP_DEPT_QUERY, priority="low")
            service.submit(EMP_DEPT_QUERY, priority="low")
            service.submit(EMP_DEPT_QUERY, priority="high")  # sheds a low
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        return service.stats()

    def test_json_export_carries_the_overload_counters(
        self, stats_after_mixed_outcomes
    ):
        import json

        payload = json.loads(stats_after_mixed_outcomes.export("json"))
        assert payload["expired_in_queue"] == 1
        assert payload["shed"] == 1
        assert payload["brownout_level"] == 0
        assert payload["overload"]["estimator"]["observations"] >= 1
        assert payload["queue_wait_histogram"]["count"] >= 1

    def test_prometheus_export_carries_the_overload_counters(
        self, stats_after_mixed_outcomes
    ):
        text = stats_after_mixed_outcomes.export("prometheus")
        assert "# TYPE repro_queries_shed_total counter" in text
        assert "repro_queries_shed_total 1" in text
        assert "repro_queries_expired_in_queue_total 1" in text
        assert "# HELP repro_queries_rejected_futile_total" in text
        assert "# TYPE repro_brownout_level gauge" in text
        assert (
            "# HELP repro_queue_wait_seconds "
            "Queue wait from admission to worker dequeue"
        ) in text
        assert "# TYPE repro_queue_wait_seconds histogram" in text
        assert "repro_queue_wait_seconds_count" in text

    def test_conservation_law_with_overload_outcomes(
        self, stats_after_mixed_outcomes
    ):
        stats = stats_after_mixed_outcomes
        assert stats.admitted == (
            stats.completed + stats.failed + stats.cancelled
            + stats.shed + stats.expired_in_queue
        )
        assert stats.reconciles()


class TestQueueWaitSamplingCoverage:
    """Regression (PR 10): shed and expired-in-queue tickets -- the
    *longest* waiters -- must reach the queue-wait histogram too.
    Sampling only on the dequeue-to-run path biased the exported wait
    low exactly when the queue was pathological."""

    def test_every_admitted_ticket_is_sampled_exactly_once(
        self, gated_db, gate
    ):
        service = QueryService(
            gated_db, workers=1, max_queue=2, overload=PLAIN
        )
        try:
            service.submit(EMP_DEPT_QUERY)       # runs (wedges the worker)
            assert gate.started.wait(30)
            doomed = service.submit(EMP_DEPT_QUERY, deadline=0.0)
            service.evaluate_overload()          # expires doomed in queue
            service.submit(EMP_DEPT_QUERY, priority="low")
            low_new = service.submit(EMP_DEPT_QUERY, priority="low")
            service.submit(EMP_DEPT_QUERY, priority="high")  # sheds low_new
            assert doomed.state == "expired"
            assert low_new.state == "shed"
        finally:
            gate.release.set()
            service.close(drain=True, timeout=30)
        stats = service.stats()
        assert stats.shed == 1 and stats.expired_in_queue == 1
        hist = stats.queue_wait_histogram
        # One sample per *admitted* ticket -- the three that reached a
        # worker AND the two evicted from the queue, not just the runners.
        assert stats.admitted == 5
        assert hist["count"] == stats.admitted
