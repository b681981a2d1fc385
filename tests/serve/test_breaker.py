"""Circuit breaker: unit state machine + service-level open/recover."""

import pytest

from repro import Database, FaultRegistry, QueryService
from repro.errors import (
    BindError,
    BudgetExceeded,
    CatalogError,
    ExecutionError,
    FaultInjectedError,
    ParseError,
    QueryCancelled,
)
from repro.rewrite.engine import DegradationEvent
from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    VETOED,
    BreakerBoard,
    CircuitBreaker,
)
from repro.tpcd import EMP_DEPT_QUERY, QUERY_3, load_tpcd

from .test_service import EXPECTED, JoinFault


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def breaker(clock) -> CircuitBreaker:
    return CircuitBreaker("kim", threshold=3, cooldown=10.0, clock=clock)


class TestStateMachine:
    def test_starts_closed_and_passes(self, breaker):
        assert breaker.state == CLOSED
        assert breaker.try_pass() == (None, False)

    def test_failures_below_threshold_stay_closed(self, breaker):
        breaker.record_failure("boom")
        breaker.record_failure("boom")
        assert breaker.state == CLOSED
        assert breaker.try_pass() == (None, False)

    def test_success_resets_the_consecutive_count(self, breaker):
        breaker.record_failure("boom")
        breaker.record_failure("boom")
        breaker.record_success()
        breaker.record_failure("boom")
        breaker.record_failure("boom")
        assert breaker.state == CLOSED

    def test_opens_at_threshold(self, breaker):
        for _ in range(3):
            breaker.record_failure("boom")
        assert breaker.state == OPEN
        reason, probe = breaker.try_pass()
        assert reason is not None and "kim" in reason
        assert not probe

    def test_half_open_after_cooldown_claims_single_probe(
        self, breaker, clock
    ):
        for _ in range(3):
            breaker.record_failure("boom")
        clock.advance(10.0)
        reason, probe = breaker.try_pass()
        assert reason is None and probe
        assert breaker.state == HALF_OPEN
        # Only one probe at a time: a second caller is still blocked.
        reason, probe = breaker.try_pass()
        assert reason is not None and not probe

    def test_probe_success_closes(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure("boom")
        clock.advance(10.0)
        assert breaker.try_pass() == (None, True)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.try_pass() == (None, False)

    def test_probe_failure_reopens_and_restarts_cooldown(
        self, breaker, clock
    ):
        for _ in range(3):
            breaker.record_failure("boom")
        clock.advance(10.0)
        assert breaker.try_pass() == (None, True)
        breaker.record_failure("still broken")
        assert breaker.state == OPEN
        clock.advance(5.0)  # half the cooldown: still blocked
        reason, probe = breaker.try_pass()
        assert reason is not None and not probe
        clock.advance(5.0)
        assert breaker.try_pass() == (None, True)

    def test_released_probe_frees_the_slot(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure("boom")
        clock.advance(10.0)
        assert breaker.try_pass() == (None, True)
        breaker.release_probe()
        assert breaker.state == HALF_OPEN
        assert breaker.try_pass() == (None, True)

    def test_transitions_are_reported(self, clock):
        seen = []
        breaker = CircuitBreaker(
            "kim", threshold=1, cooldown=1.0, clock=clock,
            on_transition=seen.append,
        )
        breaker.record_failure("boom")
        clock.advance(1.0)
        breaker.try_pass()
        breaker.record_success()
        assert [(t.from_state, t.to_state) for t in seen] == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        assert all(t.strategy == "kim" for t in seen)

    def test_snapshot(self, breaker):
        breaker.record_failure("boom")
        snap = breaker.snapshot()
        assert breaker.strategy == "kim"
        assert snap["state"] == "closed"
        assert snap["consecutive_failures"] == 1


class TestHalfOpenConcurrency:
    """Submitters racing a cooldown-elapsed breaker: the single-probe
    invariant must hold under real thread interleavings, not just the
    sequential state-machine tests above."""

    N_RACERS = 16

    def _race(self, breaker):
        import threading

        barrier = threading.Barrier(self.N_RACERS)
        lock = threading.Lock()
        outcomes = []

        def racer():
            barrier.wait()
            reason, probe = breaker.try_pass()
            with lock:
                outcomes.append((reason, probe))

        threads = [
            threading.Thread(target=racer) for _ in range(self.N_RACERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return outcomes

    def test_exactly_one_racer_wins_the_probe(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure("boom")
        clock.advance(10.0)
        outcomes = self._race(breaker)
        winners = [o for o in outcomes if o[1]]
        losers = [o for o in outcomes if not o[1]]
        assert len(winners) == 1
        assert winners[0][0] is None
        assert len(losers) == self.N_RACERS - 1
        assert all(reason is not None for reason, _ in losers)
        assert breaker.state == HALF_OPEN

    def test_released_probe_admits_exactly_one_new_racer(
        self, breaker, clock
    ):
        for _ in range(3):
            breaker.record_failure("boom")
        clock.advance(10.0)
        assert breaker.try_pass() == (None, True)
        breaker.release_probe()
        outcomes = self._race(breaker)
        assert sum(1 for _, probe in outcomes if probe) == 1

    def test_probe_failure_blocks_every_concurrent_racer(
        self, breaker, clock
    ):
        for _ in range(3):
            breaker.record_failure("boom")
        clock.advance(10.0)
        assert breaker.try_pass() == (None, True)
        breaker.record_failure("still broken")  # reopens, restarts cooldown
        outcomes = self._race(breaker)
        assert all(not probe for _, probe in outcomes)
        assert all(reason is not None for reason, _ in outcomes)
        assert breaker.state == OPEN


def _step(attempted, fallback, error_type="NotApplicableError"):
    return DegradationEvent("kim", attempted, fallback, error_type, "why")


FAILED, OK = "failure", "success"
#: DESIGN section 9's attribution rule, one row per clause:
#: (requested, the query's chain, its error) -> what each strategy is
#: booked; a strategy not named is not touched, and when that is the
#: requested one the half-open probe the attempt held on it is released.
RULE = {
    "answered as requested": ("magic", [], None, {"magic": OK}),
    "a failed rewrite, then an answer": (
        "kim", [_step("kim", "magic")], None, {"kim": FAILED, "magic": OK},
    ),
    "a veto is not a failure": (
        "kim", [_step("kim", "magic", VETOED)], None, {"magic": OK},
    ),
    "a veto, a failed rewrite, then an answer": (
        "kim",
        [_step("kim", "magic", VETOED),
         _step("magic", "ni", "FaultInjectedError")],
        None, {"magic": FAILED, "ni": OK},
    ),
    "the plan that ran failed": (
        "magic", [], FaultInjectedError("exec.join", 0, "boom"),
        {"magic": FAILED},
    ),
    "a failed rewrite, then the fallback's plan failed": (
        "kim", [_step("kim", "magic")], ExecutionError("boom"),
        {"kim": FAILED, "magic": FAILED},
    ),
    "the chain ran out: its last entry is the error": (
        "kim",
        [_step("kim", "magic", "FaultInjectedError"),
         _step("magic", "ni", "FaultInjectedError"),
         _step("ni", "", "FaultInjectedError")],
        FaultInjectedError("rewrite.strategy", 2, "boom"),
        {"kim": FAILED, "magic": FAILED, "ni": FAILED},
    ),
    "a budget trip says nothing": (
        "magic", [], BudgetExceeded("timeout", 1.0, 2.0), {},
    ),
    "a cancel says nothing": ("magic", [], QueryCancelled("stop"), {}),
    "... but the rewrite that failed before it still did": (
        "kim", [_step("kim", "magic")], QueryCancelled("stop"),
        {"kim": FAILED},
    ),
    "a syntax error is the statement's": (
        "magic", [], ParseError("bad"), {},
    ),
    "an unknown column is the statement's": (
        "magic", [], BindError("no such column"), {},
    ),
    "an unknown table is the statement's": (
        "magic", [], CatalogError("no such table"), {},
    ),
    "an invariant breach is nobody's": ("magic", [], RuntimeError("bug"), {}),
}


class TestAttempt:
    """The attempt object on its own board -- no service, no engine."""

    THRESHOLD = 3

    @pytest.fixture
    def board(self, clock) -> BreakerBoard:
        return BreakerBoard(self.THRESHOLD, cooldown=10.0, clock=clock)

    def _half_open(self, board, clock, strategy):
        for _ in range(self.THRESHOLD):
            board.breaker(strategy).record_failure("boom")
        clock.advance(10.0)

    @pytest.mark.parametrize("clause", RULE)
    def test_settle_books_what_the_rule_says(self, board, clock, clause):
        requested, chain, error, expected = RULE[clause]
        # Every other strategy starts one failure in, so a success (reset
        # to 0), a failure (2) and no booking (1) all show; the requested
        # one is open past its cooldown and this attempt claims its probe.
        others = {"ni", "kim", "dayal", "magic"} - {requested}
        for strategy in others:
            board.breaker(strategy).record_failure("earlier")
        self._half_open(board, clock, requested)
        attempt = board.attempt(requested)
        assert attempt.disabled(requested) is None
        assert board.snapshot()[requested]["probe_inflight"]

        attempt.settle(chain, error)

        snapshot = board.snapshot()
        booked = {}
        for strategy in others:
            count = snapshot[strategy]["consecutive_failures"]
            if count != 1:
                booked[strategy] = OK if count == 0 else FAILED
                assert count in (0, 2)
        probe = snapshot[requested]
        assert not probe["probe_inflight"]
        if probe["state"] != HALF_OPEN:
            booked[requested] = OK if probe["state"] == CLOSED else FAILED
        else:  # released: the next query may claim a fresh probe
            assert board.attempt(requested).disabled(requested) is None
        assert booked == expected

    def test_an_attempt_is_not_vetoed_by_its_own_probe(self, board, clock):
        """The plan cache and the rewrite engine both consult the hook
        for the requested strategy."""
        self._half_open(board, clock, "magic")
        attempt = board.attempt("magic")
        assert attempt.disabled("magic") is None
        assert attempt.disabled("magic") is None
        assert "probe in flight" in board.attempt("magic").disabled("magic")
        attempt.settle([])
        assert board.snapshot()["magic"]["state"] == CLOSED

    def test_release_gives_an_unresolved_probe_back(self, board, clock):
        self._half_open(board, clock, "magic")
        attempt = board.attempt("magic")
        assert attempt.disabled("magic") is None
        attempt.release()
        assert board.snapshot()["magic"] == {
            "state": HALF_OPEN, "consecutive_failures": self.THRESHOLD,
            "probe_inflight": False,
        }

    def test_last_resort_and_brownout_veto_consult_no_breaker(self, board):
        attempt = board.attempt("dayal", forced="magic")
        assert attempt.disabled("ni") is None
        assert attempt.disabled("dayal").startswith("brownout")
        assert board.snapshot() == {}
        assert attempt.disabled("magic") is None
        assert list(board.snapshot()) == ["magic"]

    def test_transitions_reach_the_list_and_the_event_log(self, clock):
        from repro.obs import EventLog, RingSink

        sink = RingSink()
        board = BreakerBoard(1, 10.0, clock, events=EventLog(sink))
        board.attempt("kim").settle([_step("kim", "magic")])
        [transition] = board.transitions
        assert (transition.strategy, transition.to_state) == ("kim", OPEN)
        [event] = sink.events()
        assert event["kind"] == "breaker.transition"
        assert event["reason"] == "NotApplicableError: why"


class FlakyRegistry(FaultRegistry):
    """Fails every ``magic`` rewrite attempt while ``failing`` is set."""

    def __init__(self):
        super().__init__(0, ())
        self.failing = True

    def trigger(self, site: str, detail: str = "") -> None:
        if site == "rewrite.strategy" and detail == "magic" and self.failing:
            raise FaultInjectedError(site, 0, "synthetic magic failure")


class TestServiceIntegration:
    def test_breaker_opens_degrades_and_recovers(self, empdept_catalog):
        flaky = FlakyRegistry()
        clock = FakeClock()
        db = Database(empdept_catalog, faults=flaky)
        with QueryService(
            db, workers=1, breaker_threshold=2, breaker_cooldown=5.0,
            clock=clock,
        ) as service:
            # Two failing magic rewrites: both queries still answer (the
            # chain degrades to nested iteration) and the breaker opens.
            for _ in range(2):
                result = service.submit(
                    EMP_DEPT_QUERY, strategy="magic"
                ).result(timeout=30)
                assert sorted(result.rows) == EXPECTED
                assert [e.error_type for e in result.degradations] == [
                    "FaultInjectedError"
                ]
            stats = service.stats()
            assert stats.breakers["magic"]["state"] == "open"

            # While open, magic is skipped outright -- the degradation
            # event says CircuitBreakerOpen, not a re-paid rewrite fault.
            result = service.submit(
                EMP_DEPT_QUERY, strategy="magic"
            ).result(timeout=30)
            assert sorted(result.rows) == EXPECTED
            assert [e.error_type for e in result.degradations] == [
                "CircuitBreakerOpen"
            ]

            # Strategy heals + cooldown elapses: the half-open probe runs
            # magic for real, succeeds, and closes the breaker.
            flaky.failing = False
            clock.advance(5.0)
            result = service.submit(
                EMP_DEPT_QUERY, strategy="magic"
            ).result(timeout=30)
            assert sorted(result.rows) == EXPECTED
            assert result.degradations == []
            stats = service.stats()
            assert stats.breakers["magic"]["state"] == "closed"
            assert [
                (t.from_state, t.to_state)
                for t in stats.breaker_transitions
                if t.strategy == "magic"
            ] == [
                ("closed", "open"),
                ("open", "half_open"),
                ("half_open", "closed"),
            ]
            assert stats.reconciles()

    def test_last_resort_strategy_is_never_blocked(self, empdept_catalog):
        # Even if "ni" somehow accrues failures, the service exempts it:
        # there is nothing further to degrade to.
        flaky = FlakyRegistry()
        db = Database(empdept_catalog, faults=flaky)
        with QueryService(
            db, workers=1, breaker_threshold=1, breaker_cooldown=3600.0
        ) as service:
            service.submit(EMP_DEPT_QUERY, strategy="magic").result(timeout=30)
            assert service.stats().breakers["magic"]["state"] == "open"
            result = service.submit(
                EMP_DEPT_QUERY, strategy="ni"
            ).result(timeout=30)
            assert sorted(result.rows) == EXPECTED


def _health(service):
    return {
        strategy: (snapshot["state"], snapshot["consecutive_failures"])
        for strategy, snapshot in service.stats().breakers.items()
    }


class TestAttribution:
    """What the service books, and to whom (DESIGN section 9)."""

    STATEMENT_ERRORS = (
        ("Selec nonsense frm", ParseError),
        ("Select nosuch From dept", BindError),
        ("Select name From nosuch", CatalogError),
    )

    def test_statement_errors_open_no_breaker(self, empdept_catalog):
        db = Database(empdept_catalog)
        with QueryService(db, workers=1, breaker_threshold=3) as service:
            service.submit(EMP_DEPT_QUERY, strategy="magic").result(30)
            for sql, error_class in self.STATEMENT_ERRORS:
                ticket = service.submit(sql, strategy="magic")
                assert ticket.wait(30)
                assert type(ticket.error()) is error_class
            assert _health(service) == {"magic": ("closed", 0)}
            result = service.submit(EMP_DEPT_QUERY, strategy="magic").result(30)
            assert result.degradations == []
            assert sorted(result.rows) == EXPECTED

    def test_a_failure_is_booked_from_its_own_chain(self):
        """Q3 under Kim is not applicable and falls back to magic; the
        next ticket's syntax error must not be booked to that chain."""
        db = Database(load_tpcd(scale_factor=0.001))
        with QueryService(db, workers=1) as service:
            result = service.submit(QUERY_3, strategy="kim").result(60)
            assert [(e.attempted, e.fallback) for e in result.degradations] == [
                ("kim", "magic")
            ]
            before = _health(service)
            assert before == {"kim": ("closed", 1), "magic": ("closed", 0)}
            ticket = service.submit("Selec nonsense", strategy="dayal")
            assert ticket.wait(30)
            assert isinstance(ticket.error(), ParseError)
            assert _health(service) == before

    def test_execution_failure_feeds_the_plan_that_ran(self):
        """... and the rewrite that failed on the way to it: the chain
        leaves the facade on the error."""
        db = Database(load_tpcd(scale_factor=0.001), faults=JoinFault())
        with QueryService(db, workers=1) as service:
            ticket = service.submit(QUERY_3, strategy="kim")
            assert ticket.wait(60)
            error = ticket.error()
            assert isinstance(error, FaultInjectedError)
            assert [e.attempted for e in error.degradations] == ["kim"]
            assert _health(service) == {
                "kim": ("closed", 1), "magic": ("closed", 1)
            }
