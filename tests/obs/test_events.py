"""The structured event log: sinks, scoping, validation, emission sites."""

import json
import threading

import pytest

from repro import Database, Strategy
from repro.errors import EventLogError, FaultInjectedError
from repro.faults import FaultRegistry, FaultRule
from repro.guard import Limits
from repro.obs import (
    EVENT_KINDS,
    EVENTS_VERSION,
    EventLog,
    FileSink,
    RingSink,
    TeeSink,
    count_by_kind,
    load_events,
    render_event,
    validate_events,
)

QUERY = (
    "SELECT name FROM dept D WHERE D.budget < 10000 AND D.num_emps > "
    "(SELECT count(*) FROM emp E WHERE E.building = D.building)"
)


def _log(capacity: int = 4096):
    sink = RingSink(capacity=capacity)
    return EventLog(sink), sink


class TestEventLog:
    def test_no_sink_is_a_no_op(self):
        log = EventLog()
        log.emit("query.started")  # must not raise
        with pytest.raises(EventLogError):
            log.events()

    def test_seq_is_strictly_increasing_and_envelope_complete(self):
        log, sink = _log()
        log.emit("query.started", query_id=1)
        log.emit("query.finished", query_id=1, outcome="completed")
        events = sink.events()
        assert [e["seq"] for e in events] == [1, 2]
        for event in events:
            assert event["v"] == EVENTS_VERSION
            assert event["ts"] >= 0
        assert validate_events(events) == 2

    def test_scope_binds_and_restores_query_id(self):
        log, sink = _log()
        assert log.current_query_id() is None
        with log.scope(7):
            assert log.current_query_id() == 7
            log.emit("query.degraded")
            with log.scope(8):
                log.emit("fault.fired")
            log.emit("guard.budget_exceeded")
        assert log.current_query_id() is None
        assert [e["query_id"] for e in sink.events()] == [7, 8, 7]

    def test_explicit_query_id_beats_scope(self):
        log, sink = _log()
        with log.scope(7):
            log.emit("query.finished", query_id=9)
            log.emit("breaker.transition", query_id=None)
        assert [e["query_id"] for e in sink.events()] == [9, None]

    def test_concurrent_emission_keeps_seq_dense(self):
        log, sink = _log(capacity=10_000)

        def worker(n):
            for _ in range(100):
                log.emit("query.degraded", query_id=n)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e["seq"] for e in sink.events()]
        assert seqs == list(range(1, 801))

    def test_ring_sink_bounds_retention(self):
        log, sink = _log(capacity=3)
        for i in range(10):
            log.emit("query.started", query_id=i)
        assert sink.total == 10
        assert [e["query_id"] for e in sink.events()] == [7, 8, 9]

    def test_ring_sink_rejects_bad_capacity(self):
        with pytest.raises(EventLogError):
            RingSink(capacity=0)

    def test_tee_and_file_sink_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ring = RingSink()
        log = EventLog(TeeSink(ring, FileSink(str(path))))
        log.emit("query.started", query_id=1)
        log.emit("query.finished", query_id=1, outcome="completed")
        log.close()
        assert load_events(str(path)) == ring.events()

    def test_events_finds_ring_inside_tee(self, tmp_path):
        ring = RingSink()
        log = EventLog(
            TeeSink(FileSink(str(tmp_path / "e.jsonl")), ring)
        )
        log.emit("fault.fired")
        assert log.events() == ring.events()
        log.close()


class TestValidation:
    def _event(self, **overrides):
        event = {
            "v": EVENTS_VERSION, "seq": 1, "ts": 1.0,
            "kind": "query.started", "query_id": 1,
        }
        event.update(overrides)
        return event

    def test_unknown_kind_rejected(self):
        with pytest.raises(EventLogError, match="unknown kind"):
            validate_events([self._event(kind="query.imaginary")])

    def test_every_declared_kind_is_accepted(self):
        events = [
            self._event(seq=i + 1, kind=kind)
            for i, kind in enumerate(EVENT_KINDS)
        ]
        assert validate_events(events) == len(EVENT_KINDS)

    def test_missing_envelope_field_rejected(self):
        event = self._event()
        del event["ts"]
        with pytest.raises(EventLogError, match="missing envelope"):
            validate_events([event])

    def test_non_increasing_seq_rejected(self):
        with pytest.raises(EventLogError, match="strictly increasing"):
            validate_events([self._event(seq=2), self._event(seq=2)])

    def test_bad_version_rejected(self):
        with pytest.raises(EventLogError, match="v must be"):
            validate_events([self._event(v=99)])

    def test_boolean_query_id_rejected(self):
        with pytest.raises(EventLogError, match="query_id"):
            validate_events([self._event(query_id=True)])

    def test_non_object_rejected(self):
        with pytest.raises(EventLogError, match="must be an object"):
            validate_events(["not an event"])

    def test_malformed_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1, "seq": 1\nnot json\n')
        with pytest.raises(EventLogError, match="malformed JSON"):
            load_events(str(path))


class TestHelpers:
    def test_count_by_kind(self):
        log, sink = _log()
        log.emit("query.started", query_id=1)
        log.emit("query.started", query_id=2)
        log.emit("query.finished", query_id=1)
        assert count_by_kind(sink.events()) == {
            "query.started": 2, "query.finished": 1,
        }

    def test_render_event_is_one_line(self):
        log, sink = _log()
        log.emit("query.finished", query_id=3, outcome="completed",
                 latency_ms=1.5)
        line = render_event(sink.events()[0])
        assert "\n" not in line
        assert "query.finished" in line and "q3" in line
        assert "outcome='completed'" in line


class TestDatabaseEmission:
    """A facade built with ``events=`` feeds engine-level events into the
    log; the lifecycle around them belongs to the query service."""

    def _service(self, catalog, log, **options):
        from repro.serve import QueryService

        db = Database(catalog, **options)
        return QueryService(db, workers=1, events=log)

    def test_a_facade_emits_no_lifecycle_of_its_own(self, empdept_catalog):
        log, sink = _log()
        db = Database(empdept_catalog, events=log)
        assert db.execute(QUERY, strategy=Strategy.MAGIC).rows
        with pytest.raises(Exception):
            db.execute("SELECT nope FROM dept", strategy=Strategy.MAGIC)
        kinds = {e["kind"] for e in sink.events()}
        assert not kinds & {
            "query.started", "query.finished", "query.cancelled", "query.slow"
        }

    def test_failed_query_records_error_type(self, empdept_catalog):
        log, sink = _log()
        with self._service(empdept_catalog, log) as service:
            ticket = service.submit("SELECT nope FROM dept", strategy="magic")
            assert ticket.wait(30)
        finished = sink.events()[-1]
        assert finished["kind"] == "query.finished"
        assert finished["outcome"] == "failed"
        assert finished["error_type"] == "BindError"

    def test_degradation_emits_query_degraded(self, empdept_catalog):
        faults = FaultRegistry(0, (FaultRule("rewrite.strategy", 1.0),))
        log, sink = _log()
        # Every rewrite attempt faults; the chain ends at NI which is
        # applied without a rewrite fault only if its trigger misses --
        # with rate 1.0 even NI faults, so the query fails after a full
        # chain of degradations.
        with self._service(empdept_catalog, log, faults=faults) as service:
            ticket = service.submit(QUERY, strategy="magic")
            with pytest.raises(FaultInjectedError):
                ticket.result(timeout=30)
        kinds = count_by_kind(sink.events())
        assert kinds.get("query.degraded", 0) >= 1
        assert kinds.get("fault.fired", 0) >= 1
        degraded = [
            e for e in sink.events() if e["kind"] == "query.degraded"
        ]
        assert degraded[0]["requested"] == "magic"
        # Engine-level events carry the same query id as the lifecycle.
        assert all(e["query_id"] == ticket.query_id for e in sink.events())

    def test_budget_trip_emits_guard_event(self, empdept_catalog):
        log, sink = _log()
        from repro.errors import BudgetExceeded

        with self._service(empdept_catalog, log) as service:
            ticket = service.submit(
                QUERY, strategy="ni", limits=Limits(max_rows_scanned=1)
            )
            with pytest.raises(BudgetExceeded):
                ticket.result(timeout=30)
        kinds = count_by_kind(sink.events())
        assert kinds.get("guard.budget_exceeded") == 1
        trip = [
            e for e in sink.events() if e["kind"] == "guard.budget_exceeded"
        ][0]
        assert trip["budget"] == "max_rows_scanned"
        assert trip["query_id"] == ticket.query_id

    def test_events_export_is_json_serialisable(self, empdept_catalog):
        log, sink = _log()
        with self._service(empdept_catalog, log) as service:
            service.submit(QUERY, strategy="magic").result(timeout=30)
        assert count_by_kind(sink.events())["query.finished"] == 1
        for event in sink.events():
            assert json.loads(json.dumps(event)) == event


class TestSchemaV2:
    """PR 10: v2 added the ``query.phases`` kind. Emissions stamp v=2,
    the validator accepts the version it writes and no other, and
    truncating FileSink mode keeps a re-written path loadable."""

    def _event(self, **overrides):
        event = {
            "v": EVENTS_VERSION, "seq": 1, "ts": 1.0,
            "kind": "query.started", "query_id": 1,
        }
        event.update(overrides)
        return event

    def test_current_version_is_two(self):
        assert EVENTS_VERSION == 2
        assert validate_events([self._event()]) == 1

    def test_v1_envelope_is_refused(self):
        with pytest.raises(EventLogError, match="v must be 2, got 1"):
            validate_events([self._event(), self._event(v=1, seq=2)])

    def test_emissions_stamp_the_current_version(self):
        sink = RingSink()
        EventLog(sink).emit(
            "query.phases", query_id=3, phases={"queue": 2.0}
        )
        [event] = sink.events()
        assert event["v"] == 2
        assert event["kind"] == "query.phases"
        validate_events([event])

    def test_file_sink_truncate_mode_replaces_a_stale_stream(
        self, tmp_path
    ):
        path = tmp_path / "events.jsonl"
        first = EventLog(FileSink(str(path), mode="w"))
        first.emit("query.started", query_id=1)
        first.emit("query.finished", query_id=1)
        first.close()
        # A second run onto the same path must not concatenate (append
        # mode would leave two streams with colliding seq numbers).
        second = EventLog(FileSink(str(path), mode="w"))
        second.emit("query.started", query_id=1)
        second.close()
        events = load_events(str(path))
        assert [e["seq"] for e in events] == [1]

    def test_file_sink_default_stays_append(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(FileSink(str(path)))
        log.emit("query.started", query_id=1)
        log.close()
        again = EventLog(FileSink(str(path)))
        again.emit("fault.fired")
        again.close()
        assert len(path.read_text().splitlines()) == 2
