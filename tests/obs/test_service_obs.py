"""QueryService observability: events and slow-query capture."""

import json

import pytest

from repro import Database, FaultRegistry, QueryService, Strategy
from repro.errors import AdmissionRejected, FaultInjectedError
from repro.obs import EventLog, RingSink, count_by_kind
from repro.tpcd import EMP_DEPT_QUERY


def _log():
    sink = RingSink(capacity=16384)
    return EventLog(sink), sink


class KimFaults(FaultRegistry):
    """Faults every rewrite attempt of the kim strategy, nothing else
    (fault *rules* select by site, not strategy, so tests that need one
    failing strategy override the trigger)."""

    def __init__(self):
        super().__init__(0, ())

    def trigger(self, site: str, detail: str = "") -> None:
        if site == "rewrite.strategy" and detail == "kim":
            raise FaultInjectedError(site, 0, detail)


class TestServiceEvents:
    def test_lifecycle_events_reconcile_with_stats(self, db):
        log, sink = _log()
        with QueryService(db, workers=2, events=log) as service:
            tickets = [
                service.submit(EMP_DEPT_QUERY, strategy=s)
                for s in ("magic", "ni", "kim", "dayal")
            ]
            for ticket in tickets:
                ticket.result(timeout=30)
        stats = service.stats()
        kinds = count_by_kind(sink.events())
        assert kinds["query.submitted"] == stats.submitted == 4
        assert kinds["query.admitted"] == stats.admitted == 4
        assert kinds["query.started"] == 4
        assert kinds["query.finished"] == 4
        assert "query.rejected" not in kinds
        finished = [
            e for e in sink.events() if e["kind"] == "query.finished"
        ]
        assert {e["outcome"] for e in finished} == {"completed"}
        assert {e["query_id"] for e in finished} == {
            t.query_id for t in tickets
        }

    def test_rejected_submission_emits_with_identity(self, db):
        log, sink = _log()
        service = QueryService(db, workers=1, events=log)
        service.close()
        with pytest.raises(AdmissionRejected):
            service.submit(EMP_DEPT_QUERY)
        rejected = [
            e for e in sink.events() if e["kind"] == "query.rejected"
        ]
        assert len(rejected) == 1
        assert rejected[0]["reason"] == "service closed"
        assert isinstance(rejected[0]["query_id"], int)

    def test_breaker_transition_event(self, db):
        failing = Database(db.catalog, faults=KimFaults())
        log, sink = _log()
        with QueryService(
            failing, workers=1, events=log, breaker_threshold=1,
        ) as service:
            service.submit(EMP_DEPT_QUERY, strategy="kim").wait(timeout=30)
            service.drain(timeout=30)
        transitions = [
            e for e in sink.events() if e["kind"] == "breaker.transition"
        ]
        assert transitions
        assert transitions[0]["strategy"] == "kim"
        assert transitions[0]["to_state"] == "open"

    def test_worker_facades_feed_engine_events_under_ticket_id(self, db):
        failing = Database(db.catalog, faults=KimFaults())
        log, sink = _log()
        with QueryService(failing, workers=1, events=log) as service:
            ticket = service.submit(EMP_DEPT_QUERY, strategy="kim")
            ticket.result(timeout=30)
        degraded = [
            e for e in sink.events() if e["kind"] == "query.degraded"
        ]
        assert degraded and all(
            e["query_id"] == ticket.query_id for e in degraded
        )


class TestServiceSlowLog:
    def test_slow_queries_surface_in_stats_and_export(self, db):
        with QueryService(db, workers=2, slow_query_ms=0.0) as service:
            for _ in range(3):
                service.submit(EMP_DEPT_QUERY, strategy="magic")
            service.drain(timeout=30)
            stats = service.stats()
            assert stats.slow_total == 3
            assert len(stats.slow_queries) == 3
            assert stats.slow_queries == service.slow_queries()
            record = stats.slow_queries[0]
            assert record["strategy"] == "magic"
            assert record["outcome"] == "completed"
            exported = json.loads(stats.export("json"))
            assert exported["slow_total"] == 3
            assert "repro_slow_queries_total 3" in stats.export("prometheus")

    def test_no_slow_log_exports_zero(self, db):
        with QueryService(db, workers=1) as service:
            service.submit(EMP_DEPT_QUERY).result(timeout=30)
            stats = service.stats()
        assert stats.slow_total == 0 and stats.slow_queries == []
        assert "repro_slow_queries_total 0" in stats.export("prometheus")

    def test_traced_service_attaches_operators_to_slow_records(self, db):
        with QueryService(
            db, workers=1, trace=True, slow_query_ms=0.0
        ) as service:
            service.submit(EMP_DEPT_QUERY, strategy="magic").result(timeout=30)
            service.drain(timeout=30)
            [record] = service.slow_queries()
        assert record["operators"]
        assert all("name" in op for op in record["operators"])
