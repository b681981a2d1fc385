"""The slow-query log: thresholds, ring bounds, rendering, integration."""

import pytest

from repro import Database
from repro.errors import EventLogError
from repro.obs import EventLog, RingSink, SlowQueryLog, render_slow_log
from repro.serve import QueryService

QUERY = (
    "SELECT name FROM dept D WHERE D.budget < 10000 AND D.num_emps > "
    "(SELECT count(*) FROM emp E WHERE E.building = D.building)"
)


def _summary(latency_ms, **fields):
    """A per-query summary with the keys ``Ticket.summary()`` carries."""
    return {
        "query_id": None, "sql": "", "strategy": "", "outcome": "completed",
        "latency_ms": latency_ms, "degradations": [], "metrics": None,
        "phases": None, "brownout_level": None, **fields,
    }


class TestSlowQueryLog:
    def test_validation(self):
        with pytest.raises(EventLogError):
            SlowQueryLog(-1)
        with pytest.raises(EventLogError):
            SlowQueryLog(10, capacity=0)

    def test_below_threshold_is_not_captured(self):
        log = SlowQueryLog(100.0)
        assert log.capture(_summary(99.9, sql="SELECT 1")) is None
        assert log.records() == [] and log.total == 0

    def test_capture_carries_the_diagnosis(self):
        log = SlowQueryLog(10.0, clock=lambda: 123.0)
        record = log.capture(_summary(
            25.5, sql="SELECT x", strategy="magic", query_id=4,
            outcome="completed", degradations=["kim -> magic"],
        ))
        assert record == log.records()[0]
        assert record["ts"] == 123.0
        assert record["latency_ms"] == 25.5
        assert record["threshold_ms"] == 10.0
        assert record["strategy"] == "magic"
        assert record["degradations"] == ["kim -> magic"]
        assert record["operators"] == []

    def test_ring_is_bounded_but_total_counts_everything(self):
        log = SlowQueryLog(0.0, capacity=2)
        for i in range(5):
            log.capture(_summary(float(i + 1), query_id=i))
        assert log.total == 5
        assert [r["query_id"] for r in log.records()] == [3, 4]
        assert len(log) == 2

    def test_capture_emits_query_slow_event(self):
        sink = RingSink()
        log = SlowQueryLog(1.0, events=EventLog(sink))
        log.capture(_summary(5.0, query_id=9, strategy="ni"))
        [event] = sink.events()
        assert event["kind"] == "query.slow"
        assert event["query_id"] == 9
        assert event["latency_ms"] == 5.0

    def test_traced_capture_includes_top_operators(self, empdept_catalog):
        db = Database(empdept_catalog)
        with QueryService(
            db, workers=1, trace=True, slow_query_ms=0.0
        ) as service:
            service.submit(QUERY, strategy="magic").result(timeout=30)
        [record] = service.slow_log.records()
        assert record["operators"]
        assert len(record["operators"]) <= service.slow_log.top_operators
        assert record["metrics"]["rows_output"] >= 1


class TestRender:
    def test_empty_log_renders_placeholder(self):
        assert "no slow queries" in render_slow_log([])

    def test_render_orders_slowest_first_and_truncates_sql(self):
        records = [
            {"latency_ms": 1.0, "query_id": 1, "sql": "SELECT 1",
             "strategy": "ni", "outcome": "completed",
             "degradations": [], "operators": []},
            {"latency_ms": 9.0, "query_id": 2, "sql": "SELECT " + "x" * 200,
             "strategy": "magic", "outcome": "failed",
             "degradations": ["kim -> magic"],
             "operators": [{"name": "groupby", "calls": 1, "rows_out": 3,
                            "elapsed_ms": 4.2}]},
        ]
        text = render_slow_log(records, indent="  ")
        lines = text.splitlines()
        assert lines[0].lstrip().startswith("9.000ms")
        assert "..." in lines[0]
        assert any("degraded: kim -> magic" in line for line in lines)
        assert any("groupby" in line for line in lines)
        assert all(line.startswith("  ") for line in lines)


class TestPhaseBreakdown:
    """PR 10: a slow-log entry answers "slow because queued or slow
    because executing" without needing a separate trace."""

    def test_capture_carries_phases_and_brownout_rung(self):
        log = SlowQueryLog(10.0)
        record = log.capture(_summary(
            150.0, sql="SELECT x", strategy="magic", query_id=3,
            phases={"queue": 120.0, "execute": 30.0}, brownout_level=2,
        ))
        assert record["phases"] == {"queue": 120.0, "execute": 30.0}
        assert record["brownout_level"] == 2

    def test_render_shows_the_budget_and_rung(self):
        log = SlowQueryLog(0.0)
        log.capture(_summary(
            150.0, sql="SELECT x", strategy="magic", query_id=3,
            phases={"queue": 120.0, "execute": 30.0}, brownout_level=2,
        ))
        text = render_slow_log(log.records())
        assert "phases: queue=120.000ms execute=30.000ms" in text
        assert "(brownout rung 2)" in text

    def test_unphased_capture_renders_no_budget_line(self):
        log = SlowQueryLog(0.0)
        log.capture(_summary(5.0, sql="SELECT 1", query_id=1))
        assert "phases:" not in render_slow_log(log.records())

    def test_service_slow_entries_carry_the_ticket_budget(
        self, empdept_catalog
    ):
        db = Database(empdept_catalog)
        with QueryService(
            db, workers=1, phases=True, slow_query_ms=0.0
        ) as service:
            ticket = service.submit(QUERY, strategy="magic")
            ticket.result(timeout=30)
        [record] = service.slow_log.records()
        assert record["phases"] == ticket.phases.as_ms_dict()
        assert record["brownout_level"] == 0
