"""Event-stream/counter reconciliation and the events JSON schema.

Two families of property:

* **Reconciliation** -- after a drained soak, per-kind counts over the
  structured event stream must satisfy the same conservation law as the
  :class:`~repro.serve.service.ServiceStats` counters, *exactly* (event
  emission shares the counters' critical section, so there is no window
  in which they disagree). This holds with and without fault injection.
* **Schema round-trip** -- a real event stream survives JSONL
  serialisation byte-identically and validates, mirroring the trace
  JSON guarantees of ``tests/trace/test_trace_json.py``.
"""

import json

import pytest

from repro import Database
from repro.obs import (
    EventLog,
    FileSink,
    RingSink,
    TeeSink,
    count_by_kind,
    events_round_trip,
    load_events,
    validate_events,
)
from repro.serve import QueryService
from repro.serve.soak import chaos_scenario, run_scenario

QUERY = (
    "SELECT name FROM dept D WHERE D.budget < 10000 AND D.num_emps > "
    "(SELECT count(*) FROM emp E WHERE E.building = D.building)"
)

#: Same shape as the CLI default: every site lightly faulted.
FAULT_SPEC = "7:rewrite.strategy=0.05,exec.join=0.01,storage.scan=0.002"


@pytest.fixture(autouse=True)
def _no_ambient_env(monkeypatch):
    """Fault behaviour is pinned per-test: an ambient ``REPRO_FAULTS``
    (e.g. the CI fault matrix) must not leak into exact-count asserts."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)


def _soak_events(faults=None, slow_query_ms=None):
    sink = RingSink(capacity=200_000)
    report = run_scenario(
        chaos_scenario(
            workers=4, seconds=1.5, seed=11, scale=0.002, faults=faults,
            slow_query_ms=slow_query_ms,
        ),
        events=EventLog(sink),
    )
    return report, sink.events()


def _assert_reconciles(report, events):
    stats = report.primary.stats
    kinds = count_by_kind(events)
    assert validate_events(events) == len(events)
    # Admission edges, one event per counter increment.
    assert kinds.get("query.submitted", 0) == stats.submitted
    assert kinds.get("query.admitted", 0) == stats.admitted
    assert kinds.get("query.rejected", 0) == stats.rejected
    # Conservation: every submission has exactly one admission outcome...
    assert stats.submitted == stats.admitted + stats.rejected
    # ...and after a drain every admission has exactly one finish.
    finished = kinds.get("query.finished", 0)
    assert finished == stats.admitted
    assert finished == stats.completed + stats.failed + stats.cancelled
    assert kinds.get("query.cancelled", 0) == stats.cancelled
    # A query starts only once a worker picks it up: queued cancellations
    # finish without starting.
    started = kinds.get("query.started", 0)
    assert stats.completed + stats.failed <= started <= stats.admitted
    # Per-query outcome tallies match the counters one-for-one.
    outcomes = {}
    for event in events:
        if event["kind"] == "query.finished":
            outcomes[event["outcome"]] = outcomes.get(event["outcome"], 0) + 1
    assert outcomes.get("completed", 0) == stats.completed
    assert outcomes.get("failed", 0) == stats.failed
    assert outcomes.get("cancelled", 0) == stats.cancelled


class TestReconciliation:
    def test_drained_soak_reconciles_exactly(self):
        report, events = _soak_events()
        assert report.ok, [str(v) for v in report.all_violations()]
        _assert_reconciles(report, events)
        assert count_by_kind(events).get("fault.fired", 0) == 0

    def test_reconciles_under_fault_injection(self):
        report, events = _soak_events(faults=FAULT_SPEC)
        _assert_reconciles(report, events)
        kinds = count_by_kind(events)
        # The spec faults every rewrite at 5%: a 1.5s soak fires some.
        assert kinds.get("fault.fired", 0) >= 1
        # Every engine-level event is attributed to a known lifecycle id.
        lifecycle_ids = {
            e["query_id"] for e in events if e["kind"] == "query.submitted"
        }
        for event in events:
            if event["kind"] in ("query.degraded", "fault.fired",
                                 "guard.budget_exceeded"):
                assert event["query_id"] in lifecycle_ids

    def test_slow_query_events_match_slow_total(self):
        report, events = _soak_events(slow_query_ms=0.0)
        kinds = count_by_kind(events)
        stats = report.primary.stats
        assert kinds.get("query.slow", 0) == stats.slow_total
        assert stats.slow_total >= stats.completed


class TestEventsJsonSchema:
    """The events JSONL schema round-trips, mirroring trace JSON."""

    @pytest.fixture
    def stream(self, empdept_catalog, tmp_path):
        """A real event stream: two queries through an observed
        one-worker service, teed to a ring and a JSONL file."""
        path = tmp_path / "events.jsonl"
        ring = RingSink()
        log = EventLog(TeeSink(ring, FileSink(str(path))))
        with QueryService(
            Database(empdept_catalog), workers=1, events=log
        ) as service:
            service.submit(QUERY, strategy="magic").result(timeout=30)
            service.submit(QUERY, strategy="ni").result(timeout=30)
        log.close()
        return ring.events(), str(path)

    def test_real_stream_validates(self, stream):
        events, _ = stream
        assert validate_events(events) == len(events)

    def test_round_trip_is_byte_identical(self, stream):
        events, _ = stream
        assert events_round_trip(events)

    def test_file_and_ring_agree(self, stream):
        events, path = stream
        assert load_events(path) == events

    def test_jsonl_lines_parse_one_to_one(self, stream):
        events, path = stream
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert [json.loads(line) for line in lines] == events
