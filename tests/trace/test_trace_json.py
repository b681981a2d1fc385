"""The versioned trace JSON schema: export, validation, round-trip."""

import json

import pytest

from repro import Database, Strategy
from repro.errors import TraceError
from repro.trace import (
    TRACE_VERSION,
    Tracer,
    spans_from_dict,
    trace_round_trips,
    validate_trace,
)

QUERY = (
    "SELECT name FROM dept D WHERE D.budget < 10000 AND D.num_emps > "
    "(SELECT count(*) FROM emp E WHERE E.building = D.building)"
)


@pytest.fixture
def payload(empdept_catalog) -> dict:
    """A real exported trace: rewrite + execution of the section-2 query."""
    db = Database(empdept_catalog)
    tracer = Tracer()
    db.execute(QUERY, strategy=Strategy.MAGIC, tracer=tracer)
    return tracer.export(sql=QUERY, strategy="magic")


class TestExport:
    def test_payload_shape(self, payload):
        assert payload["version"] == TRACE_VERSION
        assert payload["sql"] == QUERY
        assert payload["strategy"] == "magic"
        kinds = {span["kind"] for span in payload["spans"]}
        assert kinds == {"rewrite", "query"}

    def test_export_is_json_serialisable(self, payload):
        text = json.dumps(payload, indent=2, sort_keys=True)
        assert json.loads(text) == payload

    def test_extra_attrs_are_passed_through(self):
        payload = Tracer().export(run_id=42)
        assert payload["run_id"] == 42


class TestValidation:
    def test_real_export_validates(self, payload):
        validate_trace(payload)  # does not raise

    def test_round_trip_is_byte_identical(self, payload):
        assert trace_round_trips(payload)

    def test_spans_rebuild_losslessly(self, payload):
        spans = spans_from_dict(payload)
        assert [s.as_dict() for s in spans] == payload["spans"]

    def test_non_object_rejected(self):
        with pytest.raises(TraceError):
            validate_trace([1, 2, 3])

    def test_wrong_version_rejected(self, payload):
        payload["version"] = TRACE_VERSION + 1
        with pytest.raises(TraceError, match="version"):
            validate_trace(payload)

    def test_v1_payload_is_refused(self, payload):
        """The validator accepts the version it writes and no older one."""
        payload["version"] = 1
        with pytest.raises(TraceError, match="version must be 2, got 1"):
            validate_trace(payload)

    def test_unknown_kind_rejected(self, payload):
        payload["spans"][0]["kind"] = "mystery"
        with pytest.raises(TraceError, match="unknown kind"):
            validate_trace(payload)

    def test_negative_counter_rejected(self, payload):
        payload["spans"][0]["calls"] = -1
        with pytest.raises(TraceError, match="calls"):
            validate_trace(payload)

    def test_unknown_metric_counter_rejected(self, payload):
        payload["spans"][0]["metrics"]["rows_imagined"] = 7
        with pytest.raises(TraceError, match="rows_imagined"):
            validate_trace(payload)

    def test_missing_field_names_the_path(self, payload):
        del payload["spans"][0]["children"][0]["elapsed_s"]
        with pytest.raises(TraceError, match=r"spans\[0\].children\[0\]"):
            validate_trace(payload)

    def test_every_problem_is_reported(self, payload):
        payload["strategy"] = 5
        payload["spans"][0]["kind"] = "mystery"
        with pytest.raises(TraceError) as info:
            validate_trace(payload)
        message = str(info.value)
        assert "strategy" in message and "mystery" in message
