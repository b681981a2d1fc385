"""Graceful degradation: the strategy fallback chain and its event log."""

import pytest

from repro import Database, FaultRegistry, Strategy
from repro.errors import FaultInjectedError, NotApplicableError
from repro.rewrite.engine import FALLBACK_CHAIN, DegradationEvent
from repro.tpcd import EMP_DEPT_QUERY

EXISTS_QUERY = (
    "SELECT name FROM dept D WHERE EXISTS "
    "(SELECT 1 FROM emp E WHERE E.building = D.building)"
)


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    # These tests pin their own registries; an ambient REPRO_FAULTS (the CI
    # fault matrix) must not leak into them.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


class TestFallbackChain:
    def test_chain_order(self):
        assert FALLBACK_CHAIN == ("magic", "ni")

    def test_not_applicable_degrades_to_magic(self, empdept_catalog):
        db = Database(empdept_catalog)
        # Kim cannot handle existential subqueries; magic can.
        with pytest.raises(NotApplicableError):
            db.execute(EXISTS_QUERY, strategy=Strategy.KIM)
        result = db.execute(EXISTS_QUERY, strategy=Strategy.KIM, fallback=True)
        assert sorted(result.rows) == sorted(db.execute(EXISTS_QUERY).rows)
        assert len(result.degradations) == 1
        event = result.degradations[0]
        assert isinstance(event, DegradationEvent)
        assert event.requested == "kim"
        assert event.attempted == "kim"
        assert event.fallback == "magic"
        assert event.error_type == "NotApplicableError"

    def test_no_degradation_when_strategy_succeeds(self, empdept_catalog):
        db = Database(empdept_catalog)
        result = db.execute(EMP_DEPT_QUERY, strategy=Strategy.MAGIC,
                            fallback=True)
        assert result.degradations == []

    def test_injected_rewrite_fault_degrades_to_ni(self, empdept_catalog):
        # Seed 0 at rate 0.3: the first rewrite.strategy trigger fires, the
        # second does not -- magic fails, NI answers.
        db = Database(
            empdept_catalog,
            faults=FaultRegistry.parse("0:rewrite.strategy=0.3"),
        )
        result = db.execute(EMP_DEPT_QUERY, strategy=Strategy.MAGIC,
                            fallback=True)
        assert sorted(result.rows) == [("d_low",), ("research",), ("sales",)]
        assert [e.attempted for e in result.degradations] == ["magic"]
        assert result.degradations[0].fallback == "ni"
        assert result.degradations[0].error_type == "FaultInjectedError"

    def test_exhausted_chain_raises_with_full_log(self, empdept_catalog):
        db = Database(
            empdept_catalog,
            faults=FaultRegistry.parse("0:rewrite.strategy=1"),
        )
        with pytest.raises(FaultInjectedError) as raised:
            db.execute(EMP_DEPT_QUERY, strategy=Strategy.KIM, fallback=True)
        events = raised.value.degradations
        assert [e.attempted for e in events] == ["kim", "magic", "ni"]
        assert events[-1].fallback == ""
        assert all(e.requested == "kim" for e in events)

    def test_degradation_log_is_deterministic(self, empdept_catalog):
        spec = "0:rewrite.strategy=0.3"

        def run():
            db = Database(empdept_catalog, faults=FaultRegistry.parse(spec))
            result = db.execute(EMP_DEPT_QUERY, strategy=Strategy.MAGIC,
                                fallback=True)
            return [
                (e.requested, e.attempted, e.fallback, e.error_type)
                for e in result.degradations
            ], db.faults.log()

        assert run() == run()

    def test_fallback_false_raises_unchanged(self, empdept_catalog):
        db = Database(
            empdept_catalog,
            faults=FaultRegistry.parse("0:rewrite.strategy=1"),
        )
        with pytest.raises(FaultInjectedError):
            db.execute(EMP_DEPT_QUERY, strategy=Strategy.MAGIC)

    def test_requested_ni_still_degradable_chain_of_one_attempt(
        self, empdept_catalog
    ):
        # Requesting NI dedupes the chain to [ni, magic]: NI first, magic
        # only as the (never-reached) alternative.
        db = Database(empdept_catalog)
        result = db.execute(EMP_DEPT_QUERY, strategy=Strategy.NESTED_ITERATION,
                            fallback=True)
        assert result.degradations == []
        assert sorted(result.rows) == [("d_low",), ("research",), ("sales",)]
