"""Short, seeded chaos soaks (the CI job runs the long ones)."""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.errors import ExecutionError
from repro.obs.phases import PhaseTimeline
from repro.serve.service import ServiceStats, Ticket
from repro.serve.soak import (
    VIOLATION_KINDS,
    WORKLOAD,
    OverloadPhase,
    SideRecord,
    Violation,
    build_soak_catalog,
    chaos_scenario,
    compute_references,
    overload_scenario,
    overload_schedule,
    plan_cache_scenario,
    run_scenario,
    run_worker_soak,
    verify_side,
)


@pytest.mark.slow
class TestSoak:
    def test_chaos_soak_holds_the_invariant(self):
        # Faults + cancels + tight deadlines for ~1.5 s: every query must
        # produce the reference answer or a typed error, and the service
        # counters must reconcile.
        report = run_scenario(chaos_scenario(
            workers=4,
            seconds=1.5,
            seed=7,
            faults="7:storage.scan=0.002,exec.join=0.005,rewrite.strategy=0.1",
            scale=0.002,
            cancel_rate=0.1,
            tight_deadline_rate=0.2,
            breaker_threshold=2,
            breaker_cooldown=0.2,
        ))
        side = report.primary
        assert report.ok, [str(v) for v in report.all_violations()]
        assert side.stats.reconciles()
        assert side.checked_answers > 0
        assert side.stats.submitted > 0
        json.dumps(report.as_dict())  # the CLI --json payload serialises

    def test_worker_fault_scope_soak(self):
        report = run_scenario(chaos_scenario(
            workers=2,
            seconds=1.0,
            seed=11,
            faults="11:exec.group=0.01",
            scale=0.002,
            cancel_rate=0.0,
            tight_deadline_rate=0.0,
            fault_scope="worker",
        ))
        assert report.ok, [str(v) for v in report.all_violations()]
        assert report.primary.stats.completed > 0


@pytest.mark.slow
class TestWorkerSoak:
    def test_kill_per_epoch_holds_the_invariant(self):
        # One worker SIGKILLed per epoch plus injected crashes: every
        # epoch must end in the reference answer (directly or degraded)
        # or a typed error, and the worker.* events must reconcile with
        # the pool counters.
        report = run_worker_soak(
            epochs=2, n_workers=3, seed=11,
            faults="11:worker.crash=0.05",
            n_depts=12, n_emps=60,
        )
        assert report.ok, [str(v) for v in report.all_violations()]
        assert report.facts["kills"] == 2
        assert report.facts["workers_lost"] >= report.facts["kills"]
        assert (
            report.event_counts["worker.lost"] == report.facts["workers_lost"]
        )
        assert report.event_counts["worker.spawned"] == 2 * 3
        json.dumps(report.as_dict())  # the CLI --json payload serialises

    def test_no_kill_fault_free_runs_clean(self):
        report = run_worker_soak(
            epochs=2, n_workers=2, seed=3,
            kill_per_epoch=False, n_depts=12, n_emps=60,
        )
        assert report.ok
        assert report.facts["kills"] == 0
        assert report.facts["workers_lost"] == 0
        assert report.primary.outcomes == {"ok": 2}


class TestOverloadSchedule:
    def test_schedule_is_a_pure_function_of_phases_and_seed(self):
        phases = (OverloadPhase("burst", 1.0, 100.0),)
        first = overload_schedule(phases, seed=9)
        second = overload_schedule(phases, seed=9)
        assert first == second                      # replayable
        assert first != overload_schedule(phases, seed=10)
        assert all(a.offset <= 1.0 for a in first)
        assert all(a.deadline > 0 for a in first)

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError):
            overload_schedule((OverloadPhase("empty", 0.0, 10.0),))


@pytest.mark.slow
class TestOverloadSoak:
    def test_short_phased_soak_reconciles_on_both_sides(self):
        # A compressed phase plan (the CI job runs the real one): both
        # sides must answer correctly and reconcile; the scenario runs
        # without its gates because a ~2 s run is too noisy to gate on.
        scenario = overload_scenario(
            seed=13,
            workers=2,
            max_queue=8,
            scale=0.002,
            phases=(
                OverloadPhase("warmup", 0.6, 40.0),
                OverloadPhase("overload", 1.0, 250.0),
                OverloadPhase("recovery", 0.4, 20.0),
            ),
        )
        report = run_scenario(replace(scenario, gates=()))
        adaptive, fifo = report.sides["adaptive"], report.sides["fifo"]
        assert adaptive.violations == []
        assert fifo.violations == []
        assert adaptive.offered == fifo.offered
        assert adaptive.stats.reconciles()
        assert fifo.stats.reconciles()
        # The FIFO baseline has no overload machinery at all.
        assert fifo.stats.shed == 0
        assert fifo.stats.expired_in_queue == 0
        json.dumps(report.as_dict())  # the CLI --json payload serialises


class TestReferences:
    def test_references_cover_the_whole_workload(self):
        catalog = build_soak_catalog(scale=0.002)
        references = compute_references(catalog)
        for name, (_, strategies) in WORKLOAD.items():
            for strategy in strategies:
                assert (name, strategy) in references

    def test_workload_exercises_the_count_bug_divergence(self):
        # The dept table ships an employee-free building, so Kim's
        # COUNT-bug answer must differ from nested iteration on the
        # EMP/DEPT query -- the soak checks per-strategy references
        # precisely because of this designed divergence.
        catalog = build_soak_catalog(scale=0.002)
        references = compute_references(catalog)
        kind_ni, rows_ni = references[("empdept", "ni")]
        kind_kim, rows_kim = references[("empdept", "kim")]
        assert kind_ni == kind_kim == "rows"
        assert rows_ni != rows_kim


# -- the one verifier, fed hand-built tickets ----------------------------------

ROWS = [("d_bug",), ("d_busy",)]
REFERENCES = {
    ("empdept", "ni"): ("rows", sorted(ROWS)),
    ("empdept", "magic"): ("rows", sorted(ROWS)),
    ("empdept", "kim"): ("error", "RewriteError"),
}
CLEAN_STATS = dict(submitted=1, admitted=1, completed=1)


def finished_ticket(strategy="ni", rows=ROWS, error=None, fallback=None,
                    latency=0.01, phases=None, done=True):
    """A terminal :class:`Ticket` as the service would leave it."""
    ticket = Ticket(1, "select ...", strategy, guard=None, submitted_at=0.0)
    ticket.started_at = 0.0
    if done:
        ticket.latency = latency
        ticket.phases = phases
        ticket._error = error
        ticket._result = SimpleNamespace(
            rows=list(rows),
            degradations=[SimpleNamespace(fallback=fallback)] if fallback
            else [],
        )
        ticket._event.set()
    return ticket


def timeline(**durations):
    phases = PhaseTimeline(start=0.0)
    phases.durations.update(durations)
    return phases


def verdict(ticket=None, deadline=None, **stats):
    submitted = [(ticket, "empdept", deadline)] if ticket else []
    return verify_side(
        "side", submitted, REFERENCES,
        ServiceStats(**(stats or CLEAN_STATS)), elapsed=1.0,
    )


#: kind -> hand-built inputs that must raise exactly that violation.
VERIFIER_CASES = {
    "wrong_answer": [
        dict(ticket=finished_ticket(rows=[("someone else",)])),
        # Completed via a strategy whose fault-free reference is an
        # error -- requested directly, or reached through a degradation.
        dict(ticket=finished_ticket(strategy="kim")),
        dict(ticket=finished_ticket(strategy="magic", fallback="kim")),
    ],
    "untyped_error": [
        dict(ticket=finished_ticket(error=RuntimeError("boom")),
             submitted=1, admitted=1, failed=1),
    ],
    "hung_query": [
        dict(ticket=finished_ticket(done=False),
             submitted=1, admitted=1, in_flight=1),
    ],
    "phase_sum": [
        dict(ticket=finished_ticket(
            latency=0.010, phases=timeline(queue=0.004, execute=0.004),
        )),
    ],
    "reconciliation": [
        dict(submitted=2, admitted=1, completed=1),          # a lost submit
        dict(submitted=1, admitted=1),                       # a lost finish
        dict(submitted=3, admitted=3, completed=1, shed=1),  # section-9 law
    ],
}
GATE_KINDS = {"goodput_regression", "futile_regression", "cache_no_win",
              "hit_rate"}
WORKER_KINDS = {"trace_schema", "trace_reconciliation"}


class TestVerifier:
    def test_the_kinds_are_one_enumerated_set(self):
        # Every kind the harness can emit is verified here, gated below,
        # or belongs to the traced real-worker epochs.
        assert (
            set(VERIFIER_CASES) | GATE_KINDS | WORKER_KINDS
            == set(VIOLATION_KINDS)
        )
        with pytest.raises(ValueError):
            Violation("made_up_kind", "", "", "never emitted")

    @pytest.mark.parametrize("kind", VERIFIER_CASES)
    def test_each_kind_is_raised(self, kind):
        for case in VERIFIER_CASES[kind]:
            record = verdict(**case)
            assert [v.kind for v in record.violations] == [kind], case

    def test_clean_tickets_raise_none(self):
        for ticket in (
            finished_ticket(),
            finished_ticket(strategy="kim", fallback="magic"),
            finished_ticket(latency=0.010,
                            phases=timeline(queue=0.004, execute=0.006)),
        ):
            record = verdict(ticket)
            assert record.violations == []
            assert record.checked_answers == record.goodput == 1
            assert record.outcomes == {"ok": 1}

    def test_typed_errors_and_late_answers_are_futile_not_violations(self):
        failed = verdict(
            finished_ticket(error=ExecutionError("typed")),
            submitted=1, admitted=1, failed=1,
        )
        assert failed.violations == []
        assert failed.outcomes == {"ExecutionError": 1}
        late = verdict(finished_ticket(latency=0.5), deadline=0.1)
        assert late.violations == []
        assert late.outcomes == {"late": 1}
        assert late.checked_answers == 1     # late, but still verified
        assert failed.futile_executions == late.futile_executions == 1
        assert failed.goodput == late.goodput == 0


class TestGates:
    @staticmethod
    def side(goodput, futile=0, hit_rate=None):
        return SideRecord(
            "side", goodput=goodput, futile_executions=futile,
            stats=ServiceStats(plan_cache={"hit_rate": hit_rate}),
        )

    def failed(self, scenario, primary, other):
        return {
            kind for kind, holds in scenario.gates
            if not holds(primary, other)
        }

    def test_every_gate_bites_and_passes(self):
        overload, cached = overload_scenario(), plan_cache_scenario()
        side = self.side
        assert self.failed(overload, side(5, 1), side(6, 0)) == {
            "goodput_regression", "futile_regression",
        }
        assert self.failed(overload, side(6, 1), side(6, 1)) == set()
        # The cache must win *strictly*, above the hit-rate floor.
        assert self.failed(cached, side(6, hit_rate=0.9), side(6)) == {
            "cache_no_win", "hit_rate",
        }
        assert self.failed(cached, side(7, hit_rate=0.95), side(6)) == set()
        assert GATE_KINDS == {
            kind for scenario in (overload, cached)
            for kind, _ in scenario.gates
        }
        assert chaos_scenario().gates == ()
