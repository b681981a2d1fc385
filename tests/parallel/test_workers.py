"""Real worker-process executor: simulator parity, crash recovery,
process-level fault injection, graceful degradation, and the stale-result
(no-partial-answer) regression."""

import pytest

from repro.errors import (
    BudgetExceeded,
    WorkerPoolError,
    WorkerTaskError,
)
from repro.faults import FaultRegistry
from repro.guard import Limits
from repro.obs.events import EventLog, RingSink, count_by_kind
from repro.parallel import (
    RetryPolicy,
    WorkerPool,
    local_reference,
    run_real,
    run_real_decorrelated,
    run_real_nested_iteration,
    simulate_decorrelated,
    simulate_nested_iteration,
)
from repro.parallel import plans
from repro.parallel.cluster import Cluster
from repro.parallel.workers import Task, _WorkerState
from repro.tpcd import load_empdept

#: Fast-failure pool knobs: recovery paths trigger in tens of
#: milliseconds instead of the production half-second timeouts.
FAST = dict(
    heartbeat_interval=0.02,
    heartbeat_timeout=0.3,
    task_timeout=2.0,
)


@pytest.fixture(scope="module")
def data():
    catalog = load_empdept(n_depts=12, n_emps=60, n_buildings=5, seed=7)
    return list(catalog.table("dept").rows), list(catalog.table("emp").rows)


@pytest.fixture(scope="module")
def reference(data):
    return local_reference(*data)


#: One qualifying department whose correlation binding is NULL (d0), one
#: bound one, one that fails the outer predicate -- the input on which
#: substituting the binding and correlating on it part ways.
NULL_BINDING = (
    [("d0", 500.0, 1, None), ("d1", 500.0, 9, "B1"), ("d2", 99999.0, 1, "B2")],
    [(i, f"e{i}", f"B{i % 3}", 10.0) for i in range(20)],
)

STRATEGIES = {
    "nested_iteration": simulate_nested_iteration,
    "magic_decorrelated": simulate_decorrelated,
}


class TestRetryPolicy:
    def test_exponential_growth(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0,
                             max_attempts=5)
        assert [policy.delay(a) for a in range(4)] == [1.0, 2.0, 4.0, 8.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5,
                             max_attempts=3)
        assert policy.delay(1, seed=9) == policy.delay(1, seed=9)
        assert 1.0 <= policy.delay(1, seed=9) <= 1.5
        assert policy.delay(1, seed=9) != policy.delay(1, seed=10)

    def test_allows_bounds_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(0) and policy.allows(2)
        assert not policy.allows(3)

    @pytest.mark.parametrize("kwargs", [
        dict(base_delay=-1.0),
        dict(multiplier=0.5),
        dict(jitter=1.5),
        dict(jitter=-0.1),
        dict(max_attempts=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_measured_default_is_bounded_exponential_with_jitter(self):
        policy = RetryPolicy()
        assert (policy.base_delay, policy.multiplier, policy.jitter,
                policy.max_attempts) == (0.05, 2.0, 0.25, 4)
        assert not policy.allows(policy.max_attempts)


class TestFaultFreeParity:
    """Fault-free, the measured run must agree with both the fault-free
    single-process reference and the simulator's accounting -- both
    back-ends run the same plan functions, so this holds for any input."""

    @pytest.fixture(params=["generator", "null_binding"])
    def rows(self, request, data):
        return data if request.param == "generator" else NULL_BINDING

    @pytest.mark.parametrize("runner,simulator", [
        (run_real_nested_iteration, simulate_nested_iteration),
        (run_real_decorrelated, simulate_decorrelated),
    ])
    def test_answer_and_messages_match_the_simulator(
        self, data, runner, simulator
    ):
        for dept_rows, emp_rows in (data, NULL_BINDING):
            reference = local_reference(dept_rows, emp_rows)
            for n in (1, 2, 3):
                sim = simulator(dept_rows, emp_rows, n)
                run = runner(dept_rows, emp_rows, n, **FAST)
                assert run.answer == sim.answer == reference
                assert run.messages == sim.messages
                assert run.fragments == sim.fragments
                assert run.rows_processed == sim.rows_processed
                assert run.tasks == sim.tasks
                assert not run.degraded
                assert run.retries == 0 and run.workers_lost == 0

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_both_back_ends_are_asked_the_same_things(
        self, rows, strategy, monkeypatch
    ):
        # The ledger: every fragment a plan hands to run_tasks and every
        # exchange it asks for, recorded at each back-end's own methods.
        ledgers = {Cluster: [], WorkerPool: []}

        def record(cls):
            run_tasks, exchange = cls.run_tasks, cls.exchange

            def recording_run_tasks(self, tasks):
                tasks = list(tasks)
                ledgers[cls].extend(
                    (t.task_id, t.partition, t.op, t.payload, t.origin)
                    for t in tasks
                )
                return run_tasks(self, tasks)

            def recording_exchange(self, name, *args, **kwargs):
                exchange(self, name, *args, **kwargs)
                ledgers[cls].append(
                    (name, [len(p) for p in self.table_partitions(name)])
                )

            monkeypatch.setattr(cls, "run_tasks", recording_run_tasks)
            monkeypatch.setattr(cls, "exchange", recording_exchange)

        record(Cluster)
        record(WorkerPool)
        dept_rows, emp_rows = rows
        STRATEGIES[strategy](dept_rows, emp_rows, 3)
        run_real(strategy, dept_rows, emp_rows, 3, **FAST)
        assert ledgers[Cluster], "nothing recorded"
        assert ledgers[Cluster] == ledgers[WorkerPool]

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_both_back_ends_call_the_same_plan_function(
        self, data, strategy, monkeypatch
    ):
        plan = plans.PLANS[strategy]
        assert plan in (plans.ni_plan, plans.decorrelated_plan)
        handed = []

        def spy(backend, budget_limit):
            handed.append(type(backend))
            return plan(backend, budget_limit)

        monkeypatch.setitem(plans.PLANS, strategy, spy)
        STRATEGIES[strategy](*data, 2)
        run_real(strategy, *data, 2, **FAST)
        assert handed == [Cluster, WorkerPool]

    def test_rejects_unknown_strategy(self, data):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_real("broadcast", *data, 2)


class TestCrashRecovery:
    def test_sigkill_mid_query_recovers_without_degrading(
        self, data, reference
    ):
        dept_rows, emp_rows = data
        events = EventLog(RingSink(4096))

        run = run_real_decorrelated(
            dept_rows, emp_rows, 3,
            events=events, on_pool=lambda pool: pool.kill_worker(1),
            **FAST,
        )
        assert run.answer == reference
        assert not run.degraded
        assert run.workers_lost == 1
        assert run.retries >= 1
        counts = count_by_kind(events.events())
        assert counts["worker.spawned"] == 3
        assert counts["worker.lost"] == run.workers_lost
        assert counts["worker.retry"] == run.retries

    def test_crash_during_exchange_never_yields_partial_answer(
        self, data, reference
    ):
        # The regression the ledger's epoch tags exist for: a worker dying
        # while exchange/probe tasks are in flight must produce either the
        # full reference answer or a typed error -- never a subset.
        dept_rows, emp_rows = data
        for victim in (0, 1, 2):
            run = run_real_nested_iteration(
                dept_rows, emp_rows, 3,
                on_pool=lambda pool, v=victim: pool.kill_worker(v),
                **FAST,
            )
            assert run.answer == reference, (
                f"killing worker {victim} changed the answer: "
                f"{len(run.answer)} rows vs reference {len(reference)}"
            )

    def test_injected_crashes_recover_or_degrade_correctly(
        self, data, reference
    ):
        dept_rows, emp_rows = data
        run = run_real_decorrelated(
            dept_rows, emp_rows, 3,
            faults=FaultRegistry.parse("3:worker.crash=0.05"),
            **FAST,
        )
        # Whatever the schedule killed, the metamorphic property holds.
        assert run.answer == reference

    def test_exchange_drop_is_recovered_by_task_timeout(
        self, data, reference
    ):
        dept_rows, emp_rows = data
        run = run_real_decorrelated(
            dept_rows, emp_rows, 3,
            faults=FaultRegistry.parse("1:exchange.drop=0.15"),
            heartbeat_interval=0.02, heartbeat_timeout=0.5,
            task_timeout=0.5,
        )
        assert run.answer == reference
        assert run.retries >= 1
        assert run.workers_lost == 0  # dropped sends kill no process


class TestStaleResults:
    """Unit-level: a result from a superseded attempt can never merge."""

    def _pool_with_pending(self):
        pool = WorkerPool(2)
        task = Task("t.0", 0, "sql", ("select 1", "ni"), attempt=2)
        pool._pending["t.0"] = task
        state = _WorkerState(
            worker_id=0, process=None, task_queue=None,
            result_queue=None, last_seen=0.0,
        )
        return pool, task, state

    def test_result_from_old_attempt_is_dropped(self):
        pool, task, state = self._pool_with_pending()
        pool._handle(state, ("result", 0, "t.0", 1, [("stale",)], None, []))
        assert pool.stale_results == 1
        assert not task.done and task.result is None
        assert "t.0" in pool._pending

    def test_result_for_current_attempt_merges(self):
        pool, task, state = self._pool_with_pending()
        pool._handle(state, ("result", 0, "t.0", 2, [("fresh",)], None, []))
        assert pool.stale_results == 0
        assert task.done and task.result == [("fresh",)]
        assert "t.0" not in pool._pending

    def test_error_from_old_attempt_is_dropped(self):
        pool, task, state = self._pool_with_pending()
        pool._handle(state, ("error", 0, "t.0", 1, "ValueError", "late"))
        assert pool.stale_results == 1
        assert not task.done

    def test_error_for_current_attempt_is_typed_and_terminal(self):
        pool, task, state = self._pool_with_pending()
        with pytest.raises(WorkerTaskError) as excinfo:
            pool._handle(state, ("error", 0, "t.0", 2, "ValueError", "boom"))
        assert excinfo.value.task_id == "t.0"

    def test_marking_lost_bumps_epochs_before_any_further_drain(self, data):
        # Integration flavor of the same property: after kill + recovery,
        # any result the dead worker managed to enqueue is counted stale,
        # not merged -- so the stale counter and the correct answer can
        # coexist, while a wrong answer cannot.
        dept_rows, emp_rows = data
        run = run_real_nested_iteration(
            dept_rows, emp_rows, 3,
            on_pool=lambda pool: pool.kill_worker(2),
            **FAST,
        )
        assert run.answer == local_reference(dept_rows, emp_rows)


class TestDegradation:
    def test_dead_pool_degrades_to_local_with_event(self, data, reference):
        dept_rows, emp_rows = data
        events = EventLog(RingSink(4096))
        run = run_real_decorrelated(
            dept_rows, emp_rows, 2,
            faults=FaultRegistry.parse("1:worker.crash=1.0"),
            events=events,
            **FAST,
        )
        assert run.degraded
        assert run.answer == reference
        [event] = run.degradations
        assert event.requested == "real:magic_decorrelated"
        assert event.fallback == "local"
        counts = count_by_kind(events.events())
        assert counts["worker.degraded"] == 1

    def test_degrade_false_raises_typed_worker_error(self, data):
        dept_rows, emp_rows = data
        with pytest.raises((WorkerTaskError, WorkerPoolError)):
            run_real_decorrelated(
                dept_rows, emp_rows, 2,
                faults=FaultRegistry.parse("1:worker.crash=1.0"),
                degrade=False,
                **FAST,
            )

    def test_budget_trips_propagate_even_with_degrade(self, data):
        # Governance is not an infrastructure failure: remote work counts
        # against the coordinator's budget and the trip is never absorbed
        # by the local fallback.
        dept_rows, emp_rows = data
        with pytest.raises(BudgetExceeded):
            run_real_decorrelated(
                dept_rows, emp_rows, 2,
                limits=Limits(max_rows_scanned=5),
                **FAST,
            )


class TestPoolValidation:
    def test_needs_at_least_one_worker(self):
        with pytest.raises(WorkerPoolError):
            WorkerPool(0)

    def test_closed_pool_refuses_restart(self):
        pool = WorkerPool(1, **FAST)
        pool.start()
        pool.close()
        with pytest.raises(WorkerPoolError):
            pool.start()


class TestCrossProcessTracing:
    """The grafting contract: workers run child tracers, the coordinator
    grafts their span trees under the distributing operator, and summing
    exclusive per-span metrics over the grafted tree reproduces the pool
    counters exactly (coordinator-side spans carry no counters, and only
    epoch-accepted results are grafted -- the same rule the counters
    follow)."""

    def _worker_spans(self, tracer):
        (root,) = tracer.roots
        workers = [c for c in root.children if c.kind == "worker"]
        return root, workers

    @pytest.mark.parametrize("runner,strategy", [
        (run_real_nested_iteration, "nested_iteration"),
        (run_real_decorrelated, "magic_decorrelated"),
    ])
    def test_grafted_metrics_reconcile_exactly(
        self, data, reference, runner, strategy
    ):
        from repro.trace import Tracer, trace_round_trips, validate_trace

        dept_rows, emp_rows = data
        tracer = Tracer()
        run = runner(dept_rows, emp_rows, 3, tracer=tracer, **FAST)
        assert run.answer == reference
        root, workers = self._worker_spans(tracer)
        assert root.key == ("parallel", strategy)
        assert root.kind == "operator"
        assert workers, "no worker spans grafted"
        for wspan in workers:
            assert wspan.attrs["pid"]
            assert wspan.attrs["worker_id"] == wspan.key[1]
            for dispatch in wspan.children:
                assert dispatch.kind == "dispatch"
                assert dispatch.attrs["outcome"] == "accepted"
                assert dispatch.children, "accepted dispatch without spans"
        # Exact, not approximate: the attribution invariant across the
        # process boundary.
        assert tracer.metric_totals()["rows_scanned"] == run.rows_processed
        export = tracer.export(sql="parity", strategy=strategy)
        validate_trace(export)
        assert trace_round_trips(export)

    def test_killed_worker_retry_is_a_visible_sibling(
        self, data, reference
    ):
        from repro.trace import Tracer

        dept_rows, emp_rows = data
        tracer = Tracer()
        run = run_real_decorrelated(
            dept_rows, emp_rows, 3, tracer=tracer,
            on_pool=lambda pool: pool.kill_worker(1),
            **FAST,
        )
        assert run.answer == reference
        assert run.workers_lost == 1 and run.retries >= 1
        _, workers = self._worker_spans(tracer)
        dispatches = [d for w in workers for d in w.children]
        retried = [
            d for d in dispatches if d.attrs["outcome"] == "retried"
        ]
        assert len(retried) == run.retries
        assert all(d.attrs.get("reason") for d in retried)
        # A retried dispatch never carries grafted spans (its result, if
        # any arrived, was stale) -- and the re-hosted attempt of the same
        # task is accepted elsewhere in the tree.
        for d in retried:
            assert not d.children
            rehosted = [
                a for a in dispatches
                if a.attrs["task"] == d.attrs["task"]
                and a.attrs["outcome"] == "accepted"
            ]
            assert rehosted, f"task {d.attrs['task']} never re-hosted"
        # Reconciliation survives the kill: stale results merge nothing,
        # grafting grafts nothing stale.
        assert tracer.metric_totals()["rows_scanned"] == run.rows_processed

    def test_untraced_run_never_touches_the_graft_path(
        self, data, reference, monkeypatch
    ):
        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("graft machinery reached without a tracer")

        monkeypatch.setattr(WorkerPool, "_graft", boom)
        monkeypatch.setattr(WorkerPool, "_graft_dispatch", boom)
        dept_rows, emp_rows = data
        run = run_real_decorrelated(dept_rows, emp_rows, 2, **FAST)
        assert run.answer == reference
