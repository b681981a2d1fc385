"""Execution guardrails: budgets, cancellation, zero-overhead default."""

import threading

import pytest

from repro import Database, ExecutionGuard, FaultRegistry, Limits, Strategy
from repro.errors import BudgetExceeded, GuardrailError, QueryCancelled
from repro.exec import Metrics
from repro.guard import guard_for
from repro.tpcd import EMP_DEPT_QUERY


@pytest.fixture
def db(empdept_catalog) -> Database:
    return Database(empdept_catalog)


class TestLimits:
    def test_guard_for_none_is_none(self):
        assert guard_for(None) is None
        assert isinstance(guard_for(Limits()), ExecutionGuard)


class TestBudgets:
    def test_rows_scanned_budget_trips(self, db):
        with pytest.raises(BudgetExceeded) as info:
            db.execute(EMP_DEPT_QUERY, limits=Limits(max_rows_scanned=3))
        error = info.value
        assert error.budget == "max_rows_scanned"
        assert error.limit == 3
        assert error.observed > 3
        # The metrics snapshot at trip time is attached and consistent.
        assert error.metrics is not None
        assert error.metrics.rows_scanned == error.observed

    def test_trip_is_within_one_step_of_the_limit(self, db):
        # The check runs at step granularity: the observed overshoot is at
        # most one step's worth of rows (here: one full table scan).
        biggest_table = max(
            len(t) for t in (db.catalog.table("dept"), db.catalog.table("emp"))
        )
        with pytest.raises(BudgetExceeded) as info:
            db.execute(EMP_DEPT_QUERY, limits=Limits(max_rows_scanned=1))
        assert info.value.observed <= 1 + biggest_table

    def test_subquery_invocation_budget_trips(self, db):
        with pytest.raises(BudgetExceeded) as info:
            db.execute(
                EMP_DEPT_QUERY,
                strategy=Strategy.NESTED_ITERATION,
                limits=Limits(max_subquery_invocations=2),
            )
        assert info.value.budget == "max_subquery_invocations"

    def test_decorrelated_strategies_do_not_invoke_subqueries(self, db):
        # The same budget that kills NI passes for the decorrelated plan --
        # the paper's whole point, now enforceable as a guardrail.
        result = db.execute(
            EMP_DEPT_QUERY,
            strategy=Strategy.MAGIC,
            limits=Limits(max_subquery_invocations=2),
        )
        assert sorted(result.rows) == sorted(
            db.execute(EMP_DEPT_QUERY).rows
        )

    def test_rows_materialized_budget_trips(self, db):
        with pytest.raises(BudgetExceeded) as info:
            db.execute(
                EMP_DEPT_QUERY,
                strategy=Strategy.MAGIC,
                cse_mode="materialize",
                limits=Limits(max_rows_materialized=0),
            )
        assert info.value.budget == "max_rows_materialized"

    def test_timeout_budget_trips(self, db):
        clock_value = [0.0]

        def clock() -> float:
            clock_value[0] += 10.0
            return clock_value[0]

        guard = ExecutionGuard(Limits(timeout=5.0), clock=clock)
        with pytest.raises(BudgetExceeded) as info:
            db.execute(EMP_DEPT_QUERY, guard=guard)
        assert info.value.budget == "timeout"
        assert guard.tripped is info.value

    def test_generous_budgets_do_not_trip(self, db):
        result = db.execute(
            EMP_DEPT_QUERY,
            limits=Limits(
                timeout=3600.0,
                max_rows_scanned=10**9,
                max_rows_materialized=10**9,
                max_subquery_invocations=10**9,
            ),
        )
        assert sorted(result.rows) == [("d_low",), ("research",), ("sales",)]

    def test_budget_error_is_typed(self, db):
        with pytest.raises(GuardrailError):
            db.execute(EMP_DEPT_QUERY, limits=Limits(max_rows_scanned=0))


class TestCancellation:
    def test_pre_cancelled_guard_stops_immediately(self, db):
        guard = ExecutionGuard(Limits())
        guard.cancel()
        with pytest.raises(QueryCancelled) as info:
            db.execute(EMP_DEPT_QUERY, guard=guard)
        assert guard.cancelled
        assert info.value.metrics is not None

    def test_cancel_from_another_thread(self, empdept_catalog):
        # A cooperative cancel lands within one executor step: use a clock
        # hook-free approach -- cancel after the first check observed.
        db = Database(empdept_catalog)
        guard = ExecutionGuard(Limits())
        started = threading.Event()

        original_check = guard.check

        def checking():
            started.set()
            original_check()

        guard.check = checking  # type: ignore[method-assign]
        canceller = threading.Thread(
            target=lambda: (started.wait(5), guard.cancel())
        )
        canceller.start()
        try:
            # Big enough NI workload that cancellation lands mid-flight on
            # any machine; raises QueryCancelled once observed.
            with pytest.raises(QueryCancelled):
                for _ in range(1000):
                    db.execute(EMP_DEPT_QUERY, guard=guard)
        finally:
            canceller.join()


class TestZeroOverheadDefault:
    def test_no_limits_identical_metrics(self, db):
        plain = db.execute(EMP_DEPT_QUERY, strategy=Strategy.MAGIC)
        limited = db.execute(
            EMP_DEPT_QUERY, strategy=Strategy.MAGIC, limits=Limits()
        )
        assert plain.metrics.as_dict() == limited.metrics.as_dict()
        assert plain.rows == limited.rows

    def test_metrics_snapshot_is_a_copy(self, db):
        with pytest.raises(BudgetExceeded) as info:
            db.execute(EMP_DEPT_QUERY, limits=Limits(max_rows_scanned=1))
        snapshot = info.value.metrics
        assert snapshot is not None
        assert isinstance(snapshot, Metrics)
        before = snapshot.rows_scanned
        snapshot.rows_scanned += 123
        with pytest.raises(BudgetExceeded) as second:
            db.execute(EMP_DEPT_QUERY, limits=Limits(max_rows_scanned=1))
        assert second.value.metrics.rows_scanned == before


class _ScanGate(FaultRegistry):
    """Blocks the executing thread inside its first table scan until
    released -- a deterministic window for cross-thread cancellation."""

    def __init__(self):
        super().__init__(0, ())
        self.started = threading.Event()
        self.release = threading.Event()

    def trigger(self, site: str, detail: str = "") -> None:
        if site == "storage.scan":
            self.started.set()
            assert self.release.wait(30), "gate never released"


class TestCrossThreadCancellationPerStrategy:
    """Satellite: a ``cancel()`` issued from a second thread mid-scan must
    surface as ``QueryCancelled`` (with a metrics snapshot) within one
    executor step, for every rewrite strategy."""

    @pytest.mark.parametrize(
        "strategy", ["ni", "kim", "dayal", "magic", "magic_opt"]
    )
    def test_cancel_mid_scan(self, empdept_catalog, strategy):
        gate = _ScanGate()
        db = Database(empdept_catalog, faults=gate)
        guard = ExecutionGuard(Limits())
        outcome: list = []

        def run() -> None:
            try:
                db.execute(EMP_DEPT_QUERY, strategy=strategy, guard=guard)
                outcome.append(None)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome.append(exc)

        worker = threading.Thread(target=run)
        worker.start()
        try:
            assert gate.started.wait(30)  # wedged inside the first scan
            guard.cancel()                # ... from this (second) thread
        finally:
            gate.release.set()
            worker.join(30)
        assert not worker.is_alive(), f"{strategy}: query wedged"
        assert len(outcome) == 1
        error = outcome[0]
        assert isinstance(error, QueryCancelled), error
        assert error.metrics is not None
        assert guard.tripped is error


GROUP_BY = "select building, count(*), min(salary) from emp group by building"
OUTER_JOIN = (
    "select d.name, e.name from dept d left join emp e "
    "on d.building = e.building"
)


class _CancelAtCheck(ExecutionGuard):
    """Counts its checks, and cancels the query at the ``at``-th one."""

    def __init__(self, at=None):
        super().__init__(Limits())
        self.at = at
        self.checks = 0

    def check(self):
        self.checks += 1
        if self.checks == self.at:
            self.cancel()
        super().check()


def _work(metrics):
    """The counters that moved."""
    return {name: n for name, n in metrics.as_dict().items() if n}


class TestKernelsKeepTheirChecks:
    """The batch kernels of GROUP BY and the outer join (one hash build,
    grouping by value, the ON condition as a filter) do their work between
    the same checkpoints: a budget trips, and a cancel lands, where it
    always did and with the same counters."""

    @pytest.mark.parametrize("sql, limit, snapshot", [
        # The SPJ box under the GROUP BY keeps its six rows as a temp, the
        # work table adds six.
        (GROUP_BY, 11, {
            "rows_scanned": 6, "rows_joined": 6, "rows_grouped": 6,
            "rows_materialized": 12, "peak_rows_materialized": 12,
            "total_work": 18,
        }),
        (OUTER_JOIN, 5, {
            "rows_scanned": 13, "rows_materialized": 6,
            "peak_rows_materialized": 6, "total_work": 13,
        }),
    ], ids=["group-by", "outer-join"])
    def test_a_work_table_one_row_over_the_budget_trips_it(
        self, db, sql, limit, snapshot
    ):
        """Six emp rows partitioned by key, or built into the hash table of
        the join, under a budget of rows materialized that is one short."""
        with pytest.raises(BudgetExceeded) as info:
            db.execute(sql, limits=Limits(max_rows_materialized=limit))
        error = info.value
        assert (error.budget, error.limit, error.observed) == (
            "max_rows_materialized", limit, limit + 1
        )
        assert _work(error.metrics) == snapshot
        assert db.execute(sql, limits=Limits(max_rows_materialized=100)).rows

    @pytest.mark.parametrize("sql, states", [
        (GROUP_BY, [
            (3, {}),
            (1, {"rows_scanned": 6, "total_work": 6}),
            (1, {
                "rows_scanned": 6, "rows_joined": 6, "rows_materialized": 6,
                "peak_rows_materialized": 6, "total_work": 12,
            }),
            (1, {
                "rows_scanned": 6, "rows_joined": 6, "rows_grouped": 6,
                "rows_materialized": 6, "peak_rows_materialized": 6,
                "total_work": 18,
            }),
            # The work table, then one check per aggregate per group: 2 x 3.
            (7, {
                "rows_scanned": 6, "rows_joined": 6, "rows_grouped": 6,
                "rows_materialized": 12, "peak_rows_materialized": 12,
                "total_work": 18,
            }),
            (1, {
                "rows_scanned": 6, "rows_joined": 6, "rows_grouped": 6,
                "rows_materialized": 15, "rows_freed": 6,
                "peak_rows_materialized": 12, "total_work": 18,
            }),
        ]),
        (OUTER_JOIN, [
            (3, {}),
            (1, {"rows_scanned": 7, "total_work": 7}),
            (1, {"rows_scanned": 13, "total_work": 13}),
            # The hash build of emp, then the joined rows, kept as a temp.
            (1, {
                "rows_scanned": 13, "rows_materialized": 6,
                "peak_rows_materialized": 6, "total_work": 13,
            }),
            (1, {
                "rows_scanned": 13, "rows_joined": 15, "rows_materialized": 22,
                "rows_freed": 6, "peak_rows_materialized": 16, "total_work": 28,
            }),
            (1, {
                "rows_scanned": 13, "rows_joined": 31, "rows_materialized": 38,
                "rows_freed": 6, "peak_rows_materialized": 32, "total_work": 44,
            }),
        ]),
    ], ids=["group-by", "outer-join"])
    def test_a_cancel_lands_at_every_checkpoint_with_its_counters(
        self, db, sql, states
    ):
        """``states``: run lengths of checks over the counters they see."""
        counting = _CancelAtCheck()
        db.execute(sql, guard=counting)
        assert counting.checks == sum(n for n, _ in states)
        expected = [work for n, work in states for _ in range(n)]
        for at, work in enumerate(expected, start=1):
            with pytest.raises(QueryCancelled) as info:
                db.execute(sql, guard=_CancelAtCheck(at))
            assert _work(info.value.metrics) == work, at
