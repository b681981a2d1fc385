"""Tests for the shared-nothing parallel simulator (paper section 6)."""

import pytest

from repro import Database
from repro.errors import BudgetExceeded
from repro.guard import Limits
from repro.parallel import (
    Cluster,
    ParallelMetrics,
    repartition,
    simulate_decorrelated,
    simulate_nested_iteration,
    sweep_nodes,
)
from repro.parallel.plans import batches
from repro.tpcd import EMP_DEPT_QUERY, load_empdept

#: A two-column table for the placement tests.
KV = (("k", "INT", False), ("v", "STR", True))


@pytest.fixture(scope="module")
def empdept_rows():
    catalog = load_empdept(n_depts=60, n_emps=500, n_buildings=12, seed=7)
    return (
        list(catalog.table("dept").rows),
        list(catalog.table("emp").rows),
        catalog,
    )


class TestCluster:
    def test_partitioning_covers_all_rows(self):
        cluster = Cluster(4)
        rows = [(i, f"v{i}") for i in range(100)]
        cluster.load_partitioned("t", KV, (), rows, key=lambda r: r[0])
        total = sum(len(part) for part in cluster.table_partitions("t"))
        assert total == 100

    def test_same_key_same_node(self):
        cluster = Cluster(4)
        rows = [(i % 5, f"v{i}") for i in range(50)]
        cluster.load_partitioned("t", KV, (), rows, key=lambda r: r[0])
        parts = cluster.table_partitions("t")
        for node in range(4):
            keys = {r[0] for r in parts[node]}
            for other in range(node + 1, 4):
                assert keys.isdisjoint({r[0] for r in parts[other]})

    def test_loopback_is_free(self):
        cluster = Cluster(2)
        cluster.send(0, 0, 10)
        assert cluster.nodes[0].messages_sent == 0

    def test_null_key_routes_to_node_zero(self):
        cluster = Cluster(3)
        assert cluster.owner(None) == 0

    def test_hash_partition_counts_row_shipping(self):
        source = [[(1, "a"), (2, "b")], [(3, "c"), (4, "d")]]
        result, shipped_rows = repartition(2, source, key=lambda r: r[0])
        assert sum(len(p) for p in result) == 4
        kept = sum(
            1 for home, rows in enumerate(source)
            for row in rows if row in result[home]
        )
        assert sum(shipped_rows.values()) + kept == 4
        assert all(sender != receiver for sender, receiver in shipped_rows)
        # An exchange charges each sender/receiver pair its own batches.
        cluster = Cluster(2)
        cluster.exchange("t", KV, (), source, key=lambda r: r[0])
        shipped = sum(n.messages_sent for n in cluster.nodes)
        assert shipped == sum(batches(n) for n in shipped_rows.values())
        locally_kept = 4 - shipped
        assert 0 <= shipped <= 4 and locally_kept >= 0

    def test_exchange_batches_per_sender_receiver_pair(self):
        # 120 rows leave node 1: ceil(rows / 50) messages to each receiver,
        # never one per row and never one ceil over the sender's total.
        source = [[], [(i, "x") for i in range(120)], []]
        _, shipped_rows = repartition(3, source, key=lambda r: r[0])
        assert set(shipped_rows) == {(1, 0), (1, 2)}
        cluster = Cluster(3)
        cluster.exchange("t", KV, (), source, key=lambda r: r[0])
        assert cluster.nodes[1].messages_sent == sum(
            -(-n // 50) for n in shipped_rows.values()
        )
        assert [batches(n) for n in (0, 1, 50, 51)] == [0, 1, 1, 2]

    def test_single_node_cluster(self):
        cluster = Cluster(1)
        cluster.exchange("t", KV, (), [[(1, "a"), (2, "b")]], key=lambda r: r[0])
        assert cluster.nodes[0].messages_sent == 0


class TestSimulations:
    def test_both_strategies_agree_with_engine(self, empdept_rows):
        dept, emp, catalog = empdept_rows
        oracle = sorted(Database(catalog).execute(EMP_DEPT_QUERY).rows)
        for n in (1, 2, 3, 8):
            ni = simulate_nested_iteration(dept, emp, n)
            magic = simulate_decorrelated(dept, emp, n)
            assert ni.answer == oracle, f"NI wrong at n={n}"
            assert magic.answer == oracle, f"decorrelated wrong at n={n}"

    def test_ni_fragments_quadratic(self, empdept_rows):
        dept, emp, _ = empdept_rows
        for n in (2, 4, 8):
            ni = simulate_nested_iteration(dept, emp, n)
            assert ni.fragments == n * n  # every node serves every node
            magic = simulate_decorrelated(dept, emp, n)
            assert magic.fragments == n  # one local pipeline per node

    def test_ni_messages_grow_with_nodes(self, empdept_rows):
        dept, emp, _ = empdept_rows
        ni2 = simulate_nested_iteration(dept, emp, 2)
        ni8 = simulate_nested_iteration(dept, emp, 8)
        assert ni8.messages > ni2.messages
        # Two messages (request + reply) per qualifying dept per remote node.
        qualifying = sum(1 for d in dept if d[1] is not None and d[1] < 10000)
        assert ni8.messages == qualifying * 7 * 2

    def test_decorrelated_messages_bounded_by_repartitioning(self, empdept_rows):
        dept, emp, _ = empdept_rows
        magic = simulate_decorrelated(dept, emp, 8)
        qualifying = sum(1 for d in dept if d[1] is not None and d[1] < 10000)
        # At most one shipment per supp row plus one per emp row.
        assert magic.messages <= qualifying + len(emp)

    def test_decorrelated_beats_ni_at_scale(self, empdept_rows):
        dept, emp, _ = empdept_rows
        for n in (2, 4, 8):
            ni = simulate_nested_iteration(dept, emp, n)
            magic = simulate_decorrelated(dept, emp, n)
            assert magic.rows_processed < ni.rows_processed
            assert magic.messages < ni.messages

    def test_ni_work_does_not_scale_down(self, empdept_rows):
        # NI's total row work *grows* with the cluster: every invocation
        # scans every partition (the section 6.1 pathology).
        dept, emp, _ = empdept_rows
        ni1 = simulate_nested_iteration(dept, emp, 1)
        ni8 = simulate_nested_iteration(dept, emp, 8)
        assert ni8.rows_processed >= ni1.rows_processed

    def test_decorrelated_work_is_constant_in_nodes(self, empdept_rows):
        dept, emp, _ = empdept_rows
        m1 = simulate_decorrelated(dept, emp, 1)
        for n in (2, 3):
            assert simulate_decorrelated(dept, emp, n).rows_processed == (
                m1.rows_processed
            )
        # At 8 nodes one EMP partition holds only buildings without a
        # qualifying department: its magic table is empty and the engine
        # inside that node does not scan EMP at all (49 rows) -- exactly
        # what the real workers measure there. Never more than one node's
        # work, the section 6.2 claim.
        m8 = simulate_decorrelated(dept, emp, 8)
        assert m8.rows_processed == m1.rows_processed - 49

    def test_sweep(self, empdept_rows):
        dept, emp, _ = empdept_rows
        results = sweep_nodes(dept, emp, node_counts=[1, 2, 4])
        assert len(results) == 3
        for ni, magic in results:
            assert isinstance(ni, ParallelMetrics)
            assert ni.answer == magic.answer

    @pytest.mark.parametrize(
        "simulate", [simulate_nested_iteration, simulate_decorrelated]
    )
    def test_limits_trip_with_a_metrics_snapshot(self, empdept_rows, simulate):
        # Simulated remote work reaches the guard the way measured work
        # does (``absorb``), and governance propagates typed.
        dept, emp, _ = empdept_rows
        with pytest.raises(BudgetExceeded) as excinfo:
            simulate(dept, emp, 2, limits=Limits(max_rows_scanned=5))
        assert excinfo.value.budget == "max_rows_scanned"
        assert excinfo.value.metrics.rows_scanned > 5

    def test_null_building_department(self):
        # A NULL correlation binding must not crash or change the answer.
        dept = [("d1", 500.0, 1, None), ("d2", 500.0, 0, "B1")]
        emp = [(1, "e1", "B1", 10.0)]
        ni = simulate_nested_iteration(dept, emp, 3)
        magic = simulate_decorrelated(dept, emp, 3)
        # d1: count over NULL building = 0, 1 > 0 -> qualifies.
        assert ni.answer == magic.answer == [("d1",)]


class TestClusterFaults:
    """Node-failure simulation: deterministic retries, doubled counts."""

    SPEC = "1:cluster.node=0.05,cluster.deliver=0.01"

    def _run(self, empdept_rows, spec=None):
        from repro import FaultRegistry

        dept, emp, _ = empdept_rows
        faults = FaultRegistry.parse(spec or self.SPEC)
        return simulate_decorrelated(dept, emp, 4, faults=faults), faults

    def test_answers_survive_node_failures(self, empdept_rows):
        dept, emp, _ = empdept_rows
        clean = simulate_decorrelated(dept, emp, 4)
        faulty, _ = self._run(empdept_rows)
        assert faulty.answer == clean.answer

    def test_failures_are_accounted(self, empdept_rows):
        faulty, faults = self._run(empdept_rows)
        assert faulty.node_failures > 0 or faulty.retries > 0
        assert faulty.retries >= faulty.node_failures
        assert faults.log()  # the registry recorded every fired fault

    def test_simulation_is_deterministic(self, empdept_rows):
        a, fa = self._run(empdept_rows)
        b, fb = self._run(empdept_rows)
        assert a == b
        assert fa.log() == fb.log()

    def test_no_faults_means_no_failure_accounting(self, empdept_rows):
        dept, emp, _ = empdept_rows
        clean = simulate_decorrelated(dept, emp, 4)
        assert clean.node_failures == 0
        assert clean.retries == 0
        # A registry that never fires leaves every count untouched.
        silent, _ = self._run(
            empdept_rows, "1:cluster.node=0,cluster.deliver=0"
        )
        assert silent == clean
        # One that does re-runs work and re-sends traffic: counts only grow.
        faulty, _ = self._run(empdept_rows)
        assert faulty.rows_processed >= clean.rows_processed
        assert faulty.messages >= clean.messages
        assert (faulty.fragments, faulty.tasks) == (clean.fragments, clean.tasks)

    def test_fired_sites_double_the_step_and_count_it(self):
        from repro import FaultRegistry

        cluster = Cluster(
            2, faults=FaultRegistry.parse("1:cluster.node=1,cluster.deliver=1")
        )
        cluster.work(0, n_rows=10)
        cluster.send(0, 1, 3)
        node = cluster.nodes[0]
        assert (node.rows_processed, node.messages_sent) == (20, 6)
        assert (node.failures, node.retries) == (1, 2)

    def test_ni_under_faults_keeps_answer(self, empdept_rows):
        from repro import FaultRegistry

        dept, emp, _ = empdept_rows
        clean = simulate_nested_iteration(dept, emp, 3)
        faulty = simulate_nested_iteration(
            dept, emp, 3, faults=FaultRegistry.parse(self.SPEC)
        )
        assert faulty.answer == clean.answer

    def test_sweep_with_faults_is_reproducible(self, empdept_rows):
        from repro import FaultRegistry

        dept, emp, _ = empdept_rows

        def sweep():
            faults = FaultRegistry.parse(self.SPEC)
            return sweep_nodes(dept, emp, node_counts=[2, 4], faults=faults)

        assert sweep() == sweep()
