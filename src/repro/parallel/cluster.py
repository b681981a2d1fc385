"""Cluster model: nodes, partitioned tables, message accounting.

This is a *counting simulator*, not a distributed runtime: it executes the
actual relational work single-threaded -- every plan fragment runs through
the same interpreter a real worker process uses
(:func:`repro.parallel.plans.run_fragment`), on a per-node
:class:`repro.Database` -- while counting, per node, the rows processed
and the messages sent/received. Section 6 of the paper presents no
measured numbers -- only an execution-strategy analysis (broadcast-per-tuple
nested iteration versus fully partitioned decorrelated plans) argued in
fragments and messages -- and this model counts exactly those. It prices
nothing: wall-clock is measured on real processes
(:mod:`repro.parallel.workers`).

Failure model: with a :class:`repro.faults.FaultRegistry` attached, the
soft fault sites ``cluster.node`` (a node crashes mid-step and the step is
re-run after recovery) and ``cluster.deliver`` (a message is lost and
re-sent after a timeout) fire deterministically from the registry seed.
Each fired site doubles the affected work or traffic and counts a failure
or a retry at the node -- answers are never affected, only counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from .plans import (
    Backend,
    Task,
    load_table,
    node_database,
    partition_owner,
    run_fragment,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..faults import FaultRegistry
    from ..guard import ExecutionGuard


@dataclass
class Node:
    """One shared-nothing node: local work and traffic counters."""

    node_id: int
    rows_processed: int = 0
    messages_sent: int = 0
    failures: int = 0
    retries: int = 0


class Cluster(Backend):
    """A set of nodes plus hash-partitioned table storage -- the simulated
    back-end of the plans in :mod:`repro.parallel.plans`: a fragment
    executes in-process on its node's own engine, and what it did is
    charged to that node (:meth:`work` for the rows its ``Metrics`` say it
    scanned, :meth:`send` for its traffic)."""

    def __init__(self, n_nodes: int, faults: Optional["FaultRegistry"] = None):
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        super().__init__()
        self.nodes = [Node(i) for i in range(n_nodes)]
        self.faults = faults
        #: Absorbs every fragment's ``Metrics``, so simulated remote work
        #: counts against the coordinator's budgets (set by the caller).
        self.guard: Optional["ExecutionGuard"] = None
        self.tasks_dispatched = 0
        #: One engine per node: shared nothing, not even a catalog.
        self._databases = [node_database() for _ in self.nodes]

    @property
    def n_nodes(self) -> int:
        """Cluster size."""
        return len(self.nodes)

    n_workers = n_nodes

    def owner(self, key: Any) -> int:
        """The node owning ``key`` (see :func:`partition_owner`)."""
        return partition_owner(key, self.n_nodes)

    def _load(
        self, partition: int, name: str, columns: tuple,
        primary_key: tuple, rows: list,
    ) -> None:
        load_table(
            self._databases[partition].catalog, name, columns, primary_key, rows
        )

    def run_tasks(self, tasks: list[Task]) -> dict:
        """Execute each fragment on its partition's node, charging the
        node its traffic and the rows it scanned. Returns
        ``{task_id: result}``."""
        results = {}
        for task in tasks:
            self.tasks_dispatched += 1
            for sender, receiver in task.traffic():
                self.send(sender, receiver)
            outcome, metrics = run_fragment(
                self._databases[task.partition], task.op, task.payload
            )
            self.work(task.partition, metrics.rows_scanned)
            if self.guard is not None:
                self.guard.absorb(metrics)
            results[task.task_id] = outcome
        return results

    def send(self, sender: int, receiver: int, n_messages: int = 1) -> None:
        """Record ``n_messages`` from ``sender`` to ``receiver`` (loopback
        delivery within a node is free).

        With faults attached, a fired ``cluster.deliver`` models one lost
        delivery: the batch is re-sent, doubling its traffic and counting a
        retry at the sender.
        """
        if sender == receiver:
            return
        if self.faults is not None and self.faults.should_fire(
            "cluster.deliver", detail=f"{sender}->{receiver}"
        ):
            self.nodes[sender].retries += 1
            n_messages *= 2
        self.nodes[sender].messages_sent += n_messages

    def work(self, node_id: int, n_rows: int) -> None:
        """Account ``n_rows`` of local processing at ``node_id``.

        With faults attached, a fired ``cluster.node`` models the node
        crashing mid-step: after recovery the step re-runs from scratch
        (doubled rows), counting a failure and a retry at the node.
        """
        node = self.nodes[node_id]
        if (
            n_rows > 0
            and self.faults is not None
            and self.faults.should_fire("cluster.node", detail=f"node {node_id}")
        ):
            node.failures += 1
            node.retries += 1
            n_rows *= 2
        node.rows_processed += n_rows
