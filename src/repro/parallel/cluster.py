"""Cluster model: nodes, partitioned tables, message accounting.

This is a *cost simulator*, not a distributed runtime: it executes the
actual relational work single-threaded -- every plan fragment runs through
the same interpreter a real worker process uses
(:func:`repro.parallel.plans.run_fragment`), on a per-node
:class:`repro.Database` -- while accounting, per node, for the rows
processed and messages sent/received, then derives a makespan from a
simple cost model. Section 6 of the paper presents no measured numbers --
only an execution-strategy analysis (broadcast-per-tuple nested iteration
versus fully partitioned decorrelated plans) -- and this model quantifies
exactly the effects it describes.

Failure model: with a :class:`repro.faults.FaultRegistry` attached, the
soft fault sites ``cluster.node`` (a node crashes mid-step and the step is
re-run after recovery) and ``cluster.deliver`` (a message is lost and
re-sent after a timeout) fire deterministically from the registry seed.
Each retry doubles the affected work/traffic and adds the cluster's
:class:`RetryPolicy` delay for that attempt to the node, folded into its
busy time and therefore the makespan -- answers are never affected, only
cost. The default policy is flat at :data:`RETRY_BACKOFF` per retry; the
real executor (:mod:`repro.parallel.workers`) accepts the same policy
object so simulated and measured recovery share one schedule.
"""

from __future__ import annotations

import zlib

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

#: Base recovery/timeout penalty per retry (same arbitrary time units as
#: the row/message costs of :mod:`repro.parallel.simulate`); the default
#: :class:`RetryPolicy` of the simulator is flat at this value.
RETRY_BACKOFF = 25.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    One policy object is shared by the cost simulator and the real worker
    executor (:mod:`repro.parallel.workers`), so simulated and measured
    recovery follow the same schedule -- only the unit differs (abstract
    cost units in the simulator, seconds on real processes).

    ``delay(attempt)`` is ``base_delay * multiplier**attempt``, stretched
    by up to ``jitter`` (a fraction in ``[0, 1]``) using a crc32 draw on
    ``(seed, attempt)`` -- no ``random`` module, so a seeded run replays
    identically. ``max_attempts`` bounds the total tries of one task
    (first attempt included); ``allows(attempt)`` says whether attempt
    number ``attempt`` (0-based) may still run.
    """

    base_delay: float = RETRY_BACKOFF
    multiplier: float = 1.0
    jitter: float = 0.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.base_delay < 0:
            raise ValueError("retry base_delay must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("retry multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("retry jitter must be in [0, 1]")
        if self.max_attempts < 1:
            raise ValueError("retry max_attempts must be >= 1")

    def allows(self, attempt: int) -> bool:
        """May attempt number ``attempt`` (0-based) still run?"""
        return attempt < self.max_attempts

    def delay(self, attempt: int, seed: int = 0) -> float:
        """The backoff before retry number ``attempt`` (0-based)."""
        delay = self.base_delay * self.multiplier ** attempt
        if self.jitter:
            draw = zlib.crc32(f"{seed}:retry:{attempt}".encode()) / 2**32
            delay *= 1.0 + self.jitter * draw
        return delay


#: The simulator's default: a flat RETRY_BACKOFF per retry, preserving the
#: historical ``backoff_time == retries * RETRY_BACKOFF`` accounting.
SIMULATED_RETRY_POLICY = RetryPolicy()

#: The real executor's default (seconds): exponential with jitter, bounded.
MEASURED_RETRY_POLICY = RetryPolicy(
    base_delay=0.05, multiplier=2.0, jitter=0.25, max_attempts=4
)


@dataclass
class Node:
    """One shared-nothing node: local work and traffic counters."""

    node_id: int
    rows_processed: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    failures: int = 0
    retries: int = 0
    backoff_time: float = 0.0

    def busy_time(self, per_row: float, per_message: float) -> float:
        """Simulated busy time under the given cost model (retry backoff
        included -- failures stretch the makespan)."""
        return (
            self.rows_processed * per_row
            + (self.messages_sent + self.messages_received) * per_message
            + self.backoff_time
        )


class Cluster(Backend):
    """A set of nodes plus hash-partitioned table storage -- the simulated
    back-end of the plans in :mod:`repro.parallel.plans`: a fragment
    executes in-process on its node's own engine, and what it did is
    charged to that node (:meth:`work` for the rows its ``Metrics`` say it
    scanned, :meth:`send` for its traffic)."""

    def __init__(
        self,
        n_nodes: int,
        faults: Optional["FaultRegistry"] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        super().__init__()
        self.nodes = [Node(i) for i in range(n_nodes)]
        self.faults = faults
        self.retry_policy = (
            retry_policy if retry_policy is not None else SIMULATED_RETRY_POLICY
        )
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

    def _backoff(self, node: Node) -> None:
        """One retry at ``node``: the :class:`RetryPolicy` delay for this
        attempt is added to its busy time."""
        attempt = node.retries
        node.retries += 1
        node.backoff_time += self.retry_policy.delay(attempt, seed=node.node_id)

    def send(self, sender: int, receiver: int, n_messages: int = 1) -> None:
        """Record ``n_messages`` from ``sender`` to ``receiver`` (loopback
        delivery within a node is free).

        With faults attached, a fired ``cluster.deliver`` models one lost
        delivery: the batch is re-sent after a timeout, doubling its traffic
        and charging the sender the :class:`RetryPolicy` delay for this
        retry attempt.
        """
        if sender == receiver:
            return
        if self.faults is not None and self.faults.should_fire(
            "cluster.deliver", detail=f"{sender}->{receiver}"
        ):
            self._backoff(self.nodes[sender])
            n_messages *= 2
        self.nodes[sender].messages_sent += n_messages
        self.nodes[receiver].messages_received += n_messages

    def broadcast(self, sender: int, n_messages: int = 1) -> None:
        """One message from ``sender`` to every other node."""
        for node in self.nodes:
            self.send(sender, node.node_id, n_messages)

    def work(self, node_id: int, n_rows: int) -> None:
        """Account ``n_rows`` of local processing at ``node_id``.

        With faults attached, a fired ``cluster.node`` models the node
        crashing mid-step: after recovery the step re-runs from scratch
        (doubled rows) plus the :class:`RetryPolicy` delay for this retry
        attempt as recovery time.
        """
        node = self.nodes[node_id]
        if (
            n_rows > 0
            and self.faults is not None
            and self.faults.should_fire("cluster.node", detail=f"node {node_id}")
        ):
            node.failures += 1
            self._backoff(node)
            n_rows *= 2
        node.rows_processed += n_rows

    def reset_counters(self) -> None:
        """Zero all work and traffic counters."""
        for node in self.nodes:
            node.rows_processed = 0
            node.messages_sent = 0
            node.messages_received = 0
            node.failures = 0
            node.retries = 0
            node.backoff_time = 0.0
