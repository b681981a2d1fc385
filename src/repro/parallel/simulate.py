"""Parallel execution strategies for the section-2 example query, counted.

The plans themselves -- the query, its fragments and its exchanges -- are
written once in :mod:`repro.parallel.plans`; here they run over a
:class:`~repro.parallel.cluster.Cluster`, the simulated back-end, and the
real worker pool runs the same functions.

* :func:`simulate_nested_iteration` -- section 6.1,
  :func:`~repro.parallel.plans.ni_plan`.
* :func:`simulate_decorrelated` -- section 6.2,
  :func:`~repro.parallel.plans.decorrelated_plan`.

Both simulations compute the *actual* query answer (verified against the
single-node engine in tests), by running the engine inside every node,
while counting fragments, tasks, messages and row work -- the quantities
section 6 argues in. Nothing is priced: the real pool measures time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..guard import guard_for
from .cluster import Cluster
from .plans import PLANS, place

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..faults import FaultRegistry
    from ..guard import Limits


@dataclass
class ParallelMetrics:
    """Outcome of one simulated parallel execution."""

    strategy: str
    n_nodes: int
    answer: list[tuple]
    #: (requesting node, serving node) pairs that executed subquery work --
    #: the paper's "computation fragments"; O(n^2) under nested iteration.
    fragments: int
    messages: int
    rows_processed: int
    #: Failure accounting (non-zero only under injected cluster faults).
    node_failures: int = 0
    retries: int = 0
    #: Plan fragments executed (scans, probes, local pipelines).
    tasks: int = 0


def _simulate(
    strategy: str,
    dept_rows: list[tuple],
    emp_rows: list[tuple],
    n_nodes: int,
    budget_limit: float,
    faults: Optional["FaultRegistry"],
    limits: Optional["Limits"],
) -> ParallelMetrics:
    """Run one plan over a fresh cluster and count what it did.

    Rows scanned across the cluster count against ``max_rows_scanned``
    (every fragment's ``Metrics`` is absorbed by the guard, as the real
    coordinator does); the wall-clock timeout and cancellation apply as in
    the single-node engine, checked once per fragment.
    """
    cluster = Cluster(n_nodes, faults=faults)
    cluster.guard = guard_for(limits)
    place(cluster, dept_rows, emp_rows)
    answer, fragments = PLANS[strategy](cluster, budget_limit)
    nodes = cluster.nodes
    return ParallelMetrics(
        strategy=strategy,
        n_nodes=n_nodes,
        answer=sorted(answer),
        fragments=fragments,
        messages=sum(n.messages_sent for n in nodes),
        rows_processed=sum(n.rows_processed for n in nodes),
        node_failures=sum(n.failures for n in nodes),
        retries=sum(n.retries for n in nodes),
        tasks=cluster.tasks_dispatched,
    )


def simulate_nested_iteration(
    dept_rows: list[tuple],
    emp_rows: list[tuple],
    n_nodes: int,
    budget_limit: float = 10000.0,
    faults: Optional["FaultRegistry"] = None,
    limits: Optional["Limits"] = None,
) -> ParallelMetrics:
    """Section 6.1: broadcast-per-tuple nested iteration."""
    return _simulate(
        "nested_iteration", dept_rows, emp_rows, n_nodes,
        budget_limit, faults, limits,
    )


def simulate_decorrelated(
    dept_rows: list[tuple],
    emp_rows: list[tuple],
    n_nodes: int,
    budget_limit: float = 10000.0,
    faults: Optional["FaultRegistry"] = None,
    limits: Optional["Limits"] = None,
) -> ParallelMetrics:
    """Section 6.2: the magic-decorrelated plan, fully partition-parallel."""
    return _simulate(
        "magic_decorrelated", dept_rows, emp_rows, n_nodes,
        budget_limit, faults, limits,
    )


def sweep_nodes(
    dept_rows: list[tuple],
    emp_rows: list[tuple],
    node_counts: Optional[list[int]] = None,
    faults: Optional["FaultRegistry"] = None,
) -> list[tuple[ParallelMetrics, ParallelMetrics]]:
    """Run both strategies over a range of cluster sizes.

    Each simulation gets its own replica of the fault registry (same seed,
    zeroed trigger counters) so that one sweep is reproducible run-to-run
    and the cluster sizes do not interfere with each other's fault draws.
    """
    results = []
    for n in node_counts or [1, 2, 4, 8, 16]:
        ni = simulate_nested_iteration(
            dept_rows, emp_rows, n,
            faults=faults.replica() if faults is not None else None,
        )
        magic = simulate_decorrelated(
            dept_rows, emp_rows, n,
            faults=faults.replica() if faults is not None else None,
        )
        results.append((ni, magic))
    return results
