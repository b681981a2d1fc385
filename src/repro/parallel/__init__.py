"""Shared-nothing parallel execution (section 6 of the paper): each plan
written once (:mod:`.plans`) and run by two back-ends -- the counting
simulator (:mod:`.simulate` over :mod:`.cluster`) and the real
worker-process executor with crash recovery (:mod:`.workers`)."""

from .cluster import Cluster, Node
from .plans import partition_owner, repartition
from .simulate import (
    ParallelMetrics,
    simulate_decorrelated,
    simulate_nested_iteration,
    sweep_nodes,
)
from .workers import (
    RetryPolicy,
    WorkerPool,
    WorkerRunMetrics,
    local_reference,
    run_real,
    run_real_decorrelated,
    run_real_nested_iteration,
)

__all__ = [
    "Cluster",
    "Node",
    "RetryPolicy",
    "partition_owner",
    "repartition",
    "ParallelMetrics",
    "simulate_nested_iteration",
    "simulate_decorrelated",
    "sweep_nodes",
    "WorkerPool",
    "WorkerRunMetrics",
    "local_reference",
    "run_real",
    "run_real_decorrelated",
    "run_real_nested_iteration",
]
