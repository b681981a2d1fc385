"""Reproduction of Complex Query Decorrelation (Seshadri, Pirahesh, Leung - ICDE 1996).

Public entry points: Database, Strategy, Result, the execution guardrails
(Limits, ExecutionGuard), the deterministic fault-injection registry
(FaultRegistry), the concurrent query service (QueryService), the span
collector behind EXPLAIN ANALYZE (Tracer), and the continuous
observability surfaces (EventLog, SlowQueryLog).
"""

from .api import Database, Result, Strategy
from .faults import FaultRegistry
from .guard import ExecutionGuard, Limits
from .obs import EventLog, RingSink, SlowQueryLog
from .serve import QueryService, ServiceStats
from .trace import Tracer

__version__ = "1.0.0"
__all__ = [
    "Database",
    "Result",
    "Strategy",
    "Limits",
    "ExecutionGuard",
    "FaultRegistry",
    "QueryService",
    "ServiceStats",
    "Tracer",
    "EventLog",
    "RingSink",
    "SlowQueryLog",
    "__version__",
]
