"""Concurrent query service: admission control, deadlines, breakers, soak.

Public surface:

* :class:`~repro.serve.service.QueryService` -- thread-pool service over a
  shared :class:`~repro.api.database.Database` (tickets, admission
  control, cross-thread cancel, per-strategy circuit breakers, stats);
* :class:`~repro.serve.service.Ticket` / ``ServiceStats``;
* :class:`~repro.serve.breaker.CircuitBreaker` / ``BreakerTransition``;
* :class:`~repro.serve.overload.OverloadConfig` and friends -- adaptive
  overload control (deadline-aware admission, priority shedding, the
  brownout degradation ladder);
* :func:`~repro.serve.soak.run_scenario` -- the soak harness behind
  ``python -m repro soak``: one driver and one verifier over a
  :class:`~repro.serve.soak.Scenario` (the chaos, ``--overload`` and
  ``--plan-cache`` scenarios), reporting a
  :class:`~repro.serve.soak.SoakReport`.
"""

from .breaker import BreakerTransition, CircuitBreaker
from .overload import (
    BROWNOUT_RUNGS,
    PRIORITIES,
    BrownoutController,
    OverloadConfig,
    ServiceTimeEstimator,
    fingerprint,
    normalize_sql,
)
from .service import QueryService, ServiceStats, Ticket
from .soak import Scenario, SoakReport, run_scenario

__all__ = [
    "QueryService",
    "ServiceStats",
    "Ticket",
    "CircuitBreaker",
    "BreakerTransition",
    "OverloadConfig",
    "BrownoutController",
    "ServiceTimeEstimator",
    "BROWNOUT_RUNGS",
    "PRIORITIES",
    "fingerprint",
    "normalize_sql",
    "Scenario",
    "SoakReport",
    "run_scenario",
]
