"""Overload-control contracts: zero cost when off, goodput when on.

``QueryService(overload=None)`` must preserve the seed FIFO service
exactly -- structurally (the overload machinery is provably never
touched) and in wall-clock terms (the submit path pays nothing for the
feature it did not enable). With the layer on, the phased overload soak
must turn contention into within-deadline goodput; the full gated
comparison runs in CI via ``python -m repro soak --overload``, so the
benchmark here is a compressed, informational run.
"""

import statistics
import time
from dataclasses import replace

import pytest

from repro import Database, QueryService
from repro.serve import overload as overload_module
from repro.serve.overload import OverloadConfig
from repro.serve.soak import OverloadPhase, overload_scenario, run_scenario
from repro.tpcd import EMP_DEPT_QUERY, load_empdept

#: The disabled path may not regress past half again the enabled one
#: (generous: the enabled path does strictly more work per submit).
OVERHEAD_TOLERANCE = 1.5
ROUNDS = 7
BATCH = 32


@pytest.fixture(scope="module")
def empdept_db() -> Database:
    return Database(load_empdept())


def test_disabled_path_never_touches_the_overload_machinery(
    empdept_db, monkeypatch
):
    """Structural zero overhead: booby-trap every overload entry point
    and run a plain service -- ``overload=None`` must not trip one."""

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError(
            "overload machinery reached with overload=None"
        )

    monkeypatch.setattr(overload_module, "fingerprint", boom)
    for name in ("ServiceTimeEstimator", "BrownoutController"):
        for attr in ("observe", "estimate"):
            cls = getattr(overload_module, name)
            if hasattr(cls, attr):
                monkeypatch.setattr(cls, attr, boom)
    with QueryService(empdept_db, workers=2) as service:
        for _ in range(4):
            assert service.submit(
                EMP_DEPT_QUERY, strategy="magic", deadline=30.0,
                priority="low",
            ).result(timeout=30).rows


def _median_batch_seconds(make_service) -> float:
    samples = []
    for _ in range(ROUNDS):
        with make_service() as service:
            start = time.perf_counter()
            tickets = [
                service.submit(EMP_DEPT_QUERY, strategy="magic",
                               deadline=30.0)
                for _ in range(BATCH)
            ]
            for ticket in tickets:
                ticket.result(timeout=30)
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_disabled_submit_path_costs_nothing(empdept_db):
    """Timing guard: a batch through the plain service must not exceed
    the overload-enabled service by more than the tolerance."""
    disabled = _median_batch_seconds(
        lambda: QueryService(empdept_db, workers=2)
    )
    # Policies neutralised so every submit is admitted: the comparison
    # measures per-submit bookkeeping, not shedding.
    config = OverloadConfig(brownout_max_level=0, class_quotas={})
    enabled = _median_batch_seconds(
        lambda: QueryService(empdept_db, workers=2, overload=config)
    )
    assert disabled <= enabled * OVERHEAD_TOLERANCE, (
        f"overload=None submit path regressed: disabled {disabled:.6f}s "
        f"vs enabled {enabled:.6f}s per {BATCH}-query batch"
    )


@pytest.mark.slow
def test_bench_overload_goodput():
    """A compressed phased soak (informational -- the gated comparison
    is the CI ``repro soak --overload`` run): both sides reconcile and
    the adaptive side produces goodput under overload."""
    scenario = overload_scenario(
        seed=42, workers=2, max_queue=16, scale=0.002,
        phases=(
            OverloadPhase("warmup", 0.8, 40.0),
            OverloadPhase("overload", 1.5, 250.0),
            OverloadPhase("recovery", 0.5, 20.0),
        ),
    )
    report = run_scenario(replace(scenario, gates=()))
    adaptive, fifo = report.sides["adaptive"], report.sides["fifo"]
    assert adaptive.violations == []
    assert fifo.violations == []
    assert adaptive.goodput > 0
    print(
        f"\noverload goodput: adaptive {adaptive.goodput} "
        f"({adaptive.futile_executions} futile) vs FIFO "
        f"{fifo.goodput} ({fifo.futile_executions} futile) "
        f"of {adaptive.offered} offered"
    )
