"""Plan-cache contracts: zero cost when off, goodput when on.

``Database(plan_cache=None)`` (and therefore every seed caller) must
preserve the PR-1..8 query path exactly -- structurally (the cache is
provably never touched) and in wall-clock terms (the execute path pays
one ``is not None`` check for the feature it did not enable). With the
cache on, the A/B soak must convert repeated templates into strictly
more within-deadline completions at identical offered load, with the
``plan.cache_*`` events reconciling exactly against the counters; the
gated run also lives in CI via ``python -m repro soak --plan-cache``.
"""

import statistics
import time

import pytest

from repro import Database, QueryService
from repro.plan import cache as cache_module
from repro.plan.cache import PlanCache
from repro.tpcd import EMP_DEPT_QUERY, load_empdept

#: The disabled path may not regress past half again the enabled
#: *all-miss* path (generous: every miss pays prepare + fill on top of
#: the full pipeline; hits would be faster than disabled, not slower).
OVERHEAD_TOLERANCE = 1.5
ROUNDS = 7
BATCH = 32


@pytest.fixture(scope="module")
def empdept_db() -> Database:
    return Database(load_empdept())


def test_disabled_path_never_touches_the_plan_cache(empdept_db, monkeypatch):
    """Structural zero overhead: booby-trap every cache entry point and
    run plain ``Database``/``QueryService`` paths -- ``plan_cache=None``
    must not trip one."""

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("plan cache reached with plan_cache=None")

    for attr in ("prepare", "fill", "snapshot", "clear", "_store", "_emit"):
        monkeypatch.setattr(cache_module.PlanCache, attr, boom)
    monkeypatch.setattr(cache_module, "extract_parameters", boom)
    monkeypatch.setattr(cache_module, "render_parameterized", boom)
    assert empdept_db.execute(EMP_DEPT_QUERY, strategy="magic").rows
    with QueryService(empdept_db, workers=2) as service:
        for _ in range(4):
            assert service.submit(
                EMP_DEPT_QUERY, strategy="magic", deadline=30.0,
            ).result(timeout=30).rows


def _median_batch_seconds(make_db, statements) -> float:
    samples = []
    for _ in range(ROUNDS):
        db = make_db()
        start = time.perf_counter()
        for sql in statements:
            db.execute(sql, strategy="magic")
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_disabled_execute_path_costs_nothing():
    """Timing guard: a batch of *distinct* templates (every cached
    lookup misses -- the cache's worst case: full pipeline plus prepare
    and fill) must not beat the plain path by more than the tolerance.
    Hits are excluded on purpose; they are faster than the plain path,
    which would let real overhead hide inside the win."""
    catalog = load_empdept()
    # Distinct templates: each ``and 1=1`` conjunct changes the shape.
    statements = [
        "select name from emp where salary > 10.0"
        + " and 1=1" * (i % BATCH)
        for i in range(BATCH)
    ]
    disabled = _median_batch_seconds(
        lambda: Database(catalog), statements
    )
    enabled = _median_batch_seconds(
        lambda: Database(catalog, plan_cache=PlanCache()), statements
    )
    assert disabled <= enabled * OVERHEAD_TOLERANCE, (
        f"plan_cache=None execute path regressed: disabled "
        f"{disabled:.6f}s vs enabled-all-miss {enabled:.6f}s per "
        f"{BATCH}-statement batch"
    )


@pytest.mark.slow
def test_bench_plan_cache_goodput():
    """The acceptance gate, compressed: the cache-on soak completes
    strictly more within-deadline queries than cache-off at identical
    offered load, and hit/miss/invalidation counters reconcile exactly
    against the emitted ``plan.cache_*`` events (checked inside
    ``run_scenario``; any mismatch is a violation)."""
    from repro.serve.soak import (
        OverloadPhase,
        plan_cache_scenario,
        run_scenario,
    )

    report = run_scenario(plan_cache_scenario(
        seed=42, workers=2, max_queue=16, scale=0.002,
        phases=(
            OverloadPhase("warmup", 0.8, 40.0),
            OverloadPhase("steady", 2.0, 400.0),
        ),
    ))
    cached, baseline = report.sides["cached"], report.sides["baseline"]
    cache = cached.stats.plan_cache
    assert cached.violations == []
    assert baseline.violations == []
    assert report.violations == [], [str(v) for v in report.violations]
    assert cached.goodput > baseline.goodput
    assert cache["hit_rate"] > 0.9
    print(
        f"\nplan-cache goodput: cached {cached.goodput} vs "
        f"uncached {baseline.goodput} of {cached.offered} "
        f"offered; hit_rate={cache['hit_rate']} cache={cache}"
    )
