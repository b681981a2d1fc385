"""Direct timings of the layers no workload calls on their own: the storage
access paths and the two halves of the plan cache (lookup and fill)."""

from __future__ import annotations

import time
from statistics import fmean, median

from repro import Strategy
from repro.plan import PlanCache
from repro.storage import Catalog

clock = time.perf_counter

_SCAN_REPEATS = 5
_PROBE_KEYS = 200
_HITS_PER_STATEMENT = 20


def storage(catalog: Catalog) -> dict[str, dict]:
    """``Table.scan`` over lineitem, and ``lookup`` plus ``fetch`` through
    its l_partkey index (the access path of Q2's correlated subquery)."""
    lineitem = catalog.table("lineitem")
    scans = []
    for _ in range(_SCAN_REPEATS):
        started = clock()
        for _row in lineitem.scan():
            pass
        scans.append((clock() - started) * 1e6 / (len(lineitem) / 1000))
    index = lineitem.find_index(["l_partkey"])
    probes = []
    for key in range(1, _PROBE_KEYS + 1):
        started = clock()
        for row_id in index.lookup(key):
            lineitem.fetch(row_id)
        probes.append((clock() - started) * 1e6)
    return {
        "storage.scan_us_per_krow": {"value": median(scans), "n": len(scans)},
        "storage.index_probe_us": {"value": median(probes), "n": len(probes)},
    }


def plan_cache(catalog: Catalog, statements: list[tuple[str, Strategy]]) -> dict[str, dict]:
    """Per statement, one timed fill and then timed lookups that hit."""
    cache = PlanCache()
    fills: list[float] = []
    hits: list[float] = []
    for sql, strategy in statements:
        options = dict(
            strategy=strategy, cse_mode="recompute", decorrelate_existential=True,
            generation=catalog.generation(),
        )
        prepared = cache.prepare(sql, **options)
        started = clock()
        entry = cache.fill(prepared, catalog)
        fills.append((clock() - started) * 1000)
        if entry is None:
            continue
        for _ in range(_HITS_PER_STATEMENT):
            started = clock()
            cache.prepare(sql, **options)
            hits.append((clock() - started) * 1000)
    return {
        "plan.cache_prepare_ms": {"value": fmean(hits), "n": len(hits)},
        "plan.cache_fill_ms": {"value": fmean(fills), "n": len(fills)},
    }
