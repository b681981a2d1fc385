"""Work counters collected during execution.

The paper reports wall-clock times on 1996 hardware; absolute numbers are
not reproducible, but the *work* that drives them is. Every benchmark in
this repository therefore reports these counters next to wall time:

* ``subquery_invocations`` -- how many times a subquery plan was executed
  from an expression context (the paper quotes these exactly: 6 / 3954 /
  209 invocations for its queries);
* ``rows_scanned`` -- base-table rows read by sequential scans;
* ``index_lookups`` / ``index_rows`` -- probes into indexes and rows fetched;
* ``rows_joined`` -- row combinations produced by join steps;
* ``rows_grouped`` -- input rows consumed by aggregation;
* ``boxes_recomputed`` -- how many times shared (common-subexpression)
  boxes were re-executed, separating Mag from OptMag behaviour;
* ``rows_materialized`` / ``rows_freed`` -- rows a materialisation holds
  (CSE caches and temps, aggregation work tables, and the rows a hash
  build of a join keeps: with fewer probes than rows, only those some
  probe can find) and rows released when the executor drops it;
* ``peak_rows_materialized`` -- the high-water mark of *live* materialised
  rows (``rows_materialized - rows_freed`` at its maximum over time); this
  is the memory figure bounded by the ``max_rows_materialized`` budget of
  :mod:`repro.guard`.

Merge policy: every counter is cumulative and sums across executions,
except ``peak_rows_materialized`` which is a per-execution high-water mark
and merges by ``max``. The policy is declared per field (``metadata``
``"merge"``) so :meth:`Metrics.__add__` cannot silently mis-merge a future
counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class Metrics:
    """Work counters for one query execution (see module docstring)."""

    subquery_invocations: int = 0
    rows_scanned: int = 0
    index_lookups: int = 0
    index_rows: int = 0
    rows_joined: int = 0
    rows_grouped: int = 0
    boxes_recomputed: int = 0
    rows_output: int = 0
    rows_materialized: int = 0
    rows_freed: int = 0
    peak_rows_materialized: int = field(default=0, metadata={"merge": "max"})

    def materialize(self, n_rows: int) -> None:
        """Account ``n_rows`` written into a materialisation, maintaining
        the high-water mark of *live* (not yet released) rows."""
        self.rows_materialized += n_rows
        live = self.rows_materialized - self.rows_freed
        if live > self.peak_rows_materialized:
            self.peak_rows_materialized = live

    def release(self, n_rows: int) -> None:
        """Account ``n_rows`` of a materialisation being dropped (a hash
        build discarded after its probe phase, an aggregation work table
        after its groups are emitted, CSE caches at query teardown). The
        live count falls; the high-water mark is untouched."""
        self.rows_freed += n_rows

    def total_work(self) -> int:
        """A single hardware-independent work figure used by benchmarks."""
        return (
            self.rows_scanned
            + self.index_lookups
            + self.index_rows
            + self.rows_joined
            + self.rows_grouped
        )

    def as_dict(self) -> dict[str, int]:
        """All counters (plus total_work) as a plain dict for reporting."""
        result = {f.name: getattr(self, f.name) for f in fields(self)}
        result["total_work"] = self.total_work()
        return result

    def sum_values(self) -> tuple[int, ...]:
        """The sum-merged counters as a tuple, in :data:`SUM_FIELD_NAMES`
        order -- a cheap snapshot for per-operator delta accounting
        (:mod:`repro.trace`)."""
        return tuple(getattr(self, name) for name in SUM_FIELD_NAMES)

    def __add__(self, other: "Metrics") -> "Metrics":
        result = Metrics()
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            policy = f.metadata.get("merge", "sum")
            if policy == "sum":
                setattr(result, f.name, a + b)
            elif policy == "max":
                # High-water marks are per-execution: two executions never
                # share live memory, so the merged peak is the larger one.
                setattr(result, f.name, max(a, b))
            else:  # pragma: no cover - declaration error
                raise ValueError(
                    f"unknown merge policy {policy!r} for Metrics.{f.name}"
                )
        return result


#: Counters that merge by summation (everything except high-water marks);
#: the per-operator attribution in :mod:`repro.trace` deltas exactly these.
SUM_FIELD_NAMES: tuple[str, ...] = tuple(
    f.name for f in fields(Metrics) if f.metadata.get("merge", "sum") == "sum"
)
