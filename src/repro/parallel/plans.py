"""The one shared-nothing model: each section-6 plan, written once.

A *plan* is a function ``plan(backend, budget_limit) -> (answer,
fragments)`` that may ask exactly four things of the :class:`Backend`
running it:

* ``n_workers`` -- how many partitions there are;
* ``run_tasks(tasks) -> {task_id: result}`` -- execute plan fragments
  (:class:`Task`), each addressed to a partition;
* ``exchange(name, columns, primary_key, row_sources, key)`` -- hash-
  repartition rows on a new key (the set-oriented exchange);
* ``table_partitions(name)`` -- the per-partition rows of a placed table.

Two back-ends run the same plan functions: the simulator's
:class:`~repro.parallel.cluster.Cluster` executes every fragment
in-process and *counts* it; :class:`~repro.parallel.workers.WorkerPool`
ships it to a real worker process and *measures* it. Everything both must
agree on lives here and only here -- the placement function
(:func:`partition_owner`), repartitioning and its batching
(:func:`repartition`, :func:`batches`, :meth:`Backend.exchange`), what a
probe costs on the wire (:meth:`Task.traffic`), and the fragment
interpreter (:func:`run_fragment`, :func:`load_table`) that runs inside a
node, simulated or real, through the ordinary :class:`repro.Database`
facade (parser, rewriter, iterator executor). Answer, fragments,
messages, row work and the task ledger therefore agree between a
simulated and a measured run by construction, for any input.

The query is the paper's running example::

    Select D.name From Dept D
    Where D.budget < 10000 and D.num_emps >
      (Select Count(*) From Emp E Where D.building = E.building)

with DEPT and EMP hash-partitioned on their primary keys (the section 6
"common case" where neither table is partitioned on the correlation
attribute and neither is small enough to replicate).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..api import Database, Strategy
from ..exec.metrics import Metrics
from ..faults import FaultRegistry
from ..storage import Catalog, Column, Schema
from ..types import SQLType

#: Column specs shipped to nodes: (name, SQLType member name, nullable).
DEPT_COLUMNS: tuple = (
    ("name", "STR", False),
    ("budget", "FLOAT", True),
    ("num_emps", "INT", True),
    ("building", "STR", True),
)
EMP_COLUMNS: tuple = (
    ("empno", "INT", False),
    ("name", "STR", True),
    ("building", "STR", True),
    ("salary", "FLOAT", True),
)

#: Rows per network message during set-oriented repartitioning. Bulk
#: exchanges ship rows in page-sized batches; nested iteration's
#: per-invocation request/reply messages cannot be batched -- the asymmetry
#: at the heart of the paper's section 6 argument.
ROWS_PER_MESSAGE = 50


# -- placement and traffic -----------------------------------------------------

def partition_owner(key: Any, n_nodes: int) -> int:
    """The node owning ``key`` under hash partitioning (NULL -> node 0).

    Uses a stable hash (CRC32 of the repr) so placements -- and therefore
    message counts, simulated or measured -- are reproducible across
    processes regardless of PYTHONHASHSEED.
    """
    if key is None:
        return 0
    return zlib.crc32(repr(key).encode()) % n_nodes


def batches(n_rows: int) -> int:
    """Messages one bulk shipment of ``n_rows`` costs: one per
    :data:`ROWS_PER_MESSAGE` rows, rounded up (no rows, no message)."""
    return -(-n_rows // ROWS_PER_MESSAGE)


def repartition(
    n: int,
    row_sources: Sequence[Sequence[tuple]],
    key: Callable[[tuple], Any],
) -> tuple[list[list[tuple]], dict[tuple[int, int], int]]:
    """Hash-partition rows on ``key(row)`` across ``n`` partitions.

    ``row_sources[p]`` are the rows whose current home is partition ``p``.
    Returns the new per-partition row lists and the shipping map
    ``(source, target) -> rows`` of every row that changes home (loopback
    delivery is free, so a row that stays is not in it).
    """
    partitions: list[list[tuple]] = [[] for _ in range(n)]
    shipped: dict[tuple[int, int], int] = {}
    for source, rows in enumerate(row_sources):
        for row in rows:
            target = partition_owner(key(row), n)
            if source != target:
                shipped[(source, target)] = shipped.get((source, target), 0) + 1
            partitions[target].append(row)
    return partitions, shipped


@dataclass
class Task:
    """One plan fragment addressed to a partition (not a worker: the
    host mapping may change when workers are lost)."""

    task_id: str
    partition: int
    op: str
    payload: tuple
    #: The partition a probe is asked *from*; ``None`` for a fragment the
    #: coordinator starts on its own (scans, local pipelines).
    origin: Optional[int] = None
    # -- the coordinator's ledger (WorkerPool only) --
    attempt: int = 0
    worker_id: int = -1
    dispatched_at: float = 0.0
    done: bool = False
    result: Any = None

    def traffic(self) -> list[tuple[int, int]]:
        """The ``(sender, receiver)`` messages charged on *every* dispatch
        of this task (a retried probe doubles its traffic): a request from
        the requesting partition and the reply back, loopback free."""
        if self.origin is None or self.origin == self.partition:
            return []
        return [(self.origin, self.partition), (self.partition, self.origin)]


@dataclass
class TableSpec:
    """A partitioned table as placed (the pool re-hosts from it)."""

    columns: tuple
    primary_key: tuple
    partitions: list


class Backend:
    """Where partitioned tables live -- the part of a back-end that is the
    same simulated or real. A back-end adds ``n_workers``, ``run_tasks``,
    :meth:`send` (count point-to-point messages, loopback free) and
    :meth:`_load` (put rows into the node hosting a partition)."""

    def __init__(self) -> None:
        self._tables: dict[str, TableSpec] = {}

    def send(self, sender: int, receiver: int, n_messages: int = 1) -> None:
        raise NotImplementedError

    def _load(
        self, partition: int, name: str, columns: tuple,
        primary_key: tuple, rows: list,
    ) -> None:
        raise NotImplementedError

    def _install(
        self, name: str, columns: tuple, primary_key: tuple, partitions: list
    ) -> None:
        """Partition ``p`` becomes table ``{name}_p{p}`` at its host
        (partition-scoped names coexist on a replacement host)."""
        self._tables[name] = TableSpec(columns, primary_key, partitions)
        for p, rows in enumerate(partitions):
            self._load(p, f"{name}_p{p}", columns, primary_key, rows)

    def load_partitioned(
        self,
        name: str,
        columns: tuple,
        primary_key: tuple,
        rows: list,
        key: Callable[[tuple], Any],
    ) -> None:
        """Load ``rows`` hash-partitioned on ``key(row)`` (no messages: this
        models the initial physical placement)."""
        partitions, _ = repartition(self.n_workers, [rows], key)
        self._install(name, columns, primary_key, partitions)

    def exchange(
        self,
        name: str,
        columns: tuple,
        primary_key: tuple,
        row_sources: list,
        key: Callable[[tuple], Any],
    ) -> None:
        """Hash-repartition rows on a *new* key -- the set-oriented
        exchange of the decorrelated plan. ``row_sources[p]`` are the rows
        whose current home is partition ``p``; messages are charged
        point-to-point and batched (one per :data:`ROWS_PER_MESSAGE` rows
        per sender/receiver pair, loopback free)."""
        partitions, shipped = repartition(self.n_workers, row_sources, key)
        for (sender, receiver), n_rows in shipped.items():
            self.send(sender, receiver, batches(n_rows))
        self._install(name, columns, primary_key, partitions)

    def table_partitions(self, name: str) -> list:
        """The retained per-partition row lists of a placed table."""
        return self._tables[name].partitions


# -- inside a node -------------------------------------------------------------

def node_database() -> Database:
    """The engine of one node, simulated or real, over its own catalog."""
    # An explicit empty registry: a node must not pick engine-level
    # faults out of REPRO_FAULTS -- process-level sites are injected by the
    # worker loop, engine-level sites belong to the single-node fault tests.
    return Database(Catalog(), faults=FaultRegistry(0, []))


def load_table(
    catalog: Catalog, name: str, columns: tuple, primary_key: tuple, rows: list
) -> None:
    """Create (or replace) table ``name`` in a node's catalog."""
    if catalog.has_table(name):
        catalog.drop_table(name)
    catalog.create_table(
        name,
        Schema(
            [
                Column(cname, SQLType[tname], nullable)
                for cname, tname, nullable in columns
            ],
            primary_key=primary_key,
        ),
    )
    catalog.table(name).insert_many(rows)
    catalog.invalidate_stats(name)


def _row_key(row: Sequence) -> tuple:
    """A total order over rows that may contain NULLs (None sorts first
    within a column; the placeholder is only compared between two Nones)."""
    return tuple((v is None, "" if v is None else v) for v in row)


def _sql_literal(value: Any) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def run_fragment(
    db: Database, op: str, payload: tuple, tracer=None
) -> tuple[Any, Metrics]:
    """Execute one fragment through the node's full parse -> rewrite ->
    iterate pipeline; returns ``(outcome, metrics)``. ``metrics`` is what
    the node did -- the back-end adds its ``rows_scanned`` to the row work
    and hands the whole delta to the coordinator's guard."""
    if op == "sql":
        sql, strategy_value = payload
        result = db.execute(
            sql, strategy=Strategy(strategy_value), tracer=tracer
        )
        return sorted(result.rows, key=_row_key), result.metrics
    if op == "count":
        table, column, value = payload
        if value is None:
            # SQL equality with NULL matches nothing: the count is
            # 0 by definition, no scan needed.
            return 0, Metrics()
        result = db.execute(
            f"Select Count(*) From {table} "
            f"Where {column} = {_sql_literal(value)}",
            tracer=tracer,
        )
        return result.scalar(), result.metrics
    raise ValueError(f"unknown worker op {op!r}")


# -- the section-6 strategies --------------------------------------------------

def place(backend, dept_rows: list, emp_rows: list) -> None:
    """The initial physical placement: both tables on their primary keys
    (free of message charges -- it is where the query starts from)."""
    backend.load_partitioned(
        "dept", DEPT_COLUMNS, ("name",), dept_rows, key=lambda r: r[0]
    )
    backend.load_partitioned(
        "emp", EMP_COLUMNS, ("empno",), emp_rows, key=lambda r: r[0]
    )


def _scan_tasks(prefix: str, n: int, budget_limit: float) -> list[Task]:
    """The outer block, local to each DEPT partition."""
    return [
        Task(
            f"{prefix}.scan.{p}", p, "sql",
            (
                f"Select name, budget, num_emps, building From dept_p{p} "
                f"Where budget < {budget_limit!r}",
                "ni",
            ),
        )
        for p in range(n)
    ]


def ni_plan(backend, budget_limit: float) -> tuple:
    """Section 6.1: for each qualifying DEPT tuple, the requesting
    partition sends the binding to every partition, each computes a local
    count over its EMP partition and replies; the requester combines the
    partial counts. O(n^2) computation fragments (every node serves
    subqueries for every node) and per-binding, unbatchable traffic."""
    n = backend.n_workers
    supp_by_home = backend.run_tasks(_scan_tasks("ni", n, budget_limit))
    fragments: set = set()
    probes: list[Task] = []
    bindings: list[tuple] = []
    for p in range(n):
        for i, (name, _budget, num_emps, building) in enumerate(
            supp_by_home[f"ni.scan.{p}"]
        ):
            probe_ids = []
            for q in range(n):
                fragments.add((p, q))
                task_id = f"ni.count.{p}.{i}.{q}"
                probes.append(
                    Task(
                        task_id, q, "count",
                        (f"emp_p{q}", "building", building), origin=p,
                    )
                )
                probe_ids.append(task_id)
            bindings.append((name, num_emps, probe_ids))
    counts = backend.run_tasks(probes)
    answer = sorted(
        (name,)
        for name, num_emps, probe_ids in bindings
        if num_emps is not None
        and num_emps > sum(counts[t] for t in probe_ids)
    )
    return answer, len(fragments)


def decorrelated_plan(backend, budget_limit: float) -> tuple:
    """Section 6.2: the supplementary table is computed locally, it and
    EMP are repartitioned once on the correlation attribute, and the
    decorrelated query (the engine's MAGIC strategy: magic table, local
    join, GROUP BY on the partitioning attribute, the COUNT-bug COALESCE)
    runs entirely inside each partition. Every exchange is a single hash
    repartitioning."""
    n = backend.n_workers
    supp_by_home = backend.run_tasks(_scan_tasks("mag", n, budget_limit))
    backend.exchange(
        "supp", DEPT_COLUMNS, ("name",),
        [supp_by_home[f"mag.scan.{p}"] for p in range(n)],
        key=lambda row: row[3],
    )
    backend.exchange(
        "empb", EMP_COLUMNS, ("empno",),
        backend.table_partitions("emp"),
        key=lambda row: row[2],
    )
    finals = [
        Task(
            f"mag.local.{j}", j, "sql",
            (
                f"Select D.name From supp_p{j} D Where D.num_emps > "
                f"(Select Count(*) From empb_p{j} E "
                f"Where D.building = E.building)",
                "magic",
            ),
        )
        for j in range(n)
    ]
    locals_ = backend.run_tasks(finals)
    answer = sorted(
        row for j in range(n) for row in locals_[f"mag.local.{j}"]
    )
    return answer, n


#: strategy name -> the plan function both back-ends run.
PLANS = {
    "nested_iteration": ni_plan,
    "magic_decorrelated": decorrelated_plan,
}
