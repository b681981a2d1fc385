"""Real shared-nothing execution: worker processes with crash recovery.

Where :mod:`repro.parallel.simulate` *counts* the fragments, messages and
row work of the paper's section-6 execution strategies, this module *runs*
them and measures wall-clock: base tables are hash-partitioned across real
``multiprocessing`` worker processes, plan fragments execute inside each
worker through the ordinary :class:`repro.Database` facade (parser,
rewriter, iterator executor), and the coordinator merges partial results.
The same plan functions (:mod:`repro.parallel.plans`) are measured:

* ``nested_iteration`` -- per qualifying DEPT binding, a COUNT probe is
  dispatched to every EMP partition (the O(n^2)-fragment pathology);
* ``magic_decorrelated`` -- SUPP and EMP are repartitioned once on the
  correlation attribute and the decorrelated query runs locally per
  partition (the engine's MAGIC strategy inside each worker).

Message accounting is *point-to-point*: the coordinator mediates every
exchange over queues, but messages are counted as if partitions shipped
rows directly (loopback free, bulk rows batched ``ROWS_PER_MESSAGE`` per
message, the crc32 :func:`partition_owner` placement) -- the rules of
:mod:`repro.parallel.plans`, which the simulator charges too, so a
fault-free measured run reports exactly the simulator's message count and
row work: the exact comparison of :mod:`repro.bench.calibration`.

Robustness contract (the part the simulator only counts):

* **Liveness.** Workers heartbeat on their result queue; the coordinator
  timestamps arrivals with its own injectable clock. A worker is *lost*
  when its process is dead or its last heartbeat is older than
  ``heartbeat_timeout``. Lost is permanent -- a stalled worker that wakes
  up is never re-admitted, only drained.
* **Recovery.** The coordinator retains every partition it shipped, so
  losing a worker re-ships only the lost partitions (under their
  partition-scoped names, e.g. ``emp_p3``, which coexist on the
  replacement) and re-dispatches only the orphaned tasks, with the
  bounded exponential backoff of :class:`RetryPolicy`.
* **No partial results.** Every task carries an ``(task_id, attempt)``
  epoch; marking a worker lost bumps the attempt of its in-flight tasks
  *before* any further message is drained, so a late result from a
  presumed-dead worker can never match and is dropped as stale. A merge
  therefore sees each partition exactly once or the query fails typed.
* **Degradation.** When a task exhausts its retry budget or the pool has
  no live workers, the run degrades to single-process execution and
  records a :class:`repro.rewrite.engine.DegradationEvent` -- the same
  structure as the strategy-fallback chain.

Fault injection: each worker builds its own :class:`FaultRegistry`
(seed ``base_seed + worker_id``) and honours three process-level sites --
``worker.crash`` (``os._exit`` before executing a task), ``worker.stall``
(sleep through several heartbeat windows) and ``exchange.drop`` (compute a
result, never send it; the coordinator recovers via the task timeout).

Transport note: worker-to-coordinator messages (heartbeats, counts,
qualifying-row lists) stay far below Linux's ``PIPE_BUF`` (4096 bytes is
the portable floor; 64KiB in practice), so a SIGKILL mid-send cannot leave
a torn frame on the per-worker result queue; bulk data only ever flows
coordinator-to-workers, and the coordinator is never killed. Traced runs
(``tracer=``) ship each task's span tree alongside its ``Metrics`` and may
exceed that floor -- a frame torn by a kill mid-send surfaces as an
EOF/OS error on the drain path, which the liveness machinery already
treats as worker loss.

Cross-process tracing: give the pool (or :func:`run_real`) a
:class:`repro.trace.Tracer` and every worker runs each task under its own
child tracer, serialising the span tree back with the result. The
coordinator grafts accepted trees under the distributing operator's span
as ``worker`` (one per contributing process, tagged ``worker_id``/``pid``)
-> ``dispatch`` (one per (task, attempt) -- retries and re-hosted attempts
appear as *sibling* dispatches with their failure reason) -> the worker's
own spans. Coordinator-side worker/dispatch spans carry zero metric
counters, so the grafted tree's exclusive-delta totals reconcile exactly
with ``rows_processed`` (only epoch-accepted results are grafted, the same
rule the counters follow).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
import zlib
from dataclasses import dataclass, field
from queue import Empty
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import WorkerPoolError, WorkerTaskError
from ..exec.metrics import Metrics
from ..faults import FaultRegistry
from ..guard import guard_for
from ..rewrite.engine import DegradationEvent
from ..trace.tracer import Tracer, _span_from_dict
from .plans import (
    PLANS,
    Backend,
    Task,
    batches,
    load_table,
    node_database,
    place,
    run_fragment,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..guard import Limits

#: The worker-side fault sites this executor honours.
WORKER_FAULT_SITES = ("worker.crash", "worker.stall", "exchange.drop")


def worker_faults(spec: Optional[str]) -> Optional[FaultRegistry]:
    """The registry a ``seed:site=rate`` spec builds for worker processes,
    or ``None`` without one. ``ValueError`` names any rule that matches
    none of :data:`WORKER_FAULT_SITES`: such a rule never fires in a
    worker, and would label a fault-free run as faulty."""
    if not spec:
        return None
    faults = FaultRegistry.parse(spec)
    idle = [
        rule.site for rule in faults.rules
        if not any(rule.matches(site) for site in WORKER_FAULT_SITES)
    ]
    if idle:
        raise ValueError(
            f"{', '.join(idle)} never fires in a worker process; worker "
            f"sites: {', '.join(WORKER_FAULT_SITES)}"
        )
    return faults


# -- worker process side -------------------------------------------------------

def _worker_main(worker_id: int, config: dict, task_queue, result_queue) -> None:
    """The worker loop: heartbeat, load partitions, execute plan fragments.

    Runs in a child process. Every fragment executes through a
    worker-local :class:`repro.Database` with
    :func:`~repro.parallel.plans.run_fragment`, the interpreter the
    simulated nodes run too; results go back as ``(kind, worker_id, ...)``
    tuples on the per-worker result queue. What is left here is what only
    a process has: queues, heartbeats and the three process-level fault
    sites.
    """
    faults = (
        FaultRegistry.parse(config["fault_spec"])
        if config.get("fault_spec")
        else None
    )
    heartbeat_interval = config["heartbeat_interval"]
    stall_seconds = config["stall_seconds"]
    trace = bool(config.get("trace"))
    db = node_database()

    def heartbeat() -> None:
        result_queue.put(("heartbeat", worker_id))

    def execute(task_id: str, attempt: int, op: str, payload: tuple) -> None:
        if faults is not None and faults.should_fire(
            "worker.crash", detail=f"w{worker_id}:{task_id}"
        ):
            os._exit(1)
        if faults is not None and faults.should_fire(
            "worker.stall", detail=f"w{worker_id}:{task_id}"
        ):
            time.sleep(stall_seconds)  # no heartbeats while stalled
        # A child tracer per task: its span tree rides back with the
        # result and the coordinator grafts it under the dispatch span.
        tracer = Tracer() if trace else None
        try:
            outcome, metrics = run_fragment(db, op, payload, tracer)
        except Exception as exc:  # typed reply; the coordinator re-raises
            result_queue.put(
                ("error", worker_id, task_id, attempt,
                 type(exc).__name__, str(exc))
            )
            return
        if faults is not None and faults.should_fire(
            "exchange.drop", detail=f"w{worker_id}:{task_id}"
        ):
            return  # the result evaporates; recovery is the task timeout
        spans = (
            [span.as_dict() for span in tracer.roots]
            if tracer is not None else []
        )
        result_queue.put(
            ("result", worker_id, task_id, attempt, outcome, metrics, spans)
        )

    heartbeat()
    try:
        while True:
            try:
                message = task_queue.get(timeout=heartbeat_interval)
            except Empty:
                heartbeat()
                continue
            if message is None:
                break
            kind = message[0]
            if kind == "load":
                load_table(db.catalog, *message[1:])
            elif kind == "task":
                execute(*message[1:])
            heartbeat()
    except (KeyboardInterrupt, EOFError, OSError):  # pragma: no cover
        pass


# -- coordinator side ----------------------------------------------------------

@dataclass
class _WorkerState:
    worker_id: int
    process: Any
    task_queue: Any
    result_queue: Any
    last_seen: float
    lost: bool = False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter, in seconds.

    ``delay(attempt)`` is ``base_delay * multiplier**attempt``, stretched
    by up to ``jitter`` (a fraction in ``[0, 1]``) using a crc32 draw on
    ``(seed, attempt)`` -- no ``random`` module, so a seeded run replays
    identically. ``max_attempts`` bounds the total tries of one task
    (first attempt included); ``allows(attempt)`` says whether attempt
    number ``attempt`` (0-based) may still run.
    """

    base_delay: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.25
    max_attempts: int = 4

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


@dataclass
class WorkerRunMetrics:
    """Outcome of one measured parallel execution (the real-process
    counterpart of :class:`repro.parallel.simulate.ParallelMetrics`)."""

    strategy: str
    n_workers: int
    answer: list
    fragments: int
    messages: int
    makespan: float           # wall-clock seconds, dispatch -> final merge
    rows_processed: int       # rows scanned across all workers
    retries: int
    workers_lost: int
    recovery_time: float      # summed retry backoff (seconds)
    degraded: bool = False
    degradations: list = field(default_factory=list)
    tasks: int = 0            # fragment dispatches, retries included


class WorkerPool(Backend):
    """A coordinator over ``n_workers`` real worker processes.

    The pool owns the task ledger (see the module docstring for the
    liveness/recovery contract), the partition -> worker host map, and the
    point-to-point message accounting. ``clock`` is injectable for
    deterministic liveness tests and ``sleep`` for the retry backoff (the
    ledger itself never sleeps: it blocks on the workers' result pipes);
    ``events`` (an
    :class:`repro.obs.events.EventLog`) receives ``worker.*`` lifecycle
    events; ``guard`` (an :class:`repro.guard.ExecutionGuard`) absorbs
    every accepted result's :class:`Metrics`, so remote work counts
    against the coordinator's budgets.
    """

    def __init__(
        self,
        n_workers: int,
        faults: Optional["FaultRegistry"] = None,
        retry_policy: Optional[RetryPolicy] = None,
        heartbeat_interval: float = 0.05,
        heartbeat_timeout: float = 0.5,
        task_timeout: float = 5.0,
        events=None,
        guard=None,
        tracer=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if n_workers < 1:
            raise WorkerPoolError(
                "worker pool needs at least one worker", 0, n_workers
            )
        super().__init__()
        self.n_workers = n_workers
        self.faults = faults
        self.retry_policy = retry_policy or RetryPolicy()
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.task_timeout = task_timeout
        self.events = events
        self.guard = guard
        self.tracer = tracer
        #: Span the grafted ``worker``/``dispatch`` sub-trees hang under;
        #: :func:`run_real` points it at the distributing operator's span.
        #: Left ``None`` with a tracer set, the pool lazily creates a
        #: ``parallel pool`` root on first graft.
        self.graft_parent = None
        self._clock = clock
        self._sleep = sleep
        self._poll_interval = min(heartbeat_interval, 0.01)
        self._ctx = multiprocessing.get_context("fork")
        self._workers: list[_WorkerState] = []
        self._hosts = list(range(n_workers))  # partition index -> worker id
        self._pending: dict[str, Task] = {}
        self._started = False
        self._closed = False
        # -- counters (the measured analogue of the simulator's Node sums)
        self.messages = 0
        self.rows_processed = 0
        self.retries = 0
        self.workers_lost = 0
        self.recovery_time = 0.0
        self.stale_results = 0
        self.tasks_dispatched = 0

    # -- lifecycle ---------------------------------------------------------

    def _worker_fault_spec(self, worker_id: int) -> Optional[str]:
        """Each worker replays its own deterministic schedule: same rules,
        seed offset by worker id (so a 2-worker and a 4-worker run draw
        independently, like :meth:`FaultRegistry.replica` per stream)."""
        if self.faults is None:
            return None
        rules = ",".join(f"{r.site}={r.rate}" for r in self.faults.rules)
        return f"{self.faults.seed + worker_id}:{rules}"

    def start(self) -> None:
        """Spawn the worker processes (idempotent until :meth:`close`)."""
        if self._closed:
            raise WorkerPoolError("worker pool is closed", 0, self.n_workers)
        if self._started:
            return
        for worker_id in range(self.n_workers):
            task_queue = self._ctx.Queue()
            result_queue = self._ctx.Queue()
            config = {
                "fault_spec": self._worker_fault_spec(worker_id),
                "heartbeat_interval": self.heartbeat_interval,
                # Long enough that a stall is always detected as lost.
                "stall_seconds": self.heartbeat_timeout * 3.0,
                "trace": self.tracer is not None,
            }
            process = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, config, task_queue, result_queue),
                daemon=True,
            )
            process.start()
            self._workers.append(
                _WorkerState(
                    worker_id, process, task_queue, result_queue,
                    last_seen=self._clock(),
                )
            )
            self._emit("worker.spawned", worker=worker_id, pid=process.pid)
        self._started = True

    def close(self) -> None:
        """Shut every worker down (graceful, then escalating)."""
        if self._closed:
            return
        self._closed = True
        for state in self._workers:
            if state.process.is_alive():
                try:
                    state.task_queue.put(None)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        for state in self._workers:
            state.process.join(timeout=1.0)
            if state.process.is_alive():
                state.process.terminate()
                state.process.join(timeout=0.5)
            if state.process.is_alive():  # pragma: no cover - last resort
                state.process.kill()
                state.process.join(timeout=0.5)
            for q in (state.task_queue, state.result_queue):
                q.cancel_join_thread()
                q.close()

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def kill_worker(self, worker_id: int) -> None:
        """Chaos hook: SIGKILL one worker (the soak's guaranteed kill).
        Detection and recovery then run through the ordinary liveness
        machinery -- nothing is special-cased for an explicit kill."""
        state = self._workers[worker_id]
        if state.process.is_alive():
            os.kill(state.process.pid, signal.SIGKILL)

    @property
    def live_workers(self) -> list[int]:
        """Worker ids not (yet) marked lost."""
        return [w.worker_id for w in self._workers if not w.lost]

    def _emit(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    # -- data placement ----------------------------------------------------

    def _load(
        self, partition: int, name: str, columns: tuple,
        primary_key: tuple, rows: list,
    ) -> None:
        """Ship ``rows`` to the partition's current host; the coordinator
        retains them (``_tables``) for re-hosting after a worker loss."""
        self._require_started()
        self._workers[self._hosts[partition]].task_queue.put(
            ("load", name, columns, primary_key, rows)
        )

    def send(self, sender: int, receiver: int, n_messages: int = 1) -> None:
        """Count ``n_messages`` point-to-point (loopback free): the
        coordinator mediates the bytes, the accounting is the plan's."""
        if sender != receiver:
            self.messages += n_messages

    # -- the task ledger ---------------------------------------------------

    def _require_started(self) -> None:
        if not self._started or self._closed:
            raise WorkerPoolError(
                "worker pool is not running (start() it, and not after "
                "close())",
                len(self.live_workers),
                self.n_workers,
            )

    def _dispatch(self, task: Task) -> None:
        worker_id = self._hosts[task.partition]
        state = self._workers[worker_id]
        task.worker_id = worker_id
        task.dispatched_at = self._clock()
        self._pending[task.task_id] = task
        for sender, receiver in task.traffic():
            self.send(sender, receiver)
        self.tasks_dispatched += 1
        state.task_queue.put(
            ("task", task.task_id, task.attempt, task.op, task.payload)
        )

    def _retry(self, task: Task, reason: str) -> None:
        """Bump the task epoch (stale-proofing any in-flight result),
        back off per the :class:`RetryPolicy`, and re-dispatch to the
        partition's current host."""
        task.attempt += 1
        if self.tracer is not None and task.worker_id is not None:
            # The failed attempt stays visible as a sibling dispatch span
            # (grafted even when the retry budget is about to exhaust).
            self._graft_dispatch(
                task.worker_id, task, task.attempt - 1,
                outcome="retried", reason=reason,
            )
        if not self.retry_policy.allows(task.attempt):
            raise WorkerTaskError(task.task_id, task.attempt, reason)
        delay = self.retry_policy.delay(
            task.attempt - 1, seed=zlib.crc32(task.task_id.encode())
        )
        self.retries += 1
        self.recovery_time += delay
        self._emit(
            "worker.retry",
            task=task.task_id, attempt=task.attempt,
            delay=round(delay, 6), reason=reason,
        )
        self._sleep(delay)
        self._dispatch(task)

    def _mark_lost(self, state: _WorkerState, reason: str) -> None:
        """Permanent exile: re-host the worker's partitions from retained
        rows, then retry its orphaned tasks (attempt bumped *first*, so a
        late result from this worker can never merge)."""
        state.lost = True
        self.workers_lost += 1
        self._emit("worker.lost", worker=state.worker_id, reason=reason)
        live = [w for w in self._workers if not w.lost]
        if not live:
            raise WorkerPoolError(
                "no live workers remain", 0, self.n_workers
            )
        for p in range(self.n_workers):
            if self._hosts[p] != state.worker_id:
                continue
            self._hosts[p] = live[p % len(live)].worker_id
            for name, spec in self._tables.items():
                rows = spec.partitions[p]
                # Re-hosting is real recovery traffic, charged batched.
                self.messages += batches(len(rows))
                self._load(
                    p, f"{name}_p{p}", spec.columns, spec.primary_key, rows
                )
        for task in list(self._pending.values()):
            if task.worker_id == state.worker_id and not task.done:
                self._retry(task, reason)

    def _handle(self, state: _WorkerState, message: tuple) -> None:
        kind = message[0]
        if state.lost:
            # Drained, never trusted: heartbeats do not resurrect, results
            # are checked against the (already bumped) task epoch below.
            if kind == "heartbeat":
                return
        else:
            state.last_seen = self._clock()
        if kind == "heartbeat":
            return
        if kind == "result":
            _, worker_id, task_id, attempt, outcome, metrics, spans = message
            task = self._pending.get(task_id)
            if task is None or task.done or task.attempt != attempt:
                self.stale_results += 1
                return
            task.result = outcome
            task.done = True
            del self._pending[task_id]
            if isinstance(metrics, Metrics):
                self.rows_processed += metrics.rows_scanned
                if self.guard is not None:
                    self.guard.absorb(metrics)
            if self.tracer is not None:
                self._graft(worker_id, task, attempt, spans)
            return
        if kind == "error":
            _, worker_id, task_id, attempt, error_type, text = message
            task = self._pending.get(task_id)
            if task is None or task.done or task.attempt != attempt:
                self.stale_results += 1
                return
            # Deterministic engine errors would fail again on retry:
            # surface them typed instead of burning the retry budget.
            raise WorkerTaskError(
                task_id, attempt + 1, f"{error_type}: {text}"
            )

    # -- cross-process span grafting ---------------------------------------

    def _graft_dispatch(
        self, worker_id: int, task: Task, attempt: int, **attrs
    ) -> "Any":
        """The coordinator-side ``worker`` -> ``dispatch`` chain for one
        (task, attempt). Both spans keep zero metric counters, so the
        grafted tree's exclusive-delta totals are exactly the sum of the
        accepted worker sub-trees -- the reconciliation invariant."""
        parent = self.graft_parent
        if parent is None:
            parent = self.tracer._node(
                ("parallel", "pool"), "parallel pool", "operator"
            )
            self.graft_parent = parent
        state = self._workers[worker_id]
        wspan = parent.child(
            ("worker", worker_id), f"worker {worker_id}", "worker"
        )
        if not wspan.attrs:
            wspan.attrs.update(
                {"worker_id": worker_id, "pid": state.process.pid}
            )
        dspan = wspan.child(
            ("dispatch", task.task_id, attempt),
            f"dispatch {task.task_id}#{attempt}",
            "dispatch",
        )
        dspan.calls += 1
        # Inclusive dispatch->disposition wall time, on the pool's clock.
        dspan.elapsed += max(0.0, self._clock() - task.dispatched_at)
        dspan.attrs.update(
            {
                "task": task.task_id,
                "attempt": attempt,
                "worker_id": worker_id,
                "op": task.op,
                **attrs,
            }
        )
        return dspan

    def _graft(
        self, worker_id: int, task: Task, attempt: int, spans: list
    ) -> None:
        """Attach an epoch-accepted result's worker span tree (shipped as
        ``as_dict`` payloads) under its dispatch span."""
        dspan = self._graft_dispatch(
            worker_id, task, attempt, outcome="accepted"
        )
        for data in spans:
            child = _span_from_dict(data)
            # (task, attempt) keys make the dispatch span unique, so the
            # rebuilt roots never collide with an existing child.
            dspan._index[child.key] = child
            dspan.children.append(child)

    def _drain(self) -> None:
        """Block until some result pipe is readable -- at most one poll
        interval, so liveness and task-timeout checks keep ticking -- then
        handle everything that has arrived."""
        # Nothing further can arrive from a lost, dead worker: skip the
        # dead queue (a lost but stalled one is drained, never trusted).
        draining = [
            state for state in self._workers
            if not state.lost or state.process.is_alive()
        ]
        multiprocessing.connection.wait(
            [state.result_queue._reader for state in draining],
            timeout=self._poll_interval,
        )
        for state in draining:
            while True:
                try:
                    message = state.result_queue.get_nowait()
                except Empty:
                    break
                except (EOFError, OSError):  # pragma: no cover
                    break
                self._handle(state, message)

    def _check_liveness(self) -> None:
        now = self._clock()
        for state in self._workers:
            if state.lost:
                continue
            if not state.process.is_alive():
                self._mark_lost(state, "process died")
            elif now - state.last_seen > self.heartbeat_timeout:
                self._mark_lost(
                    state,
                    f"missed heartbeats for "
                    f"{now - state.last_seen:.3f}s",
                )

    def _check_timeouts(self) -> None:
        now = self._clock()
        for task in list(self._pending.values()):
            if not task.done and now - task.dispatched_at > self.task_timeout:
                self._retry(task, "task timeout")

    def run_tasks(self, tasks: list) -> dict:
        """Dispatch ``tasks`` and drive the ledger until every one has a
        result. Returns ``{task_id: result}``. Raises
        :class:`~repro.errors.WorkerTaskError` (retry budget exhausted or
        a typed worker error) or :class:`~repro.errors.WorkerPoolError`
        (no live workers) -- never a silent partial result."""
        self._require_started()
        tasks = list(tasks)
        for task in tasks:
            self._dispatch(task)
        while self._pending:
            self._drain()
            self._check_liveness()
            self._check_timeouts()
        return {task.task_id: task.result for task in tasks}


# -- the section-6 strategies on real processes --------------------------------

def local_reference(
    dept_rows: list, emp_rows: list, budget_limit: float = 10000.0
) -> list:
    """The single-process answer (also the degradation fallback): the
    section-2 query over full tables through the ordinary engine."""
    from ..api import Database, Strategy
    from ..storage import Catalog
    from ..tpcd.empdept import create_empdept_schema

    catalog = Catalog()
    create_empdept_schema(catalog, with_indexes=False)
    catalog.table("dept").insert_many(dept_rows)
    catalog.table("emp").insert_many(emp_rows)
    result = Database(catalog).execute(
        f"Select D.name From Dept D Where D.budget < {budget_limit!r} "
        f"and D.num_emps > (Select Count(*) From Emp E "
        f"Where D.building = E.building)",
        strategy=Strategy.MAGIC,
    )
    return sorted(result.rows)


def run_real(
    strategy: str,
    dept_rows: list,
    emp_rows: list,
    n_workers: int,
    budget_limit: float = 10000.0,
    faults: Optional["FaultRegistry"] = None,
    retry_policy: Optional[RetryPolicy] = None,
    limits: Optional["Limits"] = None,
    events=None,
    degrade: bool = True,
    on_pool: Optional[Callable[[WorkerPool], None]] = None,
    tracer=None,
    **pool_kwargs,
) -> WorkerRunMetrics:
    """Measure one strategy on real worker processes.

    ``on_pool`` runs after the pool is started and loaded (the chaos
    soak's kill hook). ``degrade=True`` converts an exhausted retry budget
    or a dead pool into single-process execution with a recorded
    :class:`DegradationEvent` (and a ``worker.degraded`` event);
    ``degrade=False`` lets the typed :class:`~repro.errors.WorkerError`
    propagate. Budget trips (:class:`~repro.errors.BudgetExceeded`) always
    propagate -- governance is not an infrastructure failure.

    ``tracer`` (a :class:`repro.trace.Tracer`) turns on cross-process
    tracing: workers run child tracers and the pool grafts their span
    trees under the ``parallel <strategy>`` span opened here (see the
    module docstring for the grafting contract).
    """
    if strategy not in PLANS:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {sorted(PLANS)}"
        )
    pool = WorkerPool(
        n_workers,
        faults=faults,
        retry_policy=retry_policy,
        events=events,
        guard=guard_for(limits),
        tracer=tracer,
        **pool_kwargs,
    )
    started = pool._clock()

    def outcome(answer: list, fragments: int, since: float, **degradation):
        return WorkerRunMetrics(
            strategy=strategy,
            n_workers=n_workers,
            answer=answer,
            fragments=fragments,
            messages=pool.messages,
            makespan=pool._clock() - since,
            rows_processed=pool.rows_processed,
            retries=pool.retries,
            workers_lost=pool.workers_lost,
            recovery_time=pool.recovery_time,
            tasks=pool.tasks_dispatched,
            **degradation,
        )

    frame = None
    if tracer is not None:
        # The distributing operator's span: every grafted worker/dispatch
        # sub-tree hangs under it, degraded runs included.
        frame = tracer.begin(
            ("parallel", strategy), f"parallel {strategy}", "operator"
        )
        pool.graft_parent = frame.span
    try:
        pool.start()
        place(pool, dept_rows, emp_rows)
        if on_pool is not None:
            on_pool(pool)
        t0 = pool._clock()
        answer, fragments = PLANS[strategy](pool, budget_limit)
        if frame is not None:
            tracer.end(frame, rows_out=len(answer))
            frame = None
        return outcome(answer, fragments, t0)
    except (WorkerTaskError, WorkerPoolError) as exc:
        if not degrade:
            raise
        event = DegradationEvent(
            requested=f"real:{strategy}",
            attempted="workers",
            fallback="local",
            error_type=type(exc).__name__,
            message=str(exc),
        )
        if events is not None:
            events.emit(
                "worker.degraded",
                strategy=strategy,
                error_type=event.error_type,
                message=event.message,
            )
        answer = local_reference(dept_rows, emp_rows, budget_limit)
        return outcome(
            answer, 1, started, degraded=True, degradations=[event]
        )
    finally:
        if frame is not None:
            tracer.end(frame)
        pool.close()


def run_real_nested_iteration(
    dept_rows: list, emp_rows: list, n_workers: int, **kwargs
) -> WorkerRunMetrics:
    """Section 6.1 on real processes: broadcast-per-tuple nested iteration."""
    return run_real("nested_iteration", dept_rows, emp_rows, n_workers, **kwargs)


def run_real_decorrelated(
    dept_rows: list, emp_rows: list, n_workers: int, **kwargs
) -> WorkerRunMetrics:
    """Section 6.2 on real processes: the magic-decorrelated plan."""
    return run_real(
        "magic_decorrelated", dept_rows, emp_rows, n_workers, **kwargs
    )
