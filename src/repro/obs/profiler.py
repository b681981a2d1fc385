"""A wall-clock sampling profiler with plan-operator attribution.

A background thread wakes every ``interval`` seconds, snapshots every
thread's Python stack via ``sys._current_frames()``, and folds each into
an aggregated sample count. Threads currently executing a *traced* query
additionally carry their plan-operator context: the profiler consults the
thread's :class:`~repro.trace.Tracer` active-span stack and prefixes the
sample with one synthetic frame per open operator span, so a flamegraph's
width under ``op:groupby`` is literally "wall-clock time spent under
group-by" -- the paper's where-does-time-go question, answered by
sampling instead of instrumentation.

Attribution contract: the tracer's span stack is read *racily* (no lock;
the sampled thread keeps mutating it). A torn read can only mis-attribute
a single sample to a neighbouring operator -- it can never corrupt the
trace or the sample store, and at sampling frequencies the error is in
the noise. Samples on threads with no adopted tracer (or an empty span
stack) fold into the plain Python stack with no operator frames.

Exports:

* :meth:`SamplingProfiler.collapsed` -- collapsed-stack text, one
  ``frame;frame;frame count`` line per unique stack (flamegraph.pl /
  inferno format);
* :meth:`SamplingProfiler.speedscope` -- a speedscope JSON document
  (``"type": "sampled"``) openable at https://www.speedscope.app.

Tracer adoption is automatic while a profiler is *active*
(:func:`profiling` / :func:`activate`): creating a
:class:`~repro.trace.Tracer` registers it for the creating thread via a
single module-level hook, so the query service and soak harness need no
profiler plumbing. When no profiler is active the hook is ``None`` and
tracer creation pays one global read -- the zero-overhead disabled path.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Optional

from ..errors import EventLogError

#: Synthetic frame prefix marking plan-operator context in sample stacks.
OP_PREFIX = "op:"


def _frame_name(frame) -> str:
    """``module.function`` for one Python frame (file stem, not path)."""
    code = frame.f_code
    stem = os.path.basename(code.co_filename)
    if stem.endswith(".py"):
        stem = stem[:-3]
    return f"{stem}.{code.co_name}"


class SamplingProfiler:
    """Aggregating wall-clock sampler over every thread in the process.

    ``interval`` is the target seconds between samples (default 5 ms);
    ``max_depth`` bounds the recorded Python stack. Use as a context
    manager or call :meth:`start` / :meth:`stop`. The profiler's own
    sampling thread is excluded from its samples.
    """

    def __init__(
        self,
        interval: float = 0.005,
        max_depth: int = 64,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if interval <= 0:
            raise EventLogError("profiler interval must be > 0")
        if max_depth < 1:
            raise EventLogError("profiler max_depth must be >= 1")
        self.interval = interval
        self.max_depth = max_depth
        self._clock = clock
        self._lock = threading.Lock()
        #: Aggregated samples: stack tuple (root -> leaf) -> count.
        self._samples: dict[tuple[str, ...], int] = {}
        #: Per-operator sample counts (id-stripped leaf operator name).
        self._operator_samples: dict[str, int] = {}
        self._tracers: dict[int, object] = {}  # thread ident -> Tracer
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.sample_count = 0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise EventLogError("profiler already started")
        self._stop.clear()
        self.started_at = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        self.stopped_at = self._clock()
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- attribution --------------------------------------------------------

    def adopt(self, tracer, thread_ident: Optional[int] = None) -> None:
        """Associate ``tracer`` with a thread (default: the calling one);
        subsequent samples of that thread carry its active-span operator
        context. The newest tracer per thread wins -- exactly the query
        currently executing there."""
        ident = threading.get_ident() if thread_ident is None else thread_ident
        with self._lock:
            self._tracers[ident] = tracer

    def _operator_stack(self, ident: int) -> list[str]:
        tracer = self._tracers.get(ident)
        if tracer is None:
            return []
        try:
            return tracer.active_operator_stack()
        except Exception:  # pragma: no cover - racy read lost
            return []

    # -- sampling -----------------------------------------------------------

    def _run(self) -> None:
        own_ident = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample_once(own_ident)

    def _sample_once(self, own_ident: int) -> None:
        """Take one sample of every thread (public for deterministic
        tests, which call it directly instead of racing the clock)."""
        frames = sys._current_frames()
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                stack.append(_frame_name(frame))
                frame = frame.f_back
                depth += 1
            stack.reverse()  # root -> leaf
            operators = self._operator_stack(ident)
            if operators:
                from ..trace.tracer import _generic_operator_name

                op_frames = [
                    OP_PREFIX + _generic_operator_name(name)
                    for name in operators
                ]
                key = tuple(op_frames + stack)
                leaf = op_frames[-1][len(OP_PREFIX):]
            else:
                key = tuple(stack)
                leaf = None
            with self._lock:
                self._samples[key] = self._samples.get(key, 0) + 1
                self.sample_count += 1
                if leaf is not None:
                    self._operator_samples[leaf] = (
                        self._operator_samples.get(leaf, 0) + 1
                    )

    # -- observation --------------------------------------------------------

    def samples(self) -> dict[tuple[str, ...], int]:
        """Aggregated samples: stack tuple (root -> leaf) -> count."""
        with self._lock:
            return dict(self._samples)

    def operator_samples(self) -> dict[str, int]:
        """Sample counts per (id-stripped) plan operator, largest first --
        comparable with :meth:`repro.trace.Tracer.operator_summaries`."""
        with self._lock:
            counts = dict(self._operator_samples)
        return dict(
            sorted(counts.items(), key=lambda item: item[1], reverse=True)
        )

    # -- export -------------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed-stack text (flamegraph.pl format): one
        ``frame;frame;frame count`` line per unique stack, sorted for
        deterministic output."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in self.samples().items()
        ]
        return "\n".join(sorted(lines)) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro profile") -> dict:
        """The samples as a speedscope JSON document (sampled profile,
        unit "none": weights are sample counts)."""
        samples = self.samples()
        frame_index: dict[str, int] = {}
        frames: list[dict] = []
        sample_lists: list[list[int]] = []
        weights: list[int] = []
        for stack, count in sorted(samples.items()):
            indexed = []
            for frame_name in stack:
                position = frame_index.get(frame_name)
                if position is None:
                    position = len(frames)
                    frame_index[frame_name] = position
                    frames.append({"name": frame_name})
                indexed.append(position)
            sample_lists.append(indexed)
            weights.append(count)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro.obs.profiler",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": total,
                    "samples": sample_lists,
                    "weights": weights,
                }
            ],
        }


# -- activation ---------------------------------------------------------------

_active: Optional[SamplingProfiler] = None


def active() -> Optional[SamplingProfiler]:
    """The currently-activated profiler, if any."""
    return _active


def activate(profiler: SamplingProfiler) -> None:
    """Install ``profiler`` as the process-wide active profiler: tracers
    created while it is active register themselves for operator
    attribution (see module docstring)."""
    global _active
    from ..trace import tracer as tracer_module

    _active = profiler
    tracer_module._PROFILER_HOOK = profiler.adopt


def deactivate() -> None:
    """Remove the active profiler and its tracer-creation hook."""
    global _active
    from ..trace import tracer as tracer_module

    _active = None
    tracer_module._PROFILER_HOOK = None


@contextmanager
def profiling(
    profiler: Optional[SamplingProfiler] = None, **kwargs
):
    """Run a block under an active, started profiler::

        with profiling(interval=0.002) as prof:
            run_scenario(chaos_scenario(seconds=5, trace=True))
        print(prof.collapsed())
    """
    prof = profiler if profiler is not None else SamplingProfiler(**kwargs)
    activate(prof)
    prof.start()
    try:
        yield prof
    finally:
        prof.stop()
        deactivate()
