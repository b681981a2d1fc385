"""The rewrite engine: strategy dispatch with invariant checking.

The paper's section-3 contract is that "each rule application should leave
the QGM in a consistent state, because the query rewrite phase may be
terminated at any point". :class:`RewriteEngine` enforces it: with
validation enabled (``RewriteEngine(validate=True)`` or the
``REPRO_VALIDATE`` environment variable) the full consistency validator
*and* every registered lint rule run after the initial bind and after every
individual rewrite step, via the strategies' ``on_step`` hooks. An
error-level finding aborts the rewrite with a
:class:`~repro.errors.QGMConsistencyError` naming the offending step.

Without validation only the (cheap) whole-graph consistency check runs
before and after the rewrite -- the engine's historical behaviour.

Strategies are dispatched by their string value (``"kim"``, ``"magic"``,
...) so this module does not import the ``Strategy`` enum from
``repro.api`` (which itself imports the rewrite package).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from ..errors import FaultInjectedError, QGMConsistencyError, RewriteError
from ..qgm.analysis import iter_boxes
from ..qgm.model import QueryGraph
from ..qgm.validate import validate_graph
from ..storage.catalog import Catalog

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..faults import FaultRegistry
    from ..qgm.analysis import GraphFacts
    from ..trace import Tracer


def _box_ids(graph: QueryGraph) -> frozenset[int]:
    return frozenset(box.id for box in iter_boxes(graph.root))

StepHook = Callable[[str, QueryGraph], None]

#: The graceful-degradation order: whatever was requested, then magic (the
#: paper's general method), then nested iteration (always applicable --
#: "guarantees an answer whenever NI can produce one").
FALLBACK_CHAIN: tuple[str, ...] = ("magic", "ni")


@dataclass(frozen=True)
class DegradationEvent:
    """One step down the strategy fallback chain.

    Recorded on the query result whenever a requested strategy (or a
    fallback) failed and the engine moved on to the next strategy in
    :data:`FALLBACK_CHAIN`.
    """

    requested: str   # the strategy the caller asked for
    attempted: str   # the strategy that failed here
    fallback: str    # the strategy tried next ("" when the chain ran out)
    error_type: str  # class name of the error that triggered the step
    message: str     # its message

    def __str__(self) -> str:  # pragma: no cover - display helper
        target = self.fallback or "<none>"
        return (
            f"degraded {self.attempted!r} -> {target!r} "
            f"[{self.error_type}]: {self.message}"
        )


def env_validate_default() -> bool:
    """The process-wide default: ``REPRO_VALIDATE`` set to anything but
    ``0``/empty turns per-step validation on."""
    return os.environ.get("REPRO_VALIDATE", "") not in ("", "0")


class RewriteEngine:
    """Applies a decorrelation strategy to a bound graph, with checking."""

    def __init__(
        self,
        catalog: Catalog,
        validate: Optional[bool] = None,
        on_step: Optional[StepHook] = None,
        faults: Optional["FaultRegistry"] = None,
        events=None,
    ):
        self.catalog = catalog
        self.validate = env_validate_default() if validate is None else validate
        self._user_hook = on_step
        #: Deterministic fault-injection registry (site "rewrite.strategy").
        self.faults = faults
        #: Optional :class:`repro.obs.events.EventLog`: every step down the
        #: fallback chain emits a ``query.degraded`` event. ``None`` adds
        #: no overhead.
        self.events = events
        #: Step descriptions recorded during the most recent rewrite.
        self.steps: list[str] = []
        #: The graph-fact table its final validation built of the most
        #: recent rewrite's result -- valid until somebody mutates that
        #: graph, so the compile step plans with it (DESIGN section 19);
        #: ``None`` when the validating engine's lint checked the result.
        self.facts: Optional["GraphFacts"] = None
        #: Active span collector (set for the duration of a traced rewrite).
        self._tracer: Optional["Tracer"] = None
        self._trace_mark = 0.0
        self._trace_boxes: frozenset[int] = frozenset()

    # -- invariant checking ----------------------------------------------------

    def check(self, graph: QueryGraph, context: str) -> None:
        """Run the validator plus all lint rules; raise on any error-level
        finding, naming the rewrite step that produced the bad graph."""
        from ..analyze.diagnostics import Severity
        from ..analyze.lint import lint_graph

        errors = [
            d for d in lint_graph(graph, self.catalog)
            if d.severity is Severity.ERROR
        ]
        if errors:
            details = "; ".join(d.message for d in errors)
            raise QGMConsistencyError(
                f"rewrite invariant violated after {context}: {details}"
            )

    def _hook(self, description: str, graph: QueryGraph) -> None:
        self.steps.append(description)
        tracer = self._tracer
        if tracer is not None:
            # The hook fires *after* the step ran, so the span is recorded
            # pre-measured: elapsed is the time since the previous step's
            # hook (or rewrite start), the attrs the box-id delta.
            now = tracer.now()
            box_ids = _box_ids(graph)
            attrs: dict = {}
            created = sorted(box_ids - self._trace_boxes)
            removed = sorted(self._trace_boxes - box_ids)
            if created:
                attrs["boxes_created"] = created
            if removed:
                attrs["boxes_removed"] = removed
            tracer.record(
                ("rewrite-step", len(self.steps) - 1), description,
                "rewrite-step", elapsed=now - self._trace_mark, attrs=attrs,
            )
            self._trace_boxes = box_ids
        if self.validate:
            self.check(graph, f"step {description!r}")
        if self._user_hook is not None:
            self._user_hook(description, graph)
        if tracer is not None:
            # Reset the mark after validation/user hooks so their cost is
            # not attributed to the next rewrite step.
            self._trace_mark = tracer.now()

    # -- dispatch ---------------------------------------------------------------

    def rewrite(
        self,
        graph: QueryGraph,
        strategy,
        decorrelate_existential: bool = True,
        tracer: Optional["Tracer"] = None,
    ) -> QueryGraph:
        """Apply ``strategy`` (a ``Strategy`` enum member or its string
        value) to ``graph``, validating per the engine's configuration.

        ``tracer`` (a :class:`repro.trace.Tracer`) collects one span per
        rewrite plus one child span per FEED/ABSORB step, each carrying
        its elapsed time and the box ids it created or removed --
        replayable as a timeline and exportable as JSON. ``None`` (the
        default) adds no overhead."""
        key = getattr(strategy, "value", strategy)
        if tracer is None:
            return self._rewrite_inner(graph, key, decorrelate_existential)
        frame = tracer.begin(("rewrite", key), f"rewrite {key}", "rewrite")
        self._tracer = tracer
        self._trace_mark = tracer.now()
        self._trace_boxes = _box_ids(graph)
        try:
            result = self._rewrite_inner(graph, key, decorrelate_existential)
            frame.span.attrs["steps"] = len(self.steps)
            return result
        finally:
            self._tracer = None
            tracer.end(frame)

    def _rewrite_inner(
        self, graph: QueryGraph, key: str, decorrelate_existential: bool
    ) -> QueryGraph:
        from . import decorrelate

        self.steps = []
        self.facts = None
        bound = None
        if self.validate:
            self.check(graph, "bind")
        else:
            bound = validate_graph(graph, self.catalog)
        if self.faults is not None:
            self.faults.trigger("rewrite.strategy", detail=key)

        if key == "ni":
            result = graph
        elif key == "kim":
            result = decorrelate.apply_kim(
                graph, self.catalog, on_step=self._hook
            )
        elif key == "dayal":
            result = decorrelate.apply_dayal(
                graph, self.catalog, on_step=self._hook
            )
        elif key == "ganski_wong":
            result = decorrelate.apply_ganski_wong(
                graph, self.catalog, on_step=self._hook
            )
        elif key in ("magic", "magic_opt"):
            result = decorrelate.apply_magic(
                graph, self.catalog,
                optimize_keys=(key == "magic_opt"),
                decorrelate_existential=decorrelate_existential,
                on_step=self._hook,
            )
        else:
            raise RewriteError(f"unknown strategy {key!r}")

        if self.validate:
            self.check(result, "final rewrite")
        elif key == "ni":
            # NI hands back the graph validated above, untouched. The other
            # strategies rewrite in place, so ``result is graph`` proves
            # nothing for them.
            self.facts = bound
        else:
            self.facts = validate_graph(result, self.catalog)
        return result

    # -- graceful degradation ---------------------------------------------------

    def _record_degradation(
        self, events: list[DegradationEvent], event: DegradationEvent
    ) -> None:
        events.append(event)
        if self.events is not None:
            self.events.emit(
                "query.degraded",
                requested=event.requested,
                attempted=event.attempted,
                fallback=event.fallback,
                error_type=event.error_type,
                message=event.message,
            )

    def rewrite_with_fallback(
        self,
        build: Callable[[], QueryGraph],
        strategy,
        decorrelate_existential: bool = True,
        disabled: Optional[Callable[[str], Optional[str]]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> tuple[QueryGraph, list[DegradationEvent]]:
        """Apply ``strategy``, degrading along :data:`FALLBACK_CHAIN` on
        failure.

        ``build`` constructs a *fresh* bound graph -- rewrites mutate their
        input, so every attempt needs its own graph. Strategy-specific
        failures (:class:`~repro.errors.RewriteError` including
        ``NotApplicableError``, rewrite invariant violations, and injected
        rewrite faults) each append a :class:`DegradationEvent`; the chain
        ends at nested iteration, which is always applicable, so an answer
        is guaranteed whenever NI itself can produce one. If even the last
        strategy fails, the final error propagates with the full chain on
        it as ``exc.degradations``.

        ``disabled`` lets a caller veto chain entries without paying for
        the rewrite attempt at all: it receives each strategy key before
        ``build()`` runs and returns a human-readable reason to skip it
        (or ``None`` to proceed). A skip is recorded as a
        :class:`DegradationEvent` with ``error_type="CircuitBreakerOpen"``
        -- this is how the query service's per-strategy circuit breakers
        degrade straight down the chain while a strategy is quarantined.
        If every chain entry is vetoed, a :class:`~repro.errors.RewriteError`
        summarising the reasons is raised.
        """
        requested = getattr(strategy, "value", strategy)
        chain = [requested]
        chain.extend(k for k in FALLBACK_CHAIN if k not in chain)
        events: list[DegradationEvent] = []
        for position, key in enumerate(chain):
            if disabled is not None:
                reason = disabled(key)
                if reason:
                    fallback = (
                        chain[position + 1] if position + 1 < len(chain) else ""
                    )
                    self._record_degradation(
                        events,
                        DegradationEvent(
                            requested=requested,
                            attempted=key,
                            fallback=fallback,
                            error_type="CircuitBreakerOpen",
                            message=reason,
                        ),
                    )
                    if not fallback:
                        raise RewriteError(
                            "no strategy available: "
                            + "; ".join(
                                f"{e.attempted}: {e.message}" for e in events
                            )
                        )
                    continue
            try:
                graph = self.rewrite(
                    build(), key,
                    decorrelate_existential=decorrelate_existential,
                    tracer=tracer,
                )
                return graph, events
            except (RewriteError, QGMConsistencyError, FaultInjectedError) as exc:
                fallback = (
                    chain[position + 1] if position + 1 < len(chain) else ""
                )
                self._record_degradation(
                    events,
                    DegradationEvent(
                        requested=requested,
                        attempted=key,
                        fallback=fallback,
                        error_type=type(exc).__name__,
                        message=str(exc),
                    ),
                )
                if not fallback:
                    exc.degradations = events  # type: ignore[attr-defined]
                    raise
        raise RewriteError("empty fallback chain")  # pragma: no cover
