"""The one compile step: statement text in, one runnable artifact out.

The paper compares its rewrites "inside a single system", and section 3's
contract -- every rule application leaves the QGM consistent -- is a
contract on *the graph that runs*. :func:`compile_query` is therefore the
only place the pipeline in front of the executor is written out; what it
returns (:class:`~repro.plan.cache.CachedPlan`) is what ``Database`` runs,
what ``EXPLAIN`` renders and what the plan cache stores, and nothing
downstream plans, compiles or walks the graph again.

Not re-exported from :mod:`repro.plan`: this module imports the executor,
which imports the planner.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from ..errors import BindError, ReproError
from ..exec.executor import plan_box
from ..qgm import build_qgm
from ..qgm.analysis import GraphFacts
from ..sql import ast
from ..sql.parser import parse_statement
from ..storage.catalog import Catalog
from .cache import CachedPlan
from .cost import CompileCatalog


def no_mark(phase: str) -> None:
    """The phase mark of a query nobody is timing."""


def compile_query(
    source: Union[str, ast.Statement],
    catalog: Catalog,
    engine: Any,
    strategy: Any,
    *,
    decorrelate_existential: bool = True,
    fallback: bool = False,
    disabled: Optional[Callable[[str], Optional[str]]] = None,
    guard: Any = None,
    faults: Any = None,
    tracer: Any = None,
    mark: Callable[[str], Any] = no_mark,
) -> CachedPlan:
    """Parse (unless handed the parsed body), bind, rewrite under
    ``strategy`` on ``engine`` -- a :class:`~repro.rewrite.RewriteEngine`,
    whose validation setting, fault registry and event log are the
    compile's -- then plan every box, expressions compiled, and under
    validation verify those plans.

    ``fallback`` / ``disabled`` select the engine's degradation chain; the
    chain taken rides on the artifact, and on any error raised after the
    rewrite. ``guard`` makes planning cancellable, ``faults`` carries the
    ``plan.select`` site, ``tracer`` collects the rewrite spans. ``mark``
    is called with ``"rewrite"`` once the rewritten graph exists and with
    ``"optimize"`` once it is planned (and verified).
    """
    statement = parse_statement(source) if isinstance(source, str) else source
    if not isinstance(statement, (ast.Select, ast.SetOp)):
        raise BindError("only a query can be compiled")
    chain: list[Any] = []
    if fallback:
        graph, chain = engine.rewrite_with_fallback(
            lambda: build_qgm(statement, catalog), strategy,
            decorrelate_existential=decorrelate_existential,
            disabled=disabled, tracer=tracer,
        )
    else:
        graph = engine.rewrite(
            build_qgm(statement, catalog), strategy,
            decorrelate_existential=decorrelate_existential, tracer=tracer,
        )
    mark("rewrite")
    try:
        # The rewritten graph is final: one table of its facts -- the one
        # its final validation built, when nothing has touched it since --
        # serves the planning of every box, and one view of the catalog
        # every table and statistics lookup (DESIGN section 19).
        facts = engine.facts or GraphFacts(graph.root)
        tables = CompileCatalog(catalog)
        plans: dict[int, Any] = {}
        for box in facts.boxes:
            plan = plan_box(tables, box, guard, faults, facts)
            if plan is not None:
                plans[box.id] = plan
        if engine.validate:
            # Validation gates the static plan verifier: the plans the
            # executor is about to run are checked against the inferred box
            # contracts (repro.analyze.plans). Off means not even imported.
            from ..analyze.plans import verify_pre_execution

            summary = verify_pre_execution(catalog, graph, plans)
            if engine.events is not None:
                engine.events.emit("plan.verified", **summary)
    except ReproError as exc:
        # The plan that failed is the one the chain ended on: the chain
        # leaves with the error, as it does from rewrite_with_fallback.
        exc.degradations = chain  # type: ignore[attr-defined]
        raise
    compiled = CachedPlan(
        strategy=str(getattr(strategy, "value", strategy)),
        graph=graph,
        plans=plans,
        shared=facts.shared,
        degradations=chain,
    )
    mark("optimize")
    return compiled
