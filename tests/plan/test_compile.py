"""One compiled query: the pipeline runs once per submission, and what it
produced is what is verified, stored, executed and explained.

The call-count table pins the front end's work per submission (it was
doubled on a plan-cache miss, and the planner ran three times under
validation); the validation tests pin that the plan cache only ever
stores what the *live*, validating engine accepted.
"""

import sys

import pytest

import repro.analyze.plans  # noqa: F401 - imported so the spies see it
import repro.plan.compile as compile_module
import repro.plan.pretty  # noqa: F401
from repro import Database
from repro.errors import BindError, QGMConsistencyError
from repro.obs.events import EventLog, RingSink, count_by_kind
from repro.plan import PlanCache, planner
from repro.qgm import builder, iter_boxes
from repro.qgm.model import SelectBox
from repro.rewrite.engine import RewriteEngine
from repro.sql import parser
from repro.tpcd import EMP_DEPT_QUERY, load_empdept


def patch_everywhere(monkeypatch, original, wrapper) -> None:
    """Replace ``original`` in every ``repro`` module that imported it."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapper)


class Calls:
    """Spies on the four stages of the front end. ``plan_select_box``
    calls made from inside a rewrite (the magic rewrite plans the outer
    box to place its subqueries) are counted apart, as are the files the
    other planner calls came from."""

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(("parse", "build", "rewrite", "plan"), 0)
        self.plan_in_rewrite = 0
        self.planned_from: list[str] = []
        self._rewriting = 0
        self._spy(monkeypatch, "parse", parser.parse_statement)
        self._spy(monkeypatch, "build", builder.build_qgm)
        self._spy(monkeypatch, "plan", planner.plan_select_box)
        inner = RewriteEngine._rewrite_inner

        def rewrite_inner(engine, *args, **kwargs):
            self.counts["rewrite"] += 1
            self._rewriting += 1
            try:
                return inner(engine, *args, **kwargs)
            finally:
                self._rewriting -= 1

        monkeypatch.setattr(RewriteEngine, "_rewrite_inner", rewrite_inner)

    def _spy(self, monkeypatch, key, original):
        def wrapper(*args, **kwargs):
            if key == "plan" and self._rewriting:
                self.plan_in_rewrite += 1
            else:
                self.counts[key] += 1
                if key == "plan":
                    self.planned_from.append(sys._getframe(1).f_code.co_filename)
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, wrapper)

    def take(self) -> tuple:
        taken = tuple(self.counts.values())
        self.counts = dict.fromkeys(self.counts, 0)
        self.planned_from = []
        return taken


def spj_boxes(strategy: str) -> int:
    graph = Database(load_empdept()).rewrite(
        parser.parse_statement(EMP_DEPT_QUERY), strategy
    )
    return sum(isinstance(box, SelectBox) for box in iter_boxes(graph.root))


@pytest.mark.parametrize("strategy", ["ni", "magic"])
@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("validate", [False, True])
def test_one_pipeline_per_submission(validate, cached, strategy, monkeypatch):
    boxes = spj_boxes(strategy)
    calls = Calls(monkeypatch)
    cache = PlanCache() if cached else None
    db = Database(load_empdept(), validate=validate, plan_cache=cache)
    db.execute(EMP_DEPT_QUERY, strategy)
    assert calls.take() == (1, 1, 1, boxes)
    db.execute(EMP_DEPT_QUERY, strategy)
    assert calls.take() == ((0, 0, 0, 0) if cached else (1, 1, 1, boxes))


def test_a_tombstoned_shapes_second_miss_is_one_literal_compile(monkeypatch):
    calls = Calls(monkeypatch)
    db = Database(load_empdept(), plan_cache=PlanCache())
    sql = "select name from emp order by name limit 2"
    db.execute(sql)
    # ``limit ?`` does not parse; the literal text is compiled instead.
    assert calls.take() == (2, 1, 1, 1)
    db.execute(sql)
    assert calls.take() == (1, 1, 1, 1)


def test_explain_analyze_renders_the_plans_that_ran(monkeypatch):
    boxes = spj_boxes("magic")
    calls = Calls(monkeypatch)
    db = Database(load_empdept())
    text = db.explain(EMP_DEPT_QUERY, "magic", analyze=True)
    assert "reconcile exactly" in text
    assert calls.counts == dict(parse=1, build=1, rewrite=1, plan=boxes)
    assert not any(f.endswith("pretty.py") for f in calls.planned_from)
    # ... and so do the other renderings of a compiled query.
    calls.take()
    db.explain_plan(EMP_DEPT_QUERY, "magic")
    assert not any(f.endswith("pretty.py") for f in calls.planned_from)


@pytest.mark.parametrize("entry_point, wording", [
    (Database.explain, "EXPLAIN is only available for queries"),
    (Database.explain_plan, "EXPLAIN PLAN is only available for queries"),
    (Database.rewritten_sql, "rewritten_sql is only available for queries"),
])
def test_the_explain_entry_points_refuse_what_is_not_a_query(entry_point, wording):
    with pytest.raises(BindError, match=wording):
        entry_point(Database(load_empdept()), "insert into emp values (1, 'x', 'b1', 1.0)")


# -- validation sees the graph that runs ---------------------------------------

def test_a_rewrite_the_validating_engine_rejects_is_never_stored(monkeypatch):
    """What a failing per-step lint does. The only error-level rule,
    QGM001, is ``validate_graph`` itself, so the rejection is injected."""
    check = RewriteEngine.check

    def rejecting(engine, graph, context):
        if context.startswith("step "):
            raise QGMConsistencyError(
                f"rewrite invariant violated after {context}: injected"
            )
        return check(engine, graph, context)

    monkeypatch.setattr(RewriteEngine, "check", rejecting)
    cache = PlanCache()
    db = Database(load_empdept(), validate=True, plan_cache=cache)
    expected = Database(load_empdept()).execute(EMP_DEPT_QUERY, "ni").rows
    for _ in range(2):
        result = db.execute(EMP_DEPT_QUERY, "magic", fallback=True)
        assert [
            (e.attempted, e.fallback, e.error_type) for e in result.degradations
        ] == [("magic", "ni", "QGMConsistencyError")]
        assert sorted(result.rows) == sorted(expected)
        assert cache.hits == 0
        assert all(entry.is_tombstone for entry in cache._entries.values())


def test_an_interrupted_compile_stores_nothing_and_the_next_miss_retries():
    from repro.faults import FaultRegistry

    cache = PlanCache()
    faults = FaultRegistry.parse("0:rewrite.strategy=0.3")  # fires on trigger #0
    db = Database(load_empdept(), faults=faults, plan_cache=cache)
    degraded = db.execute(EMP_DEPT_QUERY, "magic", fallback=True)
    assert [e.error_type for e in degraded.degradations] == ["FaultInjectedError"]
    assert cache.snapshot()["entries"] == 0
    clean = db.execute(EMP_DEPT_QUERY, "magic", fallback=True)
    assert clean.degradations == [] and cache.snapshot()["entries"] == 1
    assert db.execute(EMP_DEPT_QUERY, "magic", fallback=True).rows == clean.rows
    assert (cache.misses, cache.hits) == (2, 1)


def test_the_verified_graph_is_the_stored_one(monkeypatch):
    from repro.analyze import plans

    verified: list = []
    real = plans.verify_pre_execution

    def spy(catalog, graph, handed=None):
        summary = real(catalog, graph, handed)
        verified.append((graph, handed, summary))
        return summary

    monkeypatch.setattr(plans, "verify_pre_execution", spy)
    sink = RingSink(capacity=1024)
    events = EventLog(sink)
    cache = PlanCache(events=events)
    db = Database(load_empdept(), validate=True, events=events, plan_cache=cache)
    for _ in range(3):
        db.execute(EMP_DEPT_QUERY, "magic")
    assert (cache.misses, cache.hits) == (1, 2)
    # One verification per compile, none per hit ...
    assert count_by_kind(sink.events()).get("plan.verified") == 1
    ((graph, handed, summary),) = verified
    # ... of the very graph and plans the hits execute.
    (entry,) = cache._entries.values()
    assert graph is entry.graph and handed is entry.plans
    selects = [
        plan for plan in entry.plans.values() if hasattr(plan, "steps")
    ]
    assert summary["plans"] == len(selects) == spj_boxes("magic")
    assert summary["steps"] == sum(len(plan.steps) for plan in selects)


def test_fill_and_the_facade_call_the_one_compile_function(monkeypatch):
    """``PlanCache.fill`` -- the ladder's probe -- is the facade's compile
    on a quiet engine; a filled entry answers like a compiled miss."""
    compiled: list = []
    real = compile_module.compile_query

    def spy(source, catalog, engine, *args, **kwargs):
        compiled.append(engine)
        return real(source, catalog, engine, *args, **kwargs)

    monkeypatch.setattr(compile_module, "compile_query", spy)
    catalog = load_empdept()
    cache = PlanCache()
    prepared = cache.prepare(
        EMP_DEPT_QUERY, strategy="magic", cse_mode="recompute",
        decorrelate_existential=True, generation=catalog.generation(),
    )
    entry = cache.fill(prepared, catalog)
    assert entry is cache._entries[prepared.key] and entry.degradations == []
    db = Database(catalog, plan_cache=cache)
    assert sorted(db.execute(EMP_DEPT_QUERY, "magic").rows) == sorted(
        Database(catalog).execute(EMP_DEPT_QUERY, "magic").rows
    )
    assert cache.hits == 1
    db.execute(EMP_DEPT_QUERY, "ni")  # a miss: the same function, live engine
    (quiet, live) = compiled
    assert live is db.engine and quiet is not live and not quiet.validate
