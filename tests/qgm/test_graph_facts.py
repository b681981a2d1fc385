"""Each graph fact is derived once per compile stage (DESIGN section 19).

The stages read one :class:`~repro.qgm.analysis.GraphFacts` each for as
long as nobody mutates the graph: the validator; every pass of the cleanup
rules, which builds a new table only after it changed the graph and hands
an unchanged one to the next pass; and the compile step, which plans every
box of the final graph from the table its final validation built.
"""

from collections import Counter

import pytest

from repro.errors import NotApplicableError
from repro.plan import cost
from repro.plan.compile import compile_query
from repro.qgm import analysis, build_qgm, validate_graph
from repro.qgm.analysis import GraphFacts
from repro.rewrite import cleanup, pushdown
from repro.rewrite.decorrelate import dayal, kim, magic
from repro.rewrite.engine import RewriteEngine
from repro.sql.parser import parse_statement
from repro.tpcd import (
    EMP_DEPT_QUERY,
    QUERY_1,
    QUERY_1_VARIANT,
    QUERY_2,
    QUERY_3,
    load_empdept,
    load_tpcd,
)

QUERIES = {
    "q1": QUERY_1,
    "q1v": QUERY_1_VARIANT,
    "q2": QUERY_2,
    "q3": QUERY_3,
    "empdept": EMP_DEPT_QUERY,
}
STRATEGIES = ["ni", "kim", "dayal", "magic", "magic_opt"]


@pytest.fixture(scope="module")
def catalogs():
    return {"tpcd": load_tpcd(scale_factor=0.001), "empdept": load_empdept()}


def _catalog(catalogs, query):
    return catalogs["empdept" if query == "empdept" else "tpcd"]


class Derivations:
    """Counts, per box id, the outer references and row estimates derived
    and the tables built while ``armed``."""

    def __init__(self, monkeypatch):
        self.armed = False
        self.outer_refs: Counter = Counter()
        self.rows: Counter = Counter()
        self.tables = 0
        derive_refs, derive_rows = GraphFacts._derive_outer_refs, cost._derive_rows
        init = GraphFacts.__init__

        def outer_refs(table, box):
            if self.armed:
                self.outer_refs[box.id] += 1
            return derive_refs(table, box)

        def rows(catalog, box, memo):
            if self.armed:
                self.rows[box.id] += 1
            return derive_rows(catalog, box, memo)

        def build(table, root):
            self.tables += self.armed
            init(table, root)

        monkeypatch.setattr(GraphFacts, "_derive_outer_refs", outer_refs)
        monkeypatch.setattr(GraphFacts, "__init__", build)
        monkeypatch.setattr(cost, "_derive_rows", rows)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("query", QUERIES)
def test_compile_derives_each_fact_of_the_final_graph_once(
    catalogs, monkeypatch, query, strategy
):
    spy = Derivations(monkeypatch)

    class Arming(RewriteEngine):
        """Arms the spy once the rewrite -- whose magic placement call plans
        a box it is about to change -- has returned the final graph."""

        def rewrite(self, *args, **kwargs):
            graph = super().rewrite(*args, **kwargs)
            spy.armed = True
            return graph

    catalog = _catalog(catalogs, query)
    try:
        compiled = compile_query(
            QUERIES[query], catalog, Arming(catalog, validate=False), strategy
        )
    except NotApplicableError:
        pytest.skip(f"{strategy} does not apply to {query}")
    boxes = {box.id for box in analysis.iter_boxes(compiled.graph.root)}
    # Planning reads the table the final validation built: none is built
    # after the rewrite.
    assert spy.tables == 0
    # Every box's row layout reads its outer references: each derived once.
    assert set(spy.outer_refs) == boxes
    assert set(spy.outer_refs.values()) == {1}
    # The estimates the planner asked for: each box's computed once.
    assert spy.rows and set(spy.rows) <= boxes
    assert set(spy.rows.values()) == {1}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("query", QUERIES)
def test_the_validator_walks_the_graph_once(catalogs, monkeypatch, query, strategy):
    catalog = _catalog(catalogs, query)
    bound = build_qgm(parse_statement(QUERIES[query]), catalog)
    try:
        rewritten = RewriteEngine(catalog, validate=False).rewrite(
            build_qgm(parse_statement(QUERIES[query]), catalog), strategy
        )
    except NotApplicableError:
        pytest.skip(f"{strategy} does not apply to {query}")
    calls: Counter = Counter()
    box_children = analysis.box_children

    def counting(box):
        calls[box.id] += 1
        return box_children(box)

    monkeypatch.setattr(analysis, "box_children", counting)
    for graph in (bound, rewritten):
        boxes = {box.id for box in analysis.iter_boxes(graph.root)}
        calls.clear()
        validate_graph(graph, catalog)
        assert set(calls) == boxes
        assert set(calls.values()) == {1}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("query", QUERIES)
def test_a_cleanup_pass_rebuilds_its_table_only_after_a_change(
    catalogs, monkeypatch, query, strategy
):
    """Every pass of ``merge_spj_boxes``, ``remove_trivial_selects`` and
    ``push_down_predicates`` builds at most 1 + (changes it applied)
    tables, and none before its first change when the pass ahead of it
    changed nothing; a round of the three in which nothing changed builds
    one table, or none when the pass ahead of it handed it one."""
    # The order things happened in: "start" (a run_cleanup call), "table"
    # (a table built), or (rule, changed, changes) when a pass returns.
    events: list = []
    changes = [0]

    def counting_table(root):
        events.append("table")
        return GraphFacts(root)

    rewrite_subtree_refs = cleanup.rewrite_subtree_refs

    def merged_or_bypassed(*args):  # once per merge, once per bypass
        changes[0] += 1
        return rewrite_subtree_refs(*args)

    push_into = pushdown._push_into

    def pushed(*args):
        moved = push_into(*args)
        changes[0] += moved
        return moved

    def recorded(name, rule):
        def run(graph, facts=None):
            changes[0] = 0
            changed = rule(graph, facts)
            events.append((name, changed, changes[0]))
            assert changed == bool(changes[0])
            return changed

        return run

    run_cleanup = cleanup.run_cleanup

    def started(*args, **kwargs):
        events.append("start")
        return run_cleanup(*args, **kwargs)

    for module in (cleanup, pushdown):
        monkeypatch.setattr(module, "GraphFacts", counting_table)
    for module in (magic, dayal, kim):
        monkeypatch.setattr(module, "run_cleanup", started)
    monkeypatch.setattr(cleanup, "rewrite_subtree_refs", merged_or_bypassed)
    monkeypatch.setattr(pushdown, "_push_into", pushed)
    for module, name in (
        (cleanup, "merge_spj_boxes"),
        (cleanup, "remove_trivial_selects"),
        (pushdown, "push_down_predicates"),
    ):
        monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))

    catalog = _catalog(catalogs, query)
    try:
        RewriteEngine(catalog, validate=False).rewrite(
            build_qgm(parse_statement(QUERIES[query]), catalog), strategy
        )
    except NotApplicableError:
        pytest.skip(f"{strategy} does not apply to {query}")
    passes: list[tuple[str, int, int, bool]] = []  # (rule, tables, changes, fresh)
    tables, fresh = 0, True
    for event in events:
        if event == "start":
            assert tables == 0
            fresh = True
        elif event == "table":
            tables += 1
        else:
            name, changed, applied = event
            passes.append((name, tables, applied, fresh))
            tables, fresh = 0, changed
    assert tables == 0
    for name, tables, applied, fresh in passes:
        # A pass handed its predecessor's table builds one only per change.
        assert tables <= int(fresh) + applied, (name, tables, applied, fresh)
    for start in range(0, len(passes), 3):
        round_ = passes[start:start + 3]
        if not any(applied for _, _, applied, _ in round_):
            # One table -- none when the round before ended quietly and
            # handed it its table.
            assert sum(tables for _, tables, _, _ in round_) == int(round_[0][3])
