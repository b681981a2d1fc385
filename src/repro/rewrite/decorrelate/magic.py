"""Magic decorrelation (sections 2.1 and 4 of the paper).

The rewrite walks the QGM top-down, one box at a time. At each SPJ box it
looks for correlated children -- scalar/existential/universal subquery
expressions and correlated table expressions -- and runs the FEED stage:

1. collect the computation ahead of the subquery into a *supplementary*
   box (SUPP), using the join order the nested-iteration optimizer chose
   (section 7);
2. project the distinct correlation bindings into a *magic* box;
3. ABSORB the bindings into the child subtree: SPJ boxes add the magic
   table to their FROM clause and redirect the destinations of correlation
   to it; non-SPJ boxes (GroupBy, set operations) first absorb into their
   children, then extend their own grouping/output columns (section 4.3.1);
4. remove the COUNT bug: a left outer join of the magic table with the
   decorrelated subquery re-creates the missing bindings, with COALESCE
   turning a missing COUNT into 0 (the BugRemoval box of section 2.1). When
   every use of the value is null-rejecting and the aggregate is not a
   COUNT, a plain join is used instead -- exactly the optimisation the
   paper applies to its benchmark queries;
5. re-establish the correlating relationship: the parent joins the
   supplementary box with the decorrelated result on the binding columns
   (the CI box, immediately merged into the parent as an equi-join). The
   join uses null-safe equality so NULL bindings keep their rows.

Existential and universal subqueries (EXISTS/IN/ANY/ALL) and scalar
subqueries without the aggregate shape are *partially* decorrelated: the
subquery body is decorrelated and materialised once, and a correlated-input
(CI) box performs the per-row selection on that result -- the paper's
section 4.4 knob, preserving exact three-valued logic for NOT IN and ALL.

With ``optimize_keys=True`` (the paper's OptMag), when the correlation
columns form a key of the supplementary table and a plain join suffices,
the supplementary common subexpression is eliminated by routing the whole
supplementary row through the decorrelated subquery.

``apply_ganski_wong`` reuses the same machinery restricted to the historic
special case: single-table outer block, magic table projected from the raw
base table (no supplementary predicates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ...errors import NotApplicableError, RewriteError
from ...plan.planner import plan_select_box
from ...qgm.analysis import (
    GraphFacts,
    box_children,
    rewrite_box_exprs,
    rewrite_subtree_refs,
)
from ...qgm.expr import (
    BOX_SUBQUERY_TYPES,
    BoxExists,
    BoxInSubquery,
    BoxQuantifiedComparison,
    BoxScalarSubquery,
    ColumnRef,
    expr_facts,
    replace_column_refs,
    transform_expr,
)
from ...qgm.model import (
    BaseTableBox,
    Box,
    GroupByBox,
    OuterJoinBox,
    OutputColumn,
    Quantifier,
    QueryGraph,
    SelectBox,
    SetOpBox,
)
from ...sql import ast
from ...storage.catalog import Catalog
from ..cleanup import run_cleanup
from .common import (
    ScalarAggPattern,
    match_scalar_agg,
    node_use_is_null_rejecting,
)

StepHook = Optional[Callable[[str, QueryGraph], None]]


@dataclass
class _FeedContext:
    """Everything the FEED stage produced for one correlated child."""

    supp: Optional[SelectBox]  # None in the Ganski/Wong variant
    supp_quantifier: Optional[Quantifier]
    magic: Box
    #: absorb mapping: (id(original outer quantifier), column) -> magic column
    mapping: dict[tuple[int, str], str]
    #: per correlation binding: (expr in the parent producing the binding,
    #: magic column name)
    bindings: list[tuple[ast.Expr, str]]


class MagicDecorrelator:
    """One run of the magic decorrelation rewrite over a query graph."""

    def __init__(
        self,
        graph: QueryGraph,
        catalog: Catalog,
        optimize_keys: bool = False,
        decorrelate_existential: bool = True,
        ganski_wong: bool = False,
        on_step: StepHook = None,
    ):
        self.graph = graph
        self.catalog = catalog
        self.optimize_keys = optimize_keys
        self.decorrelate_existential = decorrelate_existential
        self.ganski_wong = ganski_wong
        self.on_step = on_step
        self._visited: set[int] = set()
        self._no_feed: set[int] = set()
        #: ids of boxes whose holding expression node must not be re-fed
        #: (node objects can be rebuilt by expression transforms, so the
        #: nested box -- which keeps identity -- is the robust key).
        self._no_feed_boxes: set[int] = set()
        self._facts: Optional[GraphFacts] = None

    @property
    def facts(self) -> GraphFacts:
        """The table of the graph as it stands (DESIGN section 19): built
        when first asked for, dropped by :meth:`_step`, which follows every
        change the rewrite makes."""
        if self._facts is None:
            self._facts = GraphFacts(self.graph.root)
        return self._facts

    def _correlation_refs(self, child: Box, box: SelectBox) -> list[ColumnRef]:
        """The correlation bindings ``child``'s subtree draws from ``box``'s
        quantifiers, deduplicated by (quantifier, column), in walk order."""
        own = {id(q) for q in box.quantifiers}
        return [
            ref for ref in self.facts.outer_refs(child) if id(ref.quantifier) in own
        ]

    # -- driver ----------------------------------------------------------------

    def run(self) -> QueryGraph:
        self._process(self.graph.root)
        run_cleanup(self.graph, on_step=self.on_step)
        self._step("cleanup")
        return self.graph

    def _process(self, box: Box) -> None:
        if id(box) in self._visited:
            return
        self._visited.add(id(box))
        if isinstance(box, SelectBox):
            self._feed_all(box)
        for child in box_children(box):
            self._process(child)

    def _step(self, description: str) -> None:
        self._facts = None
        if self.on_step is not None:
            self.on_step(description, self.graph)

    # -- FEED loop ---------------------------------------------------------------

    def _feed_all(self, box: SelectBox) -> None:
        for _ in range(100):
            target = self._next_correlated_child(box)
            if target is None:
                return
            kind, payload = target
            if kind == "quantifier":
                self._feed_quantifier(box, payload)
            else:
                self._feed_expression(box, payload)
        raise RewriteError(f"feed loop did not converge on box {box.id}")

    def _next_correlated_child(self, box: SelectBox):
        for q in box.quantifiers:
            if id(q) in self._no_feed:  # fed quantifiers are final
                continue
            if self._correlation_refs(q.box, box):
                return ("quantifier", q)
        for expr in box.own_exprs():
            for node in expr_facts(expr).subqueries:
                if id(node) in self._no_feed or node.box.id in self._no_feed_boxes:
                    continue
                if self._correlation_refs(node.box, box):
                    return ("expr", node)
        return None

    # -- FEED stage: supplementary and magic boxes ---------------------------------

    def _build_feed(
        self,
        box: SelectBox,
        corr_refs: list[ColumnRef],
        scalar_node: Optional[BoxScalarSubquery] = None,
    ) -> _FeedContext:
        """Create SUPP and MAGIC and restructure ``box`` around them.

        After this call ``box``'s moved quantifiers are replaced by one
        quantifier over SUPP; the child to decorrelate must be absorbed with
        the returned mapping *before* its old references become dangling --
        the caller sequences that (absorb first, then
        :meth:`_redirect_parent_refs`).
        """
        if self.ganski_wong:
            return self._build_feed_ganski_wong(box, corr_refs)

        plan = plan_select_box(self.catalog, box, graph_facts=self.facts)
        join_order = plan.join_order
        needed = {id(r.quantifier) for r in corr_refs}
        if scalar_node is not None and id(scalar_node) in plan.scalar_placement:
            prefix_length = plan.scalar_placement[id(scalar_node)]
        else:
            positions = [
                i for i, q in enumerate(join_order) if id(q) in needed
            ]
            if not positions:
                raise RewriteError("correlation bindings not in join order")
            prefix_length = max(positions) + 1
        moved = join_order[:prefix_length]
        moved_ids = {id(q) for q in moved}
        if not needed <= moved_ids:
            raise RewriteError("subquery placement precedes its bindings")

        # Split predicates: subquery-free predicates over moved quantifiers
        # travel into the supplementary box.
        own_ids = {id(q) for q in box.quantifiers}
        supp_preds: list[ast.Expr] = []
        kept_preds: list[ast.Expr] = []
        for predicate in box.predicates:
            facts = expr_facts(predicate)
            refs = {
                id(ref.quantifier)
                for ref in facts.refs if id(ref.quantifier) in own_ids
            }
            if not facts.subqueries and refs <= moved_ids:
                supp_preds.append(predicate)
            else:
                kept_preds.append(predicate)

        supp = SelectBox(quantifiers=list(moved), predicates=supp_preds)
        used: set[str] = set()
        supp_columns: dict[tuple[int, str], str] = {}
        for q in moved:
            for column in q.box.output_names():
                name = f"{q.name}_{column}"
                counter = 1
                while name in used:
                    name = f"{q.name}_{column}_{counter}"
                    counter += 1
                used.add(name)
                supp.outputs.append(OutputColumn(name, q.ref(column)))
                supp_columns[(id(q), column)] = name

        sq = Quantifier.fresh(supp, "supp")
        box.quantifiers = [sq] + [q for q in box.quantifiers if id(q) not in moved_ids]
        box.predicates = kept_preds

        # Magic box: the duplicate-free correlation bindings.
        magic = SelectBox(distinct=True)
        mq = magic.add_quantifier(supp, "mg")
        mapping: dict[tuple[int, str], str] = {}
        bindings: list[tuple[ast.Expr, str]] = []
        for ref in corr_refs:
            supp_col = supp_columns[(id(ref.quantifier), ref.column)]
            if (id(ref.quantifier), ref.column) not in mapping:
                magic.outputs.append(OutputColumn(supp_col, mq.ref(supp_col)))
                mapping[(id(ref.quantifier), ref.column)] = supp_col
                bindings.append((ColumnRef(sq, supp_col), supp_col))

        self._redirect_map = (moved_ids, supp_columns, sq)
        return _FeedContext(supp, sq, magic, mapping, bindings)

    def _build_feed_ganski_wong(
        self, box: SelectBox, corr_refs: list[ColumnRef]
    ) -> _FeedContext:
        """Ganski/Wong: magic projected from the *single* outer base table,
        no supplementary predicates (section 2 / section 7 of the paper)."""
        quantifiers = {id(r.quantifier) for r in corr_refs}
        if len(quantifiers) != 1:
            raise NotApplicableError(
                "Ganski/Wong", "correlation spans more than one outer table"
            )
        outer_q = corr_refs[0].quantifier
        if not isinstance(outer_q.box, BaseTableBox):
            raise NotApplicableError(
                "Ganski/Wong", "outer block is not a plain base table"
            )
        if len(box.quantifiers) != 1:
            raise NotApplicableError(
                "Ganski/Wong", "outer block references more than one table"
            )
        table = self.catalog.table(outer_q.box.table_name)
        base = BaseTableBox(table.name, table.schema.names())
        magic = SelectBox(distinct=True)
        mq = magic.add_quantifier(base, "gw")
        mapping: dict[tuple[int, str], str] = {}
        bindings: list[tuple[ast.Expr, str]] = []
        for ref in corr_refs:
            key = (id(ref.quantifier), ref.column)
            if key not in mapping:
                magic.outputs.append(OutputColumn(ref.column, mq.ref(ref.column)))
                mapping[key] = ref.column
                bindings.append((ColumnRef(outer_q, ref.column), ref.column))
        self._redirect_map = None
        return _FeedContext(None, None, magic, mapping, bindings)

    def _redirect_parent_refs(self, box: SelectBox) -> None:
        """Point every remaining reference to moved quantifiers at SUPP.

        The SUPP subtree itself is excluded: the moved quantifiers now live
        there, and references to them *inside* SUPP (its outputs, its moved
        predicates) are exactly where they belong.
        """
        if self._redirect_map is None:
            return
        moved_ids, supp_columns, sq = self._redirect_map

        def substitute(ref: ColumnRef):
            if id(ref.quantifier) in moved_ids:
                return ColumnRef(sq, supp_columns[(id(ref.quantifier), ref.column)])
            return None

        self._rewrite_refs_outside(box, sq.box, substitute)
        self._redirect_map = None

    @staticmethod
    def _rewrite_refs_outside(box: Box, keep: Box, substitute) -> None:
        """Apply a ColumnRef substitution to every box of ``box``'s subtree
        outside ``keep``'s subtree. One table of ``box``'s subtree serves
        both walks; the substitution never changes which box is whose
        child, so it holds throughout."""
        facts = GraphFacts(box)
        kept = {b.id for b in facts.walk(keep)}
        for candidate in facts.boxes:
            if candidate.id not in kept:
                rewrite_box_exprs(
                    candidate, lambda e: replace_column_refs(e, substitute)
                )

    # -- ABSORB stage -------------------------------------------------------------
    #
    # Dispatch goes through the box-encapsulator registry (section 4.4's
    # AM/NM classification): each box kind registers how -- and whether --
    # it absorbs a magic table; unregistered kinds (e.g. outer joins) are
    # NM and the decorrelator leaves their correlations in place.

    @staticmethod
    def _can_absorb(box: Box) -> bool:
        """AM/NM pre-check: can the whole chain absorb a magic table?
        Checked *before* mutating so a refusal leaves the graph untouched."""
        from .encapsulators import subtree_can_absorb

        return subtree_can_absorb(box)

    def _absorb(
        self, box: Box, magic: Box, mapping: dict[tuple[int, str], str]
    ) -> list[str]:
        """Absorb the magic bindings into ``box``'s subtree.

        Returns the output column names under which ``box`` now exposes the
        binding columns (in ``mapping`` iteration order).
        """
        from .encapsulators import absorb_via_encapsulator

        return absorb_via_encapsulator(self, box, magic, mapping)

    def _absorb_select(
        self, box: SelectBox, magic: Box, mapping: dict[tuple[int, str], str]
    ) -> list[str]:
        """SPJ absorb (section 4.3.2): add the magic table to the FROM
        clause, redirect the destinations of correlation to it, expose the
        binding columns in the output."""
        mq = Quantifier.fresh(magic, "mg")
        box.quantifiers.append(mq)

        def substitute(ref: ColumnRef):
            key = (id(ref.quantifier), ref.column)
            if key in mapping:
                return ColumnRef(mq, mapping[key])
            return None

        # The magic box's own subtree reaches back to SUPP, whose
        # references to the moved quantifiers are legitimate -- the
        # redirect must not walk into it.
        self._rewrite_refs_outside(box, magic, substitute)
        added: list[str] = []
        existing = set(box.output_names())
        for magic_col in mapping.values():
            name = magic_col
            counter = 1
            while name in existing:
                name = f"{magic_col}_{counter}"
                counter += 1
            existing.add(name)
            box.outputs.append(OutputColumn(name, mq.ref(magic_col)))
            added.append(name)
        return added

    def _absorb_groupby(
        self, box: GroupByBox, magic: Box, mapping: dict[tuple[int, str], str]
    ) -> list[str]:
        """Non-SPJ absorb (section 4.3.1): feed the child first, then
        extend the grouping and outputs with the binding columns."""
        child_cols = self._absorb(box.quantifier.box, magic, mapping)
        gq = box.quantifier
        added = []
        existing = set(box.output_names())
        for child_col in child_cols:
            box.group_by.append(gq.ref(child_col))
            name = child_col
            counter = 1
            while name in existing:
                name = f"{child_col}_{counter}"
                counter += 1
            existing.add(name)
            box.outputs.append(OutputColumn(name, gq.ref(child_col)))
            added.append(name)
        return added

    def _absorb_setop(
        self, box: SetOpBox, magic: Box, mapping: dict[tuple[int, str], str]
    ) -> list[str]:
        """Set-operation absorb: every arm absorbs the same magic table and
        appends the binding columns by position."""
        arm_columns = [
            self._absorb(q.box, magic, mapping) for q in box.quantifiers
        ]
        added = []
        existing = set(box.output_names())
        for position in range(len(mapping)):
            base_name = arm_columns[0][position]
            name = base_name
            counter = 1
            while name in existing:
                name = f"{base_name}_{counter}"
                counter += 1
            existing.add(name)
            box._output_names.append(name)
            added.append(name)
        # Arms expose the columns by position; ensure every arm added
        # them at the end in the same order (guaranteed by recursion).
        for arm_cols in arm_columns:
            if len(arm_cols) != len(mapping):
                raise RewriteError("set-operation arm arity drift in absorb")
        return added

    # -- per-child FEED entry points -------------------------------------------

    def _feed_expression(self, box: SelectBox, node: ast.Expr) -> None:
        corr_refs = self._correlation_refs(node.box, box)
        if isinstance(node, BoxScalarSubquery):
            pattern = match_scalar_agg(node)
            if pattern is not None:
                self._feed_scalar_agg(box, node, pattern, corr_refs)
                return
            if self.ganski_wong:
                raise NotApplicableError(
                    "Ganski/Wong", "subquery is not a scalar aggregate"
                )
            self._feed_via_ci(box, node, corr_refs)
            return
        if self.ganski_wong:
            raise NotApplicableError(
                "Ganski/Wong", "existential/universal subquery"
            )
        if not self.decorrelate_existential:
            self._no_feed.add(id(node))
            self._no_feed_boxes.add(node.box.id)
            return
        self._feed_via_ci(box, node, corr_refs)

    # -- scalar aggregate: full decorrelation -------------------------------------

    def _feed_scalar_agg(
        self,
        box: SelectBox,
        node: BoxScalarSubquery,
        pattern: ScalarAggPattern,
        corr_refs: list[ColumnRef],
    ) -> None:
        null_rejecting = node_use_is_null_rejecting(box, node)
        needs_loj = bool(pattern.count_outputs) or not null_rejecting

        feed = self._build_feed(box, corr_refs, scalar_node=node)
        group_box = pattern.group_box

        # OptMag supplementary-CSE elimination (section 5.1): correlation
        # columns form a key of SUPP and a plain join suffices.
        if (
            self.optimize_keys
            and not needs_loj
            and feed.supp is not None
            and self._supp_keyed_by(feed, corr_refs)
        ):
            self._feed_scalar_agg_keyed(box, node, pattern, feed)
            self._step(f"feed+absorb optmag scalar box {group_box.id}")
            return

        corr_out = self._absorb(group_box, feed.magic, feed.mapping)

        if needs_loj:
            dco_box, corr_cols, value_cols = self._bug_removal(
                feed.magic, group_box, corr_out, pattern.count_outputs
            )
        else:
            dco_box = group_box
            corr_cols = corr_out
            value_cols = {
                output.name: output.name
                for output in group_box.outputs
                if output.name not in corr_out
            }

        bq = Quantifier.fresh(dco_box, "dco")
        box.quantifiers.append(bq)
        for (binding_expr, _), corr_col in zip(feed.bindings, corr_cols):
            box.predicates.append(
                ast.Comparison("<=>", binding_expr, ColumnRef(bq, corr_col))
            )
        value_expr = self._value_expression(pattern, bq, value_cols)
        self._replace_node(box, node, value_expr)
        self._redirect_parent_refs(box)
        self._no_feed.add(id(bq))
        self._step(f"feed scalar aggregate into box {box.id}")

    def _feed_scalar_agg_keyed(
        self,
        box: SelectBox,
        node: BoxScalarSubquery,
        pattern: ScalarAggPattern,
        feed: _FeedContext,
    ) -> None:
        """OptMag: route the whole supplementary row through the subquery.

        The decorrelated subquery joins SUPP directly (instead of a distinct
        magic projection), groups by *all* SUPP columns (legal: the binding
        is a key), and replaces SUPP in the parent -- SUPP is referenced
        exactly once, eliminating the common subexpression.
        """
        supp = feed.supp
        assert supp is not None and feed.supp_quantifier is not None
        group_box = pattern.group_box

        # Absorb with magic := SUPP itself.
        supp_mapping = {}
        moved_ids, supp_columns, sq = self._redirect_map
        for key, supp_col in supp_columns.items():
            if key in feed.mapping:
                supp_mapping[key] = supp_col
        corr_out = self._absorb(group_box, supp, supp_mapping)

        # Extend the grouping to every SUPP column. The absorb added the
        # binding columns already; find the magic quantifier it created.
        spj = pattern.spj
        mq = spj.quantifiers[-1]
        gq = group_box.quantifier
        existing_group_cols = set(corr_out)
        existing = set(group_box.output_names())
        carried: dict[str, str] = {}
        for output in supp.outputs:
            if output.name in [supp_mapping[k] for k in supp_mapping]:
                carried[output.name] = corr_out[
                    list(supp_mapping.values()).index(output.name)
                ]
                continue
            spj_name = output.name
            counter = 1
            while spj_name in set(spj.output_names()):
                spj_name = f"{output.name}_{counter}"
                counter += 1
            spj.outputs.append(OutputColumn(spj_name, mq.ref(output.name)))
            group_box.group_by.append(gq.ref(spj_name))
            g_name = spj_name
            counter = 1
            while g_name in existing:
                g_name = f"{spj_name}_{counter}"
                counter += 1
            existing.add(g_name)
            group_box.outputs.append(OutputColumn(g_name, gq.ref(spj_name)))
            carried[output.name] = g_name
        del existing_group_cols

        # Replace SUPP's quantifier in the parent with the decorrelated box.
        new_q = Quantifier.fresh(group_box, "ds")
        box.quantifiers = [
            new_q if q is sq else q for q in box.quantifiers
        ]

        def substitute(ref: ColumnRef):
            if ref.quantifier is sq:
                return ColumnRef(new_q, carried[ref.column])
            if id(ref.quantifier) in moved_ids:
                return ColumnRef(
                    new_q, carried[supp_columns[(id(ref.quantifier), ref.column)]]
                )
            return None

        value_cols = {
            output.name: output.name
            for output in group_box.outputs
            if isinstance(output.expr, ast.AggregateCall)
        }
        value_expr = self._value_expression(pattern, new_q, value_cols)
        self._replace_node(box, node, value_expr)
        # As in _redirect_parent_refs: SUPP's subtree keeps its references
        # to the moved quantifiers -- exclude it from the rewrite.
        self._rewrite_refs_outside(box, supp, substitute)
        self._redirect_map = None
        self._no_feed.add(id(new_q))

    def _supp_keyed_by(
        self, feed: _FeedContext, corr_refs: list[ColumnRef]
    ) -> bool:
        """Is the binding a key of SUPP? Conservative check: SUPP ranges over
        a single base table whose declared/unique key is contained in the
        correlation columns."""
        supp = feed.supp
        if supp is None or len(supp.quantifiers) != 1:
            return False
        base = supp.quantifiers[0].box
        if not isinstance(base, BaseTableBox):
            return False
        columns = [
            ref.column
            for ref in corr_refs
            if ref.quantifier is supp.quantifiers[0]
        ]
        if len(columns) != len(corr_refs):
            return False
        return self.catalog.is_key(base.table_name, columns)

    def _bug_removal(
        self,
        magic: Box,
        group_box: GroupByBox,
        corr_out: list[str],
        count_outputs: list[str],
    ) -> tuple[OuterJoinBox, list[str], dict[str, str]]:
        """The BugRemoval box: ``magic LOJ decorrelated-subquery`` with
        COALESCE(count, 0) for missing bindings (section 2.1)."""
        preserved = Quantifier.fresh(magic, "mgb")
        null_side = Quantifier.fresh(group_box, "dsb")
        magic_cols = magic.output_names()
        # Null-safe equality: a NULL binding can still have decorrelated
        # rows (a UNION arm correlated on a different column, a correlation
        # used only in outputs, ...), and those must find their magic row.
        condition_parts: list[ast.Expr] = [
            ast.Comparison("<=>", preserved.ref(m), null_side.ref(c))
            for m, c in zip(magic_cols, corr_out)
        ]
        condition = (
            condition_parts[0]
            if len(condition_parts) == 1
            else ast.And(tuple(condition_parts))
        )
        outputs: list[OutputColumn] = []
        corr_cols: list[str] = []
        used: set[str] = set()
        for m in magic_cols:
            name = f"b_{m}"
            outputs.append(OutputColumn(name, preserved.ref(m)))
            corr_cols.append(name)
            used.add(name)
        value_cols: dict[str, str] = {}
        for output in group_box.outputs:
            if output.name in corr_out:
                continue
            name = output.name
            counter = 1
            while name in used:
                name = f"{output.name}_{counter}"
                counter += 1
            used.add(name)
            value: ast.Expr = null_side.ref(output.name)
            if output.name in count_outputs:
                value = ast.FunctionCall("coalesce", (value, ast.Literal(0)))
            outputs.append(OutputColumn(name, value))
            value_cols[output.name] = name
        return (
            OuterJoinBox(preserved, null_side, condition, outputs),
            corr_cols,
            value_cols,
        )

    def _value_expression(
        self,
        pattern: ScalarAggPattern,
        bq: Quantifier,
        value_cols: dict[str, str],
    ) -> ast.Expr:
        """The expression replacing the scalar subquery node in the parent."""
        scalar_col = pattern.group_box.outputs[0].name
        if pattern.wrapper is None:
            return ColumnRef(bq, value_cols[scalar_col])
        wrapper_q = pattern.wrapper.quantifiers[0]

        def substitute(ref: ColumnRef):
            if ref.quantifier is wrapper_q:
                return ColumnRef(bq, value_cols[ref.column])
            return None

        return replace_column_refs(pattern.wrapper.outputs[0].expr, substitute)

    # -- CI (partial) decorrelation -------------------------------------------------

    def _feed_via_ci(
        self, box: SelectBox, node: ast.Expr, corr_refs: list[ColumnRef]
    ) -> None:
        """Partially decorrelate: the subquery body absorbs the magic table
        and is materialised once; a correlated-input box keeps performing the
        per-binding selection on that result (paper section 4.4)."""
        if not self._can_absorb(node.box):
            # Leave this subquery correlated (the section 4.4 knob).
            self._no_feed.add(id(node))
            self._no_feed_boxes.add(node.box.id)
            return
        feed = self._build_feed(box, corr_refs)
        original_outputs = list(node.box.output_names())
        corr_out = self._absorb(node.box, feed.magic, feed.mapping)

        ci = SelectBox()
        dq = ci.add_quantifier(node.box, "ci")
        for (binding_expr, _), corr_col in zip(feed.bindings, corr_out):
            ci.predicates.append(
                ast.Comparison("<=>", dq.ref(corr_col), binding_expr)
            )
        ci.outputs = [OutputColumn(c, dq.ref(c)) for c in original_outputs]

        replacement = self._rebuild_subquery_node(node, ci)
        self._replace_node(box, node, replacement)
        self._redirect_parent_refs(box)
        self._no_feed.add(id(replacement))
        self._no_feed_boxes.add(ci.id)
        self._no_feed.add(id(dq))
        self._step(f"feed CI subquery into box {box.id}")

    @staticmethod
    def _rebuild_subquery_node(node: ast.Expr, ci: SelectBox) -> ast.Expr:
        if isinstance(node, BoxScalarSubquery):
            return BoxScalarSubquery(ci)
        if isinstance(node, BoxExists):
            return BoxExists(ci, node.negated)
        if isinstance(node, BoxInSubquery):
            return BoxInSubquery(node.operand, ci, node.negated)
        if isinstance(node, BoxQuantifiedComparison):
            return BoxQuantifiedComparison(
                node.op, node.operand, node.quantifier_kind, ci
            )
        raise RewriteError(f"unexpected subquery node {node!r}")

    # -- correlated table expressions -------------------------------------------

    def _feed_quantifier(self, box: SelectBox, q: Quantifier) -> None:
        corr_refs = self._correlation_refs(q.box, box)
        if self.ganski_wong:
            raise NotApplicableError(
                "Ganski/Wong", "correlated table expression"
            )
        scalar_shape = isinstance(q.box, GroupByBox) and q.box.is_scalar
        if not self._can_absorb(q.box):
            self._no_feed.add(id(q))
            return
        feed = self._build_feed(box, corr_refs)
        corr_out = self._absorb(q.box, feed.magic, feed.mapping)

        if scalar_shape:
            count_outputs = [
                output.name
                for output in q.box.outputs
                if isinstance(output.expr, ast.AggregateCall)
                and output.expr.is_count
            ]
            dco_box, corr_cols, value_cols = self._bug_removal(
                feed.magic, q.box, corr_out, count_outputs
            )
            old_box = q.box
            q.box = dco_box

            def substitute(ref: ColumnRef):
                if ref.quantifier is q and ref.column in value_cols:
                    return ColumnRef(q, value_cols[ref.column])
                return None

            rewrite_subtree_refs(box, substitute)
            join_cols = corr_cols
            del old_box
        else:
            join_cols = corr_out

        for (binding_expr, _), corr_col in zip(feed.bindings, join_cols):
            box.predicates.append(
                ast.Comparison("<=>", binding_expr, ColumnRef(q, corr_col))
            )
        self._redirect_parent_refs(box)
        self._no_feed.add(id(q))
        self._step(f"feed table expression into box {box.id}")

    # -- node replacement -----------------------------------------------------------

    @staticmethod
    def _replace_node(box: SelectBox, node: ast.Expr, replacement: ast.Expr) -> None:
        """Replace a subquery expression node inside ``box``'s expressions.

        The node is matched by identity, or -- should a transform have
        rebuilt it since it was found -- by its (unique) nested box.
        """
        target_box = getattr(node, "box", None)

        def substitute(n: ast.Expr):
            if n is node:
                return replacement
            if (
                target_box is not None
                and isinstance(n, BOX_SUBQUERY_TYPES)
                and type(n) is type(node)
                and n.box is target_box
            ):
                return replacement
            return None

        rewrite_box_exprs(box, lambda e: transform_expr(e, substitute))


def apply_magic(
    graph: QueryGraph,
    catalog: Catalog,
    optimize_keys: bool = False,
    decorrelate_existential: bool = True,
    on_step: StepHook = None,
) -> QueryGraph:
    """Apply magic decorrelation (Mag; OptMag with ``optimize_keys``)."""
    return MagicDecorrelator(
        graph,
        catalog,
        optimize_keys=optimize_keys,
        decorrelate_existential=decorrelate_existential,
        on_step=on_step,
    ).run()


def apply_ganski_wong(
    graph: QueryGraph, catalog: Catalog, on_step: StepHook = None
) -> QueryGraph:
    """Apply the Ganski/Wong special case (section 2); raises
    :class:`NotApplicableError` outside its narrow shape."""
    return MagicDecorrelator(
        graph, catalog, ganski_wong=True, on_step=on_step
    ).run()
