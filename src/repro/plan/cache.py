"""Fingerprint-keyed plan cache: prepared statements for repeated templates.

The paper's economics assume the parse -> QGM -> rewrite -> optimize
pipeline is paid once per query *shape*, not once per submission. This
module makes that true for the serving layer:

* :func:`extract_parameters` -- one pass of the lexer's token pattern
  (:data:`repro.sql.lexer.TOKEN_PATTERN`) yields the canonical template of
  a query (literals replaced by ``?``, ``--`` comments and blanks collapsed
  to one space, words folded to lower case) together with each literal's
  decoded value and source range, in the order the template's ``?``
  markers appear. A literal is exactly what the lexer would make a NUMBER
  or STRING token of, decoded by the lexer's own functions, so text inside
  comments and quoted identifiers never becomes a parameter.
* :func:`normalize_sql` / :func:`fingerprint` -- the template and its
  stable hash, the key under which the admission estimator and the plan
  cache learn a shape.
* :class:`PlanCache` -- maps (fingerprint, strategy, cse_mode, flags,
  parameter types) to a *parameterized* compiled query (rewritten graph
  plus physical plans). A hit binds the extracted values into a fresh
  :class:`~repro.exec.executor.ExecutionContext` and pays only executor
  time.

A miss compiles the statement with its literals spliced out as ``?``
markers (the parser numbers them in source order), once, on the submitting
query's own engine, runs what it compiled with the extracted values and
stores it (:meth:`PlanCache.compile`). That keeps correctness trivially
audit-able: the cached graph is built -- and, under validation, checked --
by the same one function as any other query
(:func:`repro.plan.compile.compile_query`), and shapes whose literals are
consumed at *build* time -- ``LIMIT n``, ``ORDER BY 2`` ordinals -- fail
the parameterized compile with a typed error and are tombstoned as
uncacheable rather than cached wrongly. IN-list arity intentionally stays
part of the shape: ``x IN (?, ?)`` and ``x IN (?, ?, ?)`` are different
templates, so rebinding can never change predicate structure.

Staleness is handled with a generation stamp: entries record the
:meth:`~repro.storage.catalog.Catalog.generation` observed *before* the
build, and any lookup whose current generation differs drops the entry
(counted and emitted as ``plan.cache_invalidated``). DDL racing a fill
therefore self-invalidates -- the stored stamp is already behind.

Locking (DESIGN section 9): the cache owns one non-reentrant lock ranked
between the service lock and the catalog lock. The catalog generation is
read *before* the cache lock is taken (no cache -> catalog edge), and
event emission happens inside the critical section so counters reconcile
exactly against the emitted ``plan.cache_*`` events.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..sql.lexer import TOKEN_PATTERN, number_value, string_value


@dataclass(frozen=True)
class ExtractedParam:
    """One literal lifted out of the statement text."""

    start: int  #: character offset of the literal's first character
    end: int    #: one past its last character
    value: Any  #: decoded value, exactly as the lexer would decode it


@dataclass(frozen=True)
class ExtractedQuery:
    """The result of one normalization pass over a statement."""

    template: str                          #: canonical shape, literals as ``?``
    params: tuple[ExtractedParam, ...]     #: literals in template order
    ok: bool = True                        #: False on malformed input


def extract_parameters(sql: str) -> ExtractedQuery:
    """Template plus the literals it replaced, in ``?``-marker order.

    One pass of the lexer's own pattern, decoding each literal with the
    lexer's own functions, so an extracted value always equals the
    ``ast.Literal`` the parser would produce. Unterminated strings or quoted
    identifiers mark the query ``ok=False``: splicing ``?`` into malformed
    text could yield a *valid* statement, and caching that would turn a
    lex error into a successful result.
    """
    out: list[str] = []
    params: list[ExtractedParam] = []
    ok = True
    end = 0
    gap = False  # whitespace/comment pending between emitted chunks
    for space, ident, symbol, number, newline, comment, string, quoted, bad in (
        TOKEN_PATTERN.findall(sql)
    ):
        start = end + len(space)
        text = ident or symbol or number or newline or comment or string or quoted or bad
        end = start + len(text)
        if newline or comment:
            gap = True
            continue
        if ident or quoted:
            # The engine folds identifiers to lower case at bind time, so
            # folding here merges genuinely equivalent shapes; digits inside
            # a quoted identifier stay identifier content.
            text = text.lower()
        elif number:
            params.append(ExtractedParam(start, end, number_value(number)))
            text = "?"
        elif string:
            params.append(ExtractedParam(start, end, string_value(string)))
            text = "?"
        elif bad == "'" or bad == '"':
            ok = False
            text = sql[start:]
        if (gap or space) and out:
            out.append(" ")
        gap = False
        out.append(text)
        if not ok:
            break
    return ExtractedQuery("".join(out), tuple(params), ok)


def normalize_sql(sql: str) -> str:
    """The canonical *shape* of a query: string and numeric literals
    replaced by ``?``, comments stripped, whitespace collapsed, case
    folded outside string literals and quoted identifiers' quotes. Two
    submissions of the same template with different constants normalize
    identically."""
    return extract_parameters(sql).template


def fingerprint(sql: str) -> str:
    """A short stable hash of :func:`normalize_sql`'s output -- the key
    service-time history and cached plans are learned under."""
    digest = hashlib.sha256(normalize_sql(sql).encode("utf-8")).hexdigest()
    return digest[:16]


def render_parameterized(sql: str, extracted: ExtractedQuery) -> str:
    """``sql`` with every extracted literal spliced out as a ``?`` marker.

    Everything else is preserved verbatim, so the parser numbers the
    markers in exactly :attr:`ExtractedQuery.params` order."""
    out: list[str] = []
    last = 0
    for param in extracted.params:
        out.append(sql[last:param.start])
        out.append("?")
        last = param.end
    out.append(sql[last:])
    return "".join(out)


#: Steps down the fallback chain that say nothing about the shape: the
#: requested strategy was not refused, it was interrupted or vetoed.
_TRANSIENT_STEPS = frozenset({"FaultInjectedError", "CircuitBreakerOpen"})


@dataclass
class CachedPlan:
    """One compiled query -- what :func:`repro.plan.compile.compile_query`
    returns, what every way of running or explaining a query reads, and
    what the cache stores: a rewritten graph plus its physical plans.

    ``graph is None`` marks a tombstone -- the shape was proven
    uncacheable (its parameterized form fails to parse, bind, rewrite or
    plan, e.g. ``LIMIT n`` or ordinal ``ORDER BY``, or the requested
    strategy refuses it) and misses should not keep re-attempting the
    compile. ``generation`` is the catalog epoch observed *before* the
    artifact was built, stamped by the cache when it stores it."""

    generation: int = 0
    strategy: str = ""
    graph: Optional[Any] = None
    #: ``{box.id: plan}`` with every expression compiled, and beside it the
    #: fact about the graph the executor would otherwise derive per
    #: execution (:func:`~repro.qgm.analysis.shared_boxes`).
    plans: dict = field(default_factory=dict)
    shared: Optional[frozenset[int]] = None
    #: The fallback chain the graph was rewritten under
    #: (:class:`~repro.rewrite.engine.DegradationEvent`s): empty when the
    #: requested strategy produced it -- the only kind the cache keeps.
    degradations: list[Any] = field(default_factory=list)

    @property
    def is_tombstone(self) -> bool:
        return self.graph is None


@dataclass
class PreparedStatement:
    """One submission's view of the cache: the key, the extracted values,
    and -- on a hit -- the entry to execute. ``fillable`` is False when a
    tombstone says the shape is not worth re-attempting."""

    key: tuple
    values: tuple
    types: tuple
    generation: int
    strategy: Any
    cse_mode: str
    decorrelate_existential: bool
    parameterized_sql: str = ""
    entry: Optional[CachedPlan] = None
    fillable: bool = True


class PlanCache:
    """An LRU map from query shape to prepared execution artifacts.

    Thread-safe: one non-reentrant lock (rank "plan_cache" in the DESIGN
    section 9 order) guards the table and the counters; ``plan.cache_*``
    events are emitted inside the critical section so the counters
    reconcile exactly against the event stream. The expensive compile
    (parse/bind/rewrite/plan) runs *outside* the lock -- concurrent misses
    may both build, and the second store is a harmless overwrite of an
    identical artifact.
    """

    def __init__(self, capacity: int = 256, events: Any = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: Optional :class:`repro.obs.events.EventLog` (the service wires
        #: its own log in; events carry the submitting query's scope id).
        self.events = events
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- lookup ------------------------------------------------------------

    def prepare(
        self,
        sql: str,
        *,
        strategy: Any,
        cse_mode: str,
        decorrelate_existential: bool,
        generation: int,
        disabled: Optional[Callable[[str], Optional[str]]] = None,
    ) -> Optional[PreparedStatement]:
        """Classify one submission: ``None`` when the cache stands aside
        (non-query statements, malformed text, or a circuit-breaker veto
        of the strategy -- a veto means the fallback chain must run, so
        neither a cached plan nor a fresh fill would be honest), else a
        :class:`PreparedStatement` whose ``entry`` is the hit, if any.

        ``generation`` must be read from the catalog *before* this call
        (it stamps any artifact filled later; see :class:`CachedPlan`).
        """
        strategy_key = str(getattr(strategy, "value", strategy))
        extracted = extract_parameters(sql)
        template = extracted.template
        if not extracted.ok:
            return None
        if not (template.startswith("select") or template.startswith("(")):
            return None
        if disabled is not None and disabled(strategy_key) is not None:
            return None
        values = tuple(p.value for p in extracted.params)
        types = tuple(type(v).__name__ for v in values)
        key = (
            hashlib.sha256(template.encode("utf-8")).hexdigest()[:16],
            strategy_key,
            cse_mode,
            bool(decorrelate_existential),
            types,
        )
        prepared = PreparedStatement(
            key=key, values=values, types=types, generation=generation,
            strategy=strategy, cse_mode=cse_mode,
            decorrelate_existential=bool(decorrelate_existential),
        )
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None and cached.generation != generation:
                del self._entries[key]
                self.invalidations += 1
                self._emit(
                    "plan.cache_invalidated", key,
                    stale_generation=cached.generation,
                    generation=generation,
                )
                cached = None
            if cached is None:
                self.misses += 1
                self._emit("plan.cache_miss", key)
            elif cached.is_tombstone:
                self._entries.move_to_end(key)
                self.misses += 1
                prepared.fillable = False
                self._emit("plan.cache_miss", key, uncacheable=True)
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                prepared.entry = cached
                self._emit("plan.cache_hit", key)
        if prepared.entry is None and prepared.fillable:
            prepared.parameterized_sql = render_parameterized(sql, extracted)
        return prepared

    def _emit(self, kind: str, key: tuple, **fields: Any) -> None:
        # Caller holds self._lock: emission inside the critical section is
        # what makes counter <-> event reconciliation exact (lock order
        # plan_cache -> events is ascending, see repro.analyze.conc).
        if self.events is not None:
            self.events.emit(
                kind, fingerprint=key[0], strategy=key[1], **fields
            )

    # -- fill --------------------------------------------------------------

    def compile(
        self,
        prepared: PreparedStatement,
        catalog: Any,
        engine: Any,
        **live: Any,
    ) -> Optional[CachedPlan]:
        """Compile a missed shape's *parameterized* text on ``engine``
        (``live``: what the submitting query compiles under, handed to
        :func:`~repro.plan.compile.compile_query`) and apply the store rule.
        Returns the artifact to run with this submission's values, ``None``
        when the text was refused and its literal text must be compiled.

        * The requested strategy produced it (empty chain): stored.
        * The text or the requested strategy was refused with a typed error
          (``LIMIT ?``, ordinal ``ORDER BY ?``, not applicable, rejected by
          the validating engine): a tombstone. A degraded plan is one
          submission's accident, never the shape's plan -- it runs once.
        * Anything transient (injected fault, budget trip, cancel): nothing
          is stored, the next miss tries again; as an error it propagates.
        """
        from ..errors import FaultInjectedError, GuardrailError, ReproError
        from .compile import compile_query

        try:
            compiled: Optional[CachedPlan] = compile_query(
                prepared.parameterized_sql, catalog, engine,
                prepared.strategy,
                decorrelate_existential=prepared.decorrelate_existential,
                **live,
            )
        except (FaultInjectedError, GuardrailError):
            raise
        except ReproError:
            compiled = None
        if compiled is not None and not compiled.degradations:
            entry = compiled
        elif compiled is not None and (
            compiled.degradations[0].error_type in _TRANSIENT_STEPS
        ):
            return compiled
        else:
            entry = CachedPlan()
        entry.generation = prepared.generation
        self._store(prepared.key, entry)
        return compiled

    def fill(
        self, prepared: PreparedStatement, catalog: Any
    ) -> Optional[CachedPlan]:
        """:meth:`compile` on a private, quiet rewrite engine -- no
        validation hooks, no fault injection, no events, no fallback --
        for callers that hold no live query: the benchmark ladder's probe
        of the compile cost, and the staleness-race tests. Returns the
        stored entry, ``None`` when the shape was tombstoned."""
        from ..rewrite import RewriteEngine

        return self.compile(
            prepared, catalog, RewriteEngine(catalog, validate=False)
        )

    def _store(self, key: tuple, entry: CachedPlan) -> None:
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.generation > entry.generation:
                # A racing fill built against a newer catalog; keep it.
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    # -- maintenance -------------------------------------------------------

    def clear(self) -> int:
        """Drop everything; returns the number of entries removed (not
        counted as invalidations -- nothing was found stale)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            return count

    def snapshot(self) -> dict:
        """A JSON-ready summary of the cache's state and counters."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "hit_rate": (
                    round(self.hits / lookups, 4) if lookups else None
                ),
            }
