"""Concurrency lint: DESIGN section 9's prose contract, machine-checked.

A small AST-based analyzer over ``src/repro/serve`` and
``src/repro/storage`` that turns the documented locking discipline into
coded diagnostics:

* ``CONC001`` -- a ``with <lock>`` nesting that contradicts the declared
  acquisition order (:data:`LOCK_ORDER`), or re-acquisition of a
  non-reentrant lock. Cycle freedom follows from the order being total:
  every permitted edge goes strictly downward.
* ``CONC002`` -- mutation of a declared shared attribute
  (:data:`GUARDED_ATTRS`) outside a ``with <lock>`` block of its class.
* ``CONC003`` -- acquisition of a lock-like attribute the contract does
  not declare (new locks must be added to the order before use).

The declared order (service -> plan cache -> catalog -> table -> breaker
-> event log) is the union of the acquisition chains the code actually
needs: the service calls breaker methods and emits events under its lock,
the plan cache emits ``plan.cache_*`` events inside its critical section
(and reads the catalog generation *before* taking its lock, so no
cache -> catalog edge exists), breaker transitions emit events under the
breaker lock, and the event-log lock is a leaf (it never takes another
lock). The catalog lock is about the
*namespace*, the per-table lock about the *data*; stats computation holds
the catalog lock while reading tables lock-free.

Documented intentional exceptions (DESIGN section 9) the lint encodes:

* constructor writes (``__init__``) are unguarded by definition;
* a method whose docstring says the *caller holds the lock* (e.g.
  ``CircuitBreaker._transition``) is checked at its call sites' level,
  not lexically;
* ``BreakerBoard.transitions`` is lock-free by design (an atomic list
  append made under the transitioning breaker's lock), so it is
  deliberately absent from :data:`GUARDED_ATTRS`; the board's own lock
  sits at the breaker rank and guards only the creation of a breaker;
* the admission policy (``QueryService._policy``, see
  :mod:`repro.serve.overload`) holds the overload-control state and takes
  no lock of its own: its mutating methods carry the *caller holds the
  lock* marker and are only ever called inside the service's critical
  section (``tests/analyze/test_conc.py`` checks the markers);
* ``Table.rows`` / ``Table.indexes`` *readers* take no lock (append-only
  list, copy-on-write dict) -- only mutations are checked.

The analysis is lexical and intraprocedural: it sees ``with`` nesting
inside one function body and receiver names (``self``, or a variable
whose name contains a known noun such as ``catalog``/``table``). That is
exactly the level at which the contract is written, and it is enough to
catch reordered acquisitions and stray unguarded mutations in CI.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class LockSpec:
    """One declared lock: where it lives and its place in the order."""

    key: str           # stable name used in messages ("service", "table", ...)
    rank: int          # acquisition order: may only nest strictly upward
    reentrant: bool    # RLock: same-lock re-acquisition is legal


#: The declared total acquisition order (DESIGN section 9).
LOCK_ORDER: dict[str, LockSpec] = {
    "service": LockSpec("service", 10, reentrant=False),
    "plan_cache": LockSpec("plan_cache", 15, reentrant=False),
    "catalog": LockSpec("catalog", 20, reentrant=True),
    "table": LockSpec("table", 30, reentrant=False),
    "breaker": LockSpec("breaker", 40, reentrant=False),
    "events": LockSpec("events", 50, reentrant=False),
}

#: class name (lower) -> {lock attribute -> lock key}. Conditions sharing
#: the service lock alias the same key (acquiring one IS acquiring it).
CLASS_LOCKS: dict[str, dict[str, str]] = {
    "queryservice": {
        "_lock": "service", "_not_empty": "service", "_idle": "service",
    },
    "plancache": {"_lock": "plan_cache"},
    "catalog": {"_lock": "catalog"},
    "table": {"_lock": "table"},
    "circuitbreaker": {"_lock": "breaker"},
    "breakerboard": {"_lock": "breaker"},
    "eventlog": {"_lock": "events"},
}

#: class name (lower) -> shared attributes whose *mutation* must happen
#: under that class's lock (DESIGN section 9, "who owns what").
GUARDED_ATTRS: dict[str, frozenset[str]] = {
    "queryservice": frozenset({
        "_queue", "_tickets", "_closed", "_counts", "_in_flight",
        "_latencies", "_queue_wait_samples", "_queue_depth_samples",
        "_phase_samples", "_trace_history",
    }),
    "plancache": frozenset({"_entries", "hits", "misses", "invalidations"}),
    "catalog": frozenset({"_tables", "_views", "_generation"}),
    "table": frozenset({"rows", "indexes", "_pk_index"}),
    "circuitbreaker": frozenset({
        "_state", "_consecutive_failures", "_opened_at", "_probe_inflight",
    }),
    "breakerboard": frozenset({"_breakers"}),
}

#: Documented lock-free shared state (listed so the contract is explicit;
#: the lint does not check these -- see the module docstring).
LOCK_FREE_BY_DESIGN: dict[str, frozenset[str]] = {
    "breakerboard": frozenset({"transitions"}),
}

#: Receiver-name nouns used to resolve ``<var>._lock`` acquisitions.
_RECEIVER_NOUNS: tuple[tuple[str, str], ...] = (
    ("service", "queryservice"),
    ("cache", "plancache"),
    ("catalog", "catalog"),
    ("table", "table"),
    ("breaker", "circuitbreaker"),
    ("event", "eventlog"),
)

#: Mutating method names on guarded container attributes.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "remove", "discard",
    "pop", "popleft", "popitem", "clear", "update", "setdefault",
})

#: Docstring markers exempting a function from the CONC002 check: the
#: lock is held by the caller, so the guarantee is checked at call sites.
_CALLER_HOLDS_MARKERS = ("caller holds", "lock held", "holds the lock")


def _self_attr(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _lock_like(attr: str) -> bool:
    return attr.endswith("lock") or attr in ("_not_empty", "_idle")


class _Linter(ast.NodeVisitor):
    def __init__(self, filename: str):
        self.filename = filename
        self.diagnostics: list[Diagnostic] = []
        self._class: list[str] = []       # enclosing class names (lower)
        self._exempt: list[bool] = []     # per-function exemption stack
        self._locks: list[tuple[str, str]] = []  # held (key, display) stack

    # -- reporting ---------------------------------------------------------

    def _report(self, code: str, node: ast.AST, message: str,
                hint: Optional[str] = None) -> None:
        line = getattr(node, "lineno", 0)
        self.diagnostics.append(Diagnostic(
            code, Severity.ERROR,
            f"{self.filename}:{line}: {message}", hint=hint,
        ))

    # -- scope tracking ----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class.append(node.name.lower())
        self.generic_visit(node)
        self._class.pop()

    def _visit_function(self, node) -> None:
        docstring = ast.get_docstring(node) or ""
        exempt = node.name == "__init__" or any(
            marker in docstring.lower() for marker in _CALLER_HOLDS_MARKERS
        )
        self._exempt.append(exempt)
        saved = self._locks
        self._locks = []  # a new frame holds no locks lexically
        self.generic_visit(node)
        self._locks = saved
        self._exempt.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- lock acquisition --------------------------------------------------

    def _resolve_lock(self, item: ast.expr) -> Optional[tuple[str, str]]:
        """Resolve a with-item to ``(lock key, display name)``, reporting
        CONC003 for lock-like attributes outside the declared registry."""
        if not isinstance(item, ast.Attribute):
            return None
        attr = item.attr
        if isinstance(item.value, ast.Name) and item.value.id == "self":
            owner = self._class[-1] if self._class else ""
            declared = CLASS_LOCKS.get(owner, {})
            if attr in declared:
                return declared[attr], f"self.{attr}"
            if owner in CLASS_LOCKS and _lock_like(attr):
                self._report(
                    "CONC003", item,
                    f"acquisition of undeclared lock 'self.{attr}' in class "
                    f"{owner!r}",
                    hint="declare the lock in repro.analyze.conc.CLASS_LOCKS "
                         "and give it a place in LOCK_ORDER",
                )
            return None
        if isinstance(item.value, ast.Name) and _lock_like(attr):
            hint = item.value.id.lower()
            for noun, owner in _RECEIVER_NOUNS:
                if noun in hint:
                    key = CLASS_LOCKS.get(owner, {}).get(attr)
                    if key is not None:
                        return key, f"{item.value.id}.{attr}"
        return None

    def visit_With(self, node: ast.With) -> None:
        acquired: list[tuple[str, str]] = []
        for with_item in node.items:
            resolved = self._resolve_lock(with_item.context_expr)
            if resolved is None:
                continue
            key, display = resolved
            spec = LOCK_ORDER[key]
            if self._locks:
                top_key, top_display = self._locks[-1]
                top = LOCK_ORDER[top_key]
                if key == top_key:
                    if not spec.reentrant:
                        self._report(
                            "CONC001", with_item.context_expr,
                            f"re-acquisition of non-reentrant lock "
                            f"{display!r} while already held "
                            f"(as {top_display!r}): self-deadlock",
                        )
                elif spec.rank <= top.rank:
                    self._report(
                        "CONC001", with_item.context_expr,
                        f"acquiring {display!r} ({key}, rank {spec.rank}) "
                        f"while holding {top_display!r} ({top_key}, rank "
                        f"{top.rank}) violates the declared lock order "
                        f"{_order_text()}",
                        hint="release the held lock first, or acquire in "
                             "declared order (DESIGN section 9)",
                    )
            self._locks.append((key, display))
            acquired.append((key, display))
        for statement in node.body:
            self.visit(statement)
        for _ in acquired:
            self._locks.pop()

    # -- shared-attribute mutation -----------------------------------------

    def _guarded(self) -> frozenset[str]:
        owner = self._class[-1] if self._class else ""
        return GUARDED_ATTRS.get(owner, frozenset())

    def _own_lock_held(self) -> bool:
        owner = self._class[-1] if self._class else ""
        keys = set(CLASS_LOCKS.get(owner, {}).values())
        return any(key in keys for key, _ in self._locks)

    def _check_mutation(self, node: ast.AST, attr: str) -> None:
        if attr not in self._guarded():
            return
        if self._exempt and self._exempt[-1]:
            return
        if self._own_lock_held():
            return
        owner = self._class[-1] if self._class else "?"
        self._report(
            "CONC002", node,
            f"mutation of shared attribute 'self.{attr}' of class "
            f"{owner!r} outside a 'with <lock>' block",
            hint="wrap the mutation in the owning lock, or document the "
                 "exception ('caller holds the lock' in the docstring) "
                 "and verify every call site",
        )

    def _mutated_attr(self, target: ast.expr) -> Optional[str]:
        attr = _self_attr(target)
        if attr is not None:
            return attr
        if isinstance(target, ast.Subscript):
            return _self_attr(target.value)
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                found = self._mutated_attr(element)
                if found is not None:
                    return found
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = self._mutated_attr(target)
            if attr is not None:
                self._check_mutation(node, attr)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self._mutated_attr(node.target)
        if attr is not None:
            self._check_mutation(node, attr)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            attr = self._mutated_attr(node.target)
            if attr is not None:
                self._check_mutation(node, attr)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = self._mutated_attr(target)
            if attr is not None:
                self._check_mutation(node, attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            attr = _self_attr(func.value)
            if attr is not None:
                self._check_mutation(node, attr)
        self.generic_visit(node)


def _order_text() -> str:
    ordered = sorted(LOCK_ORDER.values(), key=lambda spec: spec.rank)
    return " -> ".join(spec.key for spec in ordered)


def lint_source(source: str, filename: str = "<string>") -> list[Diagnostic]:
    """Lint one module's source text (used by the mutation self-tests)."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Diagnostic(
            "CONC003", Severity.ERROR,
            f"{filename}:{exc.lineno or 0}: cannot parse module: {exc.msg}",
        )]
    linter = _Linter(filename)
    linter.visit(tree)
    return linter.diagnostics


def lint_file(path: str) -> list[Diagnostic]:
    with open(path, encoding="utf-8") as handle:
        return lint_source(handle.read(), filename=path)


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            yield path


def lint_paths(paths: Sequence[str]) -> list[Diagnostic]:
    """Concurrency-lint every ``.py`` file under ``paths``."""
    diagnostics: list[Diagnostic] = []
    for filename in iter_python_files(paths):
        diagnostics.extend(lint_file(filename))
    return diagnostics


