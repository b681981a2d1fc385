"""The concurrency lint against the real service/storage code: the
DESIGN section-9 contract must hold in CI, not just in prose."""

import ast
import os

from repro.analyze.conc import (
    _CALLER_HOLDS_MARKERS,
    _MUTATORS,
    CLASS_LOCKS,
    GUARDED_ATTRS,
    LOCK_FREE_BY_DESIGN,
    LOCK_ORDER,
    _self_attr,
    default_targets,
    iter_python_files,
    lint_paths,
    lint_source,
)


def test_serve_and_storage_satisfy_the_contract():
    findings = lint_paths(default_targets())
    assert findings == [], [str(d) for d in findings]


def test_default_targets_exist_and_contain_modules():
    targets = default_targets()
    assert all(os.path.exists(t) for t in targets)
    files = list(iter_python_files(targets))
    names = {os.path.basename(f) for f in files}
    assert "service.py" in names      # the query service
    assert "catalog.py" in names      # the storage layer
    assert "cache.py" in names        # the plan cache (rank 15)


def test_lock_order_is_total_and_covers_every_declared_lock():
    ranks = [spec.rank for spec in LOCK_ORDER.values()]
    assert len(ranks) == len(set(ranks)), "order must be total"
    for locks in CLASS_LOCKS.values():
        for key in locks.values():
            assert key in LOCK_ORDER


def test_guarded_classes_declare_their_lock():
    for owner in GUARDED_ATTRS:
        assert owner in CLASS_LOCKS, (
            f"{owner} has guarded attributes but no declared lock"
        )


def test_lock_free_exceptions_do_not_overlap_guarded_attrs():
    for owner, attrs in LOCK_FREE_BY_DESIGN.items():
        assert not attrs & GUARDED_ATTRS.get(owner, frozenset())


def test_unparsable_module_reports_instead_of_crashing():
    findings = lint_source("def broken(:\n", "bad.py")
    assert len(findings) == 1
    assert findings[0].code == "CONC003"
    assert "cannot parse" in findings[0].message


def test_receiver_noun_resolution_catches_cross_object_order():
    source = '''
class StatsCache:
    def rebuild(self, catalog, table):
        with table._lock:
            with catalog._lock:
                pass
'''
    codes = {d.code for d in lint_source(source, "fixture.py")}
    assert codes == {"CONC001"}


def test_service_then_breaker_then_events_is_legal():
    source = '''
class QueryService:
    def _finish(self, breaker, event_log):
        with self._lock:
            with breaker._lock:
                with event_log._lock:
                    pass
'''
    assert lint_source(source, "fixture.py") == []


# -- the declared sets against the real service -------------------------------

def _class_def(path, name):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    )


def _mutated_self_attrs(function):
    """``self.x`` names a function rebinds, deletes, subscript-assigns or
    calls a mutator on -- the lint's own notion of a mutation."""
    found = set()
    for node in ast.walk(function):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            targets = [node.func.value]
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            attr = _self_attr(target)
            if attr is not None:
                found.add(attr)
    return found


def _assert_declared_set_is_current(module, class_name):
    serve = default_targets()[0]
    owner = _class_def(os.path.join(serve, module), class_name)
    methods = [n for n in owner.body if isinstance(n, ast.FunctionDef)]
    init = next(m for m in methods if m.name == "__init__")
    created = _mutated_self_attrs(init)
    shared = set()
    for method in methods:
        if method is not init:
            shared |= _mutated_self_attrs(method) & created
    key = class_name.lower()
    declared = GUARDED_ATTRS[key] | LOCK_FREE_BY_DESIGN.get(key, frozenset())
    assert shared <= declared, sorted(shared - declared)
    # ... and nothing is declared that the class no longer has.
    assert declared <= created, sorted(declared - created)


def test_every_shared_queryservice_attribute_is_declared():
    """The guarded set cannot go stale: whatever ``__init__`` creates and
    another method mutates is either checked or documented lock-free."""
    _assert_declared_set_is_current("service.py", "QueryService")


def test_every_shared_breakerboard_attribute_is_declared():
    _assert_declared_set_is_current("breaker.py", "BreakerBoard")


def test_policy_methods_that_mutate_state_say_who_holds_the_lock():
    serve = default_targets()[0]
    path = os.path.join(serve, "overload.py")
    for name in ("FifoPolicy", "AdaptivePolicy"):
        for method in _class_def(path, name).body:
            if (
                not isinstance(method, ast.FunctionDef)
                or method.name == "__init__"
                or not _mutated_self_attrs(method)
            ):
                continue
            docstring = (ast.get_docstring(method) or "").lower()
            assert any(m in docstring for m in _CALLER_HOLDS_MARKERS), (
                f"{name}.{method.name} mutates policy state without the "
                "'caller holds the lock' marker"
            )


# -- one pipeline: the forks in front of the executor cannot come back --------

SRC = os.path.dirname(default_targets()[0])  # .../src/repro


class _Sites(ast.NodeVisitor):
    """Where under ``src/repro`` a name is called, and where a private
    ``Database`` attribute is read off anything but ``self``."""

    def __init__(self, private):
        self.private = private
        self.calls = {}    # called name -> ["pkg/module.py::Class.function"]
        self.reaches = []  # "pkg/module.py::function reads ._name"
        self._where = []

    def scan(self, path):
        self._where = [os.path.relpath(path, SRC).replace(os.sep, "/") + ":"]
        with open(path, encoding="utf-8") as handle:
            self.visit(ast.parse(handle.read()))

    def _scoped(self, node):
        self._where.append(node.name)
        self.generic_visit(node)
        self._where.pop()

    visit_ClassDef = visit_FunctionDef = _scoped

    def _here(self):
        return self._where[0] + ":" + ".".join(self._where[1:])

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        self.calls.setdefault(name, []).append(self._here())
        self.generic_visit(node)

    def visit_Attribute(self, node):
        receiver = node.value
        if node.attr in self.private and not (
            isinstance(receiver, ast.Name) and receiver.id in ("self", "cls")
        ):
            self.reaches.append(f"{self._here()} reads .{node.attr}")
        self.generic_visit(node)


def test_the_pipeline_in_front_of_the_executor_is_written_once():
    """One compile function, one run step: the executor has one caller,
    boxes are planned by the compile step (or lazily by a bare context),
    the plan cache parses nothing itself, and nobody outside ``api/``
    reaches into a ``Database``."""
    from repro import Database

    private = {
        name for name in vars(Database)
        if name.startswith("_") and not name.startswith("__")
    }
    assert {"_run", "_query", "_execute_statement"} <= private
    sites = _Sites(private)
    for path in iter_python_files([SRC]):
        if not path.startswith(os.path.join(SRC, "api") + os.sep):
            sites.scan(path)
    assert sites.reaches == []
    api = _Sites(private)
    for path in iter_python_files([os.path.join(SRC, "api")]):
        api.scan(path)
    assert "execute_graph" not in sites.calls
    assert api.calls["execute_graph"] == ["api/database.py::Database._run"]
    assert "plan_box" not in api.calls
    assert sorted(sites.calls["plan_box"]) == [
        "exec/executor.py::ExecutionContext.plan",
        "plan/compile.py::compile_query",
    ]
    assert not [
        where for where in sites.calls["parse_statement"]
        if where.startswith("plan/cache.py")
    ]
