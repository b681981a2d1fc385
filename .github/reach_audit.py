"""List the functions under ``src/repro`` that a set of runs never calls.

Two subcommands:

    python .github/reach_audit.py run -- <command> [args...]
    python .github/reach_audit.py report > unreached.txt

``run`` executes one command with a ``sitecustomize`` hook on
``PYTHONPATH``. The hook installs ``sys.setprofile`` and
``threading.setprofile`` in that process and in every Python process it
starts, and when each process ends writes the ``(file, first line)`` of
each code object under ``src/repro`` that was called into
``reach_records/`` at the repository root. Run it once per workload; the
records accumulate.

A process writes its record from ``atexit``. A child forked by
:mod:`multiprocessing` (the real workers of ``repro parallel --real`` and
``repro soak --real-workers``) leaves through ``os._exit`` and never runs
``atexit``, so the hook also registers an after-fork finalizer, which the
child runs when its target returns. A worker killed by a signal or by
the ``worker.crash`` fault writes nothing; its siblings cover the same
code.

``report`` reads every top-level function and method of ``src/repro``
with :mod:`ast` and prints those no record names, one per line as
``path:line qualname (N lines)``, under a count header. Nested functions
and lambdas are not listed: they run only when their parent does.

The profiler slows what it watches, so a run under it must not be judged
by its own timing gates. The audit gates nothing: it is a list for a
reader to act on.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
RECORDS = ROOT / "reach_records"

_HOOK = '''\
import atexit, os, sys, threading
from multiprocessing import util

_SRC = {src!r}
_RECORDS = {records!r}
_called = set()


def _profile(frame, event, arg):
    if event == "call":
        _called.add(frame.f_code)


def _write():
    sys.setprofile(None)
    lines = sorted(
        f"{{code.co_filename}}\\t{{code.co_firstlineno}}"
        for code in list(_called)
        if code.co_filename.startswith(_SRC)
    )
    os.makedirs(_RECORDS, exist_ok=True)
    path = os.path.join(_RECORDS, f"{{os.getpid()}}-{{id(_called)}}.rec")
    with open(path, "w") as out:
        out.write("\\n".join(lines))


atexit.register(_write)
util.register_after_fork(
    _write, lambda write: util.Finalize(None, write, exitpriority=100)
)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def run(command: list[str]) -> int:
    """Run ``command`` with the hook; returns its exit status."""
    hook_dir = RECORDS / "hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        _HOOK.format(src=str(SRC), records=str(RECORDS))
    )
    env = dict(os.environ)
    paths = [str(hook_dir), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.call(command, env=env, cwd=ROOT)


def functions(path: Path):
    """``(first line, qualname, lines)`` of every top-level function and
    method in ``path``; the first line is a decorator's when there is one,
    as in the code object."""
    tree = ast.parse(path.read_text(), str(path))
    scopes = [(tree, "")]
    while scopes:
        scope, prefix = scopes.pop()
        for node in scope.body:
            if isinstance(node, ast.ClassDef):
                scopes.append((node, f"{prefix}{node.name}."))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in node.decorator_list] + [node.lineno])
                yield first, prefix + node.name, node.end_lineno - node.lineno + 1


def report() -> str:
    called: set[tuple[str, int]] = set()
    for record in RECORDS.glob("*.rec"):
        for line in record.read_text().splitlines():
            filename, lineno = line.rsplit("\t", 1)
            called.add((filename, int(lineno)))
    rows = []
    total = total_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        for first, name, size in functions(path):
            total += 1
            total_lines += size
            if (str(path), first) not in called:
                rows.append((path.relative_to(ROOT), first, name, size))
    unreached_lines = sum(row[3] for row in rows)
    header = (
        f"{len(rows)} of {total} top-level functions unreached "
        f"({unreached_lines} of {total_lines} lines) over "
        f"{len(list(RECORDS.glob('*.rec')))} process record(s)"
    )
    return "\n".join(
        [header] + [f"{path}:{line} {name} ({size} lines)" for path, line, name, size in rows]
    ) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("run", "report"))
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1:]
    if args.action == "run":
        if not command:
            parser.error("run needs a command after --")
        return run(command)
    sys.stdout.write(report())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
