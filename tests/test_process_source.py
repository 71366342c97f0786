"""The package starts processes in one place only: ``_fork._forked``,
through which the check workers of ``checks._results`` and the export
helper of ``serialize._text`` are forked. This test reads every module of
the package and fails on ``os.fork``, a process pool or
``multiprocessing`` anywhere else, so no second way of starting processes
slips in beside it; and on the primitives the children run on (pipes, the
claims lock, kills, reaps, ``select``, ``fcntl`` and ``signal``) outside
``_fork``, so the process code keeps one home."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathgeo"
ALLOWED = {("_fork.py", "_forked")}
NAMES = {"fork", "forkpty", "multiprocessing", "ProcessPoolExecutor"}
# the process primitives: os functions, and modules
PRIMITIVES = {"pipe", "lockf", "memfd_create", "readv", "kill", "waitpid", "select", "fcntl", "signal"}


def uses(tree, names):
    """(enclosing function, line, text) of every use or import of a name
    in ``names``: as a name, an attribute or a part of an imported name."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            found.extend((owner, node.lineno, name) for name in imported if set(name.split(".")) & names)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((owner, node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((owner, node.lineno, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def process_starts(tree):
    """(enclosing function, line, text) of every use or import of
    ``os.fork``, ``os.forkpty``, ``multiprocessing`` or a
    ``ProcessPoolExecutor``."""
    return uses(tree, NAMES)


def process_primitives(tree):
    """(enclosing function, line, text) of every use or import of
    ``os.pipe``, ``os.lockf``, ``os.memfd_create``, ``os.readv``,
    ``os.kill``, ``os.waitpid``, ``select``, ``fcntl`` or ``signal``."""
    return uses(tree, PRIMITIVES)


def test_the_guard_sees_every_way_to_start_a_process():
    source = (
        "import multiprocessing.pool\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def f():\n"
        "    return os.fork() or ProcessPoolExecutor(2)\n"
        "def g():\n"
        "    return concurrent.futures.ProcessPoolExecutor(2), posix.forkpty()\n"
    )
    assert process_starts(ast.parse(source)) == [
        (None, 1, "multiprocessing.pool"),
        (None, 2, "ProcessPoolExecutor"),
        ("f", 4, "os.fork"),
        ("f", 4, "ProcessPoolExecutor"),
        ("g", 6, "concurrent.futures.ProcessPoolExecutor"),
        ("g", 6, "posix.forkpty"),
    ]
    assert process_starts(ast.parse("def h(os):\n    return os.getpid(), os.sched_getaffinity(0)\n")) == []


def test_the_guard_sees_every_process_primitive():
    source = (
        "import select, signal\n"
        "from os import pipe\n"
        "def f():\n"
        "    import fcntl\n"
        "    return os.pipe(), os.lockf(3, os.F_LOCK, 0), os.memfd_create('c'), os.readv(3, [])\n"
        "def g(pid):\n"
        "    os.kill(pid, 9)\n"
        "    return os.waitpid(pid, 0), select.poll()\n"
    )
    assert process_primitives(ast.parse(source)) == [
        (None, 1, "select"),
        (None, 1, "signal"),
        (None, 2, "pipe"),
        ("f", 4, "fcntl"),
        ("f", 5, "os.pipe"),
        ("f", 5, "os.lockf"),
        ("f", 5, "os.memfd_create"),
        ("f", 5, "os.readv"),
        ("g", 7, "os.kill"),
        ("g", 8, "os.waitpid"),
        ("g", 8, "select"),
    ]
    assert process_primitives(ast.parse("def h(os):\n    return os.pread(3, 8, 0), os.close(3)\n")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_processes_start_only_in_the_check_pool_and_the_export_helper(module):
    found = process_starts(ast.parse((PACKAGE / module).read_text()))
    assert [f for f in found if (module, f[0]) not in ALLOWED] == []


def test_both_places_that_start_processes_do():
    owners = {(p.name, f[0]) for p in PACKAGE.glob("*.py") for f in process_starts(ast.parse(p.read_text()))}
    assert owners == ALLOWED


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "_fork.py"))
def test_process_primitives_appear_only_in_the_fork_module(module):
    assert process_primitives(ast.parse((PACKAGE / module).read_text())) == []


def test_the_fork_module_uses_every_process_primitive():
    found = process_primitives(ast.parse((PACKAGE / "_fork.py").read_text()))
    assert {f[2].split(".")[-1] for f in found} == PRIMITIVES


def test_importing_the_package_loads_no_process_module():
    # the process functions import fcntl, select and signal when they run
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, pathgeo, pathgeo.cli; print(sorted({'fcntl', 'select', 'signal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
