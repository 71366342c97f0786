"""The package starts processes in one place only: ``serialize._forked``,
through which the check workers of ``checks._results`` and the export
helper of ``serialize._text`` are forked. This test reads every module of
the package and fails on ``os.fork``, a process pool or
``multiprocessing`` anywhere else, so no second way of starting processes
slips in beside it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathgeo"
ALLOWED = {("serialize.py", "_forked")}
NAMES = {"fork", "forkpty", "multiprocessing", "ProcessPoolExecutor"}


def process_starts(tree):
    """(enclosing function, line, text) of every use or import of
    ``os.fork``, ``os.forkpty``, ``multiprocessing`` or a
    ``ProcessPoolExecutor``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            found.extend((owner, node.lineno, name) for name in names if set(name.split(".")) & NAMES)
        elif isinstance(node, ast.Attribute) and node.attr in NAMES:
            found.append((owner, node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in NAMES:
            found.append((owner, node.lineno, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


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


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_processes_start_only_in_the_check_pool_and_the_export_helper(module):
    found = process_starts(ast.parse((PACKAGE / module).read_text()))
    assert [f for f in found if (module, f[0]) not in ALLOWED] == []


def test_both_places_that_start_processes_do():
    owners = {(p.name, f[0]) for p in PACKAGE.glob("*.py") for f in process_starts(ast.parse(p.read_text()))}
    assert owners == ALLOWED
