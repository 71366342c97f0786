"""``serialize`` formats every float row through ``_float_rows``, which
writes a whole slab in numpy at about half the cost per float of one
Python %-format call over the slab. This test reads the module's source and
fails on a ``... % tuple(...)`` row format anywhere but the OBJ faces,
which are integers written with ``%d``, so the slow float path cannot slip
back. A scalar (``_FLOAT % x``) is not a tuple format and stays allowed."""

import ast
from pathlib import Path

SERIALIZE = Path(__file__).resolve().parents[1] / "src" / "pathgeo" / "serialize.py"
ALLOWED = {"faces"}


def tuple_formats(tree):
    """(enclosing function, line, format operand) of every ``x % tuple(...)``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mod)
            and isinstance(node.right, ast.Call)
            and ast.unparse(node.right.func) == "tuple"
        ):
            found.append((owner, node.lineno, ast.unparse(node.left)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_the_guard_sees_a_tuple_row_format():
    tree = ast.parse("def f(a, template, sep):\n    return sep.join([template] * len(a)) % tuple(a.ravel())\n")
    assert tuple_formats(tree) == [("f", 2, "sep.join([template] * len(a))")]
    assert tuple_formats(ast.parse("def g(x):\n    return _FLOAT % x\n")) == []


def test_float_rows_are_formatted_only_by_the_slab_formatter():
    found = tuple_formats(ast.parse(SERIALIZE.read_text()))
    assert [f for f in found if f[0] not in ALLOWED] == []
    # the one allowed format writes the integer face indices
    assert [f[0] for f in found] == ["faces"]
    assert all("%d" in f[2] and "%.17g" not in f[2] and "_FLOAT" not in f[2] for f in found)
