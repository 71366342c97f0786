"""``serialize`` formats every row through ``_float_rows``, which writes a
whole slab in numpy at about half the cost per float of one Python
%-format call over the slab; the OBJ face indices too, as integer-valued
floats. This test reads the module's source and fails on a
``... % tuple(...)`` row format anywhere in it, so the slow path cannot
slip back. A scalar (``_FLOAT % x``) is not a tuple format and stays
allowed."""

import ast
from pathlib import Path

SERIALIZE = Path(__file__).resolve().parents[1] / "src" / "pathgeo" / "serialize.py"


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
    assert tuple_formats(ast.parse(SERIALIZE.read_text())) == []
