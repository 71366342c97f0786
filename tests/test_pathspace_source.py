"""``pathspace._slice`` builds a slice of a worldsheet without the checks of
the ``DiscretePath`` and ``PathTangentField`` constructors. That is sound
only where the sheet-level checks (``pathspace._check_nodes``) have covered
the slice: a ``Worldsheet`` checks its own points and velocities, and
``pathspace_transport`` checks what it transports. This test reads the
package source and fails if any other function calls ``_slice``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathgeo"


def callers(tree, name):
    """The enclosing function of every call of ``name`` or ``x.name``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_the_guard_sees_a_call():
    tree = ast.parse("def f(s):\n    return [_slice(s, j) for j in range(3)] + [ps._slice(s, 0)]\n")
    assert callers(tree, "_slice") == ["f", "f"]


def test_only_the_slice_methods_and_the_transport_build_unchecked_slices():
    found = {}
    for source in sorted(PACKAGE.glob("*.py")):
        for owner in callers(ast.parse(source.read_text()), "_slice"):
            found.setdefault(source.name, set()).add(owner)
    assert found == {"pathspace.py": {"slice_path", "slice_field", "pathspace_transport"}}
