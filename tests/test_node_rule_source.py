"""Guards on the package source for the one node rule.

"These two nodes coincide" is decided in one place: ``manifold.node_gaps``
measures the distance of each pair of nodes, compared against
``COINCIDENCE_TOL``, and ``manifold.worst_node`` names the node of a gap.
Every layer calls them, the value types too: a vector's base is decided by
the distance of its point (``_check_same_base``), and ``distance`` is the
``node_gaps`` of two points. So neither is defined anywhere else, and the
helpers they replaced (a manifold check of the value types with its own
message, a path-space wrapper of ``node_gaps``) are defined nowhere.

These tests read the package source and fail if such a function comes
back."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathgeo"


def definitions(tree, name):
    """The owner of every function or method named ``name``: None at module
    level, else its class or enclosing function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            found.append(owner)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def package_definitions(name):
    """{file name: owners} of every definition of ``name`` in the package."""
    found = {}
    for source in sorted(PACKAGE.glob("*.py")):
        owners = definitions(ast.parse(source.read_text()), name)
        if owners:
            found[source.name] = owners
    return found


def test_the_guard_sees_a_definition():
    source = "def f():\n    def g():\n        pass\nclass C:\n    def g(self):\n        pass\ndef g():\n    g()\n"
    tree = ast.parse(source)
    assert definitions(tree, "g") == ["f", "C", None]
    assert definitions(tree, "f") == [None]
    assert definitions(tree, "h") == []


def test_the_node_rule_is_defined_once_in_manifold():
    for name in ("node_gaps", "worst_node"):
        assert package_definitions(name) == {"manifold.py": [None]}, name


def test_the_replaced_helpers_are_defined_nowhere():
    for name in ("_check_same_manifold", "_pointwise_distances"):
        assert package_definitions(name) == {}, name
