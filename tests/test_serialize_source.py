"""``serialize`` formats every row through ``_float_rows``, which writes a
whole slab in numpy at about half the cost per float of one Python
%-format call over the slab; the OBJ face indices too, as integer-valued
floats. This test reads the module's source and fails on a
``... % tuple(...)`` row format anywhere in it, so the slow path cannot
slip back. A scalar (``_FLOAT % x``) is not a tuple format and stays
allowed.

``serialize`` is the text layer only: each value reads and writes its own
record (``to_json``/``from_json``), the 1- and 2-morphisms in
``category``. The second half of this test fails on an import of
``category`` or ``path`` in ``serialize.py``, or a ``morphism*`` function
defined there, so the records keep one home."""

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


def package_imports(tree):
    """(line, module) of every module of the package an import names, by
    its name in the package: ``from . import category as cat``,
    ``from .category import X`` and ``import pathgeo.category`` all name
    ``category``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "pathgeo"):
            names = [node.module.split(".")[-1]] if node.level and node.module else [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
            names = [m.split(".")[1] for m in modules if m.startswith("pathgeo.")]
        else:
            continue
        found.extend((node.lineno, name) for name in names)
    return sorted(found)


def morphism_functions(tree):
    """(line, name) of every function whose name starts with ``morphism``."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("morphism")
    )


def test_the_guard_sees_every_package_import_and_morphism_function():
    source = (
        "import os.path\n"
        "from . import category as cat, _fork\n"
        "from .path import DiscretePath\n"
        "import pathgeo.category\n"
        "from pathgeo import path\n"
        "def morphism1_to_json(m):\n"
        "    from ..pathgeo.category import GeodMorphism1\n"
        "def _morphism():\n"
        "    pass\n"
    )
    tree = ast.parse(source)
    assert package_imports(tree) == [(2, "_fork"), (2, "category"), (3, "path"), (4, "category"), (5, "path"),
                                     (7, "category")]
    assert morphism_functions(tree) == [(6, "morphism1_to_json")]


def test_serialize_imports_no_value_layer_and_writes_no_morphism_record():
    tree = ast.parse(SERIALIZE.read_text())
    assert [found for found in package_imports(tree) if found[1] in ("category", "path")] == []
    assert morphism_functions(tree) == []
