"""Guards on the package source for the decisions that one function owns.

``pathspace._slice`` builds a slice of a worldsheet without the checks of
the ``DiscretePath`` and ``PathTangentField`` constructors. That is sound
only where the sheet runs the constructors' own node check
(``path.check_fibers``) over the slice: a ``Worldsheet`` checks its own
points and velocities, and ``pathspace_transport`` checks what it
transports, each in one call over the whole sheet. So only those
constructors, the sheet and the transport call ``check_fibers``, only the
slice methods and the transport call ``_slice``, and the collar range is
spelled once, in ``check_fibers``.

The block of fibers the sheet kernels and the export work on is decided
in one function, ``pathspace._blocks``, the only reader of
``_BLOCK_NODES``. Blocks bound the d-vector temporaries of a kernel and
the text of an export. The node check bounds its own temporaries by
blocks of ``path._CHECK_NODES``, which only ``check_fibers`` reads.

A checked value holds its arrays one way, read-only through
``manifold.held``, the only function that sets ``flags.writeable``. Points
are wrapped once, where they enter: in the path and sheet layers only the
``DiscretePath`` and ``Worldsheet`` constructors call ``wrap``, so a slice
and a transport hold and check the sheet's points as they are. Only
``build_sheet``, whose flow wrapped its points, skips the sheet
constructor's wrap, through ``pathspace._built_sheet``, the one caller of
``Worldsheet.__post_init__``.

These tests read the package source and fail if another function calls
or reads one of these names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathgeo"


def owners(tree, match):
    """The owner of every node for which ``match(node)`` holds: its
    module-level function, or ``Class.method``; a function nested in
    either counts as it, and module level is None."""
    found = []

    def visit(node, owner, scope):
        if owner is None and isinstance(node, ast.ClassDef):
            scope = node.name + "."
        elif owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = scope + node.name
        if match(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, scope)

    visit(tree, None, "")
    return found


def callers(tree, name):
    """The owner of every call of ``name`` or ``x.name``."""

    def is_call(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name
        )

    return owners(tree, is_call)


def readers(tree, name):
    """The owner of every read or import of ``name`` or ``x.name``."""

    def reads(node):
        if isinstance(node, ast.Name):
            return node.id == name and isinstance(node.ctx, ast.Load)
        if isinstance(node, ast.Attribute):
            return node.attr == name
        return isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names)

    return owners(tree, reads)


def package_owners(find, name):
    """{file name: owners} of ``find(tree, name)`` over the package source."""
    found = {}
    for source in sorted(PACKAGE.glob("*.py")):
        for owner in find(ast.parse(source.read_text()), name):
            found.setdefault(source.name, set()).add(owner)
    return found


def test_the_guard_sees_a_call():
    tree = ast.parse("def f(s):\n    return [_slice(s, j) for j in range(3)] + [ps._slice(s, 0)]\n")
    assert callers(tree, "_slice") == ["f", "f"]
    tree = ast.parse("class C:\n    def m(self):\n        def g():\n            return _slice(self, 0)\n")
    assert callers(tree, "_slice") == ["C.m"]


def test_the_guard_sees_a_read():
    tree = ast.parse("from .a import N\nN = 4\ndef f():\n    return N + a.N\ndef g():\n    N = 2\n")
    assert readers(tree, "N") == [None, "f", "f"]


def test_only_the_slice_methods_and_the_transport_build_unchecked_slices():
    assert package_owners(callers, "_slice") == {
        "pathspace.py": {"Worldsheet.slice_path", "Worldsheet.slice_field", "pathspace_transport"}
    }


def test_only_the_path_and_field_constructors_and_the_sheet_check_run_the_node_check():
    assert package_owners(callers, "check_fibers") == {
        "path.py": {"DiscretePath.__post_init__", "PathTangentField.__post_init__"},
        "pathspace.py": {"Worldsheet.__post_init__", "pathspace_transport"},
    }


def test_the_sheet_and_the_transport_each_check_their_nodes_in_one_call():
    # each call is a statement of its function's own body: no loop, try or
    # nested function runs it per block
    tree = ast.parse((PACKAGE / "pathspace.py").read_text())
    direct = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for stmt in func.body
        if isinstance(stmt, ast.Expr) and callers(stmt, "check_fibers")
    ]
    assert sorted(direct) == ["__post_init__", "pathspace_transport"]
    assert len(callers(tree, "check_fibers")) == 2


def test_the_collar_range_is_spelled_once_in_the_node_check():
    rule = "collar must lie in [0, 1/2)"
    assert sum(source.read_text().count(rule) for source in PACKAGE.glob("*.py")) == 1
    tree = ast.parse((PACKAGE / "path.py").read_text())
    assert owners(tree, lambda node: isinstance(node, ast.Constant) and node.value == rule) == ["check_fibers"]


def test_only_the_sheet_kernels_and_the_export_work_in_blocks():
    assert package_owners(callers, "_blocks") == {
        "pathspace.py": {"build_sheet", "transverse_residual"},
        "serialize.py": {"_fibers", "sheet_csv_pieces"},
    }


def test_only_the_block_helper_reads_the_block_size():
    assert package_owners(readers, "_BLOCK_NODES") == {"pathspace.py": {"_blocks"}}


def test_only_the_node_check_reads_its_block_size():
    assert package_owners(readers, "_CHECK_NODES") == {"path.py": {"check_fibers"}}


def writeable_setters(tree, name):
    """The owner of every assignment to ``x.flags.writeable``."""

    def sets(node):
        return isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Attribute) and t.attr == name
            and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
            for t in node.targets
        )

    return owners(tree, sets)


def test_the_guard_sees_a_writeable_flag_set():
    tree = ast.parse("def f(a):\n    a.flags.writeable = False\n    b = a.flags.writeable\n    a.writeable = 1\n")
    assert writeable_setters(tree, "writeable") == ["f"]


def test_only_the_held_helper_sets_an_array_read_only():
    assert package_owners(writeable_setters, "writeable") == {"manifold.py": {"held"}}


def test_only_the_path_and_sheet_constructors_wrap_points():
    found = package_owners(callers, "wrap")
    assert {name: found[name] for name in ("path.py", "pathspace.py")} == {
        "path.py": {"DiscretePath.__post_init__"},
        "pathspace.py": {"Worldsheet.__post_init__"},
    }
    # one call in each: the sheet wraps its points once, not per fiber
    assert [len(callers(ast.parse((PACKAGE / name).read_text()), "wrap")) for name in ("path.py", "pathspace.py")] == [1, 1]


def test_only_the_sheet_kernel_builds_a_sheet_without_its_wrap():
    assert package_owners(callers, "_built_sheet") == {"pathspace.py": {"build_sheet"}}
    assert package_owners(callers, "__post_init__") == {"pathspace.py": {"_built_sheet"}}
