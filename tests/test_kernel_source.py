"""The kernels in ``manifold.py`` sum over the coordinate axis through
``_dot`` and ``_norm``, which add one coordinate at a time: numpy's own
reduction over a last axis of 2 or 3 costs several times more on a sheet.
This test reads the module's source and fails on a numpy reduction over
``axis=-1`` outside those two functions, so the hot path cannot slip back."""

import ast
from pathlib import Path

MANIFOLD = Path(__file__).resolve().parents[1] / "src" / "pathgeo" / "manifold.py"
REDUCTIONS = {"np.sum", "np.linalg.norm"}
ALLOWED = {"_dot", "_norm"}


def reductions_over_last_axis(tree):
    """(enclosing function, line, name) of every np.sum / np.linalg.norm
    call with axis=-1 given by keyword or position."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) in REDUCTIONS:
            axes = [k.value for k in node.keywords if k.arg == "axis"] + node.args[1:2]
            if any(ast.unparse(a) == "-1" for a in axes):
                found.append((owner, node.lineno, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_the_guard_sees_a_reduction_over_the_last_axis():
    tree = ast.parse("def f(x):\n    return np.sum(x * x, axis=-1) + np.linalg.norm(x, -1)\n")
    assert reductions_over_last_axis(tree) == [("f", 2, "np.sum"), ("f", 2, "np.linalg.norm")]


def test_manifold_kernels_reduce_the_coordinate_axis_only_through_dot_and_norm():
    found = reductions_over_last_axis(ast.parse(MANIFOLD.read_text()))
    assert [f for f in found if f[0] not in ALLOWED] == []
    assert {f[0] for f in found} == {"_dot"}


# numpy's transcendental ufuncs: their float64 loops may round differently on
# another SIMD target, so each one the kernels call must be in KERNEL_UFUNCS,
# which picks the digest set a host is held to; ``**`` is ``power``
TRANSCENDENTAL = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2", "power", "float_power",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh", "arcsinh",
    "arccosh", "arctanh", "cbrt",
}


def transcendental_calls(tree):
    """The numpy transcendental ufuncs that ``tree`` calls as ``np.<name>``
    or through the ``**`` operator."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.startswith("np.") and name[3:] in TRANSCENDENTAL:
                found.add(name[3:])
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            found.add("power")
    return found


def test_the_guard_sees_a_transcendental_call():
    tree = ast.parse("def f(x):\n    return np.tanh(x) + np.sqrt(x) ** 2 + math.exp(1)\n")
    assert transcendental_calls(tree) == {"tanh", "power"}


def test_every_transcendental_the_kernels_call_picks_the_digest_set():
    from test_report_gate import KERNEL_UFUNCS

    assert transcendental_calls(ast.parse(MANIFOLD.read_text())) <= set(KERNEL_UFUNCS)
