"""The benchmark tracer wraps package functions by name (``TRACED`` in
``bench/tracing.py``). This test loads that file by path and checks that
every name still resolves, so a refactor that deletes or moves a traced
function fails here and not only under ``bench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = load_traced()


def test_the_tracer_names_some_functions():
    assert TRACED


@pytest.mark.parametrize("module, attr", TRACED, ids=["%s.%s" % pair for pair in TRACED])
def test_a_traced_function_resolves(module, attr):
    owner = importlib.import_module("pathgeo." + module)
    # the tracer looks each name up in its owner's own __dict__ and wraps it
    *path, leaf = attr.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert callable(vars(owner)[leaf])
