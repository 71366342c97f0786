"""The public names of ``pathgeo`` are pinned: a change that adds or removes
one edits ``PUBLIC`` below and says why.

The names are read in a fresh interpreter, right after ``import pathgeo``:
importing a submodule such as ``pathgeo.cli`` elsewhere in the test run
would add its name to the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pathgeo

PUBLIC = [
    "BackTrackWindow", "CompositionError", "DiscretePath", "DomainError", "ExchangeReport",
    "GeodMorphism1", "GeodMorphism2", "GeodObject", "GeometryError", "IntegrationError",
    "ManifoldPoint", "ManifoldSpec", "NormalNeighborhoodError", "PathTangentField",
    "TangentVector", "Worldsheet", "arc_length", "backtrack", "bt_equivalent", "canonical_form",
    "category", "check_exchange", "checks", "compose1", "compose2_horizontal",
    "compose2_vertical", "concatenate", "connecting_geodesic", "detect_backtracks", "distance",
    "dumps", "erase_backtrack", "evaluate", "exp_map", "field_canonical_form", "identity1",
    "identity2", "in_normal_neighborhood", "l2_metric", "log_map", "manifold", "morphism1",
    "morphism2", "parallel_transport", "path", "path_energy", "path_to_csv", "pathspace",
    "pathspace_distance", "pathspace_exp", "pathspace_geodesic", "pathspace_transport",
    "reverse", "run_checks", "serialize", "sheet_energy", "sheet_length", "sheet_to_csv",
    "sheet_to_obj", "src1", "src2", "tgt1", "tgt2",
]


def test_the_public_names_are_pinned():
    src = str(Path(pathgeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import json, pathgeo; print(json.dumps(sorted(n for n in vars(pathgeo) if not n.startswith('_'))))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == PUBLIC
