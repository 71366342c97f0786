"""Smoke test of the scripts in ``demos/``: each runs from a copy in a
temporary directory, so the OBJ the worldsheet demo writes beside itself
lands there and not in the checkout."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["backtrack_and_compose.py", "latitude_distance.py", "sphere_worldsheet.py"]
OBJ_SHA256 = "66b64b5d4c65c22beae70e1d03ee2418b6ac236f745b52463412e1b87e87c2ea"


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    if name == "sphere_worldsheet.py":
        obj = (tmp_path / "sphere_worldsheet.obj").read_bytes()
        assert hashlib.sha256(obj).hexdigest() == OBJ_SHA256
