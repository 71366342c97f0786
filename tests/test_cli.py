import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathgeo import backtrack as bt
from pathgeo import checks, cli
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo import serialize as ser
from pathgeo import category as cat


def write_config(tmp_path, data, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def flat_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "manifold": {"kind": "euclidean", "dim": 2},
            "paths": {
                "base": {"generator": "line", "start": [0, 0], "end": [1, 0]},
                "path1": {"generator": "line", "start": [0, 0], "end": [1, 0]},
                "path2": {"generator": "line", "start": [0, 1], "end": [1, 1]},
            },
            "fields": {
                "up": {"generator": "constant_in_chart", "path": "base", "components": [0, 1]},
                "none": {"generator": "zero", "path": "base"},
            },
            "interval": [0, 1],
            "resolution": {"N": 64, "S": 8},
        },
    )


def sphere_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "manifold": {"kind": "sphere", "radius": 1.0},
            "paths": {
                "eq": {"generator": "great_circle_arc", "start": [1, 0, 0], "end": [0, 1, 0]},
                "lat1": {"generator": "latitude_circle", "colatitude": 3 * math.pi / 8},
                "lat2": {"generator": "latitude_circle", "colatitude": 5 * math.pi / 8},
            },
            "fields": {
                "toward_pole": {
                    "generator": "constant_in_chart",
                    "path": "eq",
                    "components": [0, 0, 1.5707963267948966],
                }
            },
            "resolution": {"N": 128, "S": 8},
        },
        name="sphere.json",
    )


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# worldsheet
# ---------------------------------------------------------------------------


def test_worldsheet_flat_square(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["worldsheet", "--config", flat_config(tmp_path), "--path", "base",
         "--field", "up", "--out", out]
    )
    assert code == 0
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["energy"] == pytest.approx(0.5, abs=1e-6)
    assert summary["length"] == pytest.approx(1.0, abs=1e-6)
    assert os.path.exists(os.path.join(out, "worldsheet.json"))


def test_worldsheet_of_a_field_given_inline(tmp_path):
    # a field without a generator is its inline components, one row per sample
    comps = np.outer(np.linspace(0.0, 1.0, 9), [0.5, 1.0])
    cfg = write_config(
        tmp_path,
        {
            "manifold": {"kind": "euclidean", "dim": 2},
            "paths": {"base": {"generator": "line", "start": [0, 0], "end": [1, 0], "collar": 0}},
            "fields": {"ramp": {"path": "base", "components": comps.tolist()}},
            "resolution": {"N": 8, "S": 2},
        },
    )
    out = str(tmp_path / "out")
    assert cli.main(["worldsheet", "--config", cfg, "--path", "base", "--field", "ramp", "--out", out]) == 0
    sheet = ps.Worldsheet.from_json(read_json(os.path.join(out, "worldsheet.json")))
    assert np.array_equal(sheet.velocities[0], comps)
    assert np.array_equal(sheet.points[-1], sheet.points[0] + comps)


def test_worldsheet_zero_field(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["worldsheet", "--config", flat_config(tmp_path), "--path", "base",
         "--field", "none", "--out", out]
    )
    assert code == 0
    assert read_json(os.path.join(out, "summary.json"))["energy"] == 0.0


def test_worldsheet_sphere_collapses_to_pole(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(
        tmp_path,
        {
            "manifold": {"kind": "sphere", "radius": 1.0},
            "paths": {"eqf": {"generator": "latitude_circle", "colatitude": math.pi / 2}},
            "fields": {
                "north": {
                    "generator": "constant_in_chart",
                    "path": "eqf",
                    "components": [0, 0, 1.5707963267948966],
                }
            },
            "resolution": {"N": 64, "S": 4},
        },
        name="eq.json",
    )
    code = cli.main(["worldsheet", "--config", cfg, "--out", out, "--format", "obj"])
    assert code == 0
    sheet = None
    top = None
    # last OBJ vertex ring is the final fiber; parse and check it sits at the pole
    with open(os.path.join(out, "worldsheet.obj")) as fh:
        verts = [l.split()[1:] for l in fh if l.startswith("v ")]
    top = np.array(verts[-65:], dtype=float)
    assert np.max(np.abs(top - np.array([0.0, 0.0, 1.0]))) < 1e-5


def test_worldsheet_csv_format(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["worldsheet", "--config", flat_config(tmp_path), "--path", "base",
         "--field", "up", "--out", out, "--format", "csv"]
    )
    assert code == 0
    with open(os.path.join(out, "worldsheet.csv")) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip()
    assert header == "s,t,x1,x2"
    assert first == "0,0,0,0"


# ---------------------------------------------------------------------------
# distance / energy
# ---------------------------------------------------------------------------


def test_distance_parallel_lines(tmp_path, capsys):
    code = cli.main(["distance", "--config", flat_config(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dtilde"] == pytest.approx(1.0, abs=1e-9)
    assert report["difference"] <= 1e-9


def test_distance_identical_paths(tmp_path, capsys):
    code = cli.main(
        ["distance", "--config", flat_config(tmp_path), "--path1", "base", "--path2", "path1"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dtilde"] == 0.0


def test_distance_sphere_latitude_pair(tmp_path, capsys):
    code = cli.main(
        ["distance", "--config", sphere_config(tmp_path), "--path1", "lat1", "--path2", "lat2"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dtilde"] == pytest.approx(math.pi / 4, abs=1e-4)


def test_distance_normal_neighborhood_violation(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "manifold": {"kind": "sphere", "radius": 1.0},
            "paths": {
                "path1": {"generator": "latitude_circle", "colatitude": 0.3},
                "path2": {
                    "generator": "latitude_circle",
                    "colatitude": math.pi - 0.3,
                    "phase": math.pi,
                },
            },
            "resolution": {"N": 32, "S": 4},
        },
        name="far.json",
    )
    code = cli.main(["distance", "--config", cfg])
    assert code == 1
    assert "normal neighborhood" in capsys.readouterr().err


def test_energy_reports_all_paths(tmp_path, capsys):
    code = cli.main(["energy", "--config", flat_config(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"base", "path1", "path2"}
    assert report["base"]["arc_length"] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# backtrack / compose
# ---------------------------------------------------------------------------


def test_backtrack_subcommand_windows_and_canonical(tmp_path, capsys):
    spec = mf.ManifoldSpec.euclidean(2)
    spurred, _, (T, k) = checks._spur_path(spec, np.random.default_rng(3), n=16)
    pfile = tmp_path / "spur.json"
    pfile.write_text(ser.dumps(spurred.to_json()))
    code = cli.main(["backtrack", "--input", str(pfile), "--windows"])
    assert code == 0
    wins = json.loads(capsys.readouterr().out)
    assert wins == [{"end": T + 2 * k, "half_width": k, "start": T}]
    code = cli.main(["backtrack", "--input", str(pfile), "--canonical"])
    assert code == 0
    canon = json.loads(capsys.readouterr().out)
    assert len(canon["samples"]) == len(spurred.samples)


def test_backtrack_reads_a_config_path(tmp_path, capsys):
    cfg = sphere_config(tmp_path)
    gamma = cli.ScenarioConfig.load(cfg).build_path("lat1")
    # the collars, constant runs, are the windows
    windows = [{"start": w.start, "half_width": w.half_width, "end": w.end} for w in bt.detect_backtracks(gamma)]
    assert len(windows) == 2
    for mode, want in (("--windows", windows), ("--canonical", bt.canonical_form(gamma).to_json())):
        assert cli.main(["backtrack", "--config", cfg, "--path", "lat1", mode]) == 0
        assert capsys.readouterr().out == ser.dumps(want)
    # three paths, none selected
    assert cli.main(["backtrack", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: config defines 3 paths; select one with --path\n"


@pytest.mark.parametrize("tol", ["nan", "-0.5"])
def test_backtrack_rejects_a_bad_tolerance(tmp_path, capsys, tol):
    spec = mf.ManifoldSpec.euclidean(2)
    spurred, _, _ = checks._spur_path(spec, np.random.default_rng(3), n=16)
    pfile = tmp_path / "spur.json"
    pfile.write_text(ser.dumps(spurred.to_json()))
    for mode in ("--windows", "--canonical"):
        assert cli.main(["backtrack", "--input", str(pfile), mode, "--tol", tol]) == 1
        assert capsys.readouterr().err.startswith("error: tolerance must be a nonnegative number")


def test_compose_subcommand_roundtrip(tmp_path, capsys):
    spec = mf.ManifoldSpec.euclidean(2)
    m1, m2, _ = checks._composable_triple(spec, np.random.default_rng(4), n=16)
    f1 = tmp_path / "m1.json"
    f2 = tmp_path / "m2.json"
    f1.write_text(ser.dumps(ser.morphism1_to_json(m1)))
    f2.write_text(ser.dumps(ser.morphism1_to_json(m2)))
    code = cli.main(["compose", str(f2), str(f1)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "morphism1"
    assert len(out["path"]["samples"]) == 33


def test_compose_exchange_report(tmp_path, capsys):
    spec = mf.ManifoldSpec.sphere(1.0)
    m1, m2, _ = checks._composable_triple(spec, np.random.default_rng(5), n=16)
    files = []
    for name, M in [
        ("F1", cat.morphism2(m1, (0.0, 0.5), S=3)),
        ("G1", cat.morphism2(m1, (0.5, 1.0), S=3)),
        ("F2", cat.morphism2(m2, (0.0, 0.5), S=3)),
        ("G2", cat.morphism2(m2, (0.5, 1.0), S=3)),
    ]:
        f = tmp_path / (name + ".json")
        f.write_text(ser.dumps(ser.morphism2_to_json(M)))
        files.append(str(f))
    code = cli.main(["compose"] + files)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["max_discrepancy"] <= 1e-9


def test_compose_horizontal_joins_two_2_morphisms_side_by_side(tmp_path, capsys):
    m1, m2, _ = checks._composable_triple(mf.ManifoldSpec.sphere(1.0), np.random.default_rng(6), n=16)
    F, G = cat.morphism2(m1, (0.0, 0.5), S=3), cat.morphism2(m2, (0.0, 0.5), S=3)
    files = []
    for name, M in (("G", G), ("F", F)):  # the later morphism first, as for vertical composition
        f = tmp_path / (name + ".json")
        f.write_text(ser.dumps(ser.morphism2_to_json(M)))
        files.append(str(f))
    assert cli.main(["compose"] + files + ["--horizontal"]) == 0
    assert capsys.readouterr().out == ser.dumps(ser.morphism2_to_json(cat.compose2_horizontal(F, G)))
    # over one interval the two do not compose vertically
    assert cli.main(["compose"] + files) == 1
    assert capsys.readouterr().err.startswith("error: intervals do not abut")


@pytest.mark.parametrize("tol", ["nan", "-1.0"])
def test_compose_rejects_a_bad_exchange_tolerance(tmp_path, capsys, tol):
    m1, m2, _ = checks._composable_triple(mf.ManifoldSpec.sphere(1.0), np.random.default_rng(5), n=16)
    files = []
    for name, M in [
        ("F1", cat.morphism2(m1, (0.0, 0.5), S=2)),
        ("G1", cat.morphism2(m1, (0.5, 1.0), S=2)),
        ("F2", cat.morphism2(m2, (0.0, 0.5), S=2)),
        ("G2", cat.morphism2(m2, (0.5, 1.0), S=2)),
    ]:
        f = tmp_path / (name + ".json")
        f.write_text(ser.dumps(ser.morphism2_to_json(M)))
        files.append(str(f))
    out = tmp_path / "out"
    assert cli.main(["compose"] + files + ["--tol", tol, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: tolerance must be a nonnegative number (got %r)\n" % float(tol)
    assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_reports_are_deterministic(tmp_path):
    outA = str(tmp_path / "a")
    outB = str(tmp_path / "b")
    for out in (outA, outB):
        code = cli.main(["check", "--suite", "manifold", "--cases", "4", "--out", out])
        assert code == 0
    a = open(os.path.join(outA, "report.json"), "rb").read()
    b = open(os.path.join(outB, "report.json"), "rb").read()
    assert a == b


def test_check_negative_control_fails(tmp_path, capsys):
    spec = mf.ManifoldSpec.euclidean(2)
    spurred, _, _ = checks._spur_path(spec, np.random.default_rng(6), n=16)
    comps = np.outer(np.linspace(0.0, 1.0, len(spurred.samples)), [1.0, 0.0])
    cfg = write_config(
        tmp_path,
        {
            "manifold": {"kind": "euclidean", "dim": 2},
            "paths": {"spur": {"samples": spurred.samples.tolist()}},
            "fields": {"bad": {"path": "spur", "components": comps.tolist()}},
            "resolution": {"N": 16, "S": 4},
        },
        name="bad.json",
    )
    code = cli.main(["check", "--suite", "backtrack", "--cases", "3", "--config", cfg])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    failing = [p for p in report["properties"] if not p["passed"]]
    assert any(p["name"].startswith("config_field_reflection") for p in failing)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-5", "seed must be an integer in [0, 2**64) (got -5)"),
        ("--seed", str(2**64), "seed must be an integer in [0, 2**64) (got %d)" % 2**64),
        ("--cases", "0", "cases must be an integer >= 1 (got 0)"),
        ("--cases", "-2", "cases must be an integer >= 1 (got -2)"),
    ],
)
def test_check_rejects_a_bad_seed_or_cases(capsys, flag, value, message):
    assert cli.main(["check", "--suite", "manifold", flag, value]) == 1
    out = capsys.readouterr()
    assert out.err == "error: %s\n" % message and out.out == ""


@pytest.mark.parametrize("command", ["worldsheet", "check"])
def test_output_that_cannot_be_written_is_an_error(tmp_path, capsys, command):
    # --out naming a regular file ended in a FileExistsError traceback; the
    # check report is still written to stdout, before the file
    blocker = tmp_path / "taken"
    blocker.write_text("")
    argv = {
        "worldsheet": ["worldsheet", "--config", flat_config(tmp_path), "--path", "base", "--field", "up"],
        "check": ["check", "--suite", "manifold", "--cases", "1"],
    }[command]
    assert cli.main(argv + ["--out", str(blocker)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: [Errno 17] File exists: ") and out.err.count("\n") == 1
    assert str(blocker) in out.err
    if command == "check":
        assert json.loads(out.out)["passed"]


def test_check_requires_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check"])
    assert exc.value.code == 2


def test_the_module_runs_as_the_command(capsys):
    # ``python -m pathgeo.cli`` runs main and exits with its code
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["check", "--suite", "manifold", "--cases", "2"]
    run = subprocess.run([sys.executable, "-m", "pathgeo.cli"] + argv, env=env, capture_output=True, timeout=300)
    assert run.returncode == 0 and cli.main(argv) == 0
    assert run.stdout == capsys.readouterr().out.encode()
    run = subprocess.run([sys.executable, "-m", "pathgeo.cli", "check"], env=env, capture_output=True, timeout=300)
    assert run.returncode == 2 and b"--suite" in run.stderr


def test_config_validation_errors(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"manifold": {"kind": "euclidean", "dim": 2}, "resolution": {"N": 48}},
        name="badres.json",
    )
    code = cli.main(["energy", "--config", cfg])
    assert code == 1
    assert "power of two" in capsys.readouterr().err
    cfg2 = write_config(
        tmp_path,
        {
            "manifold": {"kind": "euclidean", "dim": 2},
            "fields": {"f": {"path": "missing", "generator": "zero"}},
        },
        name="badref.json",
    )
    code = cli.main(["energy", "--config", cfg2])
    assert code == 1
    assert "unknown path" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, needle",
    [
        ({"resolution": {"N": 16, "steps_per_unit": 1000}}, "unknown resolution key 'steps_per_unit'"),
        ({"tolerances": {"distance": 1e-4, "energy": 1e-6}}, "unknown tolerance 'energy'"),
        ({"resoltion": {"N": 8}}, "unknown config key 'resoltion'"),
    ],
    ids=["resolution-key", "tolerance-name", "config-key"],
)
def test_config_rejects_unknown_settings(tmp_path, capsys, entry, needle):
    cfg = write_config(tmp_path, dict({"manifold": {"kind": "euclidean", "dim": 2}}, **entry))
    assert cli.main(["energy", "--config", cfg]) == 1
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, needle",
    [
        ({"manifold": {"kind": "sphere", "radius": "abc"}},
         "sphere radius must be a positive finite number (got 'abc')"),
        ({"manifold": {"kind": "euclidean", "dim": 2.7}}, "euclidean dim must be an integer >= 1"),
        ({"manifold": {"kind": "sphere", "radius": 1.0, "dim": 3}}, "unknown sphere parameter 'dim' (known: radius)"),
        ({"manifold": "sphere"}, "manifold must be a JSON object"),
        ({"interval": ["a", 1]}, "interval must be a number (got 'a')"),
        ({"interval": [0, float("nan")]}, "interval must be a finite number (got nan)"),
        ({"interval": [0, 1, 2]}, "interval must be a pair (a, b) (got 3 values)"),
        ({"interval": 3}, "interval must be a pair (a, b) (got 1 values)"),
        ({"interval": "ab"}, "interval must be a number (got 'ab')"),
        ({"resolution": {"N": "abc"}}, "resolution N must be an integer >= 1 (got 'abc')"),
        ({"tolerances": {"distance": "x"}}, "tolerance 'distance' must be a number (got 'x')"),
        ({"paths": "abc"}, "config paths must be a JSON object (got str)"),
        ({"paths": {"a": 3}}, "path 'a' must be a JSON object"),
        ({"fields": {"f": [1]}}, "field 'f' must be a JSON object"),
    ],
    ids=["string-radius", "fractional-dim", "foreign-parameter", "manifold-string",
         "string-interval", "nan-interval", "triple-interval", "number-interval", "string-as-interval",
         "string-N", "string-tolerance", "paths-string",
         "path-number", "field-list"],
)
def test_config_bad_values_name_the_file(tmp_path, capsys, entry, needle):
    cfg = write_config(tmp_path, dict({"manifold": {"kind": "euclidean", "dim": 2}}, **entry))
    assert cli.main(["energy", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % cfg)
    assert needle in err


@pytest.mark.parametrize(
    "path, needle",
    [({"samples": [[0, 0], [1]]}, "bad parameters ("), ({"samples": "abc"}, "samples must be a number (got 'abc')")],
    ids=["ragged-samples", "string-samples"],
)
def test_bad_path_values_name_the_path(tmp_path, capsys, path, needle):
    cfg = write_config(tmp_path, {"manifold": {"kind": "euclidean", "dim": 2}, "paths": {"a": path}})
    assert cli.main(["energy", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: path 'a': " + needle)


@pytest.mark.parametrize(
    "argv",
    [
        ["worldsheet", "--config", "c.json", "--seed", "1"],
        ["distance", "--config", "c.json", "--seed", "1"],
        ["energy", "--config", "c.json", "--seed", "1"],
        ["backtrack", "--input", "p.json", "--seed", "1"],
        ["compose", "f.json", "g.json", "--seed", "1"],
        ["distance", "--config", "c.json", "--format", "csv"],
        ["energy", "--config", "c.json", "--format", "csv"],
        ["backtrack", "--input", "p.json", "--format", "csv"],
        ["compose", "f.json", "g.json", "--format", "csv"],
        ["check", "--suite", "manifold", "--format", "csv"],
    ],
    ids=lambda argv: "%s%s" % (argv[0], argv[-2]),
)
def test_seed_and_format_only_where_they_act(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-4], ids=["nan", "inf", "negative"])
def test_config_rejects_a_bad_distance_tolerance(tmp_path, capsys, tol):
    cfg = write_config(tmp_path, {"manifold": {"kind": "euclidean", "dim": 2}, "tolerances": {"distance": tol}})
    assert cli.main(["energy", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % cfg)
    assert "tolerance 'distance' must be finite and nonnegative" in err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["compose", "f.json", "g.json", "--config", "c.json"], "unrecognized arguments: --config c.json"),
        (["backtrack", "--input", "p.json", "--config", "c.json"], "argument --config: not allowed with argument --input"),
        (["backtrack", "--windows"], "one of the arguments --input --config is required"),
    ],
    ids=["compose", "backtrack-input", "backtrack-neither"],
)
def test_config_only_where_it_is_read(capsys, argv, needle):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, needle",
    [
        ({"generator": "spiral"}, "unknown generator 'spiral'"),
        ({"generator": "constant_in_chart"}, "components"),
    ],
    ids=["unknown-generator", "constant-without-components"],
)
def test_field_generator_errors_name_the_field(tmp_path, capsys, field, needle):
    cfg = write_config(
        tmp_path,
        {
            "manifold": {"kind": "euclidean", "dim": 2},
            "paths": {"base": {"generator": "line", "start": [0, 0], "end": [1, 0]}},
            "fields": {"wind": dict(field, path="base")},
            "resolution": {"N": 16, "S": 4},
        },
    )
    assert cli.main(["worldsheet", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "field 'wind'" in err
    assert needle in err


def test_seventeen_digit_float_format():
    third = 1.0 / 3.0
    text = ser.format_float(third)
    assert float(text) == third
    assert ser.format_float(0.5) == "0.5"
    assert ser.dumps({"a": 1.0 / 3.0}) == '{"a": %s}\n' % text


@pytest.mark.parametrize(
    "argv, bad, needle",
    [
        (["backtrack", "--input", "missing.json"], "missing.json", "cannot read"),
        (["backtrack", "--input", "notjson.json"], "notjson.json", "is not valid JSON"),
        (["backtrack", "--input", "nosamples.json"], "nosamples.json", "path needs the key 'samples'"),
        (["compose", "notjson.json", "x.json"], "notjson.json", "is not valid JSON"),
        (["compose", "nopath.json", "nopath.json"], "nopath.json", "morphism1 needs the keys 'path', 'field', 'time'"),
    ],
    ids=["backtrack-missing", "backtrack-not-json", "backtrack-no-samples", "compose-not-json", "compose-no-path"],
)
def test_unreadable_input_files_are_errors_naming_the_file(tmp_path, capsys, argv, bad, needle):
    (tmp_path / "notjson.json").write_text("not json\n")
    (tmp_path / "nosamples.json").write_text(json.dumps({"manifold": {"kind": "euclidean", "dim": 2}}))
    (tmp_path / "nopath.json").write_text(json.dumps({"kind": "morphism1"}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(tmp_path / bad) in err
    assert needle in err


@pytest.mark.parametrize(
    "name, record",
    [("list.json", [1, 2]), ("nokind.json", {"path": {}, "time": 0.0})],
    ids=["not-an-object", "no-kind"],
)
def test_compose_names_the_file_of_a_non_morphism_record(tmp_path, capsys, name, record):
    bad = tmp_path / name
    bad.write_text(json.dumps(record))
    assert cli.main(["compose", str(bad), str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: %s: " % bad)


def test_worldsheet_calls_the_generators_on_the_path_module(tmp_path, monkeypatch):
    # the generator tables name their functions, so a wrapper set on the
    # module (as the benchmark tracer sets one) sees every call
    calls = []

    def wrapped(name):
        real = getattr(pth, name)
        monkeypatch.setattr(pth, name, lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs))

    wrapped("make_normal_field")
    wrapped("make_latitude_circle")
    config = write_config(
        tmp_path,
        {
            "manifold": {"kind": "sphere", "radius": 1.0},
            "paths": {"lat": {"generator": "latitude_circle", "colatitude": 1.0}},
            "fields": {"normal": {"generator": "normal_to_path", "path": "lat", "scale": 0.5}},
            "resolution": {"N": 32, "S": 4},
        },
    )
    assert cli.main(["worldsheet", "--config", config]) == 0
    assert calls == ["make_latitude_circle", "make_normal_field"]


@pytest.mark.parametrize("fmt", ["json", "csv", "obj"])
def test_worldsheet_formats_no_export_without_out(tmp_path, monkeypatch, capsys, fmt):
    # every export slab goes through _float_rows; this sheet is one block,
    # so no helper process formats a slab out of this one's sight
    rows, slabs = ser._float_rows, []

    def counting_rows(a, *args):
        slabs.append(a.size)
        return rows(a, *args)

    monkeypatch.setattr(ser, "_float_rows", counting_rows)
    argv = ["worldsheet", "--config", sphere_config(tmp_path), "--path", "eq", "--format", fmt]
    assert cli.main(argv) == 0
    # the summary holds only scalars, which format_float writes; no array was formatted
    assert slabs == []
    summary = capsys.readouterr().out
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert max(slabs) > 1
    assert capsys.readouterr().out == summary
    assert sorted(os.listdir(out)) == sorted(["summary.json", "worldsheet." + fmt])


def test_worldsheet_computes_the_sheet_energy_once(tmp_path, monkeypatch, capsys):
    # the summary's length comes from the energy it already holds
    real, sheets = ps.sheet_energy, []

    def spied(sheet):
        sheets.append(sheet)
        return real(sheet)

    monkeypatch.setattr(ps, "sheet_energy", spied)
    assert cli.main(["worldsheet", "--config", sphere_config(tmp_path), "--path", "eq"]) == 0
    assert len(sheets) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["energy"] == real(sheets[0])
    assert summary["length"] == ps.sheet_length(sheets[0])


@pytest.mark.parametrize(
    "entry, needle",
    [
        ({"resolution": {"N": 16, "S": 2.5}}, "resolution S must be an integer >= 1 (got 2.5)"),
        ({"resolution": {"N": 16.5}}, "resolution N must be an integer >= 1 (got 16.5)"),
        ({"resolution": {"N": 1e300}}, "resolution N must be an integer >= 1 (got 1e+300)"),
        ({"resolution": {"S": 0}}, "resolution S must be an integer >= 1 (got 0)"),
        ({"interval": [0, "1"]}, "interval must be a number (got '1')"),
        ({"interval": [False, 1]}, "interval must be a number (got False)"),
        ({"tolerances": {"distance": "1e-4"}}, "tolerance 'distance' must be a number (got '1e-4')"),
        ({"manifold": {"kind": "euclidean"}}, "euclidean needs the parameter 'dim'"),
    ],
    ids=["fractional-S", "fractional-N", "huge-N", "zero-S", "string-interval-end", "bool-interval",
         "string-tolerance", "missing-dim"],
)
def test_config_numbers_name_the_file_and_the_key(tmp_path, capsys, entry, needle):
    cfg = write_config(tmp_path, dict({"manifold": {"kind": "euclidean", "dim": 2}}, **entry))
    assert cli.main(["energy", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % cfg)
    assert needle in err


@pytest.mark.parametrize(
    "data, needle",
    [
        ({"paths": {}}, "config needs the key 'manifold'"),
        ([1], "config keys must be given as a JSON object (got list)"),
    ],
    ids=["no-manifold", "not-an-object"],
)
def test_a_config_without_its_manifold_is_named_by_the_key_rule(tmp_path, capsys, data, needle):
    # the one key rule of records: a config that is not an object has no keys
    # at all, so it does not lack only its manifold
    cfg = write_config(tmp_path, data)
    assert cli.main(["energy", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: %s: %s\n" % (cfg, needle)


@pytest.mark.parametrize(
    "entry, needle",
    [
        ({"manifold": {"kind": "sphere", "radius": 10**400}},
         "sphere radius must be a positive finite number (got a value beyond the float range)"),
        ({"interval": [0, 10**400]}, "interval must be a number (got a value beyond the float range)"),
    ],
    ids=["radius", "interval-end"],
)
def test_a_config_number_beyond_the_float_range_is_an_error(tmp_path, capsys, entry, needle):
    cfg = write_config(tmp_path, dict({"manifold": {"kind": "euclidean", "dim": 2}}, **entry))
    assert cli.main(["energy", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % cfg) and needle in err
    assert "Traceback" not in err


LATITUDE = {"generator": "latitude_circle", "colatitude": 1.0}
RAY = {"generator": "vertical_ray", "x": 0.0, "y_start": 1.0, "y_end": 2.0}
NOT_FINITE = {"inf": math.inf, "nan": math.nan}


@pytest.mark.parametrize(
    "manifold, path, scale, needle",
    [
        pytest.param("sphere", dict(LATITUDE, colatitude="x"), None,
                     "path 'a': colatitude must be a finite number (got 'x')", id="colatitude"),
        pytest.param("sphere", LATITUDE, "x", "field 'f': scale must be a finite number (got 'x')", id="scale"),
    ]
    + [
        pytest.param(manifold, dict(path, **{key: value}), None,
                     "path 'a': %s must be a finite number (got %r)" % (key, value), id="%s-%s" % (key, name))
        for manifold, path, keys in (("sphere", LATITUDE, ("colatitude", "fraction", "phase")),
                                     ("hyperbolic_half_plane", RAY, ("x",)))
        for key in keys
        for name, value in NOT_FINITE.items()
    ]
    + [
        pytest.param("sphere", LATITUDE, value, "field 'f': scale must be a finite number (got %r)" % value,
                     id="scale-" + name)
        for name, value in NOT_FINITE.items()
    ],
)
def test_generator_parameters_name_themselves(tmp_path, capsys, manifold, path, scale, needle):
    # a parameter that is not a finite number is named before numpy computes
    # with it: an inf or NaN was reported as a non-finite sample or field
    # value, after a numpy warning from sin, cos or multiply
    fields = {} if scale is None else {"f": {"generator": "normal_to_path", "path": "a", "scale": scale}}
    cfg = write_config(tmp_path, {"manifold": {"kind": manifold}, "paths": {"a": path}, "fields": fields,
                                  "resolution": {"N": 16, "S": 2}})
    assert cli.main(["worldsheet", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: %s\n" % needle


@pytest.mark.parametrize(
    "manifold, path, needle",
    [
        ({"kind": "euclidean", "dim": 2}, {"generator": "line", "start": "x", "end": [1, 0]},
         "start must be a number (got 'x')"),
        ({"kind": "euclidean", "dim": 2}, {"generator": "line", "start": [0, 0, 0], "end": [1, 0]},
         "start must be a list of 2 coordinates (got [0, 0, 0])"),
        ({"kind": "sphere"}, {"generator": "great_circle_arc", "start": [1, 0, 0], "end": [0, "y", 1]},
         "end must be a number (got 'y') at end[1]"),
        ({"kind": "sphere"}, {"generator": "great_circle_arc", "start": [1, 1, 0], "end": [0, 1, 0]},
         "start is off the sphere (|x| != radius)"),
    ],
    ids=["line-string", "line-3-vector", "arc-string-coordinate", "arc-off-sphere"],
)
def test_point_parameters_name_themselves(tmp_path, capsys, manifold, path, needle):
    cfg = write_config(tmp_path, {"manifold": manifold, "paths": {"a": path}})
    assert cli.main(["energy", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: path 'a': %s\n" % needle


def test_compose_across_manifolds_is_an_error(tmp_path, capsys):
    plane = checks._composable_triple(mf.ManifoldSpec.euclidean(2), np.random.default_rng(6), n=16)[0]
    ball = checks._composable_triple(mf.ManifoldSpec.sphere(1.0), np.random.default_rng(7), n=16)[0]
    g, f = tmp_path / "g.json", tmp_path / "f.json"
    g.write_text(ser.dumps(ser.morphism1_to_json(ball)))
    f.write_text(ser.dumps(ser.morphism1_to_json(plane)))
    assert cli.main(["compose", str(g), str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "different manifolds" in err
    assert "Traceback" not in err


def _compose_argv(tmp_path, records):
    """``pathgeo compose`` on the given morphism records, written to files."""
    files = [tmp_path / name for name in ("g.json", "f.json")]
    for file, record in zip(files, records):
        file.write_text(ser.dumps(record))
    return ["compose"] + [str(f) for f in files]


def test_compose_rejects_a_morphism2_record_with_a_sheet(tmp_path, capsys):
    m1, _, _ = checks._composable_triple(mf.ManifoldSpec.sphere(1.0), np.random.default_rng(9), n=16)
    F = cat.morphism2(m1, (0.0, 0.5), S=2)
    bad = dict(ser.morphism2_to_json(F), sheet=F.sheet.to_json())
    argv = _compose_argv(tmp_path, [ser.morphism2_to_json(cat.morphism2(m1, (0.5, 1.0), S=2)), bad])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: %s: unknown morphism2 key 'sheet' (known: kind, seed, s_nodes)\n" % argv[2]


def test_a_composite_record_round_trips_bit_equal(tmp_path, capsys):
    m1, _, _ = checks._composable_triple(mf.ManifoldSpec.sphere(1.0), np.random.default_rng(9), n=16)
    F, G = cat.morphism2(m1, (0.0, 0.5), S=2), cat.morphism2(m1, (0.5, 1.0), S=2)
    assert cli.main(_compose_argv(tmp_path, [ser.morphism2_to_json(G), ser.morphism2_to_json(F)])) == 0
    text = capsys.readouterr().out
    record = json.loads(text)
    assert sorted(record) == ["kind", "s_nodes", "seed"]
    back = ser.morphism2_from_json(record)
    assert ser.dumps(ser.morphism2_to_json(back)) == text
    expected = cat.compose2_vertical(G, F).sheet
    for name in ("s_nodes", "points", "velocities"):
        assert getattr(back.sheet, name).tobytes() == getattr(expected, name).tobytes()


@pytest.mark.parametrize("where", ["path record", "inline samples", "s-node", "morphism time"])
def test_record_numbers_go_through_the_number_rule(tmp_path, capsys, where):
    spec = mf.ManifoldSpec.euclidean(2)
    line = pth.make_line(spec, [0, 0], [1, 0], n=16)
    m1, m2, _ = checks._composable_triple(spec, np.random.default_rng(8), n=8)
    if where == "path record":
        record = json.loads(ser.dumps(line.to_json()))
        record["collar"] = "0.0625"
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(record))
        argv, needle = ["backtrack", "--input", str(pfile), "--canonical"], "collar must be a number (got '0.0625')"
    elif where == "inline samples":
        path = {"samples": line.samples.tolist(), "collar": "0.0625"}
        argv = ["energy", "--config", write_config(tmp_path, {"manifold": spec.to_json(), "paths": {"a": path}})]
        needle = "path 'a': collar must be a number (got '0.0625')"
    elif where == "s-node":
        records = [json.loads(ser.dumps(ser.morphism2_to_json(cat.morphism2(m1, ab, S=2))))
                   for ab in ((0.5, 1.0), (0.0, 0.5))]
        records[0]["s_nodes"][1] = "0.75"
        argv, needle = _compose_argv(tmp_path, records), "s_nodes must be a finite number (got '0.75')"
    else:
        records = [ser.morphism1_to_json(m) for m in (m2, m1)]
        records[0]["time"] = "0"
        argv, needle = _compose_argv(tmp_path, records), "time must be a finite number (got '0')"
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err


LINE = {"generator": "line", "start": [0, 0], "end": [1, 0]}


@pytest.mark.parametrize(
    "data, argv, message",
    [
        ({"paths": {"a": LINE}}, ["energy", "--path", "b"], "unknown path 'b' (have: a)"),
        ({"paths": {"a": {"start": [0, 0], "end": [1, 0]}}}, ["energy"],
         "path 'a' needs 'samples' or a known generator (great_circle_arc, latitude_circle, line, vertical_ray)"),
        ({"paths": {"a": LINE}, "fields": {"up": {"generator": "zero", "path": "a"}}},
         ["worldsheet", "--field", "down"], "unknown field 'down' (have: up)"),
        ({"paths": {"a": LINE}, "fields": {"f": {"generator": "zero"}}}, ["worldsheet"],
         "field 'f' needs a 'path' reference"),
        ({"paths": {"a": LINE}, "fields": {"f": {"path": "a"}}}, ["worldsheet"],
         "field 'f' needs a generator or inline 'components'"),
        ({}, ["energy"], "config defines no paths"),
    ],
    ids=["unknown-path", "path-without-generator", "unknown-field", "field-without-path",
         "field-without-generator", "no-paths"],
)
def test_config_entry_rules_are_one_error_line(tmp_path, capsys, data, argv, message):
    cfg = write_config(tmp_path, dict(data, manifold={"kind": "euclidean", "dim": 2}, resolution={"N": 16, "S": 2}))
    assert cli.main(argv + ["--config", cfg]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize(
    "paths, fields, message",
    [
        ({"a": {"samples": [["0", True], [1, 0]]}}, {}, "path 'a': samples must be a number (got '0') at samples[0][0]"),
        ({"a": {"samples": [[0, 0], [1, False]]}}, {}, "path 'a': samples must be a number (got False) at samples[1][1]"),
        ({"a": LINE}, {"f": {"path": "a", "components": [[0, 1]] * 16 + [[0, "1"]]}},
         "field 'f': components must be a number (got '1') at components[16][1]"),
    ],
    ids=["string-sample", "bool-sample", "string-component"],
)
def test_inline_samples_and_components_go_through_the_number_rule(tmp_path, capsys, paths, fields, message):
    # numpy read ["0", true] as [0.0, 1.0]
    cfg = write_config(tmp_path, {"manifold": {"kind": "euclidean", "dim": 2}, "paths": paths, "fields": fields,
                                  "resolution": {"N": 16, "S": 2}})
    assert cli.main(["worldsheet", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize(
    "section, pairs",
    [
        ("paths", [["a", LINE]]),
        ("fields", [["f", {"generator": "zero", "path": "a"}]]),
        ("resolution", [["N", 64], ["S", 4]]),
        ("tolerances", [["distance", 1e-6]]),
    ],
)
def test_a_config_section_given_as_a_list_of_pairs_is_rejected(tmp_path, capsys, section, pairs):
    # dict() read each pair as a key and its value
    data = {"manifold": {"kind": "euclidean", "dim": 2}, "paths": {"a": LINE}}
    cfg = write_config(tmp_path, dict(data, **{section: pairs}))
    assert cli.main(["energy", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: %s: config %s must be a JSON object (got list)\n" % (cfg, section)


def test_a_subcommand_without_its_config_is_one_error_line(capsys):
    assert cli.main(["energy"]) == 1
    assert capsys.readouterr().err == "error: this subcommand needs --config FILE\n"


@pytest.fixture(scope="module")
def morphism_records():
    """The record texts of a 1-morphism and of a 2-morphism over it."""
    m1, _, _ = checks._composable_triple(mf.ManifoldSpec.sphere(1.0), np.random.default_rng(9), n=16)
    return {"1": ser.dumps(ser.morphism1_to_json(m1)),
            "2": ser.dumps(ser.morphism2_to_json(cat.morphism2(m1, (0.0, 0.5), S=2)))}


@pytest.mark.parametrize(
    "kinds, message",
    [
        ("12", "cannot mix 1-morphism and 2-morphism files"),
        ("222", "compose needs exactly two or four morphism files"),
        ("2212", "exchange check needs four 2-morphism files"),
    ],
    ids=["mixed-pair", "three-files", "exchange-with-a-1-morphism"],
)
def test_compose_of_a_wrong_set_of_files_is_one_error_line(tmp_path, capsys, morphism_records, kinds, message):
    files = [tmp_path / ("%d.json" % k) for k in range(len(kinds))]
    for file, kind in zip(files, kinds):
        file.write_text(morphism_records[kind])
    assert cli.main(["compose"] + [str(f) for f in files]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
