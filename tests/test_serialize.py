"""The array writers of ``serialize`` against the per-element writers they
replaced (kept below as the reference), their streamed pieces against
their strings, plus the finiteness check and copying ``from_json``."""

import json
import math
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from pathgeo import category as cat
from pathgeo import checks, cli
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo import serialize as ser
from pathgeo.manifold import DomainError

SEED = 2718


# ---------------------------------------------------------------------------
# reference: one Python call per float, on records built with .tolist()
# ---------------------------------------------------------------------------


def ref_emit(obj):
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(json.dumps(str(k)) + ": " + ref_emit(v) for k, v in items) + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(ref_emit(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return ser.format_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise DomainError("cannot serialize %r" % type(obj).__name__)


def ref_dumps(obj):
    return ref_emit(obj) + "\n"


def listed(obj):
    """A record as the old ``to_json`` built it: nested lists, no arrays."""
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def ref_path_to_csv(gamma):
    d = gamma.manifold.point_dim
    lines = ["t," + ",".join("x%d" % (k + 1) for k in range(d))]
    for t, row in zip(gamma.grid, gamma.samples):
        lines.append(",".join([ser.format_float(t)] + [ser.format_float(v) for v in row]))
    return "\n".join(lines) + "\n"


def ref_sheet_to_csv(sheet):
    d = sheet.manifold.point_dim
    lines = ["s,t," + ",".join("x%d" % (k + 1) for k in range(d))]
    n = sheet.n_t_segments
    ts = np.arange(n + 1) / n
    for s, fiber in zip(sheet.s_nodes, sheet.points):
        for t, row in zip(ts, fiber):
            lines.append(",".join([ser.format_float(s), ser.format_float(t)] + [ser.format_float(v) for v in row]))
    return "\n".join(lines) + "\n"


def ref_sheet_to_obj(sheet):
    S = sheet.n_s_segments
    n = sheet.n_t_segments
    lines = []
    for fiber in sheet.points:
        for x, y, z in fiber:
            lines.append("v %s %s %s" % (ser.format_float(x), ser.format_float(y), ser.format_float(z)))
    for j in range(S):
        for i in range(n):
            a = j * (n + 1) + i + 1
            lines.append("f %d %d %d %d" % (a, a + 1, a + (n + 1) + 1, a + (n + 1)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

MODELS = dict(checks.builtin_manifolds(), euclidean3=mf.ManifoldSpec.euclidean(3))


def seed_morphism(spec, seed, n=16):
    rng = np.random.default_rng(seed)
    gamma = checks.random_collared_path(spec, rng, n=n)
    return cat.GeodMorphism1(checks.random_collared_field(gamma, rng), 0.0)


def sheets(spec, seed):
    """A swept sheet (S = 5) and the degenerate identity sheet (S = 0)."""
    m1 = seed_morphism(spec, seed)
    return {"S5": cat.morphism2(m1, (0.0, 1.0), S=5).sheet, "S0": cat.identity2(m1).sheet}


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request):
    spec = MODELS[request.param]
    return spec, seed_morphism(spec, SEED), sheets(spec, SEED + 1)


# ---------------------------------------------------------------------------
# the array writers match the per-element writers byte for byte
# ---------------------------------------------------------------------------


def records(m1, by_s):
    """Every record kind: path, field, both morphisms, swept and identity sheets."""
    return [
        m1.path.to_json(),
        m1.field.to_json(),
        ser.morphism1_to_json(m1),
        ser.morphism2_to_json(cat.morphism2(m1, (0.0, 0.5), S=3)),
        ser.morphism2_to_json(cat.identity2(m1)),
    ] + [sheet.to_json() for sheet in by_s.values()]


def edge_record():
    values = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.0 / 3.0, 0.1, 1e16, 123456789.0])
    return {
        "values": values,
        "column": values[:, None],
        "cube": np.arange(24.0).reshape(2, 3, 4) / 7.0,
        "strided": np.arange(20.0).reshape(4, 5)[::2, ::-2] / 3.0,
        "float32": values[[0, 5, 6]].astype(np.float32),
        "empty": np.zeros(0),
        "no_rows": np.zeros((0, 3)),
        "no_columns": np.zeros((3, 0)),
        "scalar": np.float64(0.25),
        "zero_d": np.array(1.0 / 7.0),
        "ints": np.arange(4).reshape(2, 2),
        "bools": np.array([True, False]),
        "nested": [values[:2], (1.5, 2)],
    }


def test_records_match_the_per_element_writer(model):
    spec, m1, by_s = model
    for record in records(m1, by_s):
        assert ser.dumps(record) == ref_dumps(listed(record))


def test_csv_matches_the_per_element_writer(model):
    spec, m1, by_s = model
    assert ser.path_to_csv(m1.path) == ref_path_to_csv(m1.path)
    for sheet in by_s.values():
        assert ser.sheet_to_csv(sheet) == ref_sheet_to_csv(sheet)


def test_obj_matches_the_per_element_writer(model):
    spec, _, by_s = model
    if not spec.embedded_3d:
        with pytest.raises(DomainError):
            ser.sheet_to_obj(by_s["S5"])
        return
    for sheet in by_s.values():
        assert ser.sheet_to_obj(sheet) == ref_sheet_to_obj(sheet)
    # S = 0: vertices only, no face lines
    assert "\nf " not in ser.sheet_to_obj(by_s["S0"])


def test_torus_tuple_parameters_match():
    spec = mf.ManifoldSpec.flat_torus([1.0, 2.5])
    assert isinstance(spec.to_json()["circumferences"], tuple)
    gamma = pth.make_line(spec, [0.1, 0.2], [0.4, 1.0], n=16)
    assert ser.dumps(gamma.to_json()) == ref_dumps(listed(gamma.to_json()))


def test_edge_values_and_shapes_match():
    record = edge_record()
    assert ser.dumps(record) == ref_dumps(listed(record))


# ---------------------------------------------------------------------------
# streaming: the writers emit the same bytes one slab at a time
# ---------------------------------------------------------------------------


class WriteLog:
    """A text sink that keeps what it was given and its largest write."""

    def __init__(self, keep=True):
        self.keep = keep
        self.parts = []
        self.largest = 0
        self.writes = 0
        self.size = 0

    def write(self, piece):
        self.largest = max(self.largest, len(piece))
        self.writes += 1
        self.size += len(piece)
        if self.keep:
            self.parts.append(piece)

    def text(self):
        return "".join(self.parts)


def streamed(pieces, keep=True):
    fh = WriteLog(keep)
    for piece in pieces:
        fh.write(piece)
    return fh


def test_dump_writes_what_dumps_returns(model):
    spec, m1, by_s = model
    for record in records(m1, by_s) + [edge_record()]:
        fh = WriteLog()
        ser.dump(record, fh)
        assert fh.text() == ser.dumps(record) == ref_dumps(listed(record))
        assert fh.writes > 1


def test_streamed_csv_and_obj_match_their_strings(model):
    spec, m1, by_s = model
    assert streamed(ser.path_csv_pieces(m1.path)).text() == ser.path_to_csv(m1.path) == ref_path_to_csv(m1.path)
    for sheet in by_s.values():
        assert streamed(ser.sheet_csv_pieces(sheet)).text() == ser.sheet_to_csv(sheet) == ref_sheet_to_csv(sheet)
        if spec.embedded_3d:
            obj = streamed(ser.sheet_obj_pieces(sheet)).text()
            assert obj == ser.sheet_to_obj(sheet) == ref_sheet_to_obj(sheet)
    if not spec.embedded_3d:
        with pytest.raises(DomainError):
            ser.sheet_obj_pieces(by_s["S5"])


def test_large_sheet_is_written_one_fiber_at_a_time():
    # N = 4096, S = 64: 35 MB of JSON, 22 MB of CSV, 24 MB of OBJ; one fiber
    # of points is about 0.3 MB of text
    circle = pth.make_latitude_circle(mf.ManifoldSpec.sphere(1.0), 1.0, n=4096)
    sheet = ps.pathspace_geodesic(circle, pth.make_normal_field(circle, 0.5), (0.0, 1.0), 64)
    json_log = WriteLog(keep=False)
    ser.dump(sheet.to_json(), json_log)
    logs = {
        "json": json_log,
        "csv": streamed(ser.sheet_csv_pieces(sheet), keep=False),
        "obj": streamed(ser.sheet_obj_pieces(sheet), keep=False),
    }
    for name, log in logs.items():
        assert log.size > 20_000_000, name
        assert log.largest <= 1 << 20, name


def test_failed_export_leaves_no_partial_file(tmp_path):
    sheet = sheets(mf.ManifoldSpec.sphere(1.0), SEED + 5)["S5"]
    sheet.velocities[-1, -1, 0] = np.nan  # velocities are the last key written
    drawn = []

    def export():
        for piece in ser.json_pieces(sheet.to_json()):
            drawn.append(piece)
            yield piece

    with pytest.raises(DomainError, match="NaN"):
        cli._write(str(tmp_path), "worldsheet.json", export())
    assert "".join(drawn).count("[") > 100  # the points were written before the failure
    assert os.listdir(tmp_path) == []
    target = tmp_path / "worldsheet.json"
    target.write_text("earlier export\n")
    with pytest.raises(DomainError, match="NaN"):
        cli._write(str(tmp_path), "worldsheet.json", export())
    assert os.listdir(tmp_path) == ["worldsheet.json"]
    assert target.read_text() == "earlier export\n"
    assert cli._write(str(tmp_path), "worldsheet.json", ser.json_pieces({"a": 1.5})) == str(target)
    assert target.read_text() == '{"a": 1.5}\n'
    assert os.listdir(tmp_path) == ["worldsheet.json"]


def large_sheet():
    """N = 4096, S = 64: its rank-3 arrays are formatted in worker processes."""
    circle = pth.make_latitude_circle(mf.ManifoldSpec.sphere(1.0), 1.0, n=4096)
    return ps.pathspace_geodesic(circle, pth.make_normal_field(circle, 0.5), (0.0, 1.0), 64)


def _timeout(signum, frame):
    raise TimeoutError("the export did not return")


def test_a_dead_export_worker_raises_and_leaves_no_partial_file(tmp_path, monkeypatch):
    parent, child_calls = os.getpid(), []
    rows = ser._rows

    def dying_rows(a, template, sep):
        if os.getpid() != parent:
            child_calls.append(1)
            if len(child_calls) == 5:  # each worker dies on its fifth slab
                os._exit(3)
        return rows(a, template, sep)

    monkeypatch.setattr(ser, "_rows", dying_rows)
    drawn = []

    def export():
        for piece in ser.json_pieces(large_sheet().to_json()):
            drawn.append(piece)
            yield piece

    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            cli._write(str(tmp_path), "worldsheet.json", export())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert max(map(len, drawn)) > 100_000  # a slab came back before the worker died
    assert os.listdir(tmp_path) == []


def test_a_pooled_csv_export_stops_at_the_same_fiber(monkeypatch):
    sheet = large_sheet()
    sheet.points[40, 7, 0] = np.nan
    drawn = []
    for limit in (ser._POOL_FLOATS, math.inf):  # pooled, then in-process
        monkeypatch.setattr(ser, "_POOL_FLOATS", limit)
        pieces = []
        with pytest.raises(DomainError, match="cannot serialize NaN"):
            pieces.extend(ser.sheet_csv_pieces(sheet))
        drawn.append("".join(pieces))
    # the header and fibers 0 to 39, of 4097 rows each
    assert drawn[0].count("\n") == 1 + 40 * 4097 - 1
    assert drawn[0] == drawn[1]


# ---------------------------------------------------------------------------
# finiteness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad, message", [(np.nan, "NaN"), (np.inf, "infinity"), (-np.inf, "infinity")])
@pytest.mark.parametrize("shape", [None, (3,), (2, 3), (2, 3, 2)], ids=["scalar", "1d", "2d", "3d"])
def test_dumps_rejects_non_finite_floats(bad, message, shape):
    if shape is None:
        record = {"x": bad}
    else:
        a = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
        a[(-1,) * len(shape)] = bad
        record = {"x": a}
    with pytest.raises(DomainError, match=message):
        ser.dumps(record)


def test_csv_and_obj_reject_non_finite_floats():
    spec = mf.ManifoldSpec.sphere(1.0)
    sheet = sheets(spec, SEED + 2)["S5"]
    sheet.points[2, 3, 1] = np.nan
    for writer in (ser.sheet_to_csv, ser.sheet_to_obj):
        with pytest.raises(DomainError, match="NaN"):
            writer(sheet)


# ---------------------------------------------------------------------------
# from_json copies: a round trip never aliases the source arrays
# ---------------------------------------------------------------------------


def test_round_trips_do_not_share_memory():
    spec = mf.ManifoldSpec.sphere(1.0)
    m1 = seed_morphism(spec, SEED + 3)
    sheet = sheets(spec, SEED + 4)["S5"]
    path = pth.DiscretePath.from_json(m1.path.to_json())
    field = pth.PathTangentField.from_json(m1.field.to_json())
    back = ps.Worldsheet.from_json(sheet.to_json())
    pairs = [
        (path.samples, m1.path.samples),
        (field.components, m1.field.components),
        (field.base.samples, m1.field.base.samples),
        (back.s_nodes, sheet.s_nodes),
        (back.points, sheet.points),
        (back.velocities, sheet.velocities),
    ]
    for copy, source in pairs:
        assert np.array_equal(copy, source)
        assert not np.shares_memory(copy, source)
    m1_back = ser.morphism1_from_json(ser.morphism1_to_json(m1))
    assert not np.shares_memory(m1_back.field.components, m1.field.components)
