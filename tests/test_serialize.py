"""The array writers of ``serialize`` against the per-element writers they
replaced (kept below as the reference), their streamed pieces against
their strings, plus the finiteness check, copying ``from_json`` and its
unknown-key rule."""

import fractions
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import digit_groups

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


def test_a_rank_4_and_an_empty_3d_array_match():
    # each goes through the nested lists of its sub-arrays, not the blocks
    # of fibers of a nonempty 3-d array
    record = {
        "rank4": np.arange(48.0).reshape(2, 2, 3, 4) / 7.0,
        "empty_fibers": np.zeros((2, 0, 3)),
        "no_fibers": np.zeros((0, 2, 3)),
    }
    assert ser.dumps(record) == ref_dumps(listed(record))
    assert ser.dumps(record["empty_fibers"]) == "[[], []]\n"


def test_the_digit_tables_equal_their_string_oracle():
    # the library builds the 20,000 digit groups with numpy arithmetic; the
    # oracle formats each one as a Python string
    groups = ser._digit_tables()[0]
    want = digit_groups()
    assert groups.dtype == want.dtype and groups.shape == want.shape == (20000,)
    assert groups.tobytes() == want.tobytes()


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


def sphere_sheet(n):
    """The S = 64 sheet of a latitude circle at N = n and its normal field."""
    circle = pth.make_latitude_circle(mf.ManifoldSpec.sphere(1.0), 1.0, n=n)
    return ps.pathspace_geodesic(circle, pth.make_normal_field(circle, 0.5), (0.0, 1.0), 64)


def test_large_sheet_is_written_one_fiber_at_a_time():
    # N = 4096, S = 64: 35 MB of JSON, 22 MB of CSV, 24 MB of OBJ; one fiber
    # of points is about 0.3 MB of text. A block of fibers holds at most
    # _BLOCK_NODES nodes, or one fiber: at N = 256 it is 15 fibers, about as
    # much text as one fiber at N = 4096
    for n, size in ((4096, 20_000_000), (256, 1_000_000)):
        sheet = sphere_sheet(n)
        json_log = WriteLog(keep=False)
        ser.dump(sheet.to_json(), json_log)
        logs = {
            "json": json_log,
            "csv": streamed(ser.sheet_csv_pieces(sheet), keep=False),
            "obj": streamed(ser.sheet_obj_pieces(sheet), keep=False),
        }
        for name, log in logs.items():
            assert log.size > size, (n, name)
            assert log.largest <= 1 << 20, (n, name)


def test_blocks_of_fibers_match_the_per_element_writer():
    # N = 256, S = 64: blocks of 4096 // 257 = 15 fibers, so four full blocks
    # and one of 5; the JSON block text holds the fiber boundary ]], [[
    sheet = sphere_sheet(256)
    assert ps._BLOCK_NODES // 257 == 15
    record = sheet.to_json()
    assert ser.dumps(record) == ref_dumps(listed(record))
    assert ser.sheet_to_obj(sheet) == ref_sheet_to_obj(sheet)


def test_a_sheet_export_formats_one_block_of_fibers_per_call(monkeypatch, tmp_path, helpers):
    # the deferred slabs are formatted in this process and in the export
    # helper, so every call appends its process and slab shape to one file
    sheet = sphere_sheet(256)
    rows, log = ser._float_rows, tmp_path / "slabs"

    def logged(a, *args):
        with open(log, "a") as fh:
            fh.write("%d %d %d\n" % ((os.getpid(),) + a.shape))
        return rows(a, *args)

    def calls():
        lines = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        log.unlink()
        return {line[0] for line in lines}, sorted(line[1:] for line in lines)

    monkeypatch.setattr(ser, "_float_rows", logged)
    ser.dumps(sheet.to_json())
    # points and velocities: five blocks each; s_nodes: one row. One call per
    # fiber made 131
    processes, shapes = calls()
    assert len(shapes) <= 11
    assert shapes == sorted([(1, 65)] + 2 * ([(15 * 257, 3)] * 4 + [(5 * 257, 3)]))
    ser.sheet_to_obj(sheet)
    more, shapes = calls()
    # the vertices in the same five blocks, and the faces in four blocks of
    # 16 strips of 256 faces (one slab per strip made 64)
    assert shapes == sorted([(15 * 257, 3)] * 4 + [(5 * 257, 3)] + [(16 * 256, 4)] * 4)
    # this process and the one helper of each export, on more than one CPU
    assert len(helpers) == 2 * (len(os.sched_getaffinity(0)) > 1)
    assert processes | more <= {os.getpid()} | set(helpers)


@pytest.mark.parametrize("n, fibers, strips", [(64, [63, 2], [64]), (256, [15] * 4 + [5], [16] * 4)])
def test_every_sheet_export_formats_the_blocks_of_the_sheet_kernels(n, fibers, strips, monkeypatch):
    # one block walk for every export: the slabs of the JSON points and
    # velocities, of the CSV rows and of the OBJ vertices are the blocks of
    # _blocks over the 65 fibers of N + 1 nodes, and the slabs of the OBJ
    # faces its blocks over the 64 strips of N faces. On one CPU no helper
    # forks, so every slab is formatted here, in order
    sheet = sphere_sheet(n)
    assert [b.stop - b.start for b in ps._blocks(0, 65, n + 1)] == fibers
    assert [b.stop - b.start for b in ps._blocks(0, 64, n)] == strips
    rows, shapes = ser._float_rows, []

    def logged(a, *args):
        shapes.append(a.shape)
        return rows(a, *args)

    monkeypatch.setattr(ser, "_float_rows", logged)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    points = [(k * (n + 1), 3) for k in fibers]
    for export, expected in [
        (lambda: ser.dumps(sheet.to_json()), points + [(1, 65)] + points),  # points, s_nodes, velocities
        (lambda: ser.sheet_to_csv(sheet), [(k * (n + 1), 5) for k in fibers]),
        (lambda: ser.sheet_to_obj(sheet), points + [(k * n, 4) for k in strips]),
    ]:
        shapes.clear()
        export()
        assert shapes == expected


def test_failed_export_leaves_no_partial_file(tmp_path):
    sheet = sheets(mf.ManifoldSpec.sphere(1.0), SEED + 5)["S5"]
    sheet.velocities.flags.writeable = True  # a sheet is read-only; this one is spoilt on purpose
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


def test_a_pooled_csv_export_stops_at_the_same_fiber():
    sheet = sphere_sheet(4096)  # 798,915 floats per rank-3 array
    sheet.points.flags.writeable = True  # a sheet is read-only; this one is spoilt on purpose
    sheet.points[40, 7, 0] = np.nan
    pieces = []
    with pytest.raises(DomainError, match="cannot serialize NaN"):
        pieces.extend(ser.sheet_csv_pieces(sheet))
    # the points are checked whole before the first slab: no piece is drawn
    assert pieces == []


# ---------------------------------------------------------------------------
# the slab formatter against %.17g, one value at a time
# ---------------------------------------------------------------------------

ROW_TEMPLATES = {
    "json": ("[%.17g, %.17g, %.17g]", ", "),
    "csv": ("%.17g,%.17g,%.17g", "\n"),
    "obj": ("v %.17g %.17g %.17g", "\n"),
}


def per_value(a, template, sep):
    """The reference: each value through ``"%.17g" % v`` on its own, in the
    literal text of the row template."""
    texts = template.split("%.17g")
    rows = np.asarray(a, dtype=float).reshape(len(a), -1).tolist()
    return sep.join("".join(t + "%.17g" % v for t, v in zip(texts, row)) + texts[-1] for row in rows)


def dyadic_ties():
    """For each exponent X in -4..15, values n / 2**(17 - X) with n odd: their
    17th significant digit is followed by exactly 5, so %.17g rounds half to
    even."""
    ties = []
    for X in range(-4, 16):
        p = 16 - X
        n = math.ceil(10.0**X * 2 ** (p + 1)) | 1
        ties += [m / 2 ** (p + 1) for m in (n, n + 2, n + 2 * (n // 3))]
    return ties


def edge_values():
    powers = [10.0**p for p in range(-6, 18)]
    values = [0.0, 5e-324, 1e-320, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-5, 1e-4, 1e308,
              1.7976931348623157e308, 1234567890123456.75, 0.1, 1.0 / 3.0, 2.5, 99999999999999999.0]
    values += powers + [float(np.nextafter(p, d)) for p in powers for d in (0.0, np.inf)] + dyadic_ties()
    return values + [-v for v in values]


def test_dyadic_ties_are_ties():
    for v in dyadic_ties():
        X = math.floor(math.log10(v))
        scaled = fractions.Fraction(v) * 10 ** (16 - X)
        assert scaled.denominator == 2 and 10**16 <= scaled < 10**17, v


@pytest.mark.parametrize("name", sorted(ROW_TEMPLATES))
def test_edge_values_format_as_percent_g(name):
    template, sep = ROW_TEMPLATES[name]
    values = edge_values()
    a = np.array(values[: len(values) // 3 * 3]).reshape(-1, 3)
    assert ser._float_rows(a, template, sep) == per_value(a, template, sep)
    def slab(block):
        return ser._float_rows(a[None][block].reshape(-1, 3), template, sep)

    assert "".join(ser._text(ser._blocked(1, len(a), slab, sep))) == per_value(a, template, sep)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=90),
       st.sampled_from(sorted(ROW_TEMPLATES)))
def test_hypothesis_floats_format_as_percent_g(values, name):
    template, sep = ROW_TEMPLATES[name]
    a = np.array(values + [0.0] * (-len(values) % 3)).reshape(-1, 3)
    assert ser._float_rows(a, template, sep) == per_value(a, template, sep)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=300))
def test_hypothesis_bit_patterns_format_as_percent_g(words):
    a = np.array(words, dtype=np.uint64).view(np.float64)
    a = a[np.isfinite(a)]
    a = a[: len(a) // 3 * 3].reshape(-1, 3)
    for template, sep in ROW_TEMPLATES.values():
        assert ser._float_rows(a, template, sep) == per_value(a, template, sep)


def test_random_values_of_every_exponent_format_as_percent_g():
    rng = np.random.default_rng(SEED)
    a = rng.uniform(-1.0, 1.0, 60_000) * 10.0 ** rng.integers(-8, 20, 60_000)
    a = np.concatenate([a, np.round(a, 3), np.round(a, -2)]).reshape(-1, 3)
    for template, sep in ROW_TEMPLATES.values():
        assert ser._float_rows(a, template, sep) == per_value(a, template, sep)


def test_float32_strided_and_wide_slabs_format_as_percent_g():
    rng = np.random.default_rng(SEED + 6)
    base = rng.standard_normal((40, 6))
    cases = [
        (base.astype(np.float32)[:, :3], ROW_TEMPLATES["csv"]),
        (base[::3, ::-2], ROW_TEMPLATES["json"]),
        (base[:, 1:4], ROW_TEMPLATES["obj"]),
        # a sheet's s-nodes: one row of 65
        (np.linspace(0.0, 1.0, 65)[None], ("[" + ", ".join(["%.17g"] * 65) + "]", ", ")),
        # literals longer than one 4-byte unit
        (base[:, :2], ("<<%.17g>>--<<%.17g>>", " | ")),
    ]
    for a, (template, sep) in cases:
        assert ser._float_rows(a, template, sep) == per_value(a, template, sep)
    s_nodes = np.linspace(0.0, 1.0, 65)
    assert ser.dumps(s_nodes) == ref_dumps(s_nodes.tolist())


def test_format_float_formats_its_scalar_directly(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a scalar went through the slab formatter")

    monkeypatch.setattr(ser, "_float_rows", no_rows)
    for v in edge_values():
        assert ser.format_float(v) == "%.17g" % v
    assert ser.format_float(np.float32(0.1)) == "%.17g" % float(np.float32(0.1))
    assert ser.dumps({"a": 0.5, "b": [1.5, -0.0]}) == '{"a": 0.5, "b": [1.5, -0]}\n'
    for bad, message in [(math.nan, "NaN"), (math.inf, "infinity"), (-math.inf, "infinity")]:
        with pytest.raises(DomainError, match="^cannot serialize %s$" % message):
            ser.format_float(bad)


# ---------------------------------------------------------------------------
# finiteness
# ---------------------------------------------------------------------------


def test_the_first_non_finite_value_in_c_order_names_the_error():
    a = np.zeros((3, 4))
    a[1, 2], a[2, 0] = np.inf, np.nan
    with pytest.raises(DomainError, match="^cannot serialize infinity$"):
        ser.dumps(a)
    a[1, 2], a[2, 0] = np.nan, -np.inf
    with pytest.raises(DomainError, match="^cannot serialize NaN$"):
        ser.dumps(a)
    with pytest.raises(DomainError, match="^cannot serialize infinity$"):
        ser.dumps(a.T)  # C order of the array as given: -inf at (0, 2) comes first
    ok = np.ones((2, 3))
    assert ser._finite(ok) is ok


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


@pytest.mark.parametrize("value", [object(), {1.0}, 1j], ids=["object", "set", "complex"])
def test_dumps_names_a_type_it_cannot_serialize(value):
    with pytest.raises(DomainError, match="^cannot serialize '%s'$" % type(value).__name__):
        ser.dumps({"x": [0.5, value]})


def test_csv_and_obj_reject_non_finite_floats():
    spec = mf.ManifoldSpec.sphere(1.0)
    sheet = sheets(spec, SEED + 2)["S5"]
    sheet.points.flags.writeable = True  # a sheet is read-only; this one is spoilt on purpose
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


# ---------------------------------------------------------------------------
# record readers: a key a reader does not know is an error naming it
# ---------------------------------------------------------------------------


def _misspelt(record, key, typo):
    """``record`` with ``key`` written as ``typo``."""
    record = dict(record)
    record[typo] = record.pop(key)
    return record


@pytest.mark.parametrize(
    "reader, bad, needle",
    [
        (pth.DiscretePath.from_json, lambda m1, sheet: _misspelt(m1.path.to_json(), "collar", "colar"),
         "unknown path key 'colar' (known: manifold, collar, samples)"),
        (pth.PathTangentField.from_json, lambda m1, sheet: dict(m1.field.to_json(), scale=2.0),
         "unknown field key 'scale' (known: base, components)"),
        (ps.Worldsheet.from_json, lambda m1, sheet: _misspelt(sheet.to_json(), "collar", "colar"),
         "unknown worldsheet key 'colar'"),
        (ser.morphism_from_json, lambda m1, sheet: dict(ser.morphism1_to_json(m1), tme=1.0),
         "unknown morphism1 key 'tme' (known: kind, path, field, time)"),
        (pth.DiscretePath.from_json, lambda m1, sheet: "abc", "path keys must be given as a JSON object (got str)"),
    ],
    ids=["path", "field", "worldsheet", "morphism1", "path-not-an-object"],
)
def test_a_record_with_an_unknown_key_is_rejected(reader, bad, needle):
    # without the check, a misspelt optional key (collar) read back as its default
    spec = mf.ManifoldSpec.sphere(1.0)
    with pytest.raises(DomainError) as exc:
        reader(bad(seed_morphism(spec, SEED), sheets(spec, SEED + 1)["S5"]))
    assert needle in str(exc.value)


def _without(record, key):
    record = dict(record)
    del record[key]
    return record


@pytest.mark.parametrize(
    "reader, bad, needle",
    [
        (pth.DiscretePath.from_json, lambda m1, sheet: _without(m1.path.to_json(), "samples"),
         "path needs the key 'samples'"),
        (pth.PathTangentField.from_json, lambda m1, sheet: _without(m1.field.to_json(), "base"),
         "field needs the key 'base'"),
        (ps.Worldsheet.from_json, lambda m1, sheet: _without(sheet.to_json(), "velocities"),
         "worldsheet needs the key 'velocities'"),
        (ser.morphism_from_json, lambda m1, sheet: _without(ser.morphism1_to_json(m1), "time"),
         "morphism1 needs the key 'time'"),
        (ser.morphism_from_json,
         lambda m1, sheet: _without(_without(ser.morphism2_to_json(cat.identity2(m1)), "seed"), "s_nodes"),
         "morphism2 needs the keys 'seed', 's_nodes'"),
    ],
    ids=["path", "field", "worldsheet", "morphism1", "morphism2"],
)
def test_a_record_without_a_required_key_is_rejected(reader, bad, needle):
    # without the check, each raised a bare KeyError naming only the key
    spec = mf.ManifoldSpec.sphere(1.0)
    with pytest.raises(DomainError) as exc:
        reader(bad(seed_morphism(spec, SEED), sheets(spec, SEED + 1)["S5"]))
    assert str(exc.value) == needle


def _with_seed_kind(record, kind):
    return dict(record, seed=dict(record["seed"], kind=kind))


@pytest.mark.parametrize(
    "reader, bad, needle",
    [
        (ser.morphism_from_json, lambda m2: dict(m2, s_nodes=3), "s_nodes must be a list of numbers (got 3)"),
        (ser.morphism_from_json, lambda m2: dict(m2, s_nodes="0.5"),
         "s_nodes must be a list of numbers (got '0.5')"),
        (ser.morphism1_from_json, lambda m2: dict(m2["seed"], kind="morphism2"),
         "morphism1 record kind must be 'morphism1' (got 'morphism2')"),
        (ser.morphism_from_json, lambda m2: _with_seed_kind(m2, "morphism2"),
         "morphism1 record kind must be 'morphism1' (got 'morphism2')"),
        (ser.morphism_from_json, lambda m2: _with_seed_kind(m2, None),
         "morphism1 record kind must be 'morphism1' (got None)"),
    ],
    ids=["s_nodes-number", "s_nodes-string", "morphism1-kind", "seed-kind", "seed-kind-null"],
)
def test_a_record_value_of_the_wrong_kind_is_rejected(reader, bad, needle):
    # an s_nodes number was a bare TypeError, and a seed of any kind was read
    m2 = ser.loads(ser.dumps(ser.morphism2_to_json(cat.identity2(seed_morphism(mf.ManifoldSpec.sphere(1.0), SEED)))))
    with pytest.raises(DomainError) as exc:
        reader(bad(m2))
    assert str(exc.value) == needle


# ---------------------------------------------------------------------------
# record round trips, fuzzed: bits back, unknown and missing keys named
# ---------------------------------------------------------------------------

# each record type: its object within a 2-morphism, its writer, its reader
# and the keys its reader requires
RECORDS = {
    "path": (lambda m2: m2.seed.path, pth.DiscretePath.to_json, pth.DiscretePath.from_json,
             ("manifold", "samples")),
    "field": (lambda m2: m2.seed.field, pth.PathTangentField.to_json, pth.PathTangentField.from_json,
              ("base", "components")),
    "worldsheet": (lambda m2: m2.sheet, ps.Worldsheet.to_json, ps.Worldsheet.from_json,
                   ("manifold", "s_nodes", "points", "velocities")),
    "morphism1": (lambda m2: m2.seed, ser.morphism1_to_json, ser.morphism1_from_json,
                  ("kind", "path", "field", "time")),
    "morphism2": (lambda m2: m2, ser.morphism2_to_json, ser.morphism2_from_json, ("kind", "seed", "s_nodes")),
}


def bits(x):
    """Everything a record object holds, with each float as its exact bits."""
    if isinstance(x, (ps.Worldsheet, pth.DiscretePath, pth.PathTangentField, cat.GeodMorphism1, cat.GeodMorphism2)):
        return type(x).__name__, bits(vars(x))
    if isinstance(x, mf.ManifoldSpec):
        return bits(x.to_json())
    if isinstance(x, dict):
        return tuple((k, bits(v)) for k, v in sorted(x.items()))
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    if isinstance(x, float):
        return float.hex(x)
    return x


def test_loads_reads_back_the_sign_of_a_zero():
    # the writers write -0.0 as -0, which json.loads reads as the integer 0
    text = ser.dumps({"a": np.array([[-0.0, 0.0, 1.0]]), "n": 2, "t": -0.0})
    assert text == '{"a": [[-0, 0, 1]], "n": 2, "t": -0}\n'
    assert json.loads(text)["t"] == 0 and type(json.loads(text)["t"]) is int
    back = ser.loads(text)
    assert type(back["n"]) is int and back["n"] == 2
    assert float.hex(back["t"]) == "-0x0.0p+0"
    assert np.signbit(np.array(back["a"])).tolist() == [[True, False, False]]


@st.composite
def morphisms2(draw):
    """A 2-morphism of a random seed on a built-in manifold: its path, field,
    sheet and seed are the other four record types. Zero fields (of either
    sign, mixed by the random components) and a time of -0.0 are drawn
    often, so that a record writes ``-0``."""
    spec = draw(st.sampled_from(sorted(checks.builtin_manifolds().items())))[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    collar = draw(st.sampled_from([0.0, pth.DEFAULT_COLLAR]))
    gamma = checks.random_collared_path(spec, rng, n=draw(st.sampled_from([4, 8, 16])), collar=collar)
    scale = draw(st.sampled_from([1.0, 0.0, -0.0]))
    field = pth.PathTangentField(gamma, scale * checks.random_collared_field(gamma, rng).components)
    a = draw(st.one_of(st.just(-0.0), st.floats(-1.0, 1.0)))
    b = draw(st.floats(a, 1.0))
    seed = cat.GeodMorphism1(field, a)
    return cat.morphism2(seed, (a, b), S=draw(st.integers(1, 6)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(morphisms2(), st.sampled_from(sorted(RECORDS)), st.data())
def test_hypothesis_records_round_trip_and_name_bad_keys(m2, kind, data):
    part, write, read, required = RECORDS[kind]
    x = part(m2)
    record = ser.loads(ser.dumps(write(x)))
    assert bits(read(record)) == bits(x)

    extra = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in record), label="extra key")
    with pytest.raises(DomainError, match=r"^unknown %s key %s \(known: " % (kind, re.escape(repr(extra)))):
        read(dict(record, **{extra: 0.0}))

    dropped = data.draw(st.sampled_from(required), label="dropped key")
    with pytest.raises(DomainError, match=r"^%s needs the key %s$" % (kind, re.escape(repr(dropped)))):
        read(_without(record, dropped))
