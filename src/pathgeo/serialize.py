"""Deterministic serialization: JSON, CSV, and OBJ export, streamed.

All floating-point values are written in decimal with 17 significant
digits, which round-trips IEEE doubles exactly, and JSON object keys are
sorted, so identical inputs produce byte-identical files. One row
formatter, ``_rows``, writes every array: each 2-d slab along axis 0 goes
through one %-format call of a repeated row template (JSON, CSV, OBJ vertex
or face), after one finiteness check per array (per fiber for a sheet's
CSV rows).

Each format is one generator of text pieces (``json_pieces``,
``path_csv_pieces``, ``sheet_csv_pieces``, ``sheet_obj_pieces``) that
yields at most one formatted slab at a time, so a sheet is written fiber by
fiber and its whole text never exists in memory: ``dump(obj, fh)`` writes
the JSON pieces to a file, and ``dumps``, ``path_to_csv``, ``sheet_to_csv``
and ``sheet_to_obj`` join the same pieces into one string.

A large sheet export (a rank-3 array of at least ``_POOL_FLOATS`` floats:
the points and velocities of a sheet's JSON, its OBJ vertices, the fibers
of its CSV) formats its slabs in worker processes, one per CPU this process
may run on, through the ordered fork map ``_forkmap.fork_map``. The slabs
come back in order, one piece each, so the text is byte-identical to a
serial run; smaller arrays and records are formatted here.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from . import category as cat
from . import manifold as mf
from . import path as pth
from .manifold import DomainError
from .path import DiscretePath, PathTangentField
from .pathspace import Worldsheet
from ._forkmap import fork_map

_FLOAT = "%.17g"
# A rank-3 array of at least this many floats is formatted in worker
# processes. Measured on 2 vCPU, writing the JSON, CSV and OBJ exports of a
# sphere sheet with S = 64 to a file (median of 6, serial -> pooled): at
# 50k floats (N = 256) the pool is slower (JSON 0.073 -> 0.125 s), from
# 100k to 150k it breaks even, at 200k (N = 1024) it wins for every format
# (JSON 0.32 -> 0.24 s), and at 800k (N = 4096) JSON takes 1.11 -> 0.65 s.
_POOL_FLOATS = 150_000


def format_float(x):
    """Decimal representation with 17 significant digits (exact round-trip)."""
    return "".join(_rows(_finite(np.array([[float(x)]])), _FLOAT, ""))


def _finite(a):
    """``a``, after one check that every entry is finite."""
    bad = a[~np.isfinite(a)]
    if bad.size:
        raise DomainError("cannot serialize NaN" if np.isnan(bad[0]) else "cannot serialize infinity")
    return a


def _joined(parts, sep, open_="", close=""):
    """Pieces of ``open_ + sep.join(parts) + close``, each part an iterable
    of pieces."""
    yield open_
    for i, part in enumerate(parts):
        if i:
            yield sep
        yield from part
    yield close


def _slabs(pieces, n, pooled):
    """``pieces(j)``, an iterable of text pieces, for each j < ``n``, in
    order. If ``pooled``, each is joined into one piece in a worker process
    (``_forkmap.fork_map``, which sends a worker only ``j``), else its
    pieces are drawn here."""
    if not pooled:
        return map(pieces, range(n))
    return ([text] for text in fork_map(lambda j: "".join(pieces(j)), n))


def _pooled(a):
    """Whether the 2-d slabs of ``a`` are formatted in worker processes: a
    rank-3 array of at least ``_POOL_FLOATS`` floats."""
    return a.ndim == 3 and a.size >= _POOL_FLOATS


def _rows(a, template, sep):
    """Rows of ``a`` through ``template`` (one slot per column), joined by
    ``sep``: one piece, from one format call, per 2-d slab along axis 0."""
    if a.ndim > 2:
        yield from _joined(_slabs(lambda j: _rows(a[j], template, sep), len(a), _pooled(a)), sep)
    else:
        yield sep.join([template] * len(a)) % tuple(a.ravel())


def _json_floats(a):
    """Pieces of the nested JSON lists of a finite float array of rank >= 1."""
    if a.ndim > 2:
        yield from _joined(_slabs(lambda j: _json_floats(a[j]), len(a), _pooled(a)), ", ", "[", "]")
        return
    rows = _rows(np.atleast_2d(a), "[" + ", ".join([_FLOAT] * a.shape[-1]) + "]", ", ")
    yield from rows if a.ndim == 1 else _joined([rows], "", "[", "]")


def _json(obj):
    """Pieces of the JSON text of ``obj``, without the final newline."""
    if isinstance(obj, dict):
        members = (itertools.chain([json.dumps(str(k)) + ": "], _json(v)) for k, v in sorted(obj.items()))
        yield from _joined(members, ", ", "{", "}")
        return
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim:
            yield from _json_floats(_finite(obj))
            return
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        yield from _joined(map(_json, obj), ", ", "[", "]")
    elif isinstance(obj, (bool, np.bool_)):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield format_float(obj)
    elif obj is None:
        yield "null"
    elif isinstance(obj, str):
        yield json.dumps(obj)
    else:
        raise DomainError("cannot serialize %r" % type(obj).__name__)


def json_pieces(obj):
    """Pieces of the deterministic JSON text of ``obj`` (sorted keys,
    17-significant-digit floats, final newline)."""
    yield from _json(obj)
    yield "\n"


def dump(obj, fh):
    """Write the JSON text of ``obj`` to the text file ``fh``, one piece at
    a time; the file receives exactly ``dumps(obj)``."""
    for piece in json_pieces(obj):
        fh.write(piece)


def dumps(obj):
    """Deterministic JSON text (sorted keys, 17-significant-digit floats)."""
    return "".join(json_pieces(obj))


# ---------------------------------------------------------------------------
# CSV and OBJ
# ---------------------------------------------------------------------------


def _csv(head, dim, slab, n, pooled=False):
    """Header ``head``,x1,...,x``dim``, then a line per row of each 2-d slab
    ``slab(j)``, j < ``n`` (see ``_slabs`` for ``pooled``)."""
    names = head + ["x%d" % (k + 1) for k in range(dim)]
    template = ",".join([_FLOAT] * len(names))
    rows = _slabs(lambda j: _rows(_finite(slab(j)), template, "\n"), n, pooled)
    return _joined(rows, "\n", ",".join(names) + "\n", "\n")


def path_csv_pieces(gamma):
    """Pieces of ``path_to_csv(gamma)``."""
    return _csv(["t"], gamma.manifold.point_dim, lambda j: np.column_stack([gamma.grid, gamma.samples]), 1)


def path_to_csv(gamma):
    """Rows t,x1,...,xd with a header line."""
    return "".join(path_csv_pieces(gamma))


def sheet_csv_pieces(sheet):
    """Pieces of ``sheet_to_csv(sheet)``, one fiber at a time: the s,t,x
    rows of a fiber are built only when its piece is formatted."""
    n = sheet.n_t_segments
    t = np.arange(n + 1) / n

    def fiber(j):
        return np.column_stack([np.full(n + 1, sheet.s_nodes[j]), t, sheet.points[j]])

    return _csv(["s", "t"], sheet.manifold.point_dim, fiber, len(sheet.s_nodes), _pooled(sheet.points))


def sheet_to_csv(sheet):
    """Rows s,t,x1,...,xd with a header line, s-major order."""
    return "".join(sheet_csv_pieces(sheet))


def sheet_obj_pieces(sheet):
    """Pieces of ``sheet_to_obj(sheet)``, one fiber (or one strip of faces)
    at a time: the face indices of a strip are built only when its piece
    is drawn."""
    if not sheet.manifold.embedded_3d:
        raise DomainError("OBJ export needs an embedded 3d manifold (euclidean(3) or sphere)")
    n = sheet.n_t_segments
    a = np.arange(n) + 1  # OBJ indices are 1-based
    strip = np.stack([a, a + 1, a + (n + 1) + 1, a + (n + 1)], axis=-1)
    faces = (_rows(strip + j * (n + 1), "f %d %d %d %d", "\n") for j in range(sheet.n_s_segments))
    vertices = _rows(_finite(sheet.points), " ".join(["v"] + [_FLOAT] * 3), "\n")
    parts = [vertices, _joined(faces, "\n")] if sheet.n_s_segments else [vertices]
    return _joined(parts, "\n", "", "\n")


def sheet_to_obj(sheet):
    """Quad mesh over the (s, t) grid in embedding coordinates.

    Available for manifolds whose stored coordinates are an embedding in
    3-space: euclidean(3) and the sphere.
    """
    return "".join(sheet_obj_pieces(sheet))


# ---------------------------------------------------------------------------
# morphism records
# ---------------------------------------------------------------------------


def morphism1_to_json(m):
    return {
        "kind": "morphism1",
        "path": m.path.to_json(),
        "field": m.field.components,
        "time": float(m.time),
    }


def morphism1_from_json(obj):
    base = DiscretePath.from_json(obj["path"])
    field = PathTangentField(base, np.array(obj["field"], dtype=float))
    return cat.GeodMorphism1(field, mf.as_number("time", obj["time"]))


def morphism2_to_json(F):
    return {
        "kind": "morphism2",
        "seed": morphism1_to_json(F.seed),
        "sheet": F.sheet.to_json(),
    }


def morphism2_from_json(obj):
    """The 2-morphism of the record's seed over its sheet's s-nodes; the
    record's sheet must be that geodesic, node for node."""
    sheet = Worldsheet.from_json(obj["sheet"])
    F = cat.GeodMorphism2(morphism1_from_json(obj["seed"]), sheet.s_nodes)
    gaps = pth.node_gaps(cat._sheet_nodes(F.sheet), cat._sheet_nodes(sheet))
    off, (j, i) = pth.worst_node(gaps > mf.COINCIDENCE_TOL)
    if off:
        raise DomainError("sheet node (s=%d, t=%d) is not on the geodesic of the seed" % (j, i))
    return F


def morphism_from_json(obj):
    if not isinstance(obj, dict):
        raise DomainError("a morphism record is a JSON object, not %s" % type(obj).__name__)
    kind = obj.get("kind")
    if kind == "morphism1":
        return morphism1_from_json(obj)
    if kind == "morphism2":
        return morphism2_from_json(obj)
    raise DomainError("unknown morphism record kind %r" % (kind,))
