"""Deterministic serialization: JSON, CSV, and OBJ export.

All floating-point values are written in decimal with 17 significant
digits, which round-trips IEEE doubles exactly, and JSON object keys are
sorted, so identical inputs produce byte-identical files. One row
formatter, ``_rows``, writes every array: each 2-d slab along axis 0 goes
through one %-format call of a repeated row template (JSON, CSV, OBJ vertex
or face), after one finiteness check per array.
"""

from __future__ import annotations

import json

import numpy as np

from . import category as cat
from .manifold import DomainError
from .path import DiscretePath, PathTangentField
from .pathspace import Worldsheet

_FLOAT = "%.17g"


def format_float(x):
    """Decimal representation with 17 significant digits (exact round-trip)."""
    return _rows(_finite(np.array([[float(x)]])), _FLOAT, "")


def _finite(a):
    """``a``, after one check that every entry is finite."""
    bad = a[~np.isfinite(a)]
    if bad.size:
        raise DomainError("cannot serialize NaN" if np.isnan(bad[0]) else "cannot serialize infinity")
    return a


def _rows(a, template, sep):
    """Rows of ``a`` through ``template`` (one slot per column), joined by
    ``sep``: one format call per 2-d slab along axis 0."""
    if a.ndim > 2:
        return sep.join(_rows(slab, template, sep) for slab in a)
    return sep.join([template] * len(a)) % tuple(a.ravel())


def _json_floats(a):
    """Nested JSON lists of a finite float array of rank >= 1."""
    if a.ndim > 2:
        return "[" + ", ".join(_json_floats(slab) for slab in a) + "]"
    text = _rows(np.atleast_2d(a), "[" + ", ".join([_FLOAT] * a.shape[-1]) + "]", ", ")
    return text if a.ndim == 1 else "[" + text + "]"


def _emit(obj):
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _emit(v) for k, v in items) + "}"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim:
            return _json_floats(_finite(obj))
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise DomainError("cannot serialize %r" % type(obj).__name__)


def dumps(obj):
    """Deterministic JSON text (sorted keys, 17-significant-digit floats)."""
    return _emit(obj) + "\n"


# ---------------------------------------------------------------------------
# CSV and OBJ
# ---------------------------------------------------------------------------


def _csv(head, table):
    """Header ``head``,x1,...,xd, then a line per row of ``table`` (2-d or 3-d)."""
    names = head + ["x%d" % (k + 1) for k in range(table.shape[-1] - len(head))]
    template = ",".join([_FLOAT] * len(names))
    return ",".join(names) + "\n" + _rows(_finite(table), template, "\n") + "\n"


def path_to_csv(gamma):
    """Rows t,x1,...,xd with a header line."""
    return _csv(["t"], np.column_stack([gamma.grid, gamma.samples]))


def sheet_to_csv(sheet):
    """Rows s,t,x1,...,xd with a header line, s-major order."""
    n = sheet.n_t_segments
    s, t = np.meshgrid(sheet.s_nodes, np.arange(n + 1) / n, indexing="ij")
    return _csv(["s", "t"], np.dstack([s, t, sheet.points]))


def sheet_to_obj(sheet):
    """Quad mesh over the (s, t) grid in embedding coordinates.

    Available for manifolds whose stored coordinates are an embedding in
    3-space: euclidean(3) and the sphere.
    """
    if not sheet.manifold.embedded_3d:
        raise DomainError("OBJ export needs an embedded 3d manifold (euclidean(3) or sphere)")
    n = sheet.n_t_segments
    a = np.arange(sheet.n_s_segments)[:, None] * (n + 1) + np.arange(n) + 1  # OBJ indices are 1-based
    faces = np.stack([a, a + 1, a + (n + 1) + 1, a + (n + 1)], axis=-1)
    vertices = _rows(_finite(sheet.points), " ".join(["v"] + [_FLOAT] * 3), "\n")
    return "\n".join(filter(None, [vertices, _rows(faces, "f %d %d %d %d", "\n")])) + "\n"


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
    return cat.GeodMorphism1(base, field, float(obj["time"]))


def morphism2_to_json(F):
    return {
        "kind": "morphism2",
        "seed": morphism1_to_json(F.seed),
        "sheet": F.sheet.to_json(),
    }


def morphism2_from_json(obj):
    return cat.GeodMorphism2(morphism1_from_json(obj["seed"]), Worldsheet.from_json(obj["sheet"]))


def morphism_from_json(obj):
    kind = obj.get("kind")
    if kind == "morphism1":
        return morphism1_from_json(obj)
    if kind == "morphism2":
        return morphism2_from_json(obj)
    raise DomainError("unknown morphism record kind %r" % (kind,))
