"""Deterministic serialization: JSON, CSV, and OBJ export.

All floating-point values are written in decimal with 17 significant
digits, which round-trips IEEE doubles exactly, and JSON object keys are
sorted, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .manifold import DomainError
from .path import DiscretePath, PathTangentField
from .pathspace import Worldsheet


def format_float(x):
    """Decimal representation with 17 significant digits (exact round-trip)."""
    x = float(x)
    if x != x:
        raise DomainError("cannot serialize NaN")
    if x in (float("inf"), float("-inf")):
        raise DomainError("cannot serialize infinity")
    return "%.17g" % x


def _emit(obj):
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _emit(v) for k, v in items) + "}"
    if isinstance(obj, np.ndarray):
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
# CSV
# ---------------------------------------------------------------------------


def path_to_csv(gamma):
    """Rows t,x1,...,xd with a header line."""
    d = gamma.manifold.point_dim
    lines = ["t," + ",".join("x%d" % (k + 1) for k in range(d))]
    ts = gamma.grid
    for t, row in zip(ts, gamma.samples):
        lines.append(",".join([format_float(t)] + [format_float(v) for v in row]))
    return "\n".join(lines) + "\n"


def sheet_to_csv(sheet):
    """Rows s,t,x1,...,xd with a header line, s-major order."""
    d = sheet.manifold.point_dim
    lines = ["s,t," + ",".join("x%d" % (k + 1) for k in range(d))]
    n = sheet.n_t_segments
    ts = np.arange(n + 1) / n
    for s, fiber in zip(sheet.s_nodes, sheet.points):
        for t, row in zip(ts, fiber):
            lines.append(
                ",".join([format_float(s), format_float(t)] + [format_float(v) for v in row])
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------


def sheet_to_obj(sheet):
    """Quad mesh over the (s, t) grid in embedding coordinates.

    Available for manifolds whose stored coordinates are an embedding in
    3-space: euclidean(3) and the sphere.
    """
    if not sheet.manifold.embedded_3d:
        raise DomainError("OBJ export needs an embedded 3d manifold (euclidean(3) or sphere)")
    S = sheet.n_s_segments
    n = sheet.n_t_segments
    lines = []
    for fiber in sheet.points:
        for x, y, z in fiber:
            lines.append("v %s %s %s" % (format_float(x), format_float(y), format_float(z)))
    for j in range(S):
        for i in range(n):
            a = j * (n + 1) + i + 1  # OBJ indices are 1-based
            b = a + 1
            c = a + (n + 1) + 1
            d = a + (n + 1)
            lines.append("f %d %d %d %d" % (a, b, c, d))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# morphism records
# ---------------------------------------------------------------------------


def morphism1_to_json(m):
    return {
        "kind": "morphism1",
        "path": m.path.to_json(),
        "field": m.field.components.tolist(),
        "time": float(m.time),
    }


def morphism1_from_json(obj):
    from . import category as cat

    base = DiscretePath.from_json(obj["path"])
    field = PathTangentField(base, np.asarray(obj["field"], dtype=float))
    return cat.GeodMorphism1(base, field, float(obj["time"]))


def morphism2_to_json(F):
    return {
        "kind": "morphism2",
        "seed": morphism1_to_json(F.seed),
        "sheet": F.sheet.to_json(),
    }


def morphism2_from_json(obj):
    from . import category as cat

    return cat.GeodMorphism2(
        morphism1_from_json(obj["seed"]), Worldsheet.from_json(obj["sheet"])
    )


def morphism_from_json(obj):
    kind = obj.get("kind")
    if kind == "morphism1":
        return morphism1_from_json(obj)
    if kind == "morphism2":
        return morphism2_from_json(obj)
    raise DomainError("unknown morphism record kind %r" % (kind,))
