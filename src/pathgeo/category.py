"""Worldsheet morphisms and their two compositions.

Objects are (point, tangent vector, time) triples. Each morphism stores
only what determines it: a 1-morphism is a tangent field along a path
(its base) with a time label, and a 2-morphism is its seed 1-morphism and
its s-nodes, from which its geodesic worldsheet segment is built.
Vertical composition extends a geodesic segment in time; horizontal
composition joins the seeds end to end. The composition of 1-morphisms
keeps the appended-sample representative (strictly associative on the
nose); equality of 1-morphisms is always decided through canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backtrack as bt
from . import manifold as mf
from . import path as pth
from . import pathspace as ps
from .manifold import DomainError
from .path import DiscretePath, PathTangentField
from .pathspace import Worldsheet

SEED_TOL = 1e-6  # "same seed" tolerance for vertical composability
INTERVAL_TOL = 1e-12  # interval ends closer than this are equal


class CompositionError(DomainError):
    """Morphisms do not satisfy the composability conditions."""


def _composing(check, *args):
    """``check(*args)`` (``path.node_gaps`` or the field base rule), with a
    DomainError it raises (a manifold or grid mismatch, or a field off its
    path) raised as a CompositionError."""
    try:
        return check(*args)
    except DomainError as err:
        raise CompositionError(str(err)) from None


def _field_nodes(field, i=slice(None)):
    """Node i of a path tangent field (all nodes by default) for ``node_gaps``."""
    return field.manifold, field.base.samples[i], field.components[i]


def _sheet_nodes(sheet, j=slice(None)):
    """The s-slice j of a sheet (all of it by default) for ``node_gaps``."""
    return sheet.manifold, sheet.points[j], sheet.velocities[j]


@dataclass(frozen=True)
class GeodObject:
    point: mf.ManifoldPoint
    vector: mf.TangentVector
    time: float

    def __post_init__(self):
        mf._check_same_base(self.point, self.vector)
        object.__setattr__(self, "time", mf.as_number("time", self.time, finite=True))


@dataclass(frozen=True)
class GeodMorphism1:
    field: PathTangentField
    time: float

    def __post_init__(self):
        object.__setattr__(self, "time", mf.as_number("time", self.time, finite=True))

    @property
    def path(self) -> DiscretePath:
        return self.field.base


@dataclass(frozen=True)
class GeodMorphism2:
    seed: GeodMorphism1
    s_nodes: np.ndarray
    sheet: Worldsheet = field(init=False, repr=False)  # the seed's geodesic over the s-nodes

    def __post_init__(self):
        path, comps = self.seed.path, self.seed.field.components
        sheet = ps.build_sheet(path.manifold, path.samples, comps, self.s_nodes, path.collar)
        object.__setattr__(self, "sheet", sheet)

    @property
    def interval(self):
        return self.sheet.interval


def morphism1(path, field, time):
    """The 1-morphism of ``field`` at ``time``; ``field`` must be based on ``path``."""
    _composing(ps._check_field_on, path, field)
    return GeodMorphism1(field, time)


def identity1(obj, n=pth.DEFAULT_GRID):
    """The constant-path morphism at an object."""
    base = pth.make_constant_path(obj.point, n)
    comps = np.tile(obj.vector.components, (n + 1, 1))
    return GeodMorphism1(PathTangentField(base, comps), obj.time)


def src1(m):
    return GeodObject(m.path.start(), m.field.vector(0), m.time)


def tgt1(m):
    return GeodObject(m.path.end(), m.field.vector(-1), m.time)


def compose1(g, f):
    """Composition g after f: append paths and fields, keep the time label.

    Requires tgt1(f) = src1(g): matching endpoint, matching field value
    there, identical times (times are labels and compared exactly).
    """
    if f.time != g.time:
        raise CompositionError("time labels differ: %r vs %r" % (f.time, g.time))
    gap = float(_composing(pth.node_gaps, _field_nodes(f.field, -1), _field_nodes(g.field, 0)))
    if gap > mf.COINCIDENCE_TOL:
        raise CompositionError("endpoints and their field values do not meet (gap %.3g)" % gap)
    joined = pth.concatenate(f.path, g.path)
    comps = np.concatenate([f.field.components, g.field.components[1:]])
    return GeodMorphism1(PathTangentField(joined, comps), f.time)


def morphism1_equal(m1, m2, tol=1e-6):
    """Equality in the quotient: canonical forms built on a common grid
    agree node-wise and the time labels match exactly."""
    mf._require_tol(tol)
    n = max(m1.path.n_segments, m2.path.n_segments)
    f1 = bt.field_canonical_form(m1.field, n)
    f2 = bt.field_canonical_form(m2.field, n)
    gap = np.max(_composing(pth.node_gaps, _field_nodes(f1), _field_nodes(f2)))
    return bool(gap <= tol and m1.time == m2.time)


# ---------------------------------------------------------------------------
# 2-morphisms
# ---------------------------------------------------------------------------


def morphism2(seed, interval, S=16):
    """Geodesic worldsheet segment over the interval, seeded at s = 0."""
    return GeodMorphism2(seed, ps.s_grid(interval, S))


def identity2(seed):
    """The degenerate segment over [a, a]; neutral for vertical composition."""
    return morphism2(seed, (seed.time, seed.time))


def _slice_morphism(F, j, time):
    return GeodMorphism1(F.sheet.slice_field(j), time)


def src2(F):
    a, _ = F.interval
    return _slice_morphism(F, 0, a)


def tgt2(F):
    _, b = F.interval
    return _slice_morphism(F, -1, b)


def compose2_vertical(G, F):
    """Extension in time: F over [a,b] followed by G over [b,c].

    Composability (src2(G) = tgt2(F)) forces the two segments to belong to
    one geodesic, so the composite is re-derived from F's seed over [a,c];
    its restrictions reproduce F and G node for node.
    """
    a, b = F.interval
    b2, c = G.interval
    if abs(b2 - b) > INTERVAL_TOL:
        raise CompositionError("intervals do not abut: [%g,%g] then [%g,%g]" % (a, b, b2, c))
    gap, i = pth.worst_node(_composing(pth.node_gaps, _sheet_nodes(G.sheet, 0), _sheet_nodes(F.sheet, -1)))
    if gap > SEED_TOL:
        raise CompositionError("segments are not one geodesic (seed gap %.3g at t-node %d)" % (gap, i))
    return GeodMorphism2(F.seed, np.concatenate([F.sheet.s_nodes, G.sheet.s_nodes[1:]]))


def compose2_horizontal(F, G):
    """Sideways join: F over gamma1 first, then G over gamma2, same interval.

    The composite is the geodesic segment seeded by the composed
    1-morphism; its boundary fibers agree with the shared fiber of F and G.
    """
    (a, b), (c, d) = F.interval, G.interval
    if abs(a - c) > INTERVAL_TOL or abs(b - d) > INTERVAL_TOL:
        raise CompositionError("horizontal composition needs equal intervals")
    return GeodMorphism2(compose1(G.seed, F.seed), F.sheet.s_nodes)  # F's path first, then G's


def sheet_discrepancy(A, B):
    """Max node-wise gap between two sheets (points and velocities).

    Returns (value, (j, i)) with the worst s/t node indices.
    """
    return pth.worst_node(_composing(pth.node_gaps, _sheet_nodes(A.sheet), _sheet_nodes(B.sheet)))


@dataclass(frozen=True)
class ExchangeReport:
    passed: bool
    max_discrepancy: float
    failing_node: tuple | None
    error: str | None = None

    def to_json(self):
        return {
            "passed": self.passed,
            "max_discrepancy": self.max_discrepancy,
            "failing_node": list(self.failing_node) if self.failing_node else None,
            "error": self.error,
        }


def check_exchange(F1, G1, F2, G2, tol=mf.COINCIDENCE_TOL):
    """Both evaluation orders of (G1*F1) x (G2*F2); reports the worst node.

    F1, F2 live over [a,b] and G1, G2 over [b,c]; 1 and 2 index the two
    horizontally composable seeds. Composability failures are reported,
    not raised; a bad ``tol`` is.
    """
    mf._require_tol(tol)
    try:
        lhs = compose2_horizontal(compose2_vertical(G1, F1), compose2_vertical(G2, F2))
        rhs = compose2_vertical(compose2_horizontal(G1, G2), compose2_horizontal(F1, F2))
        gap, node = sheet_discrepancy(lhs, rhs)
    except CompositionError as err:
        return ExchangeReport(False, float("nan"), None, str(err))
    return ExchangeReport(gap <= tol, gap, node)
