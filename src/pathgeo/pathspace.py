"""Geometry of the path space: L2 metric, worldsheets, distance.

A path of paths Gamma : [a,b] -> PM is a *worldsheet*: an (S+1) x (N+1)
grid of points with the fiber velocity dGamma/ds stored at every node.
Gamma is a path-space geodesic exactly when each transverse curve
Gamma_t (fixed t, varying s) is a geodesic on M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import manifold as mf
from . import path as pth
from .manifold import DomainError, NormalNeighborhoodError
from .path import DiscretePath, PathTangentField

# nodes per block of whole fibers: the sheet kernels (build_sheet,
# transverse_residual), the sheet checks (_check_nodes) and the export of a
# sheet's 3-d arrays (serialize._rows)
_BLOCK_NODES = 4096


@dataclass(frozen=True)
class Worldsheet:
    """An (S+1) x (N+1) grid of points on ``manifold`` with the fiber
    velocity at every node; each slice at fixed s is a path with the
    sheet's collar.

    A sheet is checked once, where it is built: its grid, and then what
    each slice's ``DiscretePath`` and the ``PathTangentField`` of its
    velocities would check, one block of whole fibers at a time
    (``_check_nodes``). So ``slice_path`` and ``slice_field`` check nothing
    again, and an error names the failing node (s=j, t=i). The sheet holds
    ``s_nodes``, ``points`` and ``velocities`` as read-only views of the
    arrays it was given, so what it checked cannot change under it.
    """

    manifold: mf.ManifoldSpec
    s_nodes: np.ndarray  # (S+1,)
    points: np.ndarray  # (S+1, N+1, d)
    velocities: np.ndarray  # (S+1, N+1, d)
    collar: float = 0.0

    def __post_init__(self):
        for name in ("s_nodes", "points", "velocities"):
            # a read-only view: the caller's array keeps its flags, and a
            # write through the sheet cannot reach the slices unchecked
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        s = self.s_nodes
        if s.ndim != 1 or not s.size or not np.all(np.isfinite(s)) or np.any(np.diff(s) <= 0):
            raise DomainError("s_nodes must be one or more finite, strictly increasing numbers")
        shape = self.points.shape
        if len(shape) != 3 or shape[::2] != (len(s), self.manifold.point_dim) or shape[1] < 3:
            raise DomainError("points must have shape (S+1, N+1, point_dim) with N >= 2, as a path")
        if shape != self.velocities.shape:
            raise DomainError("points and velocities must share a grid")
        if not (0.0 <= self.collar < 0.5):
            raise DomainError("collar must lie in [0, 1/2)")
        _check_nodes(self, self.velocities, "velocity at node (s=%d, t=%d)", points=True)

    @property
    def interval(self):
        return float(self.s_nodes[0]), float(self.s_nodes[-1])

    @property
    def n_s_segments(self):
        return len(self.s_nodes) - 1

    @property
    def n_t_segments(self):
        return self.points.shape[1] - 1

    def slice_path(self, j):
        """Longitudinal slice Gamma^{s_j} as a DiscretePath."""
        return _slice(self, j)

    def slice_field(self, j):
        """Fiber velocity at s_j as a tangent field on the slice."""
        return _slice(self, j, self.velocities[j].copy())

    def to_json(self):
        return {
            "manifold": self.manifold.to_json(),
            "s_nodes": self.s_nodes,
            "points": self.points,
            "velocities": self.velocities,
            "collar": self.collar,
        }

    @classmethod
    def from_json(cls, obj):
        required = ("manifold", "s_nodes", "points", "velocities")
        mf.only_keys("worldsheet key", obj, required + ("collar",), required)
        return cls(
            mf.ManifoldSpec.from_json(obj["manifold"]),
            np.array(obj["s_nodes"], dtype=float),
            np.array(obj["points"], dtype=float),
            np.array(obj["velocities"], dtype=float),
            mf.as_number("collar", obj.get("collar", 0.0)),
        )


def _check_nodes(sheet, vectors, label, points=False):
    """What the slices of ``sheet`` would check in their constructors,
    checked once over the sheet. ``vectors``, one per node, are tangent
    and, on each collar, equal to the vector at its end sample
    (``PathTangentField``). With ``points``, the sheet's points are checked
    too: they lie on the manifold and, on each collar, coincide with its
    end sample (``DiscretePath``). Both within ``COINCIDENCE_TOL``, at the
    wrapped points a slice holds. DomainError names the first failing node
    through ``label``, or ``node (s=%d, t=%d)`` for a point.

    Nodes are checked in blocks of whole fibers of at most ``_BLOCK_NODES``
    nodes, collars in blocks of at most ``_BLOCK_NODES`` collar nodes; a
    block is one fiber where a fiber holds more.
    """
    spec, n = sheet.manifold, sheet.n_t_segments
    node = "node (s=%d, t=%d)"

    def on_grid(block):
        x = spec.wrap(sheet.points[block])
        if points:
            spec.validate(x, node)
        spec.check_tangent(x, vectors[block], label)

    _in_blocks(sheet, n + 1, on_grid)
    if not sheet.collar > 0:
        return
    head, tail = (int(np.sum(mask)) for mask in pth._collar_masks(n, sheet.collar))
    # the nodes of each collar but its end sample, which they must match
    collars = [("start", slice(1, head), 0), ("end", slice(n + 1 - tail, n), n)]

    def on_collars(block):
        x, v = sheet.points[block], vectors[block]
        for name, nodes, end in collars:
            why = "is in the %s collar but %%s t=%d" % (name, end)
            if points:
                gaps = mf.dist(spec, spec.wrap(x[:, nodes]), spec.wrap(x[:, end, None]))
                _all_near(gaps <= mf.COINCIDENCE_TOL, nodes, n, node, why % "does not coincide with")
            near = (np.abs(v[:, nodes] - v[:, end, None]) <= mf.COINCIDENCE_TOL).all(axis=-1)
            _all_near(near, nodes, n, label, why % "differs from the one at")

    _in_blocks(sheet, head + tail, on_collars)


def _all_near(near, nodes, n, label, why):
    """DomainError naming the first node (s, t) of ``near``, a mask over a
    block of fibers and their collar nodes ``nodes`` (a slice of 0..n),
    that is False."""
    if not near.all():
        ok = np.ones((len(near), n + 1), dtype=bool)
        ok[:, nodes] = near
        mf.check_nodes(ok, label, why)


def _in_blocks(sheet, width, check):
    """``check(block)`` for each block of the sheet's fibers (a slice along
    s) that spans at most ``_BLOCK_NODES // width`` fibers, or one. A check
    names its first failing node through ``mf.check_nodes``; a failing
    block is checked again with all the fibers before it, which pass, so
    the error names the same node by its s in the whole sheet."""
    step = max(1, _BLOCK_NODES // width)
    for j in range(0, len(sheet.s_nodes), step):
        try:
            check(slice(j, j + step))
        except DomainError:
            check(slice(0, j + step))
            raise


def _slice(sheet, j, vectors=None):
    """The slice of ``sheet`` at s_j as a DiscretePath, or with ``vectors``
    the PathTangentField of them on it. Its samples are a wrapped copy, as
    ``DiscretePath`` makes them, but neither constructor runs: the sheet
    checked its points and velocities once (``_check_nodes``), and
    ``pathspace_transport`` checks what it transports the same way."""
    spec = sheet.manifold
    path = object.__new__(DiscretePath)
    vars(path).update(manifold=spec, samples=spec.wrap(sheet.points[j].copy()), collar=sheet.collar)
    if vectors is None:
        return path
    field = object.__new__(PathTangentField)
    vars(field).update(base=path, components=vectors)
    return field


def _check_field_on(gamma, field):
    """DomainError naming the first sample of the field's base off ``gamma``."""
    d = _pointwise_distances(field.base, gamma)
    off, i = pth.worst_node(d > mf.COINCIDENCE_TOL)
    if off:
        raise DomainError("field is based on a different path (its sample %d is %.3g away)" % (i, d[i]))


def l2_metric(gamma, field1, field2):
    """L2 inner product of two tangent fields along gamma (trapezoid rule)."""
    _check_field_on(gamma, field1)
    _check_field_on(gamma, field2)
    g = mf.inner(gamma.manifold, gamma.samples, field1.components, field2.components)
    return pth._trapezoid(g, 1.0 / gamma.n_segments)


# ---------------------------------------------------------------------------
# worldsheet construction
# ---------------------------------------------------------------------------


def build_sheet(spec, samples, vcomps, s_nodes, collar=0.0):
    """Geodesic worldsheet from raw seed arrays; fibers evolve independently.

    Evaluates the closed-form geodesic flow per node, one block of
    ``max(1, _BLOCK_NODES // (N + 1))`` fibers at a time, into arrays
    allocated up front; every flow kernel is elementwise per node, so the
    blocks give the same bits as one call over the whole sheet. Nodes at
    s = 0 reproduce the seed bitwise. Its RK4 oracle, which integrates the
    fibers node to node, lives in the tests (``tests/oracles.py``).
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    samples = np.asarray(samples, dtype=float)
    vcomps = np.asarray(vcomps, dtype=float)
    shape = (len(s_nodes),) + samples.shape
    points = np.empty(shape)
    vels = np.empty(shape)
    # blocks bound the flow's temporaries: over a whole N = 4096, S = 64
    # sheet they are about eight 6.4 MB arrays, which set the peak RSS; a
    # block's are about 100 KB, so they come from the heap and are reused
    step = max(1, _BLOCK_NODES // len(samples))
    for j in range(0, len(s_nodes), step):
        block = slice(j, j + step)
        points[block], vels[block] = mf.flow(spec, samples[None], vcomps[None], s_nodes[block, None])
    at_zero = s_nodes == 0.0
    points[at_zero] = samples
    vels[at_zero] = vcomps
    return Worldsheet(spec, s_nodes, points, vels, collar)


def s_grid(interval, S):
    """S+1 uniform s-nodes over the interval [a, b]; the one node a if b = a.
    DomainError naming ``interval`` or ``S`` unless the interval is a pair
    of finite numbers a <= b and S is an integer >= 1. The one interval
    rule, for library callers and configs alike."""
    if len(interval) != 2:
        raise DomainError("interval must be a pair (a, b) (got %d values)" % len(interval))
    a, b = (mf.as_number("interval", end, finite=True) for end in interval)
    S = mf.as_integer("S", S)
    if a > b:
        raise DomainError("interval must satisfy a <= b")
    return np.linspace(a, b, S + 1) if b > a else np.asarray([a])


def pathspace_geodesic(gamma, field, interval, S):
    """The unique path-space geodesic with Gamma(0) = gamma, dGamma/ds(0) = field,
    sampled on S+1 uniform nodes over the interval."""
    _check_field_on(gamma, field)
    return build_sheet(gamma.manifold, gamma.samples, field.components, s_grid(interval, S), gamma.collar)


def pathspace_exp(gamma, field):
    """Time-1 point of the path-space geodesic: the pointwise exponential."""
    return pathspace_geodesic(gamma, field, (0.0, 1.0), 1).slice_path(-1)


def pathspace_transport(sheet, field):
    """Parallel transport of a tangent field along the sheet, fiber by fiber.

    ``field`` must be based on the first longitudinal slice; returns one
    PathTangentField per s node. The transported vectors are checked once
    over the sheet, in blocks of fibers, as each field's constructor would
    check them: tangent, and constant on the collars. Preserves the L2 norm
    up to rounding.
    """
    _check_field_on(_slice(sheet, 0), field)
    out = mf.transport_along(sheet.manifold, sheet.points, field.components)
    _check_nodes(sheet, out, "transported field at node (s=%d, t=%d)")
    return [_slice(sheet, j, X) for j, X in enumerate(out)]


# ---------------------------------------------------------------------------
# energy, length, distance
# ---------------------------------------------------------------------------


def transverse_energies(sheet):
    """Energy of each transverse curve Gamma_t, from the stored velocities
    by the trapezoid rule on the s-nodes."""
    g = mf.inner(sheet.manifold, sheet.points, sheet.velocities, sheet.velocities)
    h = np.diff(sheet.s_nodes)
    ws = 0.5 * (np.append(h, 0.0) + np.append(0.0, h))
    return 0.5 * np.sum(ws[:, None] * g, axis=0)


def sheet_energy(sheet):
    """Path-space Dirichlet energy of the sheet (both quadratures trapezoid)."""
    n = sheet.n_t_segments
    wt = pth.trapezoid_weights(n) / n
    return float(np.sum(wt * transverse_energies(sheet)))


def sheet_length(sheet):
    """Length of a geodesic sheet via the Cauchy-Schwarz equality L^2 = 2|b-a|E."""
    a, b = sheet.interval
    return float(np.sqrt(max(2.0 * (b - a) * sheet_energy(sheet), 0.0)))


def _pointwise_distances(gamma1, gamma2):
    return pth.node_gaps((gamma1.manifold, gamma1.samples), (gamma2.manifold, gamma2.samples))


def in_normal_neighborhood(gamma0, gamma):
    """True iff every fiber pair sits strictly inside the injectivity radius."""
    d = _pointwise_distances(gamma0, gamma)
    return bool(np.max(d) < gamma0.manifold.injectivity_radius())


def _require_normal(gamma1, gamma2):
    d = _pointwise_distances(gamma1, gamma2)
    inj = gamma1.manifold.injectivity_radius()
    worst, i = pth.worst_node(d)
    if not worst < inj:
        raise NormalNeighborhoodError(
            "fibers leave the normal neighborhood; worst at t=%g (distance %.6g >= %.6g)"
            % (i / gamma1.n_segments, worst, inj)
        )
    return d


def pathspace_distance(gamma1, gamma2):
    """L2 distance: sqrt of the t-integral of squared pointwise distances."""
    d = _require_normal(gamma1, gamma2)
    return float(np.sqrt(pth._trapezoid(d * d, 1.0 / gamma1.n_segments)))


def connecting_geodesic(gamma1, gamma2, S=64):
    """The unique geodesic sheet over [0,1] joining two paths in a common
    normal neighborhood; fibers are the pointwise minimizing geodesics."""
    _require_normal(gamma1, gamma2)
    spec = gamma1.manifold
    vcomps = mf.log(spec, gamma1.samples, gamma2.samples)
    collar = 0.0
    if gamma1.collar > 0 and gamma2.collar > 0:
        collar = min(gamma1.collar, gamma2.collar)
    return build_sheet(spec, gamma1.samples, vcomps, s_grid((0, 1), S), collar)


# ---------------------------------------------------------------------------
# diagnostics and raw-grid sheets
# ---------------------------------------------------------------------------


def sheet_from_grid(spec, s_nodes, points, collar=0.0):
    """Worldsheet from a raw point grid; velocities by finite differences in s.

    For perturbed (non-geodesic) sheets used in minimization experiments.
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    points = np.asarray(points, dtype=float)
    S = len(s_nodes) - 1
    if S < 1:
        raise DomainError("need at least two s nodes")
    vels = pth.log_velocity(spec, points, (s_nodes[-1] - s_nodes[0]) / S)
    return Worldsheet(spec, s_nodes, points, vels, collar)


def transverse_residual(sheet):
    """Max norm of the discrete geodesic-equation residual over all
    transverse curves; zero for exact geodesic sheets up to step error.
    Evaluated in blocks of interior s-nodes, as ``build_sheet`` is."""
    S = sheet.n_s_segments
    if S < 2:
        return 0.0
    spec = sheet.manifold
    h = np.diff(sheet.s_nodes)[:, None, None]
    p, v = sheet.points, sheet.velocities
    step = max(1, _BLOCK_NODES // p.shape[1])
    worst = []
    for j in range(1, S, step):
        k = min(j + step, S)
        h1, h2 = h[j - 1 : k - 1], h[j:k]  # s-spacings behind and ahead of each node
        acc = spec.chart_diff(p[j + 1 : k + 1], p[j:k]) * (2.0 / (h2 * (h1 + h2)))
        acc += spec.chart_diff(p[j - 1 : k - 1], p[j:k]) * (2.0 / (h1 * (h1 + h2)))
        res = acc + mf.gamma_quad(spec, p[j:k], v[j:k], v[j:k])
        # remove the normal part: on the sphere the second difference picks up
        # the constraint curvature that the projected velocity already absorbs
        res = spec.project_tangent(p[j:k], res)
        worst.append(np.max(np.abs(res)))
    # np.max, unlike Python's max, keeps a NaN of any block
    return float(np.max(worst))
