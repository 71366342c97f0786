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

# nodes per block of whole fibers (``_blocks``), the one block rule of the
# sheet kernels whose d-vector temporaries it bounds (build_sheet,
# transverse_residual) and of every sheet export, whose one block walk
# (serialize._blocked) formats a block per slab. The node check, whose
# temporaries are mostly per-node scalars and masks, takes larger blocks
# of its own (``path._CHECK_NODES``)
_BLOCK_NODES = 4096


@dataclass(frozen=True)
class Worldsheet:
    """An (S+1) x (N+1) grid of points on ``manifold`` with the fiber
    velocity at every node; each slice at fixed s is a path with the
    sheet's collar.

    A sheet is checked once, where it is built: its grid, and then its
    points and velocities by the check of each slice's ``DiscretePath`` and
    ``PathTangentField`` (``path.check_fibers``), in one call over all its
    fibers. So ``slice_path`` and ``slice_field`` check nothing again, and
    an error names the failing node (s=j, t=i).
    The sheet wraps its points once, as ``DiscretePath`` wraps its samples,
    and holds ``s_nodes``, ``points`` and ``velocities`` read-only
    (``manifold.held``): views of the arrays it was given, the points a
    wrapped copy on the flat torus if one of them lies outside its domain
    (``FlatTorus.wrap`` returns points in the domain as they are). So what
    it checked cannot change under it, and nothing downstream wraps again.
    """

    manifold: mf.ManifoldSpec
    s_nodes: np.ndarray  # (S+1,)
    points: np.ndarray  # (S+1, N+1, d)
    velocities: np.ndarray  # (S+1, N+1, d)
    collar: float = 0.0

    def __post_init__(self):
        spec = self.manifold
        s, points, velocities = (mf.as_numbers(key, vars(self)[key]) for key in ("s_nodes", "points", "velocities"))
        _check_s_nodes(s)
        shape = points.shape
        if len(shape) != 3 or shape[::2] != (len(s), spec.point_dim) or shape[1] < 3:
            raise DomainError("points must have shape (S+1, N+1, point_dim) with N >= 2, as a path")
        if shape != velocities.shape:
            raise DomainError("points and velocities must share a grid")
        vars(self).update(s_nodes=mf.held(s), points=mf.held(spec.wrap(points)), velocities=mf.held(velocities),
                          collar=pth._as_collar(self.collar))
        pth.check_fibers(spec, self.points, self.collar, "node (s=%d, t=%d)",
                         self.velocities, "velocity at node (s=%d, t=%d)")

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
            *(pth._copied(obj[key]) for key in required[1:]),
            obj.get("collar", 0.0),
        )


def _check_s_nodes(s):
    """DomainError unless the float array ``s`` is one or more finite,
    strictly increasing numbers: the s-node rule of every worldsheet."""
    if s.ndim != 1 or not s.size or not np.all(np.isfinite(s)) or np.any(np.diff(s) <= 0):
        raise DomainError("s_nodes must be one or more finite, strictly increasing numbers")


def _blocks(start, stop, width):
    """The blocks of the fibers start .. stop-1 of ``width`` nodes each, as
    slices along s: each of at most ``_BLOCK_NODES`` nodes, or of one fiber
    where a fiber holds more."""
    step = max(1, _BLOCK_NODES // width)
    return [slice(j, min(j + step, stop)) for j in range(start, stop, step)]


def _slice(sheet, j, vectors=None):
    """The slice of ``sheet`` at s_j as a DiscretePath, or with ``vectors``
    the PathTangentField of them on it, both held read-only as the
    constructors hold them. Neither constructor runs: the sheet wrapped and
    checked its points and velocities once, by the constructors' own check
    (``path.check_fibers``), and ``pathspace_transport`` checks what it
    transports the same way."""
    path = object.__new__(DiscretePath)
    # a copy of the one fiber, not a view: a view would keep the whole sheet
    # in memory for as long as any of its slices lives
    vars(path).update(manifold=sheet.manifold, samples=mf.held(sheet.points[j].copy()), collar=sheet.collar)
    if vectors is None:
        return path
    field = object.__new__(PathTangentField)
    vars(field).update(base=path, components=mf.held(vectors))
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
    """Geodesic worldsheet from seed arrays; fibers evolve independently.

    ``samples`` are a path's samples, wrapped as ``DiscretePath`` holds
    them. Evaluates the closed-form geodesic flow per node, one block of
    fibers (``_blocks``) at a time, into arrays allocated up front; every
    flow kernel is elementwise per node, so the blocks give the same bits as
    one call over the whole sheet. Nodes at s = 0 reproduce the seed
    bitwise. The s-nodes, finite numbers, are checked before any flow. The
    flow wraps each block's points, so the ``Worldsheet`` constructor,
    which checks them, finds them wrapped and copies none.
    Its RK4 oracle, which integrates the fibers node to node, lives in the
    tests (``tests/oracles.py``).
    """
    s_nodes = mf.as_numbers("s_nodes", s_nodes, finite=True)
    _check_s_nodes(s_nodes)
    samples, vcomps = mf.as_numbers("samples", samples), mf.as_numbers("vcomps", vcomps)
    shape = (len(s_nodes),) + samples.shape
    points = np.empty(shape)
    vels = np.empty(shape)
    # blocks bound the flow's temporaries: over a whole N = 4096, S = 64
    # sheet they are about eight 6.4 MB arrays, which set the peak RSS; a
    # block's are about 100 KB, so they come from the heap and are reused
    for block in _blocks(0, len(s_nodes), len(samples)):
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
    ab = mf.as_numbers("interval", interval, finite=True)
    if ab.shape != (2,):
        raise DomainError("interval must be a pair (a, b) (got %d values)" % ab.size)
    a, b = ab.tolist()
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
    PathTangentField per s node, each held read-only (``_slice``). Each
    field holds its own fiber's array from the transport loop
    (``manifold._transport_steps``), so a field kept alone keeps no other
    fiber in memory; on a flat chart every field holds ``field``'s own
    read-only components. The transported vectors are checked once over
    the sheet, in one call that stacks them a block at a time, as each
    field's constructor would check them: tangent at the sheet's points,
    which the sheet wrapped when it was built, and constant on the collars.
    Preserves the L2 norm up to rounding.
    """
    _check_field_on(_slice(sheet, 0), field)
    spec = sheet.manifold
    moved = list(mf._transport_steps(spec, sheet.points, field.components))
    pth.check_fibers(spec, sheet.points, sheet.collar,
                     vectors=moved, vector_label="transported field at node (s=%d, t=%d)")
    return [_slice(sheet, j, X) for j, X in enumerate(moved)]


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
    return _length(sheet.interval, sheet_energy(sheet))


def _length(interval, energy):
    """``sheet_length`` of a sheet over ``interval`` whose ``sheet_energy`` is
    ``energy``."""
    a, b = interval
    return float(np.sqrt(max(2.0 * (b - a) * energy, 0.0)))


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


def sheet_from_grid(spec, interval, points, collar=0.0):
    """Worldsheet from a raw point grid on S+1 uniform s-nodes over the
    interval (``s_grid``, S + 1 = len(points)); velocities by finite
    differences in s, one node step apart.

    For perturbed (non-geodesic) sheets used in minimization experiments.
    """
    points = mf.as_numbers("points", points)
    s_nodes = s_grid(interval, len(points) - 1)
    if len(s_nodes) < 2:
        raise DomainError("need at least two s nodes")
    vels = pth.log_velocity(spec, points, (s_nodes[-1] - s_nodes[0]) / (len(s_nodes) - 1))
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
    worst = []
    for block in _blocks(1, S, p.shape[1]):
        j, k = block.start, block.stop
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
