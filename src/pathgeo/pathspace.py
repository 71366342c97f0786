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


@dataclass(frozen=True)
class Worldsheet:
    manifold: mf.ManifoldSpec
    s_nodes: np.ndarray  # (S+1,)
    points: np.ndarray  # (S+1, N+1, d)
    velocities: np.ndarray  # (S+1, N+1, d)
    collar: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s_nodes", np.asarray(self.s_nodes, dtype=float))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "velocities", np.asarray(self.velocities, dtype=float))
        s = self.s_nodes
        if s.ndim != 1 or not s.size or not np.all(np.isfinite(s)) or np.any(np.diff(s) <= 0):
            raise DomainError("s_nodes must be one or more finite, strictly increasing numbers")
        shape = self.points.shape
        if len(shape) != 3 or shape[::2] != (len(s), self.manifold.point_dim) or shape[1] < 3:
            raise DomainError("points must have shape (S+1, N+1, point_dim) with N >= 2, as a path")
        if shape != self.velocities.shape:
            raise DomainError("points and velocities must share a grid")
        self.manifold.validate(self.points, "node (s=%d, t=%d)")
        self.manifold.check_tangent(self.points, self.velocities, "velocity at node (s=%d, t=%d)")

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
        return DiscretePath(self.manifold, self.points[j].copy(), self.collar)

    def slice_field(self, j):
        """Fiber velocity at s_j as a tangent field on the slice."""
        return PathTangentField(self.slice_path(j), self.velocities[j].copy())

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
        return cls(
            mf.ManifoldSpec.from_json(obj["manifold"]),
            np.array(obj["s_nodes"], dtype=float),
            np.array(obj["points"], dtype=float),
            np.array(obj["velocities"], dtype=float),
            mf.as_number("collar", obj.get("collar", 0.0)),
        )


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

    Evaluates the closed-form geodesic flow per node; nodes at s = 0
    reproduce the seed bitwise. Its RK4 oracle, which integrates the fibers
    node to node, lives in the tests (``tests/oracles.py``).
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    samples = np.asarray(samples, dtype=float)
    vcomps = np.asarray(vcomps, dtype=float)
    # copied into arrays allocated before the flow's temporaries: keeping the
    # flow's own output raised the peak RSS of a 4096 x 64 JSON export by 13 MB
    shape = (len(s_nodes),) + samples.shape
    points = np.empty(shape)
    vels = np.empty(shape)
    pts, vv = mf.flow(spec, samples[None, :, :], vcomps[None, :, :], s_nodes[:, None])
    points[:], vels[:] = pts, vv
    at_zero = s_nodes == 0.0
    points[at_zero] = samples
    vels[at_zero] = vcomps
    return Worldsheet(spec, s_nodes, points, vels, collar)


def s_grid(interval, S):
    """S+1 uniform s-nodes over the interval [a, b]; the one node a if b = a."""
    a, b = float(interval[0]), float(interval[1])
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
    PathTangentField per s node. Preserves the L2 norm up to rounding.
    """
    base = sheet.slice_path(0)
    _check_field_on(base, field)
    out = mf.transport_along(sheet.manifold, sheet.points, field.components)
    return [PathTangentField(sheet.slice_path(j), X) for j, X in enumerate(out)]


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
    return build_sheet(spec, gamma1.samples, vcomps, np.linspace(0, 1, S + 1), collar)


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
    transverse curves; zero for exact geodesic sheets up to step error."""
    if sheet.n_s_segments < 2:
        return 0.0
    spec = sheet.manifold
    h = np.diff(sheet.s_nodes)[:, None, None]
    h1, h2 = h[:-1], h[1:]  # s-spacings behind and ahead of each interior node
    p = sheet.points
    acc = spec.chart_diff(p[2:], p[1:-1]) * (2.0 / (h2 * (h1 + h2)))
    acc += spec.chart_diff(p[:-2], p[1:-1]) * (2.0 / (h1 * (h1 + h2)))
    v = sheet.velocities[1:-1]
    res = acc + mf.gamma_quad(spec, p[1:-1], v, v)
    # remove the normal part: on the sphere the second difference picks up
    # the constraint curvature that the projected velocity already absorbs
    res = spec.project_tangent(p[1:-1], res)
    return float(np.max(np.abs(res)))
