"""Built-in Riemannian manifolds in coordinates.

Four model geometries are provided, each with closed-form geodesics so
every numerical routine has an analytic counterpart:

* ``euclidean(dim)`` -- flat R^d in the identity chart.
* ``sphere(radius)`` -- the round 2-sphere, stored as embedded 3-vectors
  of length ``radius`` (no chart singularities at the poles).
* ``hyperbolic_half_plane`` -- the Poincare upper half plane (x, y), y > 0,
  with metric (dx^2 + dy^2) / y^2.
* ``flat_torus(circumferences)`` -- R^d modulo a rectangular lattice.

Each model is one frozen dataclass subclass of ``ManifoldSpec``:
``Euclidean(dim)``, ``Sphere(radius=1.0)``, ``HalfPlane()`` and
``FlatTorus(circumferences)``. Its fields are exactly its parameters,
checked in ``__post_init__``, and its class constant ``kind`` names it in
JSON. The subclass holds everything about its model: point validation,
chart arithmetic, metric, the Christoffel form ``gamma_quad``, the
closed-form flow, dist, log and parallel transport, and the check suite's
random cases. ``ManifoldSpec`` itself implements a flat chart and reads
the ``christoffel`` array off ``gamma_quad``. The classmethods
(``ManifoldSpec.sphere(1.0)``, ...) build their model, and ``from_json``
builds one from its kind string through the ``_MODELS`` table.

The module-level kernels (``flow``, ``dist``, ``log``, ``inner``, ...) keep
the ``(spec, ...)`` signature and delegate to the spec. The other modules
call them, so each kernel can be timed by wrapping one module attribute.
All kernels are vectorized over leading axes; the public API (``exp_map``,
``log_map``, ``distance``, ``parallel_transport``) wraps them in small value
types (ManifoldPoint, TangentVector). ``integrate_batch`` and
``transport_along_rk4`` solve the geodesic and transport equations by
fixed-step RK4: the independent oracles of ``flow`` and ``transport_along``
that the check report runs. The other oracles, the shooting log map and the
integrated worldsheet, live in the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

EUCLIDEAN = "euclidean"
SPHERE = "sphere"
HALF_PLANE = "hyperbolic_half_plane"
FLAT_TORUS = "flat_torus"

# tolerance of "these two nodes coincide", on point distances and components
COINCIDENCE_TOL = 1e-9
# relative tolerance of the tangency check of vectors, fields and sheet velocities
TANGENT_RTOL = 1e-9
# RK4 steps per segment of the transport oracle ``transport_along_rk4``
RK4_SUBSTEPS = 8


class GeometryError(Exception):
    """Base class for geometric domain errors."""


class DomainError(GeometryError):
    """Invalid input: wrong manifold, mismatched base points, bad coordinates."""


class IntegrationError(GeometryError):
    """A trajectory left the chart domain. Carries the last valid state."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class NormalNeighborhoodError(GeometryError):
    """The target point lies at or beyond the injectivity radius."""


def check_nodes(ok, label, why):
    """Raise DomainError unless the mask ``ok`` holds everywhere.

    The message names the first failing index through ``label % index``,
    e.g. ``"sample %d"`` or ``"node (s=%d, t=%d)"``; a 0-d mask uses
    ``label`` as is.
    """
    if not np.all(ok):
        idx = np.unravel_index(np.argmin(ok), np.shape(ok))
        raise DomainError("%s %s" % (label % tuple(int(i) for i in idx), why))


def as_integer(label, value):
    """``value`` as an int; DomainError naming ``label`` unless it is an
    integer >= 1. The one integer rule: an int or numpy integer, while a
    bool, a float such as 2.0 and a string are rejected."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1:
        return int(value)
    raise DomainError("%s must be an integer >= 1 (got %r)" % (label, value))


def as_number(label, value, positive=False):
    """``value`` as a float; DomainError naming ``label`` unless it is a
    number, and a positive finite one if ``positive``. The one number rule:
    an int or float, numpy's too, while a bool and a string are rejected."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if not positive or 0 < value < math.inf:
            return float(value)
    raise DomainError("%s must be a %snumber (got %r)" % (label, "positive finite " if positive else "", value))


class ManifoldSpec:
    """Base of the built-in models; use a subclass or a constructor below.

    Each model subclass is a frozen dataclass whose fields are exactly its
    parameters, checked in its ``__post_init__``; its class constant
    ``kind`` names it in JSON. This base class implements the flat chart
    and the subclasses override what differs. All kernels are vectorized
    over leading axes of (..., d).
    """

    # the stored coordinates embed the manifold in 3-space
    embedded_3d = False

    def __init__(self, *args, **kwargs):
        raise DomainError("ManifoldSpec takes no kind: use a model class, constructor or from_json")

    @classmethod
    def euclidean(cls, dim):
        return Euclidean(dim)

    @classmethod
    def sphere(cls, radius=1.0):
        return Sphere(radius)

    @classmethod
    def hyperbolic_half_plane(cls):
        return HalfPlane()

    @classmethod
    def flat_torus(cls, circumferences):
        return FlatTorus(circumferences)

    @classmethod
    def from_json(cls, obj):
        """The model named by ``obj["kind"]``, built from the other keys of
        ``obj``, which must all be parameters of that model."""
        if not isinstance(obj, dict):
            raise DomainError("manifold must be a JSON object (got %r)" % (obj,))
        params = dict(obj)
        kind = params.pop("kind", None)
        model = _MODELS.get(kind) if isinstance(kind, str) else None
        if model is None:
            raise DomainError("unknown manifold kind: %r" % (kind,))
        unknown = sorted(set(params) - {f.name for f in fields(model)})
        if unknown:
            raise DomainError("%s has no parameter %s" % (kind, ", ".join(map(repr, unknown))))
        missing = [f.name for f in fields(model) if f.default is MISSING and f.name not in params]
        if missing:
            raise DomainError("%s needs the parameter %s" % (kind, ", ".join(map(repr, missing))))
        return model(**params)

    def to_json(self):
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    def injectivity_radius(self):
        return math.inf

    def validate(self, x, label="point"):
        """Raise DomainError unless every point of x lies on the manifold;
        ``label % index`` names the first bad one."""
        check_nodes(np.all(np.isfinite(x), axis=-1), label, "is not finite")

    def check_tangent(self, x, v, label):
        """Raise DomainError unless each v is finite and tangent at x, up to
        TANGENT_RTOL relative; ``label % index`` names the first bad one.
        Every finite chart vector is tangent here."""
        check_nodes(np.all(np.isfinite(v), axis=-1), label, "is not finite")

    def wrap(self, x):
        """Reduce coordinates into the fundamental domain (torus only)."""
        return x

    def chart_diff(self, a, b):
        """Chart difference a - b, taken to the nearest periodic image."""
        return a - b

    def project_tangent(self, x, v):
        """Remove the component of v normal to the manifold at x."""
        return v

    def inner(self, x, u, v):
        """Riemannian inner product g_x(u, v)."""
        return np.sum(u * v, axis=-1)

    def christoffel(self, x):
        """Full Gamma^k_{ij} array at x, shape (..., d, d, d), read off
        ``gamma_quad`` on every pair (e_i, e_j) of chart basis vectors."""
        x = np.asarray(x, dtype=float)
        d = self.point_dim
        a = np.broadcast_to(np.eye(d)[:, None, :], x.shape[:-1] + (d, d, d))  # a[..., i, j] = e_i
        g = self.gamma_quad(x[..., None, None, :], a, a.swapaxes(-3, -2))
        return np.moveaxis(g, -1, -3)  # [..., i, j, k] -> [..., k, i, j]

    def gamma_quad(self, x, a, b):
        """The bilinear form Gamma^k_{ij} a^i b^j."""
        return np.zeros_like(a)

    def project_state(self, x, v):
        """Constraint and chart cleanup after an integration step."""
        return self.wrap(x), v

    def flow(self, x, v, s):
        """Closed-form geodesic flow: point and velocity at arc parameter s.

        s may be a scalar or an array broadcastable against the leading
        axes of x and v.
        """
        s = np.asarray(s, dtype=float)[..., None]
        pt = self.wrap(x + s * v)
        return pt, np.broadcast_to(v, pt.shape).copy()

    def dist(self, x, y):
        """Riemannian distance."""
        return np.linalg.norm(self.chart_diff(y, x), axis=-1)

    def log(self, x, y):
        """Initial velocity of the unit-time geodesic from x to y.

        Requires dist(x, y) < injectivity radius; the sphere's antipodal
        case is resolved arbitrarily and must be rejected by the caller.
        """
        return self.chart_diff(y, x)

    def transport(self, x, y, X):
        """Parallel transport of X from x to y along the connecting geodesic,
        in closed form; a flat chart keeps the components."""
        return X

    def normal(self, x, u):
        """Normal to the unit direction u at x: a quarter turn in a 2d chart."""
        if self.point_dim != 2:
            raise DomainError("normal field needs a 2d chart or the sphere")
        return np.stack([-u[..., 1], u[..., 0]], axis=-1)

    # -- random cases for the property suites ------------------------------

    def random_vector(self, x, rng):
        """Standard-normal vector, tangent at x."""
        return rng.standard_normal(self.point_dim)

    def retract(self, x):
        """Back onto the manifold after a small perturbation of the chart
        coordinates."""
        return x


@dataclass(frozen=True)
class Euclidean(ManifoldSpec):
    """Flat R^d in the identity chart."""

    dim: int
    kind = EUCLIDEAN

    def __post_init__(self):
        object.__setattr__(self, "dim", as_integer(EUCLIDEAN + " dim", self.dim))

    @property
    def point_dim(self):
        return self.dim

    @property
    def embedded_3d(self):
        return self.dim == 3

    def random_point(self, rng):
        return rng.uniform(-2.0, 2.0, self.point_dim)


@dataclass(frozen=True)
class Sphere(ManifoldSpec):
    """Round 2-sphere stored as embedded 3-vectors of length radius.

    Its Christoffel symbols are the coefficients of the constraint form
    x^k delta_ij / r^2 (the coordinates are not an honest chart, so they
    are not the Levi-Civita symbols of any 3d metric).
    """

    radius: float = 1.0
    kind = SPHERE
    embedded_3d = True

    def __post_init__(self):
        object.__setattr__(self, "radius", as_number(SPHERE + " radius", self.radius, positive=True))

    @property
    def point_dim(self):
        return 3

    def injectivity_radius(self):
        return math.pi * self.radius

    def validate(self, x, label="point"):
        super().validate(x, label)
        off = np.abs(np.linalg.norm(x, axis=-1) - self.radius) > 1e-9 * self.radius
        check_nodes(~off, label, "is off the sphere (|x| != radius)")

    def check_tangent(self, x, v, label):
        super().check_tangent(x, v, label)
        ip = np.abs(np.sum(v * x, axis=-1))
        bound = TANGENT_RTOL * (np.linalg.norm(v, axis=-1) * self.radius)
        check_nodes(ip <= bound, label, "is not tangent to the sphere")

    def project_tangent(self, x, v):
        xhat = x / self.radius
        return v - np.sum(v * xhat, axis=-1, keepdims=True) * xhat

    def gamma_quad(self, x, a, b):
        return x * (np.sum(a * b, axis=-1) / self.radius**2)[..., None]

    def project_state(self, x, v):
        nrm = np.linalg.norm(x, axis=-1, keepdims=True)
        x = x * (self.radius / nrm)
        return x, self.project_tangent(x, v)

    def flow(self, x, v, s):
        s = np.asarray(s, dtype=float)[..., None]
        r = self.radius
        speed = np.linalg.norm(v, axis=-1, keepdims=True)
        safe = np.where(speed > 0, speed, 1.0)
        vdir = v / safe
        theta = s * speed / r
        pt = np.cos(theta) * x + np.sin(theta) * r * vdir
        vel = np.cos(theta) * v - np.sin(theta) * speed * x / r
        pt = np.where(speed > 0, pt, x + 0 * theta)
        vel = np.where(speed > 0, vel, v + 0 * theta)
        return pt, vel

    def dist(self, x, y):
        r = self.radius
        c = np.sum(x * y, axis=-1) / r**2
        # |x cross y|, the components written out in np.cross's order: on
        # small arrays np.cross costs more in axis handling than in arithmetic
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
        w = (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)
        s = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2]) / r**2
        return r * np.arctan2(s, c)

    def log(self, x, y):
        r = self.radius
        ang = dist(self, x, y)[..., None] / r
        w = y - np.sum(x * y, axis=-1)[..., None] * x / r**2
        wn = np.linalg.norm(w, axis=-1, keepdims=True)
        safe = np.where(wn > 0, wn, 1.0)
        return np.where(wn > 0, ang * r * w / safe, np.zeros_like(x))

    def transport(self, x, y, X):
        # the rotation of the x-y plane that takes x to y, fixing its normal
        denom = self.radius**2 + np.sum(x * y, axis=-1)
        if np.any(denom <= 1e-12 * self.radius**2):
            raise NormalNeighborhoodError("transport between antipodal points is undefined")
        return X - (np.sum(y * X, axis=-1) / denom)[..., None] * (x + y)

    def normal(self, x, u):
        return np.cross(x / self.radius, u)

    def random_point(self, rng):
        x = rng.standard_normal(3)
        return self.radius * x / np.linalg.norm(x)

    def random_vector(self, x, rng):
        v = rng.standard_normal(3)
        xhat = x / self.radius
        # np.dot rounds differently from project_tangent's sum; the seeded
        # check report depends on these exact bits
        return v - np.dot(v, xhat) * xhat

    def retract(self, x):
        return self.radius * x / np.linalg.norm(x, axis=-1, keepdims=True)


# -- hyperboloid model helpers for the half plane ---------------------------
#
# (x, y) maps to P = ((x^2+y^2+1)/2y, x/y, (x^2+y^2-1)/2y) on the hyperboloid
# <P,P> = -1 in Minkowski signature (-,+,+); geodesics there are cosh/sinh
# combinations, which avoids the semicircle-center degeneracy of the chart.


def _uhp_to_hyp(x):
    a, y = x[..., 0], x[..., 1]
    q = a * a + y * y
    return np.stack([(q + 1) / (2 * y), a / y, (q - 1) / (2 * y)], axis=-1)


def _uhp_vec_to_hyp(x, v):
    a, y = x[..., 0], x[..., 1]
    vx, vy = v[..., 0], v[..., 1]
    dPdx = np.stack([a / y, 1 / y, a / y], axis=-1)
    dPdy = np.stack(
        [(y * y - a * a - 1) / (2 * y * y), -a / (y * y), (y * y - a * a + 1) / (2 * y * y)],
        axis=-1,
    )
    return dPdx * vx[..., None] + dPdy * vy[..., None]


def _hyp_to_uhp(P):
    t = P[..., 0] - P[..., 2]
    return np.stack([P[..., 1] / t, 1.0 / t], axis=-1)


def _hyp_vec_to_uhp(P, U):
    t = P[..., 0] - P[..., 2]
    dt = U[..., 0] - U[..., 2]
    vx = U[..., 1] / t - P[..., 1] * dt / (t * t)
    vy = -dt / (t * t)
    return np.stack([vx, vy], axis=-1)


def _mink(A, B):
    return -A[..., 0] * B[..., 0] + A[..., 1] * B[..., 1] + A[..., 2] * B[..., 2]


@dataclass(frozen=True)
class HalfPlane(ManifoldSpec):
    """Poincare upper half plane (x, y), y > 0, metric (dx^2 + dy^2) / y^2.

    Flow, log and transport go through the hyperboloid model.
    """

    kind = HALF_PLANE

    @property
    def point_dim(self):
        return 2

    def validate(self, x, label="point"):
        super().validate(x, label)
        check_nodes(x[..., 1] > 0, label, "needs y > 0")

    def inner(self, x, u, v):
        return super().inner(x, u, v) / x[..., 1] ** 2

    def gamma_quad(self, x, a, b):
        y = x[..., 1]
        out = np.empty_like(a)
        out[..., 0] = -(a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]) / y
        out[..., 1] = (a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]) / y
        return out

    def project_state(self, x, v):
        if np.any(x[..., 1] <= 0):
            raise IntegrationError("trajectory left the upper half plane")
        return x, v

    def flow(self, x, v, s):
        s = np.asarray(s, dtype=float)[..., None]
        P = _uhp_to_hyp(x)
        U = _uhp_vec_to_hyp(x, v)
        sigma = np.sqrt(np.maximum(_mink(U, U), 0.0))[..., None]
        safe = np.where(sigma > 0, sigma, 1.0)
        Uh = U / safe
        Ph = np.cosh(s * sigma) * P + np.sinh(s * sigma) * Uh
        Vh = sigma * (np.sinh(s * sigma) * P + np.cosh(s * sigma) * Uh)
        pt = np.where(sigma > 0, _hyp_to_uhp(Ph), x + 0 * s)
        vel = np.where(sigma > 0, _hyp_vec_to_uhp(Ph, Vh), v + 0 * s)
        return pt, vel

    def dist(self, x, y):
        # 2 asinh(|dq| / (2 sqrt(y1 y2))), stable for close points
        dq = np.linalg.norm(y - x, axis=-1)
        return 2.0 * np.arcsinh(dq / (2.0 * np.sqrt(x[..., 1] * y[..., 1])))

    def log(self, x, y):
        P = _uhp_to_hyp(x)
        Q = _uhp_to_hyp(y)
        alpha = -_mink(P, Q)
        d = dist(self, x, y)
        w = Q - alpha[..., None] * P
        sinh_d = np.sinh(d)
        scale = np.where(sinh_d > 0, d / np.where(sinh_d > 0, sinh_d, 1.0), 0.0)
        return _hyp_vec_to_uhp(P, w * scale[..., None])

    def transport(self, x, y, X):
        P, Q, W = _uhp_to_hyp(x), _uhp_to_hyp(y), _uhp_vec_to_hyp(x, X)
        # 1 - <P,Q> = 1 + cosh d >= 2: no cut locus to guard
        W = W + (_mink(Q, W) / (1.0 - _mink(P, Q)))[..., None] * (P + Q)
        return _hyp_vec_to_uhp(Q, W)

    def random_point(self, rng):
        return np.array([rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0)])

    def retract(self, x):
        # the floor keeps perturbed points well inside the chart
        return np.stack([x[..., 0], np.maximum(x[..., 1], 0.05)], axis=-1)


@dataclass(frozen=True)
class FlatTorus(ManifoldSpec):
    """R^d modulo a rectangular lattice; coordinates are kept in [0, L)."""

    circumferences: tuple
    kind = FLAT_TORUS

    def __post_init__(self):
        given = self.circumferences
        cs = tuple(given) if np.iterable(given) and not isinstance(given, (str, bytes)) else ()
        if not cs:
            raise DomainError("flat_torus circumferences must be a nonempty list (got %r)" % (given,))
        cs = tuple(as_number(FLAT_TORUS + " circumferences", c, positive=True) for c in cs)
        object.__setattr__(self, "circumferences", cs)

    @property
    def point_dim(self):
        return len(self.circumferences)

    def injectivity_radius(self):
        return 0.5 * min(self.circumferences)

    def wrap(self, x):
        return np.mod(x, np.asarray(self.circumferences))

    def chart_diff(self, a, b):
        L = np.asarray(self.circumferences)
        return np.mod(a - b + L / 2, L) - L / 2

    def random_point(self, rng):
        L = np.asarray(self.circumferences)
        return rng.uniform(0.0, 1.0, len(L)) * L


_MODELS = {model.kind: model for model in (Euclidean, Sphere, HalfPlane, FlatTorus)}


@dataclass(frozen=True)
class ManifoldPoint:
    manifold: ManifoldSpec
    coords: np.ndarray = field(repr=True)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        spec = self.manifold
        if coords.shape != (spec.point_dim,):
            raise DomainError(
                "expected %d coordinates, got shape %r" % (spec.point_dim, coords.shape)
            )
        spec.validate(coords, "point")
        object.__setattr__(self, "coords", spec.wrap(coords))


@dataclass(frozen=True)
class TangentVector:
    base: ManifoldPoint
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comps)
        spec = self.base.manifold
        if comps.shape != (spec.point_dim,):
            raise DomainError("tangent components have wrong shape %r" % (comps.shape,))
        spec.check_tangent(self.base.coords, comps, "vector")

    @property
    def manifold(self):
        return self.base.manifold


# ---------------------------------------------------------------------------
# module-level kernels: arrays of shape (..., d)
# ---------------------------------------------------------------------------


def inner(spec, x, u, v):
    return spec.inner(x, u, v)


def norm(spec, x, u):
    return np.sqrt(np.maximum(spec.inner(x, u, u), 0.0))


def gamma_quad(spec, x, a, b):
    return spec.gamma_quad(x, a, b)


def flow(spec, x, v, s):
    return spec.flow(x, v, s)


def dist(spec, x, y):
    return spec.dist(x, y)


def log(spec, x, y):
    return spec.log(x, y)


def _geo_rhs(spec, x, v):
    return v, -gamma_quad(spec, x, v, v)


def integrate_batch(spec, x0, v0, s_end, steps):
    """Fixed-step RK4 for the geodesic equation, vectorized over leading axes.

    Returns (xs, vs) with shape (steps + 1,) + x0.shape, including both
    endpoints. Raises IntegrationError (with the last valid state attached)
    if the trajectory leaves the chart domain.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    h = s_end / steps
    xs = np.empty((steps + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x, v
    for i in range(steps):
        k1x, k1v = _geo_rhs(spec, x, v)
        k2x, k2v = _geo_rhs(spec, x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = _geo_rhs(spec, x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = _geo_rhs(spec, x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        try:
            x, v = spec.project_state(x, v)
        except IntegrationError as err:
            err.last_state = (xs[i].copy(), vs[i].copy())
            raise
        xs[i + 1], vs[i + 1] = x, v
    return xs, vs


def transport_along(spec, points, X0):
    """Parallel transport X0 along axis 0 of ``points`` (m+1, ..., d), each
    segment by the closed form ``spec.transport``; returns the field at
    every sample. ``transport_along_rk4`` is its integrated oracle."""
    points = np.asarray(points, dtype=float)
    out = np.empty_like(points)
    out[0] = X0
    for i in range(points.shape[0] - 1):
        try:
            out[i + 1] = spec.transport(points[i], points[i + 1], out[i])
        except NormalNeighborhoodError as err:
            raise NormalNeighborhoodError("segment %d: %s" % (i, err)) from None
    return out


def transport_along_rk4(spec, points, X0):
    """``transport_along`` by RK4 on the transport equation, ``RK4_SUBSTEPS``
    per segment along the closed-form connecting geodesic (zero-length
    segments transport by identity): the independent oracle."""
    points = np.asarray(points, dtype=float)
    X = np.array(X0, dtype=float)
    out = np.empty_like(points)
    out[0] = X
    h = 1.0 / RK4_SUBSTEPS
    for i in range(points.shape[0] - 1):
        p0, p1 = points[i], points[i + 1]
        seg = dist(spec, p0, p1)
        if np.all(seg <= 1e-15):
            out[i + 1] = X
            continue
        u = log(spec, p0, p1)

        def rhs(tau, Xc):
            xc, wc = flow(spec, p0, u, tau)
            return -gamma_quad(spec, xc, wc, Xc)

        for k in range(RK4_SUBSTEPS):
            t0 = k * h
            k1 = rhs(t0, X)
            k2 = rhs(t0 + 0.5 * h, X + 0.5 * h * k1)
            k3 = rhs(t0 + 0.5 * h, X + 0.5 * h * k2)
            k4 = rhs(t0 + h, X + h * k3)
            X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        X = spec.project_tangent(p1, X)
        out[i + 1] = X
    return out


# ---------------------------------------------------------------------------
# public wrappers on the value types
# ---------------------------------------------------------------------------


def _check_same_base(p, *vectors):
    for v in vectors:
        if v.base.manifold != p.manifold:
            raise DomainError("tangent vector lives on a different manifold")
        if np.max(np.abs(v.base.coords - p.coords)) > COINCIDENCE_TOL:
            raise DomainError("tangent vector based at a different point")


def _check_same_manifold(p, q):
    if p.manifold != q.manifold:
        raise DomainError("points live on different manifolds")


def exp_map(p, v):
    """Endpoint of the geodesic seeded by (p, v) at parameter 1 (closed form)."""
    _check_same_base(p, v)
    return ManifoldPoint(p.manifold, flow(p.manifold, p.coords, v.components, 1.0)[0])


def distance(p, q):
    _check_same_manifold(p, q)
    return float(dist(p.manifold, p.coords, q.coords))


def log_map(p, q):
    """Closed-form Riemannian logarithm; requires q in p's normal neighborhood."""
    _check_same_manifold(p, q)
    spec = p.manifold
    d = distance(p, q)
    if d >= spec.injectivity_radius():
        raise NormalNeighborhoodError(
            "distance %.6g is not below the injectivity radius %.6g"
            % (d, spec.injectivity_radius())
        )
    return TangentVector(p, log(spec, p.coords, q.coords))


def parallel_transport(curve, v0):
    """Parallel transport of v0 along an (s, point) sample sequence.

    Transport is parametrization independent; the s values only fix the
    ordering and are validated to be nondecreasing. Consecutive samples
    must not be antipodal (NormalNeighborhoodError names the segment).
    """
    if not curve:
        raise DomainError("empty curve")
    svals = [s for s, _ in curve]
    if any(b < a for a, b in zip(svals, svals[1:])):
        raise DomainError("curve samples must be ordered in s")
    first = curve[0][1]
    _check_same_base(first, v0)
    spec = first.manifold
    pts = np.stack([pt.coords for _, pt in curve])
    fields = transport_along(spec, pts, v0.components)
    return [TangentVector(ManifoldPoint(spec, x), X) for (x, X) in zip(pts, fields)]
