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
that the check report runs, at ``GEODESIC_ORACLE_STEPS`` (250) steps per
unit and ``RK4_SUBSTEPS`` (4) steps per segment. Each count is the one that
keeps its oracle's own error at most 1e-4 of the tolerance it is checked
against. The other oracles, the shooting log map and the integrated
worldsheet, live in the tests (``tests/oracles.py``).

The kernel rule: a sheet holds (S+1)(N+1) nodes of only d = 2 or 3
coordinates, and numpy reduces so short a last axis several times slower
than it adds whole arrays. So every sum over the coordinate axis goes
through ``_dot`` and ``_norm``, one component at a time and bit-equal to
``np.sum(..., axis=-1)`` and ``np.linalg.norm(..., axis=-1)`` (pinned by
``tests/test_kernel_source.py``), and the half-plane forms, complex
numbers in the chart, are written out per component. Checks (``validate``, ``check_tangent``, the
sphere's antipodal guard) first test the whole array at once; only on
failure do they build a per-node mask such as "every coordinate of this
node is finite" and let ``check_nodes`` find the first bad node, so every
error still names the same node.
"""

from __future__ import annotations

import contextlib
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
# The RK4 step counts of the two oracles the check report runs. The rule:
# an oracle's own error is at most 1e-4 of the tolerance it is checked
# against, over the report's draws at seeds 42, 1, 3, 7 and 1234; doubling
# the count moves its result by less than that (tests/test_manifold.py).
# Steps per unit parameter of ``integrate_batch`` in geodesic_oracle
# (tolerance 1e-5): worst error 3.5e-10, on the half plane; 125 steps give
# 5.6e-9, which breaks the rule.
GEODESIC_ORACLE_STEPS = 250
# RK4 steps per segment of ``transport_along_rk4`` in transport_isometry
# (tolerance 1e-5): worst error 3.4e-11, on the half plane. 2 substeps keep
# the rule on the report's draws (5.4e-10) but miss the 1e-9 bound of the
# polyline test. A power of two, so the stage times j h / 2 are exact.
RK4_SUBSTEPS = 4
# the least positive float: max(r, _LEAST) is r itself unless r = 0
_LEAST = math.ulp(0.0)


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


def check_nodes(ok, label, why, error=DomainError):
    """Raise ``error`` (DomainError by default) unless the mask ``ok`` holds
    everywhere.

    The message names the first failing index through ``label % index``,
    e.g. ``"sample %d"`` or ``"node (s=%d, t=%d)"``; a 0-d mask uses
    ``label`` as is.
    """
    if not np.all(ok):
        idx = np.unravel_index(np.argmin(ok), np.shape(ok))
        raise error("%s %s" % (label % tuple(int(i) for i in idx), why))


def _dot(a, b):
    """sum_i a[..., i] * b[..., i], added left to right one coordinate at a
    time. Below 8 coordinates this is bit-equal to ``np.sum(a * b,
    axis=-1)``, which reduces that short axis far more slowly; from 8 on
    numpy sums pairwise, so ``np.sum`` is kept there."""
    d = a.shape[-1]
    if d >= 8:
        return np.sum(a * b, axis=-1)
    out = a[..., 0] * b[..., 0]
    for i in range(1, d):
        out += a[..., i] * b[..., i]
    # np.sum starts from +0.0, so a sum of products that are all -0.0 is +0.0
    out += 0.0
    return out


def _norm(a):
    """Euclidean length over the last axis, bit-equal to
    ``np.linalg.norm(a, axis=-1)`` (which is the square root of that sum)."""
    return np.sqrt(_dot(a, a))


def _check_finite(a, label):
    """DomainError naming the first node of ``a`` (..., d) with a NaN or
    infinite coordinate. The whole array is tested first; the per-node mask
    is built only on failure."""
    finite = np.isfinite(a)
    if not finite.all():
        check_nodes(finite.all(axis=-1), label, "is not finite")


def held(a):
    """The float array ``a`` as a read-only view: the one way a checked value
    (point, vector, path, field, worldsheet) holds an array, once its
    constructor has read it by the number rule (``as_numbers``). The view
    copies nothing, and the caller's array keeps its flags; a write through
    the holder raises, so what was checked cannot change under it."""
    view = a.view()
    view.flags.writeable = False
    return view


def as_integer(label, value):
    """``value`` as an int; DomainError naming ``label`` unless it is an
    integer >= 1. The one integer rule: an int or numpy integer, while a
    bool, a float such as 2.0 and a string are rejected."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1:
        return int(value)
    raise DomainError("%s must be an integer >= 1 (got %r)" % (label, value))


def only_keys(kind, table, names, required=()):
    """DomainError naming every key of ``table`` that is not in ``names``,
    else every name in ``required`` that ``table`` lacks: the one key rule of
    configs and records. ``kind`` is the owner and the noun, as in
    ``"path key"`` or ``"sphere parameter"``."""
    if not isinstance(table, dict):
        raise DomainError("%ss must be given as a JSON object (got %s)" % (kind, type(table).__name__))
    unknown = sorted(set(table) - set(names))
    if unknown:
        raise DomainError(
            "unknown %s %s (known: %s)" % (kind, ", ".join(map(repr, unknown)), ", ".join(names) or "none")
        )
    missing = [name for name in required if name not in table]
    if missing:
        owner, _, noun = kind.rpartition(" ")
        plural = "s" if len(missing) > 1 else ""
        raise DomainError("%s needs the %s%s %s" % (owner, noun, plural, ", ".join(map(repr, missing))))


def as_number(label, value, positive=False, finite=False):
    """``value`` as a float; DomainError naming ``label`` unless it is a
    number, a finite one if ``finite`` and a positive finite one if
    ``positive``. The one number rule: an int or float, numpy's too, while a
    bool, None and a string are rejected. Arrays go through ``as_numbers``."""
    kind = "positive finite " if positive else "finite " if finite else ""
    got = None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            got = "a value beyond the float range"
        else:
            if not kind or (0 if positive else -math.inf) < x < math.inf:
                return x
    raise DomainError("%s must be a %snumber (got %s)" % (label, kind, got or repr(value)))


def as_numbers(label, value, finite=False):
    """``value`` as a float array, each entry a number (a finite one if
    ``finite``) by the ``as_number`` rule, which each checked value's
    constructor and each array parameter applies where it enters. Lists and
    tuples are scanned level by level for floats, ints and numeric ndarrays;
    a float64 ndarray is returned itself, not a copy. Where that scan fails,
    any iterable is read entry by entry, and the first entry that breaks the
    rule is named with its index, as in ``at samples[3][1]``."""
    rows = [] if isinstance(value, np.ndarray) and value.dtype.kind in "fiu" else [value]
    while rows and all(type(r) in (list, tuple) for r in rows):
        rows = [v for r in rows for v in r]
    if all(type(v) in (float, int) or isinstance(v, (np.ndarray, np.number)) and v.dtype.kind in "fiu" for v in rows):
        with contextlib.suppress(OverflowError):  # an int beyond the float range is named below
            a = np.asarray(value, dtype=float)
            if not finite or np.isfinite(a).all():
                return a

    def entries(v, index):
        v = v.tolist() if isinstance(v, np.ndarray) else v
        if np.iterable(v) and not isinstance(v, (str, bytes)):
            return [entries(w, "%s[%d]" % (index, i)) for i, w in enumerate(v)]
        try:
            return as_number(label, v, finite=finite)
        except DomainError as err:
            raise DomainError("%s at %s%s" % (err, label, index) if index else str(err)) from None

    return np.array(entries(value, ""), dtype=float)


def _require_tol(tol):
    """DomainError unless ``tol`` is a nonnegative number. The one tolerance
    rule, applied where a tolerance enters: NaN, a bool and a string are
    rejected."""
    if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool) and tol >= 0):
        raise DomainError("tolerance must be a nonnegative number (got %r)" % (tol,))


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
    # the message of the IntegrationError of a trajectory that leaves the chart
    chart_exit = "trajectory left the chart"

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
        names = [f.name for f in fields(model)]
        required = [f.name for f in fields(model) if f.default is MISSING]
        only_keys("%s parameter" % kind, params, names, required)
        return model(**params)

    def to_json(self):
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    def injectivity_radius(self):
        return math.inf

    def validate(self, x, label="point"):
        """Raise DomainError unless every point of x lies on the manifold;
        ``label % index`` names the first bad one."""
        _check_finite(x, label)

    def check_tangent(self, x, v, label):
        """Raise DomainError unless each v is finite and tangent at x, up to
        TANGENT_RTOL relative; ``label % index`` names the first bad one.
        Every finite chart vector is tangent here."""
        _check_finite(v, label)

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
        return _dot(u, v)

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
        return _norm(self.chart_diff(y, x))

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
        radius = as_number(SPHERE + " radius", self.radius, positive=True)
        if not 1e-50 <= radius <= 1e50:  # dist squares coordinate products: radius**4 stays normal
            raise DomainError("sphere radius must lie in [1e-50, 1e50] (got %r)" % (radius,))
        object.__setattr__(self, "radius", radius)

    @property
    def point_dim(self):
        return 3

    def injectivity_radius(self):
        return math.pi * self.radius

    def validate(self, x, label="point"):
        super().validate(x, label)
        # finite here, so "not off" is "within the tolerance"
        on = np.abs(_norm(x) - self.radius) <= 1e-9 * self.radius
        check_nodes(on, label, "is off the sphere (|x| != radius)")

    def check_tangent(self, x, v, label):
        super().check_tangent(x, v, label)
        ok = np.abs(_dot(v, x)) <= TANGENT_RTOL * (_norm(v) * self.radius)
        check_nodes(ok, label, "is not tangent to the sphere")

    def project_tangent(self, x, v):
        xhat = x / self.radius
        return v - _dot(v, xhat)[..., None] * xhat

    def gamma_quad(self, x, a, b):
        return x * (_dot(a, b) / self.radius**2)[..., None]

    def project_state(self, x, v):
        x = x * (self.radius / _norm(x)[..., None])
        return x, self.project_tangent(x, v)

    def flow(self, x, v, s):
        s = np.asarray(s, dtype=float)[..., None]
        r = self.radius
        speed = _norm(v)[..., None]
        theta = s * speed / r
        cos, sin = np.cos(theta), np.sin(theta)
        moving = speed > 0
        if moving.all():
            return cos * x + sin * r * (v / speed), cos * v - sin * speed * x / r
        vdir = v / np.where(moving, speed, 1.0)
        pt = np.where(moving, cos * x + sin * r * vdir, x + 0 * theta)
        vel = np.where(moving, cos * v - sin * speed * x / r, v + 0 * theta)
        return pt, vel

    def dist(self, x, y):
        r = self.radius
        c = _dot(x, y) / r**2
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
        w = y - _dot(x, y)[..., None] * x / r**2
        wn = _norm(w)[..., None]
        apart = wn > 0
        if apart.all():
            return ang * r * w / wn
        return np.where(apart, ang * r * w / np.where(apart, wn, 1.0), np.zeros_like(x))

    def transport(self, x, y, X):
        # the rotation of the x-y plane that takes x to y, fixing its normal
        denom = self.radius**2 + _dot(x, y)
        bad = denom <= 1e-12 * self.radius**2
        if bad.any():
            # a pair on leading axes is named by its node, counted in C order
            label = "transport at node %d" if bad.ndim else "transport"
            ok = ~bad.ravel() if bad.ndim else ~bad
            check_nodes(ok, label, "between antipodal points is undefined", NormalNeighborhoodError)
        return X - (_dot(y, X) / denom)[..., None] * (x + y)

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
        return self.radius * x / _norm(x)[..., None]


@dataclass(frozen=True)
class HalfPlane(ManifoldSpec):
    """Poincare upper half plane (x, y), y > 0, metric (dx^2 + dy^2) / y^2.

    Flow, log and transport are closed forms in the chart. Written with
    complex numbers z = x + i y and V = Vx + i Vy, they come from the Cayley
    map z -> (z - z1) / (z - conj z1), which takes the base point z1 to the
    centre of the disk, where geodesics are diameters. Each form divides by
    y or by a chart length before it multiplies, so none of them overflows
    or loses digits to a subnormal at large or small x and y.
    """

    kind = HALF_PLANE
    chart_exit = "trajectory left the upper half plane"

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
        if not np.all(y > 0):  # an RK4 stage off the chart; a NaN fails too
            raise IntegrationError(self.chart_exit)
        out = np.empty_like(a)
        out[..., 0] = -(a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]) / y
        out[..., 1] = (a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]) / y
        return out

    def project_state(self, x, v):
        if not np.all(x[..., 1] > 0):  # so a NaN leaves the half plane too
            raise IntegrationError(self.chart_exit)
        return x, v

    def flow(self, x, v, s):
        # a diameter of the disk mapped back: with u = V / |V| (0 if V = 0),
        # tau = tanh(|V| s / 2 y1) and D = 1 + i u tau, the point is
        # z1 + 2 y1 tau u / D and the velocity V (1 - tau^2) / D^2. Only u tau
        # and tau^2 enter, so the sign of s goes into u and tau >= 0. As tau
        # -> 1, 1 - tau comes from expm1 and 1 - u_y from u_x^2 / (1 + u_y),
        # so that Re D = 1 - tau + tau (1 - u_y) cancels nowhere
        s = np.asarray(s, dtype=float)
        x1, y1, vx, vy = x[..., 0], x[..., 1], v[..., 0], v[..., 1]
        speed = np.hypot(vx, vy)
        unit = np.copysign(np.maximum(speed, _LEAST), s)
        ux, uy = vx / unit, vy / unit
        em = np.expm1(np.abs(s) * speed / y1)
        tau, lo = em / (em + 2.0), 2.0 / (em + 2.0)  # tau and 1 - tau
        dr = lo + tau * np.where(uy > 0, ux * ux / (1.0 + np.abs(uy)), 1.0 - uy)  # |u_y|: no 0 / 0 at u_y = -1
        di = tau * ux
        q = dr * dr + di * di  # |D|^2
        g = lo * (2.0 - lo) / q  # (1 - tau^2) / |D|^2, the ratio y(s) / y1
        c, t = (dr * dr - di * di) / q, -2.0 * dr * di / q  # conj(D)^2 / |D|^2
        pt = np.stack([x1 + 2.0 * y1 * tau * ux / q, y1 * g], axis=-1)
        return pt, np.stack([g * (c * vx - t * vy), g * (t * vx + c * vy)], axis=-1)

    def dist(self, x, y):
        # 2 asinh(|z2 - z1| / (2 sqrt(y1 y2))), stable for close points
        dq = np.hypot(y[..., 0] - x[..., 0], y[..., 1] - x[..., 1])
        return 2.0 * np.arcsinh(dq / (2.0 * np.sqrt(x[..., 1]) * np.sqrt(y[..., 1])))

    @staticmethod
    def _w(x, y):
        """dx = x2 - x1 and the unit (a, b) = w / |w| of w = z2 - conj z1."""
        dx, wy = y[..., 0] - x[..., 0], x[..., 1] + y[..., 1]
        m = np.hypot(dx, wy)
        return dx, dx / m, wy / m

    def log(self, x, y):
        # y1 d (2 y1 dx, dx^2 + dy (y1 + y2)) / (|z2 - z1| |w|), where
        # d / |z2 - z1| = asinh(r) / (r q) for r = |z2 - z1| / 2q and
        # q = sqrt(y1 y2). At r = 0 the vector is 0 for any finite factor
        y1, y2 = x[..., 1], y[..., 1]
        dx, a, b = self._w(x, y)
        dy, q = y2 - y1, np.sqrt(y1) * np.sqrt(y2)
        r = np.hypot(dx, dy) / (2.0 * q)
        c = np.arcsinh(r) / np.maximum(r, _LEAST) * (y1 / q)
        return np.stack([c * (2.0 * y1 * a), c * (dx * a + dy * b)], axis=-1)

    def transport(self, x, y, X):
        # X -> -(y2 / y1) (w / conj w) X as complex numbers: w / conj w is
        # (a + i b)^2, and at z2 = z1 the map is the identity
        _, a, b = self._w(x, y)
        g = y[..., 1] / x[..., 1]
        c, t = g * (b * b - a * a), -2.0 * g * a * b
        Xx, Xy = X[..., 0], X[..., 1]
        return np.stack([c * Xx - t * Xy, t * Xx + c * Xy], axis=-1)

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
        label = FLAT_TORUS + " circumferences"
        cs = as_numbers(label, self.circumferences, finite=True)
        if cs.ndim != 1 or not cs.size:
            raise DomainError("%s must be a nonempty list (got %r)" % (label, self.circumferences))
        object.__setattr__(self, "circumferences", tuple(as_number(label, c, positive=True) for c in cs.tolist()))

    @property
    def point_dim(self):
        return len(self.circumferences)

    def injectivity_radius(self):
        return 0.5 * min(self.circumferences)

    def wrap(self, x):
        L = np.asarray(self.circumferences)
        if not np.signbit(x).any() and (x < L).all():
            return x  # np.mod returns these bits too: no sign bit, each below L
        w = np.mod(x, L)
        # np.mod rounds a coordinate just below 0 up to L itself, which a
        # second wrap maps to 0: so L goes to 0 here, and a NaN stays NaN
        np.copyto(w, 0.0, where=w == L)
        return w

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
        coords = as_numbers("coords", self.coords)
        spec = self.manifold
        if coords.shape != (spec.point_dim,):
            raise DomainError("expected %d coordinates, got shape %r" % (spec.point_dim, coords.shape))
        spec.validate(coords, "point")
        object.__setattr__(self, "coords", held(spec.wrap(coords)))


@dataclass(frozen=True)
class TangentVector:
    base: ManifoldPoint
    components: np.ndarray

    def __post_init__(self):
        comps = held(as_numbers("components", self.components))
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
    if the trajectory leaves the chart domain: after a step, at a stage off
    the chart (a half-plane stage at y <= 0, even if the step ends above
    the axis), or at a stage whose arithmetic divides by zero or makes a
    NaN, before numpy warns of it.
    """
    steps = as_integer("steps", steps)
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    h = s_end / steps
    xs = np.empty((steps + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x, v
    with np.errstate(divide="raise", invalid="raise"):
        for i in range(steps):
            try:
                k1x, k1v = _geo_rhs(spec, x, v)
                k2x, k2v = _geo_rhs(spec, x + 0.5 * h * k1x, v + 0.5 * h * k1v)
                k3x, k3v = _geo_rhs(spec, x + 0.5 * h * k2x, v + 0.5 * h * k2v)
                k4x, k4v = _geo_rhs(spec, x + h * k3x, v + h * k3v)
                x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
                v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
                x, v = spec.project_state(x, v)
            except (IntegrationError, FloatingPointError):
                raise IntegrationError(spec.chart_exit, (xs[i].copy(), vs[i].copy())) from None
            xs[i + 1], vs[i + 1] = x, v
    return xs, vs


def _transport_steps(spec, points, X0):
    """X0, then X0 parallel transported along axis 0 of ``points`` (m+1, ...,
    d) to each sample in turn, each segment by the closed form
    ``spec.transport``: one array per sample, of that sample's shape, which
    the next step reads and nothing else holds. A flat chart's transport
    keeps its input, so there every step is X0 itself. The one transport
    loop; NormalNeighborhoodError names the failing segment."""
    points = np.asarray(points, dtype=float)
    X = np.asarray(X0, dtype=float)
    yield X
    for i in range(points.shape[0] - 1):
        try:
            X = spec.transport(points[i], points[i + 1], X)
        except NormalNeighborhoodError as err:
            raise NormalNeighborhoodError("segment %d: %s" % (i, err)) from None
        yield X


def transport_along(spec, points, X0):
    """Parallel transport X0 along axis 0 of ``points`` (m+1, ..., d); returns
    the field at every sample, in one array filled from the transport loop
    (``_transport_steps``). ``transport_along_rk4`` is its integrated
    oracle."""
    points = np.asarray(points, dtype=float)
    out = np.empty_like(points)
    for i, X in enumerate(_transport_steps(spec, points, X0)):
        out[i] = X
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
    p0, p1 = points[:-1], points[1:]
    still = np.all(dist(spec, p0, p1) <= 1e-15, axis=tuple(range(1, points.ndim - 1)))
    # every segment's geodesic at stage j, time j h / 2: k1 of substep k
    # reads stage 2k, k2 and k3 stage 2k + 1, k4 stage 2k + 2 (exact, as h
    # is a power of two)
    tau = np.arange(2 * RK4_SUBSTEPS + 1) * (0.5 * h)
    xs, ws = flow(spec, p0, log(spec, p0, p1), tau.reshape((-1,) + (1,) * (points.ndim - 1)))
    for i in range(points.shape[0] - 1):
        if still[i]:
            out[i + 1] = X
            continue

        def rhs(j, Xc):
            return -gamma_quad(spec, xs[j, i], ws[j, i], Xc)

        for k in range(RK4_SUBSTEPS):
            k1 = rhs(2 * k, X)
            k2 = rhs(2 * k + 1, X + 0.5 * h * k1)
            k3 = rhs(2 * k + 1, X + 0.5 * h * k2)
            k4 = rhs(2 * k + 2, X + h * k3)
            X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        X = spec.project_tangent(p1[i], X)
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

    Transport is parametrization independent; the s values, finite numbers
    (``as_numbers``), only fix the ordering and must be nondecreasing.
    Consecutive samples must not be antipodal (NormalNeighborhoodError
    names the segment).
    Each vector holds its own components, from the transport loop
    (``_transport_steps``): the same bits as ``transport_along``, and on a
    flat chart v0's own read-only components.
    """
    if not curve:
        raise DomainError("empty curve")
    if np.any(np.diff(as_numbers("s", [s for s, _ in curve], finite=True)) < 0):
        raise DomainError("curve samples must be ordered in s")
    first = curve[0][1]
    _check_same_base(first, v0)
    spec = first.manifold
    pts = np.stack([pt.coords for _, pt in curve])
    steps = _transport_steps(spec, pts, v0.components)
    return [TangentVector(ManifoldPoint(spec, x), X) for x, X in zip(pts, steps)]
