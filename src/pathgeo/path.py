"""Discrete paths on a manifold: sampling, energy, length, concatenation.

A path gamma : [0,1] -> M is stored as N+1 samples on the uniform grid
t_i = i/N. Paths that take part in concatenation carry a *collar*: a
width delta such that the path is constant on [0, delta] and [1-delta, 1],
so joins stay smooth under the 2t reparametrization; the joined ends
coincide by the node rule of ``manifold.node_gaps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import manifold as mf
from .manifold import DomainError, NormalNeighborhoodError

DEFAULT_GRID = 256
DEFAULT_COLLAR = 1.0 / 16


@dataclass(frozen=True)
class DiscretePath:
    manifold: mf.ManifoldSpec
    samples: np.ndarray  # (N+1, d)
    collar: float = 0.0

    def __post_init__(self):
        spec = self.manifold
        samples = mf.as_numbers("samples", self.samples)
        if samples.ndim != 2 or samples.shape[1] != spec.point_dim:
            raise DomainError("samples must have shape (N+1, point_dim)")
        object.__setattr__(self, "samples", mf.held(spec.wrap(samples)))
        if self.n_segments < 2:
            raise DomainError("a path needs at least N = 2 segments")
        object.__setattr__(self, "collar", _as_collar(self.collar))
        check_fibers(spec, self.samples, self.collar, "sample %d")

    @property
    def n_segments(self):
        return self.samples.shape[0] - 1

    @property
    def grid(self):
        n = self.n_segments
        return np.arange(n + 1) / n

    def point(self, i):
        return mf.ManifoldPoint(self.manifold, self.samples[i])

    def start(self):
        return self.point(0)

    def end(self):
        return self.point(-1)

    def to_json(self):
        return {
            "manifold": self.manifold.to_json(),
            "collar": self.collar,
            "samples": self.samples,
        }

    @classmethod
    def from_json(cls, obj):
        mf.only_keys("path key", obj, ("manifold", "collar", "samples"), ("manifold", "samples"))
        return cls(
            mf.ManifoldSpec.from_json(obj["manifold"]),
            _copied(obj["samples"]),
            obj.get("collar", 0.0),
        )


@dataclass(frozen=True)
class PathTangentField:
    base: DiscretePath
    components: np.ndarray  # (N+1, d)

    def __post_init__(self):
        comps = mf.held(mf.as_numbers("components", self.components))
        object.__setattr__(self, "components", comps)
        if comps.shape != self.base.samples.shape:
            raise DomainError("field shape must match the base path grid")
        base = self.base
        check_fibers(base.manifold, base.samples, base.collar, vectors=comps, vector_label="field at sample %d")

    @property
    def manifold(self):
        return self.base.manifold

    def vector(self, i):
        return mf.TangentVector(self.base.point(i), self.components[i])

    def to_json(self):
        return {"base": self.base.to_json(), "components": self.components}

    @classmethod
    def from_json(cls, obj):
        mf.only_keys("field key", obj, ("base", "components"), ("base", "components"))
        return cls(DiscretePath.from_json(obj["base"]), _copied(obj["components"]))


def _copied(value):
    """A record's array ``value`` for its constructor: a copy of an ndarray, so
    a round trip never shares memory with its source, and lists as parsed."""
    return value.copy() if isinstance(value, np.ndarray) else value


def _as_collar(value):
    """``value`` as a collar width, a number in [0, 1/2): the one collar rule."""
    collar = mf.as_number("collar", value)
    if not (0.0 <= collar < 0.5):
        raise DomainError("collar must lie in [0, 1/2)")
    return collar


def _collar_nodes(n, collar):
    """The one collar rule: node i of the uniform n-segment grid is on the
    start collar of width ``collar`` when i/n <= collar + 1e-12, and on the
    end collar when i/n >= 1 - collar - 1e-12. Returns how many nodes each
    collar holds, its end sample included. Counted in O(1): i/n grows with
    i, and each collar's last (first) node is within one of its estimate."""
    head_t, tail_t = collar + 1e-12, 1.0 - collar - 1e-12
    k, m = int(head_t * n), math.ceil(tail_t * n)
    last = max(i for i in (k - 1, k, k + 1) if i >= 0 and i / n <= head_t)
    first = min(i for i in (m - 1, m, m + 1) if i / n >= tail_t)
    return last + 1, n + 1 - first


# nodes per block of whole fibers of the node check (``check_fibers``), so
# that its temporaries, per-node scalars and masks and a transport's stacked
# vectors, are the size of a block rather than of a sheet: 15 fibers at
# N = 4096. Blocks of one fiber cost a call of every test per fiber
_CHECK_NODES = 1 << 16


def check_fibers(spec, x, collar, point_label=None, vectors=None, vector_label=None):
    """The one node check of paths, fields and worldsheets. ``x`` holds the
    points (..., N+1, d) as their holder keeps them, wrapped once by its
    constructor, one fiber per leading index, each a path with collars of
    width ``collar``, which their holder's constructor checked
    (``_as_collar``). With ``point_label`` the points lie on the
    manifold (``validate``) and, on each collar, coincide with its end
    sample. The ``vectors`` (the shape of ``x``, or for a sheet a sequence
    of its per-fiber arrays), if given, are tangent at their points
    (``check_tangent``) and, on each collar, equal to the one at its end
    sample. Both within ``COINCIDENCE_TOL``. DomainError names the first
    failing node through ``point_label`` or ``vector_label``: ``sample %d``
    for a path, ``node (s=%d, t=%d)`` for a worldsheet, checked in one call
    over all its fibers. Each test runs over every fiber before the next
    test starts, so among several faults the first test's is named. Both
    collars are tested in one reduction; the per-node mask is built only on
    failure.

    A sheet of more than ``_CHECK_NODES`` nodes is checked one block of
    whole fibers at a time, its vectors stacked a block at a time, so the
    temporaries are a block's. Every test is elementwise per node or per
    fiber, so the sheet passes exactly when every block does. Once a block
    fails, the check runs over the whole sheet, in the order above, and
    names the fault by the sheet's own (s, t): only an error allocates
    sheet-sized temporaries."""
    step = max(1, _CHECK_NODES // x.shape[-2])
    if x.ndim > 2 and len(x) > step:
        try:
            for j in range(0, len(x), step):
                v = None if vectors is None else vectors[j : j + step]
                _check_block(spec, x[j : j + step], collar, point_label, v, vector_label)
            return
        except DomainError:
            pass  # named below, by the check over the whole sheet
    _check_block(spec, x, collar, point_label, vectors, vector_label)


def _check_block(spec, x, collar, point_label, vectors, vector_label):
    """``check_fibers`` over the points ``x`` and the ``vectors`` (stacked
    here if a sequence) of some fibers, in its order of tests."""
    if vectors is not None and not isinstance(vectors, np.ndarray):
        vectors = np.stack(vectors)
    if point_label:
        spec.validate(x, point_label)
    if vectors is not None:
        spec.check_tangent(x, vectors, vector_label)
    if not collar > 0:
        return
    n = x.shape[-2] - 1
    head, tail = _collar_nodes(n, collar)
    # the nodes of both collars, the end collar's counted back from -1 (node
    # n), and the end sample each must match (itself for the end samples)
    nodes = np.arange(-tail, head)
    ends = n * (nodes < 0)
    if point_label:
        near = mf.dist(spec, x.take(nodes, axis=-2), x.take(ends, axis=-2)) <= mf.COINCIDENCE_TOL
        if not near.all():
            _collar_fault(near, nodes, n, head, point_label, "does not coincide with")
    if vectors is not None:
        near = np.abs(vectors.take(nodes, axis=-2) - vectors.take(ends, axis=-2)) <= mf.COINCIDENCE_TOL
        if not near.all():
            _collar_fault(near.all(axis=-1), nodes, n, head, vector_label, "differs from the one at")


def _collar_fault(near, nodes, n, head, label, how):
    """DomainError naming the first node that is False in ``near``, a test
    over fibers and their collar ``nodes`` (indices into 0..n): on the start
    collar (the nodes before ``head``) if one fails there, else on the end
    collar."""
    ok = np.ones(near.shape[:-1] + (n + 1,), dtype=bool)
    ok[..., nodes] = near
    mf.check_nodes(ok[..., :head], label, "is in the start collar but %s t=0" % how)
    mf.check_nodes(ok, label, "is in the end collar but %s t=%d" % (how, n))


# ---------------------------------------------------------------------------
# evaluation and resampling
# ---------------------------------------------------------------------------


def chord_points(spec, samples, idx, frac):
    """The one chord evaluator: points at fractions ``frac`` of the chords
    samples[idx] -> samples[idx + 1], by log then flow; 0 and 1 are exact."""
    p0, p1 = samples[idx], samples[idx + 1]
    x = np.where((frac == 0.0)[..., None], p0, mf.flow(spec, p0, mf.log(spec, p0, p1), frac)[0])
    return np.where((frac == 1.0)[..., None], p1, x)


def evaluate_many(gamma, ts):
    """Positions at parameters ts (numbers in [0,1]) on the chords
    between consecutive samples; within 1e-12 of a grid node, its sample.
    Each chord read off the grid must lie within the injectivity radius
    (``segment_lengths``); the chords it does not read are not checked."""
    ts = mf.as_numbers("ts", ts)
    # written so that a NaN fails it too
    if not np.all((ts >= -1e-12) & (ts <= 1 + 1e-12)):
        raise DomainError("parameter outside [0, 1]")
    spec, samples, n = gamma.manifold, gamma.samples, gamma.n_segments
    u = np.clip(ts, 0.0, 1.0) * n
    idx = np.minimum(u.astype(int), n - 1)
    frac = u - idx
    frac = np.where(np.abs(frac - np.round(frac)) < 1e-12, np.round(frac), frac)
    read = np.unique(idx[(frac > 0) & (frac < 1)])
    if read.size:
        _within_radius(spec, mf.dist(spec, samples[read], samples[read + 1]), read, read + 1)
    return chord_points(spec, samples, idx, frac)


def evaluate(gamma, t):
    """gamma(t) as a ManifoldPoint."""
    return mf.ManifoldPoint(gamma.manifold, evaluate_many(gamma, [t])[0])


def resample(gamma, n, collar=None):
    """The same path re-sampled on a uniform n-grid."""
    n = mf.as_integer("n", n)
    pts = evaluate_many(gamma, np.arange(n + 1) / n)
    return DiscretePath(gamma.manifold, pts, gamma.collar if collar is None else collar)


def reparametrize(gamma, phi_values, collar=0.0):
    """Path t -> gamma(phi(t)) for nondecreasing phi values on a uniform grid."""
    phi_values = mf.as_numbers("phi_values", phi_values)
    if np.any(np.diff(phi_values) < -1e-12):
        raise DomainError("reparametrization must be nondecreasing")
    return DiscretePath(gamma.manifold, evaluate_many(gamma, phi_values), collar)


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def reverse(gamma):
    """Traversal in the opposite direction; an exact involution on samples."""
    return DiscretePath(gamma.manifold, gamma.samples[::-1].copy(), gamma.collar)


def concatenate(gamma1, gamma2):
    """gamma1 followed by gamma2 on a doubled grid (each run at speed 2t).

    Requires matching endpoints and strictly positive collars on both
    halves, so the join point is an honest constant plateau.
    """
    spec = gamma1.manifold
    gap = float(mf.node_gaps((spec, gamma1.samples[-1:]), (gamma2.manifold, gamma2.samples[:1]))[0])
    if gap > mf.COINCIDENCE_TOL:
        raise DomainError("paths are not composable: endpoint gap %.3g" % gap)
    if gamma1.collar <= 0 or gamma2.collar <= 0:
        raise DomainError("concatenation needs positive collars on both paths")
    samples = np.concatenate([gamma1.samples, gamma2.samples[1:]])
    # the collars keep their segments (``_collar_nodes``), re-expressed on
    # the joint grid
    n1, n2 = gamma1.n_segments, gamma2.n_segments
    head = _collar_nodes(n1, gamma1.collar)[0] - 1
    tail = _collar_nodes(n2, gamma2.collar)[1] - 1
    collar = min(head, tail, (n1 + n2) / 2 - 1) / (n1 + n2)
    return DiscretePath(spec, samples, collar)


def log_velocity(spec, points, step):
    """Discrete velocity along axis 0 of ``points`` via log maps of the
    neighbors, for nodes ``step`` apart.

    Central differences of neighbor logs in the interior, one-sided at the
    ends; chart independent by construction.
    """
    v = np.empty_like(points)
    fwd = mf.log(spec, points[:-1], points[1:])  # log(p_i -> p_{i+1})
    bwd = mf.log(spec, points[1:], points[:-1])  # log(p_i -> p_{i-1})
    v[0] = fwd[0] / step
    v[-1] = -bwd[-1] / step
    v[1:-1] = (fwd[1:] - bwd[:-1]) / (2 * step)
    return v


def velocity_components(gamma):
    """Discrete velocity at each sample of the path (see ``log_velocity``);
    every chord must lie within the injectivity radius (``segment_lengths``)."""
    segment_lengths(gamma.manifold, gamma.samples)
    return log_velocity(gamma.manifold, gamma.samples, 1.0 / gamma.n_segments)


def trapezoid_weights(n):
    """Trapezoid weights of a uniform n-segment grid, in units of its step."""
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    return w


def _trapezoid(values, dx):
    return float(np.sum(trapezoid_weights(len(values) - 1) * values) * dx)


def path_energy(gamma):
    """Discrete Dirichlet energy (1/2) integral of g(gamma', gamma') dt."""
    spec = gamma.manifold
    v = velocity_components(gamma)
    g = mf.inner(spec, gamma.samples, v, v)
    return 0.5 * _trapezoid(g, 1.0 / gamma.n_segments)


def segment_lengths(spec, samples, numbers=None):
    """The one chord measurer: lengths of the geodesic chords between
    consecutive samples. A chord at or beyond the injectivity radius is not
    unique: NormalNeighborhoodError names its samples, by ``numbers`` if given."""
    numbers = range(len(samples)) if numbers is None else numbers
    return _within_radius(spec, mf.dist(spec, samples[:-1], samples[1:]), numbers[:-1], numbers[1:])


def _within_radius(spec, d, first, second):
    """Chord lengths ``d``; chord k at or beyond the injectivity radius raises,
    naming its samples first[k] and second[k]."""
    bad = np.flatnonzero(~(d < spec.injectivity_radius()))
    if bad.size:
        k = bad[0]
        raise NormalNeighborhoodError("samples %d and %d are %.6g apart, at or beyond the "
                                      "injectivity radius; refine the grid" % (first[k], second[k], d[k]))
    return d


def arc_length(gamma):
    """Sum of the geodesic chord lengths between consecutive samples."""
    return float(np.sum(segment_lengths(gamma.manifold, gamma.samples)))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def collar_ramp(ts, collar):
    """Piecewise-linear time warp: 0 on [0, collar], 1 on [1-collar, 1]."""
    if collar == 0:
        return np.asarray(ts, dtype=float)
    return np.clip((np.asarray(ts, dtype=float) - collar) / (1 - 2 * collar), 0.0, 1.0)


def _ramp(n, collar):
    """The checked grid size and collar, and the collar-warped grid."""
    n, collar = mf.as_integer("n", n), _as_collar(collar)
    return n, collar, collar_ramp(np.arange(n + 1) / n, collar)


def make_constant_path(p, n=DEFAULT_GRID, collar=DEFAULT_COLLAR):
    n = mf.as_integer("n", n)
    return DiscretePath(p.manifold, np.tile(p.coords, (n + 1, 1)), collar)


def _point_param(spec, label, value):
    """The point parameter ``label`` as coordinates: point_dim numbers by
    the number rule (``as_numbers``), together a point of the manifold."""
    x = mf.as_numbers(label, value)
    if x.shape != (spec.point_dim,):
        raise DomainError("%s must be a list of %d coordinates (got %r)" % (label, spec.point_dim, value))
    spec.validate(x, label)
    return x


def make_line(spec, start, end, n=DEFAULT_GRID, collar=DEFAULT_COLLAR):
    """Chart-straight segment (euclidean / flat torus)."""
    start, end = _point_param(spec, "start", start), _point_param(spec, "end", end)
    n, collar, phi = _ramp(n, collar)
    return DiscretePath(spec, start + phi[:, None] * (end - start), collar)


def make_geodesic_arc(p, q, n=DEFAULT_GRID, collar=DEFAULT_COLLAR):
    """The minimizing geodesic from p to q, collar-warped; any manifold."""
    spec = p.manifold
    v = mf.log_map(p, q)
    n, collar, phi = _ramp(n, collar)
    pts, _ = mf.flow(spec, p.coords, v.components, phi)
    return DiscretePath(spec, pts, collar)


def make_great_circle_arc(spec, start, end, n=DEFAULT_GRID, collar=DEFAULT_COLLAR):
    if not isinstance(spec, mf.Sphere):
        raise DomainError("great_circle_arc requires a sphere")
    start, end = _point_param(spec, "start", start), _point_param(spec, "end", end)
    return make_geodesic_arc(mf.ManifoldPoint(spec, start), mf.ManifoldPoint(spec, end), n, collar)


def make_latitude_circle(
    spec, colatitude, n=DEFAULT_GRID, collar=DEFAULT_COLLAR, fraction=1.0, phase=0.0
):
    """Latitude circle at the given colatitude (sphere), constant angular speed."""
    if not isinstance(spec, mf.Sphere):
        raise DomainError("latitude_circle requires a sphere")
    n, collar, phi = _ramp(n, collar)
    phase, fraction = mf.as_number("phase", phase, finite=True), mf.as_number("fraction", fraction, finite=True)
    ang = phase + 2 * np.pi * fraction * phi
    colatitude = mf.as_number("colatitude", colatitude, finite=True)
    st, ct = np.sin(colatitude), np.cos(colatitude)
    pts = spec.radius * np.stack([st * np.cos(ang), st * np.sin(ang), ct * np.ones_like(ang)], axis=-1)
    return DiscretePath(spec, pts, collar)


def make_vertical_ray(spec, x, y_start, y_end, n=DEFAULT_GRID, collar=DEFAULT_COLLAR):
    """Vertical geodesic x = const in the half plane, constant hyperbolic speed."""
    if not isinstance(spec, mf.HalfPlane):
        raise DomainError("vertical_ray requires the hyperbolic half plane")
    n, collar, phi = _ramp(n, collar)
    y_start = mf.as_number("y_start", y_start, positive=True)
    ys = y_start * (mf.as_number("y_end", y_end, positive=True) / y_start) ** phi
    pts = np.stack([np.full_like(ys, mf.as_number("x", x, finite=True)), ys], axis=-1)
    return DiscretePath(spec, pts, collar)


# the path generators of a scenario config, by name; each names its
# function in this module, which the config looks up when it builds a path
GENERATORS = {
    "line": "make_line",
    "great_circle_arc": "make_great_circle_arc",
    "latitude_circle": "make_latitude_circle",
    "vertical_ray": "make_vertical_ray",
}


# ---------------------------------------------------------------------------
# field generators
# ---------------------------------------------------------------------------


def make_constant_field(gamma, components):
    """Same chart components at every sample (projected tangentially on the
    sphere), finite numbers by the number rule (``as_numbers``)."""
    comps = np.tile(mf.as_numbers("components", components, finite=True), (gamma.n_segments + 1, 1))
    return PathTangentField(gamma, gamma.manifold.project_tangent(gamma.samples, comps))


def make_zero_field(gamma):
    return PathTangentField(gamma, np.zeros_like(gamma.samples))


def make_normal_field(gamma, scale=1.0):
    """Unit normal to the path, scaled: 90-degree rotation in 2d charts,
    cross product with the radial direction on the sphere.

    The tangent direction at each sample points to its nearest distinct
    neighbor, searched forward first, then backward. Each search step
    measures the offsets k .. k+w-1 of the samples still without one in
    one ``dist`` call, w doubling, and at most about n pairs per call, so
    a plateau (a collar) costs O(log N) calls. Every chord must lie within
    the injectivity radius (``segment_lengths``).
    """
    scale = mf.as_number("scale", scale, finite=True)
    spec, x = gamma.manifold, gamma.samples
    n = gamma.n_segments
    segment_lengths(spec, x)
    partner = np.full(n + 1, -1)
    for step in (1, -1):
        live, k, w = np.flatnonzero(partner < 0), 1, 1
        while (live := live[(live + step * k >= 0) & (live + step * k <= n)]).size:
            w = min(w, max(n // live.size, 1))
            j = live[:, None] + step * (k + np.arange(w))
            inside = (j >= 0) & (j <= n)
            far = inside & (mf.dist(spec, x[live, None], x[np.clip(j, 0, n)]) > 1e-12)
            found = far.any(axis=1)
            # each row's first far offset
            partner[live[found]] = j[found, np.argmax(far[found], axis=1)]
            live, k, w = live[~found], k + w, 2 * w
    if np.any(partner < 0):
        raise DomainError("cannot orient a normal field on a constant path")
    u = mf.log(spec, x, x[partner])
    u = np.sign(partner - np.arange(n + 1))[:, None] * u / mf.norm(spec, x, u)[:, None]
    return PathTangentField(gamma, scale * spec.normal(x, u))


# the field generators of a scenario config, named as ``GENERATORS`` are
FIELD_GENERATORS = {
    "constant_in_chart": "make_constant_field",
    "normal_to_path": "make_normal_field",
    "zero": "make_zero_field",
}
