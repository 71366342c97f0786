"""Independent oracles that only the tests run.

Each one integrates with the fixed-step RK4 geodesic integrator
``manifold.integrate_batch`` where the library evaluates a closed form, so
agreement checks the closed forms against the equations they solve:

* ``log_map_shooting`` -- the Riemannian logarithm by shooting, the oracle
  of ``manifold.log_map``.
* ``integrate_sheet`` -- the worldsheet of ``pathspace.build_sheet``,
  integrated fiber by fiber.

``digit_groups`` is the oracle of the digit-group table of
``serialize._digit_tables``, which the library builds with numpy integer
arithmetic: here each entry is a Python string, made by ``%`` formatting
and ``str.rstrip``.

``exact_dist``, ``exact_log``, ``exact_flow`` and ``exact_transport`` are
the half-plane kernels in ``decimal`` arithmetic, to 40 digits, through the
hyperboloid model: formulas that share nothing with the chart forms of
``manifold.HalfPlane``. ``translation`` and ``scaling`` are half-plane
isometries that are exact in the chart.
"""

import decimal
import math

import numpy as np

from pathgeo import manifold as mf
from pathgeo.pathspace import Worldsheet


def tangent_basis(spec, x):
    """A g-orthonormal basis of the tangent space at one point x, rows =
    vectors: Gram-Schmidt in g on the chart basis projected onto the tangent
    space, the longest remaining vector first, until the rest vanish."""
    rest = list(spec.project_tangent(x, np.eye(spec.point_dim)))
    basis = []
    while rest:
        norms = [math.sqrt(spec.inner(x, v, v)) for v in rest]
        k = int(np.argmax(norms))
        if norms[k] < 1e-8:
            break
        b = rest.pop(k) / norms[k]
        basis.append(b)
        rest = [v - spec.inner(x, v, b) * b for v in rest]
    return np.stack(basis)


def log_map_shooting(p, q, max_iter=50, tol=1e-10, steps=200):
    """Riemannian logarithm via shooting: Newton on the RK4 endpoint residual.

    Independent of the closed forms (the endpoint is integrated, not
    evaluated); the closed-form log only seeds the first guess.
    """
    spec = p.manifold
    basis = tangent_basis(spec, p.coords)
    u = mf.log(spec, p.coords, q.coords)
    a = np.array([mf.inner(spec, p.coords, u, b) for b in basis])  # u in the basis

    def endpoint(coeffs):
        v0 = coeffs @ basis
        xs, _ = mf.integrate_batch(spec, p.coords, v0, 1.0, steps)
        return xs[-1]

    target = q.coords
    for _ in range(max_iter):
        r = spec.chart_diff(endpoint(a), target)
        if np.linalg.norm(r) < tol:
            break
        J = np.empty((len(r), len(a)))
        h = 1e-6
        for j in range(len(a)):
            ap = a.copy()
            am = a.copy()
            ap[j] += h
            am[j] -= h
            J[:, j] = spec.chart_diff(endpoint(ap), endpoint(am)) / (2 * h)
        delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
        a = a + delta
    return mf.TangentVector(p, a @ basis)


def integrate_sheet(spec, samples, vcomps, s_nodes, collar=0.0, steps_per_unit=1000):
    """The worldsheet of ``build_sheet`` from seed arrays, integrated node to
    node with the fixed-step RK4 integrator instead."""
    shape = (len(s_nodes),) + samples.shape
    points = np.empty(shape)
    vels = np.empty(shape)
    for sign in (1, -1):
        if sign > 0:
            targets = [(j, s) for j, s in enumerate(s_nodes) if s >= 0]
        else:
            targets = [(j, s) for j, s in enumerate(s_nodes) if s < 0][::-1]
        x, v = samples.copy(), vcomps.copy()
        cur = 0.0
        for j, s in targets:
            if s != cur:
                steps = max(1, int(np.ceil(steps_per_unit * abs(s - cur))))
                try:
                    xs, vs = mf.integrate_batch(spec, x, v, s - cur, steps)
                except mf.IntegrationError as err:
                    raise mf.IntegrationError(
                        "fiber integration failed between s=%g and s=%g" % (cur, s),
                        err.last_state,
                    )
                x, v = xs[-1], vs[-1]
                cur = s
            points[j], vels[j] = x, v
    return Worldsheet(spec, s_nodes, points, vels, collar)


def digit_groups():
    """The ``groups`` table of ``serialize._digit_tables`` from one Python
    string per entry: ten sections of 1000 entries, each followed by its
    variant with the trailing fraction zeros stripped (and the point too,
    if no digit follows it), in the order the library lays them out."""
    d2 = ["%02d" % v for v in range(100)]
    d3 = ["%03d" % v for v in range(1000)]
    texts = []

    def section(full, stripped):
        texts.extend(full + [""] * (1000 - len(full)) + stripped + [""] * (1000 - len(stripped)))

    def point(s, k):
        frac = s[k:].rstrip("0")
        return s[:k] + ("." + frac if frac else "")

    section(d2, d2)  # g0.int
    section([s[0] + "." + s[1] for s in d2], [point(s, 1) for s in d2])  # g0.point
    for z in range(3):  # g0.frac0 .. g0.frac2
        section(["0" * z + s for s in d2], ["0" * z + s.rstrip("0") for s in d2])
    section(d3, d3)  # int
    section(d3, [s.rstrip("0") for s in d3])  # frac
    for k in range(3):  # point0 .. point2
        section([s[:k] + "." + s[k:] for s in d3], [point(s, k) for s in d3])
    return np.frombuffer("".join(t.ljust(4, "\0") for t in texts).encode(), dtype=np.uint32)


# -- the half plane in decimal, through the hyperboloid model ----------------
#
# (x, y) maps to P = ((x^2+y^2+1)/2y, x/y, (x^2+y^2-1)/2y) on the hyperboloid
# <P,P> = -1 in Minkowski signature (-,+,+), where geodesics are cosh/sinh
# combinations. Away from i these formulas cancel: P is about (x^2+y^2)/2y,
# and -<P,Q> is 1 + d^2/2 as a difference of terms near |P|^2. Over the
# tests' draws (|x| <= 2e4, y >= 1e-6, chords >= 1e-8) that costs at most
# 45 digits, so they run at 100 to keep 40; ``exact_*(..., prec=140)``
# returns the same floats.

DIGITS = 100


def _decimals(a):
    return [decimal.Decimal(float(c)) for c in a]


def _hyp(x, y):
    q = x * x + y * y
    return (q + 1) / (2 * y), x / y, (q - 1) / (2 * y)


def _hyp_vec(x, y, vx, vy):
    dPdx = (x / y, 1 / y, x / y)
    dPdy = ((y * y - x * x - 1) / (2 * y * y), -x / (y * y), (y * y - x * x + 1) / (2 * y * y))
    return tuple(p * vx + q * vy for p, q in zip(dPdx, dPdy))


def _chart(P):
    t = P[0] - P[2]
    return P[1] / t, 1 / t


def _chart_vec(P, U):
    t, dt = P[0] - P[2], U[0] - U[2]
    return U[1] / t - P[1] * dt / (t * t), -dt / (t * t)


def _mink(A, B):
    return -A[0] * B[0] + A[1] * B[1] + A[2] * B[2]


def _floats(*values):
    return np.array([float(v) for v in values])


def exact_dist(z1, z2, prec=DIGITS):
    """The half-plane distance of the chart points z1, z2: arccosh -<P, Q>."""
    with decimal.localcontext(decimal.Context(prec=prec)):
        alpha = -_mink(_hyp(*_decimals(z1)), _hyp(*_decimals(z2)))
        return float((alpha + (alpha * alpha - 1).sqrt()).ln())


def exact_log(z1, z2, prec=DIGITS):
    """The half-plane log at z1 of z2: the chart image of (Q - alpha P)
    d / sinh d, with alpha = -<P, Q> = cosh d."""
    with decimal.localcontext(decimal.Context(prec=prec)):
        P, Q = _hyp(*_decimals(z1)), _hyp(*_decimals(z2))
        alpha = -_mink(P, Q)
        sinh = (alpha * alpha - 1).sqrt()
        scale = (alpha + sinh).ln() / sinh if sinh else 0
        return _floats(*_chart_vec(P, [(q - alpha * p) * scale for p, q in zip(P, Q)]))


def exact_flow(z, v, s, prec=DIGITS):
    """Point and velocity at parameter s of the half-plane geodesic from the
    chart point z with velocity v: cosh(sigma s) P + sinh(sigma s) U / sigma,
    with sigma^2 = <U, U>."""
    with decimal.localcontext(decimal.Context(prec=prec)):
        (x, y), V = _decimals(z), _decimals(v)
        P, U = _hyp(x, y), _hyp_vec(x, y, *V)
        sigma = _mink(U, U).sqrt()
        if not sigma:
            return _floats(x, y), _floats(*V)
        e = (decimal.Decimal(float(s)) * sigma).exp()
        cosh, sinh = (e + 1 / e) / 2, (e - 1 / e) / 2
        Ph = [cosh * p + sinh * u / sigma for p, u in zip(P, U)]
        Vh = [sinh * sigma * p + cosh * u for p, u in zip(P, U)]
        return _floats(*_chart(Ph)), _floats(*_chart_vec(Ph, Vh))


def exact_transport(z1, z2, X, prec=DIGITS):
    """X at z1 parallel transported to z2 along their geodesic: W + c (P + Q)
    with c = <Q, W> / (1 - <P, Q>)."""
    with decimal.localcontext(decimal.Context(prec=prec)):
        (x, y), V = _decimals(z1), _decimals(X)
        P, Q, W = _hyp(x, y), _hyp(*_decimals(z2)), _hyp_vec(x, y, *V)
        c = _mink(Q, W) / (1 - _mink(P, Q))
        return _floats(*_chart_vec(Q, [w + c * (p + q) for p, q, w in zip(P, Q, W)]))


# -- half-plane isometries that are exact in the chart -----------------------


def translation(b):
    """z -> z + b for a real b, as (point map, vector map): exact in the chart
    for points whose x and x + b are multiples of one power of two, such as
    a dyadic b and points on a grid of 2^-36 with |x|, |x + b| < 2^15."""
    return (lambda z: z + np.array([b, 0.0])), (lambda v: v)


def scaling(k):
    """z -> 2^k z, as (point map, vector map): exact in the chart for every
    point and vector that stays a normal float."""
    f = 2.0**k
    return (lambda z: z * f), (lambda v: v * f)
