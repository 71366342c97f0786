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
"""

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
