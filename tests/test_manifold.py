import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgeo import category as cat
from pathgeo import checks
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo import serialize as ser

from oracles import log_map_shooting

SEED = 20260823


def builtin_specs():
    return [
        mf.ManifoldSpec.euclidean(2),
        mf.ManifoldSpec.sphere(1.0),
        mf.ManifoldSpec.hyperbolic_half_plane(),
        mf.ManifoldSpec.flat_torus([1.0, 2.0]),
    ]


def random_tangent(spec, x, rng, max_norm=1.0):
    """A random tangent vector at x of norm exactly ``max_norm``."""
    v = spec.random_vector(x, rng)
    n = mf.norm(spec, x, v)
    return v * (max_norm / n) if n > 0 else v


# ---------------------------------------------------------------------------
# metric and Christoffel symbols
# ---------------------------------------------------------------------------


def metric_matrix(spec, x):
    """Independent chart metric for the chart manifolds (not the sphere)."""
    d = spec.point_dim
    if spec.kind == mf.HALF_PLANE:
        return np.eye(2) / x[1] ** 2
    return np.eye(d)


def test_inner_matches_chart_metric():
    rng = np.random.default_rng(SEED)
    for spec in builtin_specs():
        if spec.kind == mf.SPHERE:
            continue
        for _ in range(20):
            x = spec.random_point(rng)
            u = rng.standard_normal(spec.point_dim)
            v = rng.standard_normal(spec.point_dim)
            expected = u @ metric_matrix(spec, x) @ v
            assert mf.inner(spec, x, u, v) == pytest.approx(expected, abs=1e-12)


def test_half_plane_metric_formula():
    spec = mf.ManifoldSpec.hyperbolic_half_plane()
    x, u = np.array([0.3, 2.0]), np.array([1.0, 0.0])
    assert mf.inner(spec, x, u, u) == pytest.approx(1.0 / 4.0, abs=1e-15)


def christoffel_fd(spec, x, h=1e-5):
    """Levi-Civita symbols from finite differences of the chart metric."""
    d = spec.point_dim
    dg = np.zeros((d, d, d))  # dg[l, i, j] = d_l g_ij
    for l in range(d):
        e = np.zeros(d)
        e[l] = h
        dg[l] = (metric_matrix(spec, x + e) - metric_matrix(spec, x - e)) / (2 * h)
    ginv = np.linalg.inv(metric_matrix(spec, x))
    gamma = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                acc = 0.0
                for l in range(d):
                    acc += ginv[k, l] * (dg[i, l, j] + dg[j, l, i] - dg[l, i, j])
                gamma[k, i, j] = 0.5 * acc
    return gamma


def test_christoffel_matches_finite_differences():
    rng = np.random.default_rng(SEED + 1)
    for spec in builtin_specs():
        if spec.kind == mf.SPHERE:
            continue  # embedded coordinates are not a chart
        for _ in range(10):
            x = spec.random_point(rng)
            got = spec.christoffel(x)
            want = christoffel_fd(spec, x)
            assert np.max(np.abs(got - want)) < 1e-7


def test_sphere_christoffel_is_constraint_form():
    spec = mf.ManifoldSpec.sphere(2.0)
    x = np.array([0.0, 0.0, 2.0])
    got = spec.christoffel(x)
    want = x[:, None, None] * np.eye(3) / 4.0
    assert np.max(np.abs(got - want)) == 0.0


def test_christoffel_is_vectorized_over_points():
    rng = np.random.default_rng(SEED + 14)
    for spec in builtin_specs():
        xs = np.stack([spec.random_point(rng) for _ in range(6)]).reshape(2, 3, -1)
        got = spec.christoffel(xs)
        d = spec.point_dim
        assert got.shape == (2, 3, d, d, d)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], spec.christoffel(xs[idx]))


def test_gamma_quad_consistent_with_array():
    rng = np.random.default_rng(SEED + 2)
    for spec in builtin_specs():
        for _ in range(10):
            x = spec.random_point(rng)
            a = rng.standard_normal(spec.point_dim)
            b = rng.standard_normal(spec.point_dim)
            g = spec.christoffel(x)
            want = np.einsum("kij,i,j->k", g, a, b)
            assert np.max(np.abs(mf.gamma_quad(spec, x, a, b) - want)) < 1e-12


# ---------------------------------------------------------------------------
# geodesics: closed forms vs the integrator
# ---------------------------------------------------------------------------


def test_rk4_matches_closed_form_flow():
    rng = np.random.default_rng(SEED + 3)
    for spec in builtin_specs():
        xs = np.stack([spec.random_point(rng) for _ in range(20)])
        vs = np.stack([random_tangent(spec, x, rng, max_norm=1.5) for x in xs])
        got, gotv = mf.integrate_batch(spec, xs, vs, 1.0, 1000)
        want, wantv = mf.flow(spec, xs, vs, 1.0)
        assert np.max(mf.dist(spec, got[-1], want)) < 1e-6
        assert np.max(np.abs(gotv[-1] - wantv)) < 1e-5


GATED_SEEDS = (42, 1, 3, 7, 1234)


def report_draws(label, draws):
    """(spec, tolerance, cases) of the manifold-suite property ``label`` for
    each built-in manifold at each gated seed: ``draws(spec, rng, 10)`` on
    the rng the check report hands that property."""
    base, first, _, table = checks.PROPERTY_TABLES["manifold"]
    off, tol = next((k, tol) for k, (name, _, tol) in enumerate(table, first) if name == label)
    for seed in GATED_SEEDS:
        for idx, spec in enumerate(checks.builtin_manifolds().values()):
            yield spec, tol, draws(spec, np.random.default_rng(seed + base + 1000 * idx + off), 10)


def test_the_geodesic_oracle_moves_by_less_than_its_tolerance_over_1e4_at_twice_its_steps():
    for spec, tol, (xs, vs) in report_draws("geodesic_oracle", checks._geodesic_draws):
        once, _ = mf.integrate_batch(spec, xs, vs, 1.0, mf.GEODESIC_ORACLE_STEPS)
        twice, _ = mf.integrate_batch(spec, xs, vs, 1.0, 2 * mf.GEODESIC_ORACLE_STEPS)
        assert np.max(mf.dist(spec, once[-1], twice[-1])) < tol / 1e4, spec.kind


def test_the_transport_oracle_moves_by_less_than_its_tolerance_over_1e4_at_twice_its_substeps(monkeypatch):
    substeps = mf.RK4_SUBSTEPS
    for spec, tol, (curves, w) in report_draws("transport_isometry", checks._transport_draws):
        once = mf.transport_along_rk4(spec, curves, w)
        with monkeypatch.context() as m:
            m.setattr(mf, "RK4_SUBSTEPS", 2 * substeps)
            twice = mf.transport_along_rk4(spec, curves, w)
        assert np.max(np.abs(once - twice)) < tol / 1e4, spec.kind


def forbid(monkeypatch, names):
    """Every closed form ``names`` of every model raises while the test runs."""

    def closed_form(*args):
        raise AssertionError("an oracle called a closed form")

    for cls in (mf.ManifoldSpec, *mf._MODELS.values()):
        for name in names:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, closed_form)


def test_each_rk4_oracle_runs_without_the_closed_form_it_checks(monkeypatch):
    rng = np.random.default_rng(SEED + 37)
    cases = []
    for spec in builtin_specs():
        x = spec.random_point(rng)
        v = random_tangent(spec, x, rng)
        curve, _ = mf.flow(spec, x, v, np.linspace(0, 1, 5)[:, None])
        cases.append((spec, x, v, curve, random_tangent(spec, x, rng)))
    with monkeypatch.context() as m:
        forbid(m, ("flow", "dist", "log", "transport"))
        for spec, x, v, _, _ in cases:
            mf.integrate_batch(spec, x, v, 1.0, 4)
    forbid(monkeypatch, ("transport",))
    for spec, _, _, curve, w in cases:
        mf.transport_along_rk4(spec, curve, w)


def test_great_circle_closed_form():
    spec = mf.ManifoldSpec.sphere(1.0)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    for s in (0.0, 0.5, np.pi / 2, 2.0):
        got, gotv = mf.flow(spec, x, v, s)
        assert np.allclose(got, [math.cos(s), math.sin(s), 0.0], atol=1e-15)
        assert np.allclose(gotv, [-math.sin(s), math.cos(s), 0.0], atol=1e-15)


def test_vertical_ray_is_half_plane_geodesic():
    spec = mf.ManifoldSpec.hyperbolic_half_plane()
    x = np.array([0.7, 1.0])
    v = np.array([0.0, 1.0])  # unit speed, straight up
    got, _ = mf.flow(spec, x, v, 1.3)
    assert np.allclose(got, [0.7, math.exp(1.3)], atol=1e-12)


def test_geodesics_have_constant_speed():
    rng = np.random.default_rng(SEED + 4)
    for spec in builtin_specs():
        x = spec.random_point(rng)
        v = random_tangent(spec, x, rng, max_norm=1.2)
        xs, vs = mf.integrate_batch(spec, x, v, 1.0, 500)
        speeds = mf.norm(spec, xs, vs)
        assert np.max(np.abs(speeds - speeds[0])) < 1e-9


def test_flow_at_zero_is_identity():
    rng = np.random.default_rng(SEED + 5)
    for spec in builtin_specs():
        x = spec.random_point(rng)
        v = random_tangent(spec, x, rng)
        got, gotv = mf.flow(spec, x, v, 0.0)
        assert np.max(mf.dist(spec, got, x)) < 1e-15
        assert np.max(np.abs(gotv - v)) < 1e-12


def test_half_plane_leaving_chart_raises():
    spec = mf.ManifoldSpec.euclidean(2)
    # the integrator itself never leaves euclidean space; use the half plane
    spec = mf.ManifoldSpec.hyperbolic_half_plane()
    with pytest.raises(mf.DomainError):
        mf.ManifoldPoint(spec, [0.0, -1.0])


# ---------------------------------------------------------------------------
# distance, exp, log
# ---------------------------------------------------------------------------


def test_sphere_distance_closed_form():
    spec = mf.ManifoldSpec.sphere(2.0)
    rng = np.random.default_rng(SEED + 6)
    for _ in range(20):
        x = spec.random_point(rng)
        y = spec.random_point(rng)
        want = 2.0 * math.acos(np.clip(np.dot(x, y) / 4.0, -1.0, 1.0))
        assert mf.dist(spec, x, y) == pytest.approx(want, abs=1e-9)


def sphere_dist_with_np_cross(r, x, y):
    """The sphere distance as written with np.cross: the bit-exact reference."""
    c = np.sum(x * y, axis=-1) / r**2
    s = np.linalg.norm(np.cross(x, y), axis=-1) / r**2
    return r * np.arctan2(s, c)


@pytest.mark.parametrize("lead", [(), (5,), (4, 7)], ids=["0-axes", "1-axis", "2-axes"])
@pytest.mark.parametrize("d", range(1, 10))
def test_coordinate_sums_are_bit_identical_to_numpy_reductions(d, lead):
    rng = np.random.default_rng(SEED + 16)
    # mixed magnitudes so that the order of the additions shows in the bits
    a = rng.standard_normal(lead + (d,)) * 10.0 ** rng.integers(-8, 9, lead + (d,))
    b = rng.standard_normal(lead + (d,))
    # signed zeros: a node whose products are all -0.0, and one lone -0.0
    a[(0,) * len(lead)], b[(0,) * len(lead)] = -0.0, np.abs(b[(0,) * len(lead)])
    b.flat[-1] = -0.0
    for u, w in ((a, b), (a, a), (b[..., ::-1], a)):
        assert mf._dot(u, w).tobytes() == np.sum(u * w, axis=-1).tobytes()
        assert mf._norm(u).tobytes() == np.linalg.norm(u, axis=-1).tobytes()


@pytest.mark.parametrize("shape", [(3,), (1, 3), (64, 3), (4097, 3), (5, 7, 3)])
def test_sphere_distance_is_bit_identical_to_cross_product_form(shape):
    rng = np.random.default_rng(SEED + 15)
    for r in (1.0, 2.5):
        spec = mf.ManifoldSpec.sphere(r)
        x = spec.retract(rng.standard_normal(shape))
        y = spec.retract(rng.standard_normal(shape))
        # near-coincident and near-antipodal pairs as well as generic ones
        for b in (y, spec.retract(x + 1e-9 * y), spec.retract(-x + 1e-7 * y), x):
            got = mf.dist(spec, x, b)
            assert np.array_equal(got, sphere_dist_with_np_cross(r, x, b))
        # one point against many broadcasts like np.cross
        one = x.reshape(-1, 3)[0]
        assert np.array_equal(mf.dist(spec, one, y), sphere_dist_with_np_cross(r, one, y))


def test_half_plane_distance_closed_form():
    spec = mf.ManifoldSpec.hyperbolic_half_plane()
    # same-x pair: d = |log(y2/y1)|
    assert mf.dist(spec, np.array([0.3, 1.0]), np.array([0.3, math.e])) == pytest.approx(
        1.0, abs=1e-12
    )
    # standard formula via arcosh
    rng = np.random.default_rng(SEED + 7)
    for _ in range(20):
        p = spec.random_point(rng)
        q = spec.random_point(rng)
        arg = 1.0 + ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) / (2 * p[1] * q[1])
        want = math.acosh(arg)
        assert mf.dist(spec, p, q) == pytest.approx(want, abs=1e-10)


def test_torus_distance_wraps():
    spec = mf.ManifoldSpec.flat_torus([1.0, 2.0])
    d = mf.dist(spec, np.array([0.05, 0.0]), np.array([0.95, 0.0]))
    assert d == pytest.approx(0.1, abs=1e-12)


TORUS = mf.ManifoldSpec.flat_torus([1.0, 2.0])


def wrap_edges(L):
    """Coordinates at the edges of a circumference L: np.mod takes those just
    below 0 to L itself, outside [0, L)."""
    return [-0.0, -5e-324, -1e-20, float(np.nextafter(L, 0.0)), L, 3 * L, -7 * L, 1e300, -1e300]


# torus points, each coordinate an edge of its circumference or any finite float
torus_points = st.lists(
    st.tuples(*(st.one_of(st.sampled_from(wrap_edges(L)), st.floats(allow_nan=False, allow_infinity=False))
                for L in TORUS.circumferences)),
    min_size=3, max_size=12,
).map(np.array)


def test_torus_wrap_lands_in_the_domain_at_its_edges():
    L = np.asarray(TORUS.circumferences)
    # a coordinate just below 0 wrapped to L, and a second wrap moved it to 0
    assert TORUS.wrap(np.array([-1e-20, 0.0])).tolist() == [0.0, 0.0]
    for edges in zip(*(wrap_edges(c) for c in TORUS.circumferences)):
        w = TORUS.wrap(np.array(edges))
        assert np.all((w >= 0.0) & (w < L)), edges


def test_torus_wrap_returns_a_point_in_the_domain_as_it_is():
    # np.mod returns a coordinate that has no sign bit and lies below L as
    # it is, so wrap returns such a point itself and copies nothing; every
    # other coordinate goes through np.mod, with L taken to 0
    L = np.asarray(TORUS.circumferences)
    x = np.random.default_rng(5).uniform(0.0, 1.0, (64, 2)) * L
    assert TORUS.wrap(x) is x
    for k, c in enumerate(TORUS.circumferences):
        inside = [0.0, 5e-324, float(np.nextafter(c, 0.0))]
        edges = inside + [-0.0, c, -1e-17, math.nan]
        x = np.full((len(edges), 2), 0.5)
        x[:, k] = edges
        expected = np.mod(x, L)
        expected[expected == L] = 0.0
        assert TORUS.wrap(x).tobytes() == expected.tobytes(), c
        head = x[: len(inside)]
        assert np.mod(head, L).tobytes() == head.tobytes()
        assert TORUS.wrap(head) is head


def test_torus_wrap_keeps_a_nan():
    w = TORUS.wrap(np.array([[np.nan, 0.5], [-1e-20, np.nan]]))
    assert np.isnan(w).tolist() == [[True, False], [False, True]]
    assert w[0, 1] == 0.5 and w[1, 0] == 0.0


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(torus_points)
def test_hypothesis_torus_wrap_is_idempotent_and_lands_in_the_domain(x):
    w = TORUS.wrap(x)
    assert TORUS.wrap(w).tobytes() == w.tobytes()
    assert np.all((w >= 0.0) & (w < np.asarray(TORUS.circumferences)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(torus_points)
def test_hypothesis_torus_path_records_round_trip_at_the_wrap_edges(x):
    # a sample at (-1e-20, 0) was held as (1, 0) and read back as (0, 0)
    path = pth.DiscretePath(TORUS, x)
    back = pth.DiscretePath.from_json(ser.loads(ser.dumps(path.to_json())))
    assert back.samples.tobytes() == path.samples.tobytes()


def test_exp_log_roundtrip():
    rng = np.random.default_rng(SEED + 8)
    for spec in builtin_specs():
        inj = spec.injectivity_radius()
        cap = 0.9 * inj if math.isfinite(inj) else 2.0
        for _ in range(25):
            x = spec.random_point(rng)
            v = random_tangent(spec, x, rng, max_norm=cap * rng.uniform(0.1, 1.0))
            p = mf.ManifoldPoint(spec, x)
            q = mf.exp_map(p, mf.TangentVector(p, v))
            back = mf.log_map(p, q)
            assert np.max(np.abs(back.components - v)) < 1e-9


def test_log_norm_equals_distance():
    rng = np.random.default_rng(SEED + 9)
    for spec in builtin_specs():
        for _ in range(15):
            x = spec.random_point(rng)
            v = random_tangent(spec, x, rng, max_norm=0.3)
            p = mf.ManifoldPoint(spec, x)
            q = mf.exp_map(p, mf.TangentVector(p, v))
            u = mf.log(spec, x, q.coords)
            assert mf.norm(spec, x, u) == pytest.approx(
                float(mf.dist(spec, x, q.coords)), abs=1e-10
            )


def test_shooting_log_matches_closed_form():
    rng = np.random.default_rng(SEED + 10)
    for spec in builtin_specs():
        x = spec.random_point(rng)
        v = random_tangent(spec, x, rng, max_norm=0.4)
        p = mf.ManifoldPoint(spec, x)
        q = mf.exp_map(p, mf.TangentVector(p, v))
        shot = log_map_shooting(p, q)
        assert np.max(np.abs(shot.components - v)) < 1e-6


def test_log_beyond_injectivity_radius_raises():
    spec = mf.ManifoldSpec.sphere(1.0)
    p = mf.ManifoldPoint(spec, [1.0, 0.0, 0.0])
    q = mf.ManifoldPoint(spec, [-1.0, 0.0, 0.0])
    with pytest.raises(mf.NormalNeighborhoodError):
        mf.log_map(p, q)


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------


def test_transport_preserves_inner_products():
    rng = np.random.default_rng(SEED + 11)
    for spec in builtin_specs():
        x = spec.random_point(rng)
        v = random_tangent(spec, x, rng, max_norm=1.0)
        w1 = random_tangent(spec, x, rng, max_norm=1.0)
        w2 = random_tangent(spec, x, rng, max_norm=1.0)
        pts, _ = mf.flow(spec, x[None], v[None], np.linspace(0, 1, 65)[:, None])
        curve = pts[:, 0, :]
        m1 = mf.transport_along(spec, curve, w1)
        m2 = mf.transport_along(spec, curve, w2)
        g = mf.inner(spec, curve, m1, m2)
        assert np.max(np.abs(g - g[0])) < 1e-9


def test_transport_along_geodesic_keeps_velocity():
    # the velocity of a geodesic is parallel along it
    rng = np.random.default_rng(SEED + 12)
    for spec in builtin_specs():
        x = spec.random_point(rng)
        v = random_tangent(spec, x, rng, max_norm=0.8)
        ss = np.linspace(0, 1, 65)
        pts, vels = mf.flow(spec, x[None], v[None], ss[:, None])
        curve, vcurve = pts[:, 0, :], vels[:, 0, :]
        moved = mf.transport_along(spec, curve, v)
        assert np.max(np.abs(moved - vcurve)) < 1e-7


def test_sphere_latitude_holonomy():
    # transport around the colatitude-theta circle rotates by 2 pi (1 - cos theta)
    spec = mf.ManifoldSpec.sphere(1.0)
    theta = 1.1
    n = 2048
    ang = 2 * np.pi * np.arange(n + 1) / n
    st, ct = math.sin(theta), math.cos(theta)
    curve = np.stack([st * np.cos(ang), st * np.sin(ang), ct * np.ones_like(ang)], axis=-1)
    v0 = np.array([0.0, 0.0, 1.0])
    v0 = v0 - np.dot(v0, curve[0]) * curve[0]
    v0 /= np.linalg.norm(v0)
    moved = mf.transport_along(spec, curve, v0)
    cosang = np.clip(np.dot(moved[-1], v0), -1.0, 1.0)
    got = math.acos(cosang)
    want = 2 * math.pi * (1 - math.cos(theta))
    want = min(want, 2 * math.pi - want)  # holonomy angle folded into [0, pi]
    assert abs(got - want) < 1e-4


def test_closed_form_transport_matches_rk4_oracle():
    rng = np.random.default_rng(SEED + 13)
    for spec in builtin_specs():
        for _ in range(5):
            x = spec.random_point(rng)
            v = random_tangent(spec, x, rng, max_norm=1.0)
            w = random_tangent(spec, x, rng, max_norm=1.0)
            pts, _ = mf.flow(spec, x[None], v[None], np.linspace(0, 1, 33)[:, None])
            curve = pts[:, 0, :]
            # a polyline of short non-geodesic segments through nearby points
            poly = curve + 0.01 * rng.standard_normal(curve.shape)
            wp = w
            if spec.kind == mf.SPHERE:
                poly /= np.linalg.norm(poly, axis=-1, keepdims=True)
                wp = w - np.dot(w, poly[0]) * poly[0]
            for c, X in ((curve, w), (poly, wp)):
                got = mf.transport_along(spec, c, X)
                want = mf.transport_along_rk4(spec, c, X)
                assert np.max(np.abs(got - want)) < 1e-9


def test_parallel_transport_gives_the_bits_of_transport_along_one_vector_each():
    rng = np.random.default_rng(SEED + 23)
    for spec in builtin_specs():
        x = spec.random_point(rng)
        v = random_tangent(spec, x, rng, max_norm=1.0)
        pts, _ = mf.flow(spec, x[None], v[None], np.linspace(0, 1, 9)[:, None])
        curve = [(s, mf.ManifoldPoint(spec, p)) for s, p in zip(np.linspace(0, 1, 9), pts[:, 0])]
        v0 = mf.TangentVector(curve[0][1], random_tangent(spec, x, rng, max_norm=1.0))
        moved = mf.parallel_transport(curve, v0)
        want = mf.transport_along(spec, np.stack([p.coords for _, p in curve]), v0.components)
        assert np.stack([m.components for m in moved]).tobytes() == want.tobytes()
        for (_, p), m in zip(curve, moved):
            assert m.base.coords.tobytes() == p.coords.tobytes()
            assert m.components.base.shape == (spec.point_dim,)  # its own vector, no wider array
        if spec.kind in (mf.EUCLIDEAN, mf.FLAT_TORUS):  # a flat chart keeps v0
            assert all(np.shares_memory(m.components, v0.components) for m in moved)
        else:
            assert not any(np.shares_memory(a.components, b.components) for a, b in zip(moved, moved[1:]))


def test_transport_across_antipodal_samples_is_rejected():
    spec = mf.ManifoldSpec.sphere(2.0)
    curve = [(0.0, mf.ManifoldPoint(spec, [0, 0, 2])), (0.5, mf.ManifoldPoint(spec, [2, 0, 0])),
             (1.0, mf.ManifoldPoint(spec, [-2, 0, 0]))]
    v0 = mf.TangentVector(curve[0][1], [1.0, 0.0, 0.0])
    with pytest.raises(mf.NormalNeighborhoodError, match="segment 1"):
        mf.parallel_transport(curve, v0)


def test_transport_rejects_a_pair_just_inside_the_antipodal_guard():
    # r^2 + x.y = 1 - cos(1e-6), about 5e-13: inside the guard's 1e-12 r^2
    # though far above rounding, so a narrower guard lets it through
    spec = mf.ManifoldSpec.sphere(1.0)
    eps = 1e-6
    x = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    y = np.array([[0.0, 1.0, 0.0], [-math.cos(eps), math.sin(eps), 0.0]])
    assert 1e-14 < 1.0 + np.dot(x[1], y[1]) < 1e-12
    X = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(mf.NormalNeighborhoodError, match="^transport at node 1 between antipodal points is undefined$"):
        spec.transport(x, y, X)


# ---------------------------------------------------------------------------
# serialization and validation
# ---------------------------------------------------------------------------


def test_manifold_spec_json_roundtrip():
    for spec in builtin_specs():
        assert mf.ManifoldSpec.from_json(spec.to_json()) == spec


def test_manifold_spec_json_bytes():
    assert [json.dumps(spec.to_json()) for spec in builtin_specs()] == [
        '{"kind": "euclidean", "dim": 2}',
        '{"kind": "sphere", "radius": 1.0}',
        '{"kind": "hyperbolic_half_plane"}',
        '{"kind": "flat_torus", "circumferences": [1.0, 2.0]}',
    ]


def test_models_hold_only_their_parameters():
    fields = {type(s): [f.name for f in dataclasses.fields(s)] for s in builtin_specs()}
    assert fields == {
        mf.Euclidean: ["dim"],
        mf.Sphere: ["radius"],
        mf.HalfPlane: [],
        mf.FlatTorus: ["circumferences"],
    }
    assert [s.kind for s in builtin_specs()] == [
        mf.EUCLIDEAN, mf.SPHERE, mf.HALF_PLANE, mf.FLAT_TORUS
    ]
    assert mf.Sphere.kind == mf.SPHERE and mf.Sphere() == mf.ManifoldSpec.sphere(1.0)


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda: mf.HalfPlane.sphere(1.0), lambda: mf.Sphere(1.0)),
        (lambda: mf.Euclidean.flat_torus([1, 2]), lambda: mf.FlatTorus((1.0, 2.0))),
        (lambda: mf.FlatTorus([1.0, 2]), lambda: mf.ManifoldSpec.flat_torus((1, 2.0))),
        (lambda: mf.FlatTorus(np.array([1.0, 2.0])), lambda: mf.ManifoldSpec.flat_torus([1, 2])),
        (lambda: mf.ManifoldSpec.flat_torus(c for c in (1, 2)), lambda: mf.FlatTorus([1, 2])),
        (lambda: mf.Euclidean(np.int64(3)), lambda: mf.ManifoldSpec.euclidean(3)),
        (lambda: mf.Sphere(2), lambda: mf.ManifoldSpec.sphere(2.0)),
        (lambda: mf.ManifoldSpec.from_json({"kind": "sphere", "radius": 1}), lambda: mf.Sphere()),
    ],
    ids=["classmethod-on-other-model", "torus-classmethod-on-euclidean", "torus-list",
         "torus-array", "torus-generator", "numpy-int-dim", "int-radius", "json-int-radius"],
)
def test_equal_specs_are_equal_and_hashable(build, want):
    spec, want = build(), want()
    assert type(spec) is type(want) and spec == want and hash(spec) == hash(want)
    assert mf.ManifoldSpec.from_json(spec.to_json()) == spec
    assert {spec: 1}[want] == 1


@pytest.mark.parametrize(
    "build, needle",
    [
        (lambda: mf.ManifoldSpec("sphere", radius=1.0, dim=5), "ManifoldSpec takes no kind"),
        (lambda: mf.ManifoldSpec("flat_torus", circumferences=[1.0, 2.0]), "takes no kind"),
        (lambda: mf.Sphere("euclidean"), "sphere radius must be a positive finite number"),
        (lambda: mf.Euclidean(2.7), "euclidean dim must be an integer >= 1 (got 2.7)"),
        (lambda: mf.Euclidean(True), "euclidean dim must be an integer >= 1 (got True)"),
        (lambda: mf.Euclidean(2.0), "euclidean dim must be an integer >= 1 (got 2.0)"),
        (lambda: mf.Euclidean("2"), "euclidean dim must be an integer >= 1 (got '2')"),
        (lambda: mf.Sphere("abc"), "sphere radius must be a positive finite number (got 'abc')"),
        (lambda: mf.Sphere(float("nan")), "radius must be a positive finite number (got nan)"),
        (lambda: mf.Sphere(float("inf")), "radius must be a positive finite number (got inf)"),
        (lambda: mf.FlatTorus(3.0), "flat_torus circumferences must be a nonempty list"),
        (lambda: mf.FlatTorus("12"), "flat_torus circumferences must be a finite number (got '12')"),
        (lambda: mf.FlatTorus([]), "flat_torus circumferences must be a nonempty list"),
        (lambda: mf.FlatTorus([1.0, float("nan")]), "flat_torus circumferences"),
        (lambda: mf.ManifoldSpec.from_json({"kind": "sphere", "radius": "abc"}), "sphere radius"),
        (lambda: mf.ManifoldSpec.from_json({"kind": "sphere", "radius": 1.0, "dim": 5}),
         "unknown sphere parameter 'dim' (known: radius)"),
        (lambda: mf.ManifoldSpec.from_json({"kind": "hyperbolic_half_plane", "radius": 1.0}),
         "unknown hyperbolic_half_plane parameter 'radius' (known: none)"),
        (lambda: mf.ManifoldSpec.from_json({"dim": 2}), "unknown manifold kind: None"),
        (lambda: mf.ManifoldSpec.from_json("sphere"), "manifold must be a JSON object"),
    ],
    ids=["kind-constructor", "kind-constructor-torus", "kind-as-radius", "fractional-dim",
         "bool-dim", "float-dim", "string-dim", "string-radius", "nan-radius", "inf-radius",
         "scalar-circumferences", "string-circumferences", "no-circumferences",
         "nan-circumference", "json-string-radius", "json-foreign-parameter",
         "json-parameter-of-another-model", "json-no-kind", "json-not-an-object"],
)
def test_misbuilt_specs_are_domain_errors(build, needle):
    with pytest.raises(mf.DomainError) as exc:
        build()
    assert needle in str(exc.value)


@pytest.mark.parametrize(
    "record, needle",
    [
        ({"kind": "euclidean"}, "euclidean needs the parameter 'dim'"),
        ({"kind": "flat_torus"}, "flat_torus needs the parameter 'circumferences'"),
    ],
    ids=["euclidean", "flat_torus"],
)
def test_a_record_missing_a_parameter_names_it(record, needle):
    with pytest.raises(mf.DomainError, match=needle):
        mf.ManifoldSpec.from_json(record)
    # a parameter with a default may be left out
    assert mf.ManifoldSpec.from_json({"kind": "sphere"}) == mf.Sphere(1.0)


@pytest.mark.parametrize("value", [2, np.int64(2)], ids=["int", "numpy-int"])
def test_the_integer_rule_keeps_integers(value):
    assert mf.as_integer("n", value) == 2 and type(mf.as_integer("n", value)) is int


@pytest.mark.parametrize("value", [0, -3, 2.5, 2.0, 1e300, True, "2", None], ids=repr)
def test_the_integer_rule_rejects_everything_else(value):
    with pytest.raises(mf.DomainError, match=r"^n must be an integer >= 1 \(got "):
        mf.as_integer("n", value)


@pytest.mark.parametrize("value", ["1", True, None, [1.0]], ids=repr)
def test_the_number_rule_rejects_what_is_not_a_number(value):
    with pytest.raises(mf.DomainError, match=r"^x must be a number \(got "):
        mf.as_number("x", value)
    assert mf.as_number("x", np.float32(0.5)) == 0.5 and mf.as_number("x", -3) == -3.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")], ids=repr)
def test_the_finite_number_rule_rejects_nan_and_inf(value):
    assert not math.isfinite(mf.as_number("x", value))  # the plain rule takes them
    with pytest.raises(mf.DomainError, match=r"^x must be a finite number \(got "):
        mf.as_number("x", value, finite=True)
    assert mf.as_number("x", -3, finite=True) == -3.0


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["1e400", "-1e400"])
@pytest.mark.parametrize("rule", ["plain", "finite", "positive"])
def test_the_number_rule_rejects_an_int_beyond_the_float_range(value, rule):
    kind = {"plain": "", "finite": "finite ", "positive": "positive finite "}[rule]
    with pytest.raises(mf.DomainError, match=r"^radius must be a %snumber \(got a value beyond the float range\)$" % kind):
        mf.as_number("radius", value, finite=rule == "finite", positive=rule == "positive")


def test_parameters_and_intervals_beyond_the_float_range_are_domain_errors():
    with pytest.raises(mf.DomainError, match=r"^sphere radius must be a positive finite number \(got a value beyond"):
        mf.ManifoldSpec.sphere(10**400)
    with pytest.raises(mf.DomainError, match=r"^flat_torus circumferences must be a finite number \(got a value beyond"):
        mf.ManifoldSpec.flat_torus([1.0, 10**400])
    for interval in ((0, 10**400), (-(10**400), 0)):
        with pytest.raises(mf.DomainError, match=r"^interval must be a finite number \(got a value beyond"):
            ps.s_grid(interval, 4)


def test_invalid_specs_raise():
    with pytest.raises(mf.DomainError):
        mf.ManifoldSpec.euclidean(0)
    with pytest.raises(mf.DomainError):
        mf.ManifoldSpec.sphere(-1.0)
    with pytest.raises(mf.DomainError):
        mf.ManifoldSpec.flat_torus([1.0, -2.0])
    with pytest.raises(mf.DomainError):
        mf.ManifoldSpec.from_json({"kind": "klein_bottle"})


def test_sphere_point_and_tangent_validation():
    spec = mf.ManifoldSpec.sphere(1.0)
    with pytest.raises(mf.DomainError):
        mf.ManifoldPoint(spec, [1.0, 1.0, 0.0])
    p = mf.ManifoldPoint(spec, [1.0, 0.0, 0.0])
    with pytest.raises(mf.DomainError):
        mf.TangentVector(p, [1.0, 0.0, 0.0])
    assert mf.TangentVector(p, [0.0, 1.0, 0.0]).manifold is spec


@pytest.mark.parametrize("steps", [0, 2.5, "3", True], ids=repr)
def test_integrate_batch_reads_its_steps_through_the_integer_rule(steps):
    with pytest.raises(mf.DomainError, match=r"^steps must be an integer >= 1 \(got %s\)$" % re.escape(repr(steps))):
        mf.integrate_batch(mf.ManifoldSpec.euclidean(2), [0.0, 0.0], [1.0, 0.0], 1.0, steps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("v0", [[1.0, -2.0], [10.0, 0.0], [-2.71, -2.02]],
                         ids=["rk4-stage-on-the-axis", "step-below-the-axis", "rk4-stage-below-a-step-above-the-axis"])
def test_a_half_plane_trajectory_that_leaves_the_chart_raises_with_its_last_state(v0):
    # the first case's RK4 stage lands on y = 0, where the Christoffel form
    # divides by zero, and the third's reach y < 0 though the step ends far
    # above the axis, at (116856, 187828): such a stage raises, before numpy
    # warns of it
    with pytest.raises(mf.IntegrationError, match="^trajectory left the upper half plane$") as err:
        mf.integrate_batch(mf.ManifoldSpec.hyperbolic_half_plane(), [0.0, 1.0], v0, 1.0, 1)
    x, v = err.value.last_state
    assert x.tolist() == [0.0, 1.0] and v.tolist() == v0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_stage_that_makes_a_nan_raises_with_its_last_state_on_any_model():
    # the sphere's Christoffel form multiplies a zero coordinate by |v|^2 = inf
    x0, v0 = [1.0, 0.0, 0.0], [0.0, math.inf, 0.0]
    with pytest.raises(mf.IntegrationError, match="^trajectory left the chart$") as err:
        mf.integrate_batch(mf.ManifoldSpec.sphere(1.0), x0, v0, 1.0, 4)
    x, v = err.value.last_state
    assert x.tolist() == x0 and v.tolist() == v0


@pytest.mark.parametrize("case", ["axes", "random"])
def test_the_rk4_transport_oracle_carries_a_vector_across_a_repeated_sample_bit_for_bit(case):
    # a zero-length segment transports by identity; at a random point an RK4
    # step's tangent projection would move the vector's last bits
    spec = mf.ManifoldSpec.sphere(1.0)
    if case == "axes":
        p, q, X = np.eye(3)[0], np.eye(3)[1], np.array([0.0, 0.6, 0.8])
    else:
        rng = np.random.default_rng(SEED + 31)
        p, q = spec.random_point(rng), spec.random_point(rng)
        X = spec.project_tangent(p, rng.standard_normal(3))
    points = np.stack([p, p, q])
    out = mf.transport_along_rk4(spec, points, X)
    assert out[1].tobytes() == X.tobytes()
    assert out[1:].tobytes() == mf.transport_along_rk4(spec, points[1:], X).tobytes()


def _plane_point(coords=(0.0, 0.0)):
    return mf.ManifoldPoint(mf.ManifoldSpec.euclidean(2), coords)


def _torus_vector():
    return mf.TangentVector(mf.ManifoldPoint(mf.ManifoldSpec.flat_torus([1.0, 2.0]), [0.0, 0.0]), [1.0, 0.0])


ENTRY_RULES = {
    "normal-in-3d-chart": (
        lambda: pth.make_normal_field(pth.make_line(mf.ManifoldSpec.euclidean(3), [0, 0, 0], [1, 0, 0], n=16)),
        "normal field needs a 2d chart or the sphere",
    ),
    "point-coordinate-count": (lambda: _plane_point([0.0, 0.0, 0.0]), "expected 2 coordinates, got shape (3,)"),
    "vector-shape": (lambda: mf.TangentVector(_plane_point(), [1.0, 0.0, 0.0]),
                     "tangent components have wrong shape (3,)"),
    "vector-on-another-manifold": (lambda: mf.exp_map(_plane_point(), _torus_vector()),
                                   "the compared objects live on different manifolds"
                                   " (Euclidean(dim=2) vs FlatTorus(circumferences=(1.0, 2.0)))"),
    "points-on-different-manifolds": (lambda: mf.distance(_plane_point(), _torus_vector().base),
                                      "the compared objects live on different manifolds"
                                      " (Euclidean(dim=2) vs FlatTorus(circumferences=(1.0, 2.0)))"),
    "empty-curve": (lambda: mf.parallel_transport([], mf.TangentVector(_plane_point(), [1.0, 0.0])), "empty curve"),
    "unordered-curve": (
        lambda: mf.parallel_transport([(1.0, _plane_point()), (0.0, _plane_point([1.0, 0.0]))],
                                      mf.TangentVector(_plane_point(), [1.0, 0.0])),
        "curve samples must be ordered in s",
    ),
}


@pytest.mark.parametrize("rule", sorted(ENTRY_RULES))
def test_value_type_entry_rules_name_the_problem(rule):
    build, message = ENTRY_RULES[rule]
    with pytest.raises(mf.DomainError) as err:
        build()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the base of a vector: decided by distance, within COINCIDENCE_TOL
# ---------------------------------------------------------------------------

TOL = mf.COINCIDENCE_TOL
# a gap well inside the tolerance, or well outside it
gaps = st.one_of(st.floats(0.0, 0.4 * TOL), st.floats(2.5 * TOL, 1e3 * TOL))
angles = st.floats(0.0, 2.0 * math.pi)


def check_base_rule(spec, p, u, gap):
    """A vector based at q = exp_p(gap u), for a unit vector u at p, is
    accepted at p by exp_map, parallel_transport and GeodObject when q lies
    within TOL / 2 of p, and rejected by each from 2 TOL on."""
    q = mf.ManifoldPoint(spec, mf.flow(spec, p, gap * u, 1.0)[0])
    p = mf.ManifoldPoint(spec, p)
    v = mf.TangentVector(q, spec.project_tangent(q.coords, 0.25 * u))
    curve = [(0.0, p), (1.0, p)]
    calls = (lambda: mf.exp_map(p, v), lambda: mf.parallel_transport(curve, v), lambda: cat.GeodObject(p, v, 0.0))
    measured = float(mf.dist(spec, p.coords, q.coords))
    if gap <= 0.4 * TOL:
        assert measured <= TOL / 2
        for call in calls:
            call()
    else:
        assert measured >= 2 * TOL
        for call in calls:
            with pytest.raises(mf.DomainError, match="^tangent vector based at a different point$"):
                call()


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), angles, gaps)
def test_hypothesis_a_plane_vector_is_based_by_distance(p, angle, gap):
    u = np.array([math.cos(angle), math.sin(angle)])
    check_base_rule(mf.ManifoldSpec.euclidean(2), np.array(p), u, gap)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.floats(-1.5, 1.5), st.floats(0.0, 2.0 * math.pi), angles, gaps)
def test_hypothesis_a_sphere_vector_is_based_by_distance(lat, lon, angle, gap):
    spec = mf.ManifoldSpec.sphere(1.0)
    p = np.array([math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)])
    east = np.array([-math.sin(lon), math.cos(lon), 0.0])
    north = np.array([-math.sin(lat) * math.cos(lon), -math.sin(lat) * math.sin(lon), math.cos(lat)])
    u = math.cos(angle) * east + math.sin(angle) * north
    check_base_rule(spec, p, u, gap)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.floats(-6.0, 6.0), st.floats(-2.0, 2.0), angles, gaps)
def test_hypothesis_a_half_plane_vector_is_based_by_distance(log_y, a, angle, gap):
    # y from 1e-6 to 1e6: the chart distance of a gap scales with y, so a
    # comparison of components accepted 5e-4 at y = 1e-6
    spec = mf.ManifoldSpec.hyperbolic_half_plane()
    y = 10.0**log_y
    p = np.array([a * y, y])
    u = y * np.array([math.cos(angle), math.sin(angle)])  # of unit length at p
    check_base_rule(spec, p, u, gap)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.floats(0.0, 1.0), st.floats(0.0, 2.0), angles, gaps)
def test_hypothesis_a_torus_vector_is_based_by_distance(t, y, angle, gap):
    # p and q on the two sides of the wrap edge x = 0, a fraction t of the
    # way: a comparison of components rejected a base at (1 - 1e-12, y)
    # against (0, y)
    u = np.array([math.cos(angle), math.sin(angle)])
    p = np.array([-t * gap * u[0], y])
    check_base_rule(TORUS, p, u, gap)


def test_a_curve_sample_on_another_manifold_is_named():
    # it was transported as a point of the first sample's manifold
    v = mf.TangentVector(_plane_point(), [1.0, 0.0])
    curve = [(0.0, _plane_point()), (0.5, _plane_point([0.5, 0.0])), (1.0, _torus_vector().base)]
    message = ("curve sample 2 is on another manifold"
               " (FlatTorus(circumferences=(1.0, 2.0)) vs Euclidean(dim=2))")
    with pytest.raises(mf.DomainError, match="^%s$" % re.escape(message)):
        mf.parallel_transport(curve, v)


def test_a_transported_vector_is_based_at_its_curve_sample():
    v = mf.TangentVector(_plane_point(), [1.0, 0.0])
    curve = [(0.0, _plane_point()), (1.0, _plane_point([0.5, 0.0]))]
    out = mf.parallel_transport(curve, v)
    assert all(w.base is pt for w, (_, pt) in zip(out, curve))
