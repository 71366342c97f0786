import copy
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from pathgeo import checks
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps

from oracles import integrate_sheet

SEED = 27182


def specs():
    return list(checks.builtin_manifolds().values())


def random_sheet(spec, rng, n=64, S=16):
    gamma = checks.random_collared_path(spec, rng, n=n)
    field = checks.random_collared_field(gamma, rng)
    return ps.pathspace_geodesic(gamma, field, (0.0, 1.0), S)


# ---------------------------------------------------------------------------
# L2 metric
# ---------------------------------------------------------------------------


def test_l2_metric_constant_field_oracle():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 0], n=64, collar=0.0)
    X = pth.make_constant_field(gamma, [0.0, 3.0])
    assert ps.l2_metric(gamma, X, X) == pytest.approx(9.0, abs=1e-12)


def test_l2_metric_trapezoid_oracle():
    # independent quadrature with numpy.trapezoid on the half plane
    spec = mf.ManifoldSpec.hyperbolic_half_plane()
    gamma = pth.make_vertical_ray(spec, 0.0, 1.0, 2.0, n=128, collar=0.0)
    rng = np.random.default_rng(SEED)
    comps = rng.standard_normal((129, 2))
    X = pth.PathTangentField(gamma, comps)
    integrand = np.sum(comps * comps, axis=1) / gamma.samples[:, 1] ** 2
    want = np.trapezoid(integrand, dx=1.0 / 128)
    assert ps.l2_metric(gamma, X, X) == pytest.approx(want, abs=1e-12)


def test_l2_metric_bilinear_symmetric():
    spec = mf.ManifoldSpec.sphere(1.0)
    rng = np.random.default_rng(SEED + 1)
    gamma = checks.random_collared_path(spec, rng, n=32)
    X = checks.random_collared_field(gamma, rng)
    Y = checks.random_collared_field(gamma, rng)
    gxy = ps.l2_metric(gamma, X, Y)
    assert gxy == pytest.approx(ps.l2_metric(gamma, Y, X), abs=1e-14)
    Z = pth.PathTangentField(gamma, 2.0 * X.components)
    assert ps.l2_metric(gamma, Z, Y) == pytest.approx(2 * gxy, abs=1e-12)


# ---------------------------------------------------------------------------
# worldsheet construction
# ---------------------------------------------------------------------------


def test_sheet_seed_is_reproduced_bitwise():
    rng = np.random.default_rng(SEED + 2)
    for spec in specs():
        gamma = checks.random_collared_path(spec, rng, n=32)
        field = checks.random_collared_field(gamma, rng)
        sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 8)
        assert np.array_equal(sheet.points[0], gamma.samples)
        assert np.array_equal(sheet.velocities[0], field.components)


def test_transverse_slices_are_geodesics():
    rng = np.random.default_rng(SEED + 3)
    for spec in specs():
        sheet = random_sheet(spec, rng, n=32, S=64)
        assert ps.transverse_residual(sheet) < 1e-4


def test_closed_form_and_rk4_sheets_agree():
    rng = np.random.default_rng(SEED + 4)
    for spec in specs():
        gamma = checks.random_collared_path(spec, rng, n=16)
        field = checks.random_collared_field(gamma, rng)
        a = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 4)
        b = integrate_sheet(spec, gamma.samples, field.components, a.s_nodes, gamma.collar)
        assert np.max(mf.dist(spec, a.points, b.points)) < 1e-6


def test_flat_square_sheet():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 0], n=64, collar=0.0)
    field = pth.make_constant_field(gamma, [0.0, 1.0])
    sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 16)
    assert ps.sheet_energy(sheet) == pytest.approx(0.5, abs=1e-12)
    assert ps.sheet_length(sheet) == pytest.approx(1.0, abs=1e-12)
    assert ps.transverse_residual(sheet) == 0.0


def test_zero_field_sheet_has_zero_energy():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 0], n=64, collar=0.0)
    sheet = ps.pathspace_geodesic(gamma, pth.make_zero_field(gamma), (0.0, 1.0), 8)
    assert ps.sheet_energy(sheet) == 0.0


def test_equator_to_pole_collapse():
    # moving every equator point along its meridian by pi/2 lands on the pole
    spec = mf.ManifoldSpec.sphere(1.0)
    gamma = pth.make_latitude_circle(spec, math.pi / 2, n=64, collar=0.0)
    field = pth.PathTangentField(
        gamma, (math.pi / 2) * np.tile([0.0, 0.0, 1.0], (65, 1))
    )
    top = ps.pathspace_exp(gamma, field)
    pole = np.array([0.0, 0.0, 1.0])
    assert np.max(mf.dist(spec, top.samples, pole)) < 1e-9


# ---------------------------------------------------------------------------
# Fubini-type energy identity
# ---------------------------------------------------------------------------


def test_energy_fubini_identity():
    rng = np.random.default_rng(SEED + 5)
    for spec in specs():
        sheet = random_sheet(spec, rng)
        # independent re-quadrature: trapezoid in t of the transverse energies
        g = mf.inner(spec, sheet.points, sheet.velocities, sheet.velocities)
        a, b = sheet.interval
        et = 0.5 * np.trapezoid(g, dx=(b - a) / sheet.n_s_segments, axis=0)
        want = np.trapezoid(et, dx=1.0 / sheet.n_t_segments)
        E = ps.sheet_energy(sheet)
        assert abs(E - want) <= 1e-12 * (1 + abs(E))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_pointwise_oracle():
    rng = np.random.default_rng(SEED + 6)
    for spec in specs():
        g1 = checks.random_collared_path(spec, rng, n=64)
        g2 = checks.nearby_path(g1, rng)
        d = mf.dist(spec, g1.samples, g2.samples)
        want = math.sqrt(np.trapezoid(d * d, dx=1.0 / 64))
        assert ps.pathspace_distance(g1, g2) == pytest.approx(want, abs=1e-12)


def test_identical_paths_have_zero_distance():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 1], n=32)
    assert ps.pathspace_distance(gamma, gamma) == 0.0


def test_parallel_lines_distance():
    spec = mf.ManifoldSpec.euclidean(2)
    g1 = pth.make_line(spec, [0, 0], [1, 0], n=64)
    g2 = pth.make_line(spec, [0, 1], [1, 1], n=64)
    assert ps.pathspace_distance(g1, g2) == pytest.approx(1.0, abs=1e-9)


def test_sphere_latitude_pair_distance():
    spec = mf.ManifoldSpec.sphere(1.0)
    g1 = pth.make_latitude_circle(spec, 3 * math.pi / 8, n=256)
    g2 = pth.make_latitude_circle(spec, 5 * math.pi / 8, n=256)
    assert ps.pathspace_distance(g1, g2) == pytest.approx(math.pi / 4, abs=1e-4)


def test_connecting_sheet_length_equals_distance():
    rng = np.random.default_rng(SEED + 7)
    for spec in specs():
        g1 = checks.random_collared_path(spec, rng, n=64)
        g2 = checks.nearby_path(g1, rng)
        sheet = ps.connecting_geodesic(g1, g2, S=32)
        assert ps.sheet_length(sheet) == pytest.approx(
            ps.pathspace_distance(g1, g2), abs=1e-9
        )
        # endpoints of the sheet are the two paths
        assert np.max(mf.dist(spec, sheet.points[-1], g2.samples)) < 1e-9


def test_normal_neighborhood_violation_reports_worst_t():
    spec = mf.ManifoldSpec.sphere(1.0)
    g1 = pth.make_great_circle_arc(spec, [1, 0, 0], [0, 1, 0], n=32)
    g2 = pth.DiscretePath(spec, -g1.samples, g1.collar)  # antipodal everywhere
    with pytest.raises(mf.NormalNeighborhoodError):
        ps.pathspace_distance(g1, g2)
    assert not ps.in_normal_neighborhood(g1, g2)


def test_perturbed_sheets_are_longer():
    rng = np.random.default_rng(SEED + 8)
    for spec in specs():
        g1 = checks.random_collared_path(spec, rng, n=64)
        g2 = checks.nearby_path(g1, rng)
        dtilde = ps.pathspace_distance(g1, g2)
        sheet = ps.connecting_geodesic(g1, g2, S=16)
        for _ in range(5):
            pts = sheet.points.copy()
            bump = np.sin(np.pi * np.linspace(0, 1, 17))[:, None, None]
            pts = pts + 0.05 * rng.standard_normal(pts.shape) * bump
            if spec.kind == mf.SPHERE:
                pts = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
            elif spec.kind == mf.HALF_PLANE:
                pts[..., 1] = np.maximum(pts[..., 1], 0.05)
            perturbed = ps.sheet_from_grid(spec, sheet.interval, pts)
            assert ps.sheet_length(perturbed) >= dtilde - 1e-4


def test_a_sheet_from_a_grid_takes_its_interval_and_samples_it_uniformly():
    # it took s-nodes and every velocity step as their span over S: on the
    # nodes of a vertical composite (5 on [0, 0.3], then 8 more up to 1)
    # this N = 32 sheet read energy 0.12667 for 0.125
    gamma, field = collared_circle_and_field()
    sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 12)
    grid = ps.sheet_from_grid(gamma.manifold, sheet.interval, sheet.points, sheet.collar)
    assert grid.s_nodes.tobytes() == ps.s_grid((0.0, 1.0), 12).tobytes()
    assert np.max(np.abs(grid.velocities - sheet.velocities)) < 1e-12
    assert ps.sheet_energy(grid) == pytest.approx(0.125, abs=1e-12)
    with pytest.raises(mf.DomainError, match=r"^need at least two s nodes$"):
        ps.sheet_from_grid(gamma.manifold, (0.5, 0.5), sheet.points)


@pytest.mark.parametrize(
    "points, shape",
    [([[[0.0, 0.0]] * 3], "(1, 3, 2)"), (3.0, "()")],
    ids=["one-row", "scalar"],
)
def test_a_grid_of_fewer_than_two_rows_is_rejected_naming_points(points, shape):
    # a one-row grid raised "S must be an integer >= 1 (got 0)", naming a
    # parameter the caller never passed, and a scalar a bare TypeError from len()
    message = "points must have shape (S+1, N+1, point_dim) with S >= 1 (got shape %s)" % shape
    with pytest.raises(mf.DomainError, match="^%s$" % re.escape(message)):
        ps.sheet_from_grid(mf.ManifoldSpec.euclidean(2), (0.0, 1.0), points)


def test_a_grid_node_off_the_half_plane_is_named_without_a_numpy_warning():
    # the velocities' neighbour logs warned 8 times (sqrt and divide of a
    # negative y) before the sheet named the node, so under an error filter
    # the call raised RuntimeWarning instead
    grid = np.stack([np.stack([np.linspace(0.0, 1.0, 5), np.full(5, 1.0 + j)], axis=-1) for j in range(3)])
    grid[1, 2, 1] = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mf.DomainError, match=r"^node \(s=1, t=2\) needs y > 0$"):
            ps.sheet_from_grid(mf.ManifoldSpec.hyperbolic_half_plane(), (0.0, 1.0), grid)


# ---------------------------------------------------------------------------
# transport along sheets
# ---------------------------------------------------------------------------


def test_pathspace_transport_preserves_l2_norm():
    rng = np.random.default_rng(SEED + 9)
    for spec in specs():
        gamma = checks.random_collared_path(spec, rng, n=32)
        vfield = checks.random_collared_field(gamma, rng)
        xfield = checks.random_collared_field(gamma, rng)
        sheet = ps.pathspace_geodesic(gamma, vfield, (0.0, 1.0), 16)
        moved = ps.pathspace_transport(sheet, xfield)
        g0 = ps.l2_metric(moved[0].base, moved[0], moved[0])
        for m in moved[1:]:
            g = ps.l2_metric(m.base, m, m)
            assert abs(g - g0) <= 1e-5 * max(abs(g0), 1e-9)


FLAT3 = mf.ManifoldSpec.euclidean(3)


def faulty_grid(fault):
    """Sheet arrays on euclidean(3) with one grid fault."""
    sheet = random_sheet(FLAT3, np.random.default_rng(SEED + 11), n=8, S=4)
    s, x, v = sheet.s_nodes.copy(), sheet.points, sheet.velocities
    if fault == "decreasing":
        s = s[::-1].copy()
    elif fault == "nan":
        s[2] = np.nan
    elif fault == "planar":  # 2-d points on a 3d model
        x, v = x[..., :2], v[..., :2]
    elif fault == "one t-segment":
        x, v = x[:, :2], v[:, :2]
    elif fault == "velocity grid":
        v = v[:, :-1]
    return s, x, v


@pytest.mark.parametrize(
    "fault, needle",
    [
        ("decreasing", "s_nodes must be one or more finite, strictly increasing numbers"),
        ("nan", "s_nodes must be one or more finite, strictly increasing numbers"),
        ("planar", "points must have shape (S+1, N+1, point_dim)"),
        ("one t-segment", "with N >= 2"),
        ("velocity grid", "points and velocities must share a grid"),
    ],
    ids=["decreasing", "nan", "planar", "one-t-segment", "velocity-grid"],
)
def test_worldsheet_checks_its_grid(fault, needle):
    s, x, v = faulty_grid(fault)
    with pytest.raises(mf.DomainError, match=re.escape(needle)):
        ps.Worldsheet(FLAT3, s, x, v)
    record = {"manifold": FLAT3.to_json(), "s_nodes": s, "points": x, "velocities": v}
    with pytest.raises(mf.DomainError, match=re.escape(needle)):
        ps.Worldsheet.from_json(record)


def test_worldsheet_json_roundtrip():
    rng = np.random.default_rng(SEED + 10)
    sheet = random_sheet(mf.ManifoldSpec.sphere(1.0), rng, n=8, S=4)
    back = ps.Worldsheet.from_json(sheet.to_json())
    assert np.array_equal(back.points, sheet.points)
    assert np.array_equal(back.velocities, sheet.velocities)
    assert back.manifold == sheet.manifold


# ---------------------------------------------------------------------------
# s-grids and node-naming errors
# ---------------------------------------------------------------------------


def collared_circle_and_field(n=32):
    spec = mf.ManifoldSpec.sphere(1.0)
    gamma = pth.make_latitude_circle(spec, 1.0, n=n)
    return gamma, pth.make_normal_field(gamma, 0.5)


@pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf], ids=repr)
def test_s_grid_rejects_interval_ends_that_are_not_finite(end):
    gamma, field = collared_circle_and_field()
    for interval in ((0.0, end), (end, 1.0)):
        with pytest.raises(mf.DomainError, match=r"^interval must be a finite number \(got "):
            ps.pathspace_geodesic(gamma, field, interval, 4)


@pytest.mark.parametrize("interval", [(0.0,), (0.0, 0.5, 1.0)], ids=len)
def test_s_grid_rejects_an_interval_that_is_not_a_pair(interval):
    with pytest.raises(mf.DomainError, match=r"^interval must be a pair \(a, b\) \(got %d values\)$" % len(interval)):
        ps.s_grid(interval, 4)


@pytest.mark.parametrize("S", [2.5, 2.0, 0, -1, True, "4"], ids=repr)
def test_s_grid_rejects_an_s_count_that_is_not_a_positive_integer(S):
    gamma, field = collared_circle_and_field()
    needle = r"^S must be an integer >= 1 \(got "
    with pytest.raises(mf.DomainError, match=needle):
        ps.pathspace_geodesic(gamma, field, (0.0, 1.0), S)
    with pytest.raises(mf.DomainError, match=needle):
        ps.connecting_geodesic(gamma, gamma, S=S)


def test_s_grid_rejects_a_reversed_interval():
    with pytest.raises(mf.DomainError, match=r"^interval must satisfy a <= b$"):
        ps.s_grid((1.0, 0.0), 4)


def test_connecting_geodesic_uses_the_s_grid():
    gamma, _ = collared_circle_and_field()
    sheet = ps.connecting_geodesic(gamma, gamma, S=4)
    assert sheet.s_nodes.tobytes() == ps.s_grid((0.0, 1.0), 4).tobytes()
    assert sheet.s_nodes.tobytes() == np.linspace(0, 1, 5).tobytes()


@pytest.fixture(scope="module")
def wide_sphere_sheet():
    """A 65 x 4097 sphere sheet, as the worldsheet export builds it."""
    gamma, field = collared_circle_and_field(n=4096)
    return ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 64)


@pytest.mark.parametrize(
    "fault, needle",
    [
        ("nan point", "node (s=3, t=7) is not finite"),
        ("off-sphere point", "node (s=3, t=7) is off the sphere"),
        ("radial velocity", "velocity at node (s=3, t=7) is not tangent to the sphere"),
        ("collar point", "node (s=3, t=7) is in the start collar but does not coincide with t=0"),
        ("collar velocity", "velocity at node (s=3, t=7) is in the start collar but differs from the one at t=0"),
    ],
    ids=["nan", "off-sphere", "not-tangent", "collar-point", "collar-velocity"],
)
def test_a_wide_sheet_names_its_first_bad_node(wide_sphere_sheet, fault, needle):
    sheet = wide_sphere_sheet
    x, v = sheet.points.copy(), sheet.velocities.copy()
    # the same fault at a later node: the error names the first in s, t order.
    # Every node here is on a collar (t <= 256 or t >= 3840)
    for node in ((3, 7), (3, 4000), (10, 2)):
        if fault == "nan point":
            x[node][1] = np.nan
        elif fault == "off-sphere point":
            x[node] *= 1.5
        elif fault == "radial velocity":
            v[node] = x[node]
        elif fault == "collar point":  # a ramp node's point and velocity
            x[node], v[node] = x[node[0], 300], v[node[0], 300]
        else:
            v[node] *= 1.001
    with pytest.raises(mf.DomainError, match=re.escape(needle)):
        ps.Worldsheet(sheet.manifold, sheet.s_nodes, x, v, sheet.collar)


def test_a_wide_sheet_and_its_transport_each_check_their_nodes_in_one_call(wide_sphere_sheet, monkeypatch):
    # checked one block of fibers at a time, an N = 4096, S = 64 sheet made
    # 65 calls, one a fiber
    sheet, field = wide_sphere_sheet, wide_sphere_sheet.slice_field(0)
    check, calls = pth.check_fibers, []
    monkeypatch.setattr(pth, "check_fibers", lambda spec, x, *a, **kw: calls.append(x.shape) or check(spec, x, *a, **kw))
    ps.Worldsheet(sheet.manifold, sheet.s_nodes, sheet.points, sheet.velocities, sheet.collar)
    assert calls == [sheet.points.shape]
    calls.clear()
    ps.pathspace_transport(sheet, field)
    assert calls == [sheet.points.shape]


@pytest.mark.parametrize("n", [32, 4096])
def test_a_sheet_names_its_faults_in_the_order_of_the_node_check_at_every_n(n):
    # the node check runs each test over the whole sheet: a point off the
    # sphere at a later fiber is named before a collar fault at an earlier
    # one. Checked one fiber at a time, the N = 4096 sheet named the collar
    gamma, field = collared_circle_and_field(n=n)
    sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 4)
    x, v = sheet.points.copy(), sheet.velocities.copy()
    x[1, 1], v[1, 1] = x[1, n // 2], v[1, n // 2]
    x[3, n // 2] *= 1.5
    with pytest.raises(mf.DomainError) as err:
        ps.Worldsheet(sheet.manifold, sheet.s_nodes, x, v, sheet.collar)
    assert str(err.value) == "node (s=3, t=%d) is off the sphere (|x| != radius)" % (n // 2)


# the node check (path._CHECK_NODES) takes a 65 x 4097 sheet in blocks of 15
# fibers: a fault at s = 64, in the last block, is named by the sheet's own
# s, not by its place in the block
@pytest.mark.parametrize(
    "fault, needle",
    [
        ("off-sphere point", "node (s=64, t=7) is off the sphere (|x| != radius)"),
        ("radial velocity", "velocity at node (s=64, t=7) is not tangent to the sphere"),
        ("collar point", "node (s=64, t=7) is in the start collar but does not coincide with t=0"),
        ("transported vector", "transported field at node (s=64, t=7) is not tangent to the sphere"),
    ],
    ids=["off-sphere", "not-tangent", "collar-point", "transported-not-tangent"],
)
def test_a_fault_in_the_last_block_of_the_node_check_names_its_node(wide_sphere_sheet, fault, needle, monkeypatch):
    sheet = wide_sphere_sheet
    assert pth._CHECK_NODES // 4097 == 15  # blocks of s = 0-14, ..., 45-59, 60-64
    x, v = sheet.points.copy(), sheet.velocities.copy()
    if fault == "off-sphere point":
        x[64, 7] *= 1.5
    elif fault == "radial velocity":
        v[64, 7] = x[64, 7]
    elif fault == "collar point":  # a ramp node's point and velocity
        x[64, 7], v[64, 7] = x[64, 300], v[64, 300]
    else:
        steps = mf._transport_steps

        def radial_last_step(spec, points, X0):
            moved = list(steps(spec, points, X0))
            moved[-1] = moved[-1].copy()
            moved[-1][7] += points[-1, 7]
            return moved

        monkeypatch.setattr(mf, "_transport_steps", radial_last_step)
    with pytest.raises(mf.DomainError) as err:
        if fault == "transported vector":
            ps.pathspace_transport(sheet, sheet.slice_field(0))
        else:
            ps.Worldsheet(sheet.manifold, sheet.s_nodes, x, v, sheet.collar)
    assert str(err.value) == needle


def test_a_point_fault_in_a_later_block_is_named_before_a_tangent_fault_in_an_earlier_one(wide_sphere_sheet):
    # the node check names faults in its order of tests over the whole
    # sheet, whichever of its blocks each fault lies in
    sheet = wide_sphere_sheet
    x, v = sheet.points.copy(), sheet.velocities.copy()
    v[3, 2000] = x[3, 2000]
    x[64, 2000] *= 1.5
    for vectors in (v, list(v), None):  # an array, per-fiber arrays, or none
        with pytest.raises(mf.DomainError) as err:
            pth.check_fibers(sheet.manifold, x, sheet.collar, "node (s=%d, t=%d)", vectors, "velocity at node (s=%d, t=%d)")
        assert str(err.value) == "node (s=64, t=2000) is off the sphere (|x| != radius)"


def test_transport_names_the_antipodal_node_of_a_sheet():
    spec = mf.ManifoldSpec.sphere(1.0)
    gamma = pth.make_great_circle_arc(spec, [1, 0, 0], [0, 1, 0], n=8, collar=0.0)
    points = np.stack([gamma.samples, gamma.samples])
    points[1, 2] = -points[0, 2]  # s-segment 0 crosses to the antipode at t-node 2
    velocities = np.zeros_like(points)
    sheet = ps.Worldsheet(spec, [0.0, 1.0], points, velocities)
    with pytest.raises(mf.NormalNeighborhoodError, match=r"^segment 0: transport at node 2 between antipodal"):
        ps.pathspace_transport(sheet, pth.make_zero_field(gamma))


# ---------------------------------------------------------------------------
# a sheet is checked once: its slices are the checked paths and fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fault, needle",
    [
        ("point", "node (s=2, t=1) is in the start collar but does not coincide with t=0"),
        ("velocity", "velocity at node (s=2, t=31) is in the end collar but differs from the one at t=32"),
        ("collar", "collar must lie in [0, 1/2)"),
    ],
)
def test_a_sheet_whose_slice_leaves_its_collar_is_rejected(fault, needle):
    # such a sheet was accepted, and failed only when sliced
    gamma, field = collared_circle_and_field(n=32)  # collars: t <= 2 and t >= 30
    sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 4)
    x, v, collar = sheet.points.copy(), sheet.velocities.copy(), sheet.collar
    if fault == "point":  # a ramp node, with its own tangent velocity
        x[2, 1], v[2, 1] = x[2, 3], v[2, 3]
    elif fault == "velocity":
        v[2, 31] *= 1.001
    else:
        collar = 0.5
    with pytest.raises(mf.DomainError) as err:
        ps.Worldsheet(sheet.manifold, sheet.s_nodes, x, v, collar)
    assert str(err.value) == needle
    record = dict(sheet.to_json(), points=x, velocities=v, collar=collar)
    with pytest.raises(mf.DomainError) as err:
        ps.Worldsheet.from_json(record)
    assert str(err.value) == needle


# each fault, the manifolds it applies to, and the reason a check gives
FIBER_FAULTS = [
    ("nan point", ["euclidean", "sphere", "hyperbolic_half_plane", "flat_torus"], "is not finite"),
    ("off manifold", ["sphere"], "is off the sphere (|x| != radius)"),
    ("off manifold", ["hyperbolic_half_plane"], "needs y > 0"),
    ("collar point", ["euclidean", "sphere", "hyperbolic_half_plane", "flat_torus"],
     "is in the %s collar but does not coincide with t=%d"),
    ("nan vector", ["euclidean", "sphere", "hyperbolic_half_plane", "flat_torus"], "is not finite"),
    ("collar vector", ["euclidean", "sphere", "hyperbolic_half_plane", "flat_torus"],
     "is in the %s collar but differs from the one at t=%d"),
    ("not tangent", ["sphere"], "is not tangent to the sphere"),
]


# the last node of the start collar (t <= 2) and the first of the end collar (t >= 30)
@pytest.mark.parametrize("i", [2, 30], ids=["t2", "t30"])
@pytest.mark.parametrize(
    "name, fault, why",
    [
        pytest.param(name, fault, why, id="%s-%s" % (name, fault.replace(" ", "-")))
        for fault, names, why in FIBER_FAULTS
        for name in names
    ],
)
def test_a_fiber_fails_alike_as_a_path_and_as_a_sheet_fiber(name, fault, why, i):
    # paths, fields and sheets share one node check (path.check_fibers): a
    # bad node i of a fiber names sample i of the path or field, and node
    # (s=j, t=i) of the sheet whose fiber j it is, for the same reason
    spec = checks.builtin_manifolds()[name]
    rng = np.random.default_rng(SEED + 13)
    gamma = checks.random_collared_path(spec, rng, n=32)
    field = checks.random_collared_field(gamma, rng)
    x, v = gamma.samples.copy(), field.components.copy()
    if fault == "nan point":
        x[i, 0] = np.nan
    elif fault == "off manifold":
        x[i] = 1.5 * x[i] if name == "sphere" else x[i] * [1.0, -1.0]
    elif fault == "collar point":  # a ramp node, with its own tangent vector
        x[i], v[i] = x[16], v[16]
    elif fault == "nan vector":
        v[i, -1] = np.nan
    elif fault == "collar vector":
        v[i] *= 1.001
    else:
        v[i] = x[i]
    if "%" in why:
        why = why % (("start", 0) if i < 16 else ("end", 32))
    on_points = fault in ("nan point", "off manifold", "collar point")
    with pytest.raises(mf.DomainError) as as_path:
        pth.PathTangentField(pth.DiscretePath(spec, x, gamma.collar), v)
    label = "sample %d" if on_points else "field at sample %d"
    assert str(as_path.value) == "%s %s" % (label % i, why)
    j = 2
    points, velocities = np.stack([gamma.samples] * 4), np.stack([field.components] * 4)
    points[j], velocities[j] = x, v
    with pytest.raises(mf.DomainError) as as_sheet:
        ps.Worldsheet(spec, np.arange(4.0), points, velocities, gamma.collar)
    label = "node (s=%d, t=%d)" if on_points else "velocity at node (s=%d, t=%d)"
    assert str(as_sheet.value) == "%s %s" % (label % (j, i), why)


def transport_sheet(monkeypatch, fault):
    """A collared sphere sheet (N = 32, S = 8) and the field to transport,
    with ``spec.transport`` returning one bad vector at node (s=3, t=7)
    (``radial``) or (s=3, t=2) (``collar``)."""
    gamma, field = collared_circle_and_field(n=32)
    sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 8)
    transport, calls = mf.Sphere.transport, []

    def faulty(self, x, y, X):
        out = transport(self, x, y, X)
        calls.append(1)
        if len(calls) == 3:  # segment 2, to s-node 3
            if fault == "radial":
                out[7] = y[7]
            else:
                out[2] *= 1.001  # still tangent
        return out

    monkeypatch.setattr(mf.Sphere, "transport", faulty)
    return sheet, field


@pytest.mark.parametrize(
    "fault, needle",
    [
        ("radial", "transported field at node (s=3, t=7) is not tangent to the sphere"),
        ("collar", "transported field at node (s=3, t=2) is in the start collar but differs from the one at t=0"),
    ],
)
def test_transport_names_the_node_of_a_bad_transported_vector(monkeypatch, fault, needle):
    sheet, field = transport_sheet(monkeypatch, fault)
    with pytest.raises(mf.DomainError) as err:
        ps.pathspace_transport(sheet, field)
    assert str(err.value) == needle


def same_bits(a, b):
    """Two paths, or two fields, hold the same manifold, collar and bits."""
    if isinstance(a, pth.PathTangentField):
        return same_bits(a.base, b.base) and a.components.tobytes() == b.components.tobytes()
    return (a.manifold, a.collar, a.samples.dtype, a.samples.shape) == (
        b.manifold, b.collar, b.samples.dtype, b.samples.shape
    ) and a.samples.tobytes() == b.samples.tobytes()


def swept_sheets():
    """Collared sheets on every built-in manifold (N = 32, S = 8), the torus
    sheet again with its points moved off the fundamental domain by a
    lattice vector, and the N = 256, S = 64 sphere sheet of a latitude
    circle; each with a field on its first slice to transport."""
    rng = np.random.default_rng(SEED + 13)
    out = []
    for spec in specs():
        gamma = checks.random_collared_path(spec, rng, n=32)
        field = checks.random_collared_field(gamma, rng, scale=1.0)
        out.append((ps.pathspace_geodesic(gamma, field, (0.0, 3.0), 8), checks.random_collared_field(gamma, rng)))
        if spec.kind == mf.FLAT_TORUS:  # the flow keeps its points in the domain
            sheet = out[-1][0]
            points = sheet.points + np.asarray(spec.circumferences)
            out.append((ps.Worldsheet(spec, sheet.s_nodes, points, sheet.velocities, sheet.collar), out[-1][1]))
    gamma, field = collared_circle_and_field(n=256)
    out.append((ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 64), field))
    return out


def test_slices_are_the_checked_paths_and_fields():
    sheets = swept_sheets()
    for sheet, field in sheets:
        spec = sheet.manifold
        moved = ps.pathspace_transport(sheet, field)
        transported = mf.transport_along(spec, sheet.points, field.components)
        for j in range(len(sheet.s_nodes)):
            path = pth.DiscretePath(spec, sheet.points[j], sheet.collar)
            assert same_bits(sheet.slice_path(j), path)
            assert same_bits(sheet.slice_field(j), pth.PathTangentField(path, sheet.velocities[j]))
            assert same_bits(moved[j], pth.PathTangentField(path, transported[j]))
            assert not np.shares_memory(sheet.slice_path(j).samples, sheet.points)
            assert not np.shares_memory(sheet.slice_field(j).components, sheet.velocities)
    # the torus sheet moved off the fundamental domain holds its points
    # wrapped once, as DiscretePath holds its samples, so its slices copy them
    built, off_domain = [sheet for sheet, _ in sheets if sheet.manifold.kind == mf.FLAT_TORUS]
    given = built.points + np.asarray(built.manifold.circumferences)
    assert not np.array_equal(given, off_domain.points)
    assert off_domain.points.tobytes() == built.manifold.wrap(given).tobytes()


# ---------------------------------------------------------------------------
# blocks of fibers: the same bits as one whole-sheet evaluation, less memory
# ---------------------------------------------------------------------------


def wide_fields(spec, rng, n=4096):
    """A random collared path at N = n with a field moving at every node and
    the same field zeroed on both collars: the sphere and half-plane flows
    take their ``moving.all()`` fast path on the first, ``np.where`` on the
    second."""
    gamma = checks.random_collared_path(spec, rng, n=n)
    moving = checks.random_collared_field(gamma, rng)
    comps = moving.components.copy()
    head, tail = pth._collar_nodes(gamma.n_segments, gamma.collar)
    comps[:head] = comps[-tail:] = 0.0
    return gamma, [moving, pth.PathTangentField(gamma, comps)]


def whole_sheet_residual(sheet):
    """``transverse_residual`` as one broadcast over every interior s-node."""
    spec = sheet.manifold
    h = np.diff(sheet.s_nodes)[:, None, None]
    h1, h2 = h[:-1], h[1:]
    p = sheet.points
    acc = spec.chart_diff(p[2:], p[1:-1]) * (2.0 / (h2 * (h1 + h2)))
    acc += spec.chart_diff(p[:-2], p[1:-1]) * (2.0 / (h1 * (h1 + h2)))
    v = sheet.velocities[1:-1]
    res = spec.project_tangent(p[1:-1], acc + mf.gamma_quad(spec, p[1:-1], v, v))
    return float(np.max(np.abs(res)))


@pytest.mark.parametrize("name", list(checks.builtin_manifolds()))
def test_blocks_of_fibers_give_the_whole_sheet_bits(name, monkeypatch):
    spec = checks.builtin_manifolds()[name]
    gamma, fields = wide_fields(spec, np.random.default_rng(SEED + 11))
    interval, S = (-0.5, 0.5), 64  # s = 0 is node 32, inside the sheet
    s = ps.s_grid(interval, S)
    flow, blocks = mf.flow, []
    monkeypatch.setattr(mf, "flow", lambda *args: blocks.append(args[3].shape) or flow(*args))
    for field in fields:
        blocks.clear()
        sheet = ps.pathspace_geodesic(gamma, field, interval, S)
        assert blocks == [(1, 1)] * (S + 1)  # N + 1 > _BLOCK_NODES: one fiber a block
        x, v = flow(spec, gamma.samples[None], field.components[None], s[:, None])
        x[s == 0.0], v[s == 0.0] = gamma.samples, field.components
        assert np.array_equal(sheet.points, x)
        assert np.array_equal(sheet.velocities, v)
        assert np.array_equal(sheet.points[32], gamma.samples)
        assert ps.transverse_residual(sheet) == whole_sheet_residual(sheet)


def test_a_sheet_is_read_only_without_copying_or_freezing_its_input():
    # every checked value holds its arrays the one way (manifold.held): a
    # point, a vector, a path, a field and a sheet hold views of what they
    # were given; a slice and a transported field hold fiber copies
    gamma, field = collared_circle_and_field(n=64)
    spec = gamma.manifold
    built = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 8)
    s, points, velocities = np.linspace(0.0, 1.0, 9), built.points.copy(), built.velocities.copy()
    samples, comps = gamma.samples.copy(), field.components.copy()
    coords, vector = samples[0].copy(), comps[0].copy()
    point = mf.ManifoldPoint(spec, coords)
    path = pth.DiscretePath(spec, samples, gamma.collar)
    sheet = ps.Worldsheet(spec, s, points, velocities, gamma.collar)
    viewed = [
        (coords, point.coords),
        (vector, mf.TangentVector(point, vector).components),
        (samples, path.samples),
        (comps, pth.PathTangentField(path, comps).components),
        (s, sheet.s_nodes),
        (points, sheet.points),
        (velocities, sheet.velocities),
    ]
    for given, held in viewed:
        assert np.shares_memory(given, held)  # a view, not a copy
        assert given.flags.writeable and not held.flags.writeable
    copied = [sheet.slice_path(3).samples, sheet.slice_field(3).components]
    copied += [moved.components for moved in ps.pathspace_transport(sheet, field)]
    for held in [held for _, held in viewed] + copied:
        with pytest.raises(ValueError, match="read-only"):
            held[...] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        sheet.velocities[3] *= 2.0
    assert np.array_equal(sheet.points, built.points)
    assert np.array_equal(sheet.velocities, built.velocities)


def test_a_torus_transport_and_slice_wrap_nothing(monkeypatch):
    # the sheet wrapped its points once, when it was built: a transport
    # called FlatTorus.wrap 67 times at N = 4096, S = 64, and a slice once
    spec = checks.builtin_manifolds()["flat_torus"]
    gamma, (field, _) = wide_fields(spec, np.random.default_rng(SEED + 17))
    sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 64)
    wrap, calls = mf.FlatTorus.wrap, []
    monkeypatch.setattr(mf.FlatTorus, "wrap", lambda self, x: calls.append(np.shape(x)) or wrap(self, x))
    moved = ps.pathspace_transport(sheet, field)
    assert calls == []
    assert same_bits(sheet.slice_path(7), moved[7].base) and calls == []
    assert sheet.slice_field(7).components.tobytes() == sheet.velocities[7].tobytes() and calls == []
    ps.Worldsheet(spec, sheet.s_nodes, sheet.points, sheet.velocities, sheet.collar)
    assert calls == [sheet.points.shape]  # the constructor wraps, once


def test_a_torus_sheet_wraps_each_block_once(monkeypatch):
    # the flow wraps each block of fibers; the sheet constructor's wrap then
    # finds them wrapped and returns them as they are, so no second
    # sheet-sized copy is made, while a sheet given points from outside the
    # domain holds a wrapped copy
    spec = checks.builtin_manifolds()["flat_torus"]
    gamma, (field, _) = wide_fields(spec, np.random.default_rng(SEED + 13))
    wrap, calls = mf.FlatTorus.wrap, []

    def counted(self, x):
        out = wrap(self, x)
        calls.append((np.shape(x), out is x))
        return out

    monkeypatch.setattr(mf.FlatTorus, "wrap", counted)
    sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 64)
    # N + 1 > _BLOCK_NODES: one fiber a block, then the constructor's wrap
    assert [shape for shape, _ in calls] == [(1, gamma.n_segments + 1, 2)] * 65 + [sheet.points.shape]
    assert calls[-1][1]
    assert np.array_equal(sheet.points, wrap(spec, sheet.points))
    calls.clear()
    given = sheet.points + np.asarray(spec.circumferences)
    outside = ps.Worldsheet(spec, sheet.s_nodes, given, sheet.velocities, sheet.collar)
    assert calls == [(given.shape, False)]
    assert outside.points.tobytes() == wrap(spec, given).tobytes()
    assert np.all((outside.points >= 0.0) & (outside.points < np.asarray(spec.circumferences)))


def test_transverse_residual_of_a_sheet_without_interior_nodes():
    # the residual is a second difference in s: a sheet of one or two s
    # nodes has no node to take it at, however far from a geodesic it is
    spec = mf.ManifoldSpec.sphere(1.0)
    grid = [pth.make_latitude_circle(spec, c, n=16).samples for c in (0.6, 1.3)]
    sheet = ps.sheet_from_grid(spec, (0.0, 1.0), grid)
    assert sheet.n_s_segments == 1
    assert ps.transverse_residual(sheet) == 0.0
    one = ps.Worldsheet(spec, [0.0], sheet.points[:1], sheet.velocities[:1])
    assert ps.transverse_residual(one) == 0.0


def test_transverse_residual_keeps_a_nan_of_any_block():
    gamma, field = collared_circle_and_field(n=4096)
    sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 64)
    # Python's max would keep a NaN only in the first block
    for j in (1, 40, 63):
        bad = copy.copy(sheet)
        x = sheet.points.copy()
        x[j, 5, 0] = np.nan
        object.__setattr__(bad, "points", x)  # past the sheet's own finiteness check
        assert math.isnan(ps.transverse_residual(bad))


def traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates, as tracemalloc (which numpy
    reports to) sees them, and its result."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


@pytest.mark.parametrize("name", ["sphere", "hyperbolic_half_plane", "euclidean", "flat_torus"])
def test_a_wide_sheet_is_built_in_blocks(name):
    # one whole-sheet broadcast of the flow peaked at 3.2x (sphere) and 5.0x
    # (half plane) the sheet's own bytes, its residual at 2.4x and 1.5x. With
    # the flow in blocks and the node check over the whole sheet at once,
    # the sphere, half plane and euclidean read 1.50x, 1.25x and 1.25x; with
    # the node check in blocks too, 1.12x, 1.10x and 1.06x, and 0.04x. The
    # torus read 1.57x while the sheet wrapped its points a second time
    spec = checks.builtin_manifolds()[name]
    gamma, (field, _) = wide_fields(spec, np.random.default_rng(SEED + 12))
    peak, sheet = traced_peak(ps.pathspace_geodesic, gamma, field, (0.0, 1.0), 64)
    own = sheet.points.nbytes + sheet.velocities.nbytes
    assert peak <= 1.2 * own
    peak, _ = traced_peak(ps.transverse_residual, sheet)
    assert peak <= own / 4


@pytest.mark.parametrize("name", list(checks.builtin_manifolds()))
def test_a_kept_transported_field_holds_only_its_own_fiber(name):
    # each transported field was a view of one sheet-sized array, so keeping
    # the first and last of them kept 1.03x the points' bytes; each now holds
    # one fiber's array (on a flat chart, the given field's own), 0.03-0.05x
    spec = checks.builtin_manifolds()[name]
    gamma, (field, _) = wide_fields(spec, np.random.default_rng(SEED + 19))
    sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 64)
    points, fiber = sheet.points.nbytes, sheet.points[0].nbytes
    tracemalloc.start()
    try:
        moved = ps.pathspace_transport(sheet, field)
        assert max(m.components.base.nbytes for m in moved) <= fiber
        kept = moved[0], moved[-1]
        del moved, sheet
        still = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert still <= 0.1 * points
    assert kept[0].components.tobytes() == field.components.tobytes()
