import math
import re
import warnings

import numpy as np
import pytest

from pathgeo import checks
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo.pathspace import Worldsheet

SEED = 31415


def test_line_energy_is_half_speed_squared():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 0], n=256, collar=0.0)
    assert pth.path_energy(gamma) == pytest.approx(0.5, abs=1e-12)
    assert pth.arc_length(gamma) == pytest.approx(1.0, abs=1e-12)


def test_energy_analytic_oracle_on_smooth_curve():
    # gamma(t) = (a sin 2pi t, b cos 2pi t) has energy pi^2 (a^2 + b^2)
    spec = mf.ManifoldSpec.euclidean(2)
    a, b = 0.7, 0.4
    t = np.arange(257) / 256
    pts = np.stack([a * np.sin(2 * np.pi * t), b * np.cos(2 * np.pi * t)], axis=1)
    gamma = pth.DiscretePath(spec, pts, 0.0)
    want = math.pi**2 * (a * a + b * b)
    assert pth.path_energy(gamma) == pytest.approx(want, rel=1e-3)


def test_constant_path_has_zero_energy_and_length():
    spec = mf.ManifoldSpec.sphere(1.0)
    gamma = pth.make_constant_path(mf.ManifoldPoint(spec, [0.0, 0.0, 1.0]), n=32)
    assert pth.path_energy(gamma) == 0.0
    assert pth.arc_length(gamma) == 0.0


def test_quarter_great_circle_energy():
    spec = mf.ManifoldSpec.sphere(1.0)
    gamma = pth.make_great_circle_arc(spec, [1, 0, 0], [0, 1, 0], n=256, collar=0.0)
    # constant-speed parametrization of a length pi/2 arc
    assert pth.path_energy(gamma) == pytest.approx(0.5 * (math.pi / 2) ** 2, abs=1e-6)
    assert pth.arc_length(gamma) == pytest.approx(math.pi / 2, abs=1e-6)


def test_velocity_components_oracle_on_line():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [2, 1], n=64, collar=0.0)
    v = pth.velocity_components(gamma)
    assert np.max(np.abs(v - np.array([2.0, 1.0]))) < 1e-10


def test_collar_warp_velocity_vanishes_on_collars():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 1], n=64, collar=1.0 / 16)
    v = pth.velocity_components(gamma)
    assert np.max(np.abs(v[:4])) == 0.0
    assert np.max(np.abs(v[-4:])) == 0.0


def test_evaluate_snaps_to_grid():
    spec = mf.ManifoldSpec.sphere(1.0)
    gamma = pth.make_great_circle_arc(spec, [1, 0, 0], [0, 0, 1], n=32, collar=0.0)
    ts = gamma.grid
    pts = pth.evaluate_many(gamma, ts)
    assert np.array_equal(pts, gamma.samples)


def test_evaluate_interpolates_geodesically():
    spec = mf.ManifoldSpec.sphere(1.0)
    gamma = pth.make_great_circle_arc(spec, [1, 0, 0], [0, 1, 0], n=4, collar=0.0)
    # halfway between grid nodes must stay on the great circle, unit norm
    p = pth.evaluate_many(gamma, np.array([1.0 / 8]))[0]
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
    assert p[2] == pytest.approx(0.0, abs=1e-12)


def test_resample_identity_on_same_grid():
    spec = mf.ManifoldSpec.euclidean(3)
    rng = np.random.default_rng(SEED + 1)
    pts = np.cumsum(0.1 * rng.standard_normal((17, 3)), axis=0)
    gamma = pth.DiscretePath(spec, pts, 0.0)
    again = pth.resample(gamma, 16)
    assert np.array_equal(again.samples, gamma.samples)


def nan_parameter_calls():
    """Each entry point that reads a parameter off the grid, given a NaN."""
    gamma = pth.make_line(mf.ManifoldSpec.euclidean(2), [0, 0], [1, 0], n=16)
    nan = float("nan")
    return {
        "evaluate": lambda: pth.evaluate(gamma, nan),
        "evaluate_many": lambda: pth.evaluate_many(gamma, [0.0, nan, 1.0]),
        "reparametrize": lambda: pth.reparametrize(gamma, [0.0, 0.5, nan]),
    }


@pytest.mark.parametrize("entry", list(nan_parameter_calls()))
def test_a_nan_parameter_is_outside_the_interval(entry):
    # NaN failed both one-sided tests, and reached an array index as -2**63
    with pytest.raises(mf.DomainError, match=r"^parameter outside \[0, 1\]$"):
        nan_parameter_calls()[entry]()


@pytest.mark.parametrize("n", [0, 2.0, True], ids=repr)
def test_resample_rejects_a_grid_size_that_is_not_a_positive_integer(n):
    # n = 0 divided by zero on its way to the same array index as a NaN
    gamma = pth.make_line(mf.ManifoldSpec.euclidean(2), [0, 0], [1, 0], n=16)
    with pytest.raises(mf.DomainError, match=r"^n must be an integer >= 1 \(got %s\)$" % re.escape(repr(n))):
        pth.resample(gamma, n)


def test_reverse_is_involution():
    spec = mf.ManifoldSpec.flat_torus([1.0, 2.0])
    rng = np.random.default_rng(SEED + 2)
    pts = np.cumsum(0.02 * rng.standard_normal((33, 2)), axis=0)
    gamma = pth.DiscretePath(spec, pts, 0.0)
    assert np.array_equal(pth.reverse(pth.reverse(gamma)).samples, gamma.samples)


def test_concatenate_requires_matching_endpoints_and_collars():
    spec = mf.ManifoldSpec.euclidean(2)
    a = pth.make_line(spec, [0, 0], [1, 0], n=32)
    b = pth.make_line(spec, [1, 0], [1, 1], n=32)
    c = pth.make_line(spec, [2, 0], [3, 0], n=32)
    joined = pth.concatenate(a, b)
    assert joined.n_segments == 64
    assert np.array_equal(joined.samples[:33], a.samples)
    assert np.array_equal(joined.samples[33:], b.samples[1:])
    with pytest.raises(mf.DomainError):
        pth.concatenate(a, c)
    flat_a = pth.make_line(spec, [0, 0], [1, 0], n=32, collar=0.0)
    with pytest.raises(mf.DomainError):
        pth.concatenate(flat_a, b)


def test_concatenate_counts_collar_nodes_by_the_collar_rule():
    # a collar just under one segment holds node 0 only; counted as
    # floor(collar * n + 1e-9) it held node 1 too, and the joint path's
    # moving node 1 failed its own collar check
    spec = mf.ManifoldSpec.euclidean(2)
    collar = (1 - 1e-10) / 16
    a = pth.DiscretePath(spec, np.linspace([0, 0], [1, 0], 17), collar)
    b = pth.DiscretePath(spec, np.linspace([1, 0], [2, 0], 17), collar)
    assert pth._collar_nodes(a.n_segments, a.collar)[0] == 1
    joined = pth.concatenate(a, b)
    assert joined.collar == 0.0
    assert np.array_equal(joined.samples, np.concatenate([a.samples, b.samples[1:]]))


def test_collar_node_counts_follow_the_float_rule():
    # the O(1) counts against the rule tested on every node, at collars on
    # and next to grid nodes: t_i <= collar + 1e-12, t_i >= 1 - collar - 1e-12
    for n in [2, 3, 7, 16, 17, 31, 64, 100, 255, 4096]:
        t = np.arange(n + 1) / n
        for k in range(n // 2 + 1):
            c = k / n
            near = (np.nextafter(c, 0), np.nextafter(c, 1), c + 1e-12, c - 1e-12, c - 1.0001e-12, c - 0.9999e-12)
            for collar in (c,) + near:
                if 0 <= collar < 0.5:
                    want = (int(np.sum(t <= collar + 1e-12)), int(np.sum(t >= 1.0 - collar - 1e-12)))
                    assert pth._collar_nodes(n, collar) == want, (n, collar)


def test_concatenate_energy_scales_by_two():
    # running each half at double speed doubles the total energy of one half
    spec = mf.ManifoldSpec.euclidean(2)
    a = pth.make_line(spec, [0, 0], [1, 0], n=128)
    b = pth.make_line(spec, [1, 0], [2, 0], n=128)
    joined = pth.concatenate(a, b)
    assert pth.path_energy(joined) == pytest.approx(4 * pth.path_energy(a), rel=1e-9)


def test_collar_validation():
    spec = mf.ManifoldSpec.euclidean(2)
    pts = np.linspace([0, 0], [1, 0], 17)
    with pytest.raises(mf.DomainError, match="^sample 1 is in the start collar but does not coincide with t=0$"):
        pth.DiscretePath(spec, pts, 0.25)  # moving samples inside the collar
    with pytest.raises(mf.DomainError):
        pth.DiscretePath(spec, pts, 0.6)  # collar too wide


@pytest.mark.parametrize("collar", ["0.1", None, True], ids=repr)
def test_a_collar_that_is_not_a_number_is_named(collar):
    # it raised TypeError ('<=' not supported) from the collar range test
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 0], n=16)
    needle = r"^collar must be a number \(got %s\)$" % re.escape(repr(collar))
    with pytest.raises(mf.DomainError, match=needle):
        pth.DiscretePath(spec, gamma.samples, collar)
    points = np.stack([gamma.samples] * 3)
    with pytest.raises(mf.DomainError, match=needle):
        Worldsheet(spec, np.arange(3.0), points, np.zeros_like(points), collar)


def test_a_path_and_a_sheet_hold_their_collar_as_a_float():
    # a collar given as the int 0 was held as that int; the constructors
    # store the float the collar rule returns, for a record read back too
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.DiscretePath(spec, np.linspace([0, 0], [1, 0], 17), 0)
    points = np.stack([gamma.samples] * 3)
    sheet = Worldsheet(spec, np.arange(3.0), points, np.zeros_like(points), 0)
    held = [gamma, sheet, pth.DiscretePath.from_json(dict(gamma.to_json(), collar=0)),
            Worldsheet.from_json(dict(sheet.to_json(), collar=0))]
    assert [type(h.collar) for h in held] == [float] * 4


@pytest.mark.parametrize("collar", [math.inf, math.nan, 0.5, -0.25], ids=repr)
def test_a_generator_checks_its_collar_before_it_ramps(collar):
    # an infinite collar made collar_ramp warn (invalid value in divide)
    # before the path constructor named the collar
    spec = mf.ManifoldSpec.euclidean(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(mf.DomainError, match=r"^collar must lie in \[0, 1/2\)$"):
            pth.make_line(spec, [0, 0], [1, 0], n=16, collar=collar)


def test_a_torus_path_of_the_wrong_dimension_is_named_before_it_is_wrapped():
    # wrapping first broadcast the samples against the circumferences: ValueError
    spec = mf.ManifoldSpec.flat_torus([1.0, 2.0])
    with pytest.raises(mf.DomainError, match=r"^samples must have shape \(N\+1, point_dim\)$"):
        pth.DiscretePath(spec, np.zeros((5, 3)))
    with pytest.raises(mf.DomainError, match=r"^points must have shape \(S\+1, N\+1, point_dim\)"):
        Worldsheet(spec, np.arange(2.0), np.zeros((2, 5, 3)), np.zeros((2, 5, 3)))


def test_field_validation():
    spec = mf.ManifoldSpec.sphere(1.0)
    gamma = pth.make_great_circle_arc(spec, [1, 0, 0], [0, 1, 0], n=16, collar=0.0)
    with pytest.raises(mf.DomainError):
        pth.PathTangentField(gamma, gamma.samples)  # radial, not tangent
    ok = pth.make_constant_field(gamma, [0.0, 0.0, 1.0])
    assert np.max(np.abs(np.sum(ok.components * gamma.samples, axis=1))) < 1e-12


@pytest.mark.parametrize(
    "components, got, at",
    [([math.inf, 0, 0], "inf", 0), ([math.nan, 0, 0], "nan", 0), ([True, 0, 0], "True", 0), ([0, "1", 0], "'1'", 1)],
    ids=["inf", "nan", "bool", "string"],
)
def test_constant_field_components_go_through_the_number_rule(components, got, at):
    # named before the sphere projects them: an inf made numpy warn there,
    # a NaN was reported as a field value and a bool read as 1.0
    gamma = pth.make_latitude_circle(mf.ManifoldSpec.sphere(1.0), 1.0, n=16)
    needle = r"^components must be a finite number \(got %s\) at components\[%d\]$" % (got, at)
    with pytest.raises(mf.DomainError, match=needle):
        pth.make_constant_field(gamma, components)


@pytest.mark.parametrize("radius", [1.0, 3.0])
def test_fields_and_vectors_share_one_tangency_rule(radius):
    # a normal part of 0.5e-9 relative is tangent and 5e-9 is not, for a
    # single vector and for a path field alike
    spec = mf.ManifoldSpec.sphere(radius)
    gamma = pth.make_latitude_circle(spec, 1.0, n=16, collar=0.0)
    along = pth.make_normal_field(gamma, 2.0).components
    unit = gamma.samples / radius
    for rel, tangent in ((5e-10, True), (5e-9, False)):
        comps = along + rel * np.linalg.norm(along, axis=1, keepdims=True) * unit
        if tangent:
            pth.PathTangentField(gamma, comps)
            mf.TangentVector(mf.ManifoldPoint(spec, gamma.samples[3]), comps[3])
            continue
        with pytest.raises(mf.DomainError, match="field at sample 0 is not tangent"):
            pth.PathTangentField(gamma, comps)
        with pytest.raises(mf.DomainError, match="vector is not tangent"):
            mf.TangentVector(mf.ManifoldPoint(spec, gamma.samples[3]), comps[3])
    pth.PathTangentField(gamma, np.zeros_like(along))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("spec", list(checks.builtin_manifolds().values()), ids=lambda spec: spec.kind)
def test_non_finite_vectors_and_fields_are_rejected(spec, bad):
    gamma = checks.random_collared_path(spec, np.random.default_rng(SEED), n=8, collar=0.0)
    comps = np.zeros_like(gamma.samples)
    comps[5, -1] = bad
    with pytest.raises(mf.DomainError, match="^field at sample 5 is not finite$"):
        pth.PathTangentField(gamma, comps)
    with pytest.raises(mf.DomainError, match="^vector is not finite$"):
        mf.TangentVector(gamma.start(), comps[5])


def test_field_collar_constancy_enforced():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 0], n=32, collar=1.0 / 8)
    comps = np.outer(np.linspace(0, 1, 33), [1.0, 0.0])
    needle = "^field at sample 1 is in the start collar but differs from the one at t=0$"
    with pytest.raises(mf.DomainError, match=needle):
        pth.PathTangentField(gamma, comps)


def test_normal_field_is_orthogonal_to_velocity():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 1], n=32, collar=0.0)
    field = pth.make_normal_field(gamma, scale=2.0)
    v = pth.velocity_components(gamma)
    ips = np.sum(field.components * v, axis=1)
    assert np.max(np.abs(ips)) < 1e-9
    assert np.allclose(np.linalg.norm(field.components, axis=1), 2.0)


def _normal_field_per_node(gamma, scale):
    # the reference: a scalar search from every node for its nearest
    # distinct neighbor, forward first, then backward
    spec, x = gamma.manifold, gamma.samples
    n = gamma.n_segments
    comps = np.empty_like(x)
    for i in range(n + 1):
        for j in list(range(i + 1, n + 1)) + list(range(i - 1, -1, -1)):
            if mf.dist(spec, x[i], x[j]) > 1e-12:
                u = mf.log(spec, x[i], x[j])
                u = (u if j > i else -u) / mf.norm(spec, x[i], u)
                comps[i] = scale * spec.normal(x[i], u)
                break
        else:
            raise mf.DomainError("constant path")
    return comps


def test_normal_field_matches_per_node_search():
    rng = np.random.default_rng(17)
    for spec in checks.builtin_manifolds().values():
        for collar in (0.0, pth.DEFAULT_COLLAR, 0.3):
            gamma = checks.random_collared_path(spec, rng, n=48, collar=collar)
            # a plateau in the middle and at the very end
            s = gamma.samples
            s = np.concatenate([s[:20], np.repeat(s[20:21], 4, axis=0), s[20:], s[-1:]])
            for path in (gamma, pth.DiscretePath(spec, s, 0.0)):
                got = pth.make_normal_field(path, 0.7).components
                assert np.array_equal(got, _normal_field_per_node(path, 0.7))
        with pytest.raises(mf.DomainError, match="constant path"):
            pth.make_normal_field(pth.make_constant_path(gamma.start(), 16))


def test_a_collar_plateau_costs_few_dist_calls(monkeypatch):
    # the default collar at N = 4096 is a plateau of 257 equal samples at each
    # end: a search of one offset per dist call made 516 calls here
    gamma = pth.make_latitude_circle(mf.ManifoldSpec.sphere(1.0), 1.0, n=4096)
    dist, calls = mf.dist, []
    monkeypatch.setattr(mf, "dist", lambda *args: calls.append(1) or dist(*args))
    field = pth.make_normal_field(gamma, 0.5)
    assert len(calls) <= 40
    head, tail = pth._collar_nodes(gamma.n_segments, gamma.collar)
    # a plateau's partner is the first sample past it
    assert np.array_equal(field.components[:head], np.tile(field.components[0], (head, 1)))
    assert np.array_equal(field.components[-tail:], np.tile(field.components[-1], (tail, 1)))


def test_worst_node_names_the_largest_gap():
    assert pth.worst_node(np.array([0.1, 0.3, 0.2, 0.3])) == (0.3, 1)
    assert pth.worst_node(np.array([[0.0, 0.5], [0.7, 0.1]])) == (0.7, (1, 0))
    value, node = pth.worst_node(np.array([0.1, np.nan, 0.2]))
    assert math.isnan(value) and node == 1
    # on a test of the gaps, the first node that fails it
    assert pth.worst_node(np.array([0.1, 0.3, 0.2, 0.3]) > 0.15) == (True, 1)
    assert pth.worst_node(np.array([[0.0, 0.5], [0.7, 0.1]]) > 1.0) == (False, (0, 0))


def test_generators_registry_and_fixtures():
    sph = mf.ManifoldSpec.sphere(1.0)
    uhp = mf.ManifoldSpec.hyperbolic_half_plane()
    lat = pth.make_latitude_circle(sph, math.pi / 3, n=64)
    assert np.allclose(lat.samples[:, 2], math.cos(math.pi / 3), atol=1e-12)
    ray = pth.make_vertical_ray(uhp, 0.5, 1.0, math.e, n=64, collar=0.0)
    assert np.allclose(ray.samples[:, 0], 0.5)
    assert pth.arc_length(ray) == pytest.approx(1.0, abs=1e-9)
    assert set(pth.GENERATORS) == {
        "line",
        "great_circle_arc",
        "latitude_circle",
        "vertical_ray",
    }
    # each entry names a function of the module, looked up when it is called
    for table in (pth.GENERATORS, pth.FIELD_GENERATORS):
        assert all(callable(getattr(pth, name)) for name in table.values())


def test_path_json_roundtrip():
    spec = mf.ManifoldSpec.flat_torus([1.0, 2.0])
    gamma = pth.make_line(spec, [0.1, 0.2], [0.4, 1.0], n=16)
    back = pth.DiscretePath.from_json(gamma.to_json())
    assert back.manifold == spec
    assert np.array_equal(back.samples, gamma.samples)
    assert back.collar == gamma.collar


E2 = mf.ManifoldSpec.euclidean(2)
S2 = mf.ManifoldSpec.sphere(1.0)
H2 = mf.ManifoldSpec.hyperbolic_half_plane()


def _sheet(spec, points, velocities=None):
    points = np.asarray(points, dtype=float)
    vels = np.zeros_like(points) if velocities is None else velocities
    return Worldsheet(spec, np.linspace(0, 1, len(points)), points, vels)


# unit-sphere nodes whose velocities are the radial vectors, normal to the sphere
_RADIAL = np.tile(np.eye(3), (2, 1, 1))


def _nan_velocity():
    vels = np.zeros((2, 3, 2))
    vels[0, 1, 0] = np.nan
    return vels


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: pth.DiscretePath(H2, [[0, 1], [0, 2], [0, -1]]), "sample 2 needs y > 0"),
        (
            lambda: pth.DiscretePath(S2, [[1, 0, 0], [0, 2, 0], [0, 0, 2]]),
            "sample 1 is off the sphere",
        ),
        (lambda: pth.DiscretePath(E2, [[0, 0], [np.nan, 0], [1, 0]]), "sample 1 is not finite"),
        (lambda: mf.ManifoldPoint(S2, [np.nan, 0, 0]), "point is not finite"),
        (lambda: mf.ManifoldPoint(S2, [np.inf, 0, 0]), "point is not finite"),
        (lambda: mf.ManifoldPoint(E2, [np.inf, 0]), "point is not finite"),
        (
            lambda: _sheet(H2, [[[0, 1], [1, 1], [2, 1]], [[0, 1], [1, 1], [2, -1]]]),
            "node (s=1, t=2) needs y > 0",
        ),
        (
            lambda: _sheet(E2, np.zeros((2, 3, 2)), _nan_velocity()),
            "velocity at node (s=0, t=1) is not finite",
        ),
        (lambda: _sheet(S2, _RADIAL, _RADIAL), "velocity at node (s=0, t=0) is not tangent to the sphere"),
        (
            lambda: Worldsheet.from_json(dict(_sheet(S2, _RADIAL).to_json(), velocities=_RADIAL.tolist())),
            "velocity at node (s=0, t=0) is not tangent to the sphere",
        ),
        (lambda: pth.DiscretePath(E2, [[0, 0], [1, 0]]), "a path needs at least N = 2 segments"),
        (
            lambda: pth.PathTangentField(pth.make_line(E2, [0, 0], [1, 0], n=4), np.zeros((4, 2))),
            "field shape must match the base path grid",
        ),
        (
            lambda: pth.reparametrize(pth.make_line(E2, [0, 0], [1, 0], n=4), [0.0, 0.5, 0.4]),
            "reparametrization must be nondecreasing",
        ),
        (lambda: pth.make_great_circle_arc(E2, [0, 0], [1, 0]), "great_circle_arc requires a sphere"),
        (lambda: pth.make_latitude_circle(H2, 1.0), "latitude_circle requires a sphere"),
        (lambda: pth.make_vertical_ray(S2, 0.0, 1.0, 2.0), "vertical_ray requires the hyperbolic half plane"),
    ],
    ids=[
        "path-half-plane-below-axis",
        "path-off-sphere",
        "path-nan",
        "point-sphere-nan",
        "point-sphere-inf",
        "point-euclidean-inf",
        "sheet-half-plane-below-axis",
        "sheet-nan-velocity",
        "sheet-radial-velocity",
        "sheet-record-radial-velocity",
        "path-one-segment",
        "field-grid",
        "reparametrization-decreasing",
        "great-circle-off-sphere",
        "latitude-off-sphere",
        "vertical-ray-off-half-plane",
    ],
)
def test_invalid_samples_are_rejected_where_they_enter(build, message):
    with pytest.raises(mf.DomainError) as err:
        build()
    assert message in str(err.value)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda sphere, plane: pth.make_latitude_circle(sphere, "x"), "colatitude"),
        (lambda sphere, plane: pth.make_latitude_circle(sphere, 1.0, fraction="x"), "fraction"),
        (lambda sphere, plane: pth.make_latitude_circle(sphere, 1.0, phase=None), "phase"),
        (lambda sphere, plane: pth.make_latitude_circle(sphere, 1.0, n=16.5), "n"),
        (lambda sphere, plane: pth.make_latitude_circle(sphere, 1.0, collar="0"), "collar"),
        (lambda sphere, plane: pth.make_vertical_ray(plane, "x", 1.0, 2.0), "x"),
        (lambda sphere, plane: pth.make_vertical_ray(plane, 0.0, 0.0, 2.0), "y_start"),
        (lambda sphere, plane: pth.make_vertical_ray(plane, 0.0, 1.0, "2"), "y_end"),
        (lambda sphere, plane: pth.make_line(plane, [0, 1], [1, 1], n=True), "n"),
        (lambda sphere, plane: pth.make_great_circle_arc(sphere, [1, 0, 0], [0, 1, 0], n=0), "n"),
        (lambda sphere, plane: pth.make_line(plane, "x", [1, 1]), "start"),
        (lambda sphere, plane: pth.make_line(plane, [0, 1], [1, 1, 1]), "end"),
        (lambda sphere, plane: pth.make_constant_path(mf.ManifoldPoint(sphere, [0, 0, 1]), collar="x"), "collar"),
        (lambda sphere, plane: pth.make_normal_field(pth.make_latitude_circle(sphere, 1.0, n=16), "x"),
         "scale"),
    ],
    ids=["colatitude", "fraction", "phase", "n-float", "collar-string", "x", "y_start-zero",
         "y_end-string", "n-bool", "n-zero", "start-string", "end-shape", "constant-collar", "scale"],
)
def test_generator_parameters_are_checked_where_they_enter(build, name):
    sphere, plane = mf.ManifoldSpec.sphere(1.0), mf.ManifoldSpec.hyperbolic_half_plane()
    with pytest.raises(mf.DomainError, match="^%s must be " % name):
        build(sphere, plane)


def test_evaluation_checks_only_the_chords_it_reads():
    # the chord from sample 2 to 3 is half a circumference long
    spec = mf.ManifoldSpec.flat_torus([1.0, 2.0])
    xs = [0.1, 0.15, 0.2, 0.7, 0.75, 0.8]
    gamma = pth.DiscretePath(spec, np.array([[x, 0.5] for x in xs]), 0.0)
    both = pth.evaluate_many(gamma, [0.1, 0.9])
    assert np.array_equal(both, [pth.evaluate(gamma, 0.1).coords, pth.evaluate(gamma, 0.9).coords])
    assert np.array_equal(pth.evaluate_many(gamma, [0.4, 0.6]), gamma.samples[2:4])
    with pytest.raises(mf.NormalNeighborhoodError, match="^samples 2 and 3 are 0.5 apart"):
        pth.evaluate_many(gamma, [0.1, 0.5, 0.9])
