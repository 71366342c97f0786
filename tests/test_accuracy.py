"""The half-plane kernels against exact values and under isometries, and
the sphere and the half plane at the edges of the float range.

* The exact oracle (``oracles.exact_*``, 40 digits through the hyperboloid
  model) bounds the error of ``dist``, ``log``, ``flow`` and ``transport``
  at 1e-13 relative, from the chart origin out to |x| = 1e4 and y from 1e-4
  to 1e4. A flow point is measured relative to its y, beyond the rounding
  of its own coordinates.
* Translations z -> z + b and scalings z -> 2^k z, exact in the chart, must
  commute with the kernels and with ``path_energy`` within the same bound.
* A radius or a point that float64 cannot compute with raises a
  DomainError naming it, or is computed scale-free; no value comes out
  silently wrong (pytest turns a RuntimeWarning into an error).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pathgeo import manifold as mf
from pathgeo import path as pth

H = mf.HalfPlane()
BOUND = 1e-13

# x on a grid of 2^-36, so that x + b is exact for a dyadic b with |b| <= 1e4
GRID = 2.0**-36
xs = st.integers(-10**4 * 2**36, 10**4 * 2**36).map(lambda i: i * GRID)
ys = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)
angles = st.floats(0.0, 2 * math.pi)
chords = st.floats(-8.0, 1.0).map(lambda e: 10.0**e)  # hyperbolic lengths 1e-8 .. 10
flow_lengths = st.floats(-8.0, math.log10(4.0)).map(lambda e: 10.0**e)  # sigma s
times = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-0.6, 0.6))
shifts = st.integers(-10**4 * 2**10, 10**4 * 2**10).map(lambda i: i * 2.0**-10)
powers = st.integers(-13, 13)


def unit(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def on_grid(z):
    return np.array([round(z[0] / GRID) * GRID, z[1]])


def far_pair(x1, y1, theta, length):
    """z1 = (x1, y1) and the end, snapped to the grid, of the exact geodesic
    of hyperbolic length ``length`` from it in the direction ``theta``."""
    z1 = np.array([x1, y1])
    return z1, on_grid(oracles.exact_flow(z1, y1 * length * unit(theta), 1.0)[0])


def rel(got, want):
    return np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want)


def point_error(got, want):
    """The error of the chart point ``got`` in units of the y of ``want``,
    after the rounding of each of its coordinates."""
    excess = np.maximum(np.abs(got - want) - np.spacing(np.abs(want)), 0.0)
    return np.max(excess) / want[1]


EXACT = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@EXACT
@given(xs, ys, angles, chords)
def test_dist_and_log_match_the_exact_oracle_everywhere(x1, y1, theta, length):
    z1, z2 = far_pair(x1, y1, theta, length)
    d = oracles.exact_dist(z1, z2)
    assert abs(mf.dist(H, z1, z2) - d) <= BOUND * d
    assert rel(mf.log(H, z1, z2), oracles.exact_log(z1, z2)) <= BOUND


@EXACT
@given(xs, ys, angles, flow_lengths, times)
def test_flow_matches_the_exact_oracle_everywhere(x1, y1, theta, length, s):
    z1, v = np.array([x1, y1]), y1 * length / s * unit(theta)
    (p, w), (pe, we) = mf.flow(H, z1, v, s), oracles.exact_flow(z1, v, s)
    assert point_error(p, pe) <= BOUND
    assert rel(w, we) <= BOUND


@EXACT
@given(xs, ys, angles, chords, angles)
def test_transport_matches_the_exact_oracle_everywhere(x1, y1, theta, length, phi):
    z1, z2 = far_pair(x1, y1, theta, length)
    X = y1 * unit(phi)
    assert rel(H.transport(z1, z2, X), oracles.exact_transport(z1, z2, X)) <= BOUND


@pytest.mark.parametrize("z1, theta, length",
                         [((1e4, 1e-4), 0.3, 1e-8), ((-1e4, 1e4), 4.0, 10.0), ((0.0, 1.0), 1.0, 1.0),
                          ((123.0, 0.7), math.pi / 2 - 1e-4, 30.0)])
def test_the_oracle_floats_do_not_move_with_more_digits(z1, theta, length):
    z1 = np.array(z1)
    v = z1[1] * length * unit(theta)
    z2 = oracles.exact_flow(z1, v, 1.0)[0]
    for kernel, args in [(oracles.exact_dist, (z1, z2)), (oracles.exact_log, (z1, z2)),
                         (oracles.exact_flow, (z1, v, 1.0)), (oracles.exact_transport, (z1, z2, v))]:
        assert repr(kernel(*args)) == repr(kernel(*args, prec=140))


@pytest.mark.parametrize("s", [1.0, -1.0])
@pytest.mark.parametrize("length", [20.0, 30.0, 40.0])
@pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 2 - 1e-4, 0.3, -math.pi / 2])
def test_a_long_geodesic_keeps_its_digits(theta, length, s):
    # 1 - tau from tanh cancels on a long geodesic, and 1 - u_y from u_y on a
    # nearly vertical one; straight down, u_y = -1 exactly. With s < 0 and
    # tau < 0, 1 + tau cancels instead: at sigma s = -40 straight down it
    # read y = 0
    z1 = np.array([123.0, 0.7])
    v = z1[1] * length * unit(theta)
    (p, w), (pe, we) = mf.flow(H, z1, v, s), oracles.exact_flow(z1, v, s)
    assert abs(p[1] - pe[1]) <= BOUND * pe[1]
    assert rel(w, we) <= BOUND


def test_log_keeps_its_digits_over_a_short_chord_far_from_the_origin():
    # through the hyperboloid model, log at (1000, 1) over a 1e-6 chord was
    # off by 38, relative
    z1 = np.array([1000.0, 1.0])
    z2 = on_grid(oracles.exact_flow(z1, 1e-6 * unit(0.7), 1.0)[0])
    assert rel(mf.log(H, z1, z2), oracles.exact_log(z1, z2)) <= BOUND


# -- isometries ---------------------------------------------------------------

ISOMETRY = settings(max_examples=100, deadline=None, database=None, derandomize=True)


def isometries():
    return st.one_of(shifts.map(lambda b: ("z + %r" % b, oracles.translation(b))),
                     powers.map(lambda k: ("2^%d z" % k, oracles.scaling(k))))


@ISOMETRY
@given(isometries(), xs, ys, angles, chords, flow_lengths, angles)
def test_the_kernels_commute_with_translations_and_scalings(iso, x1, y1, theta, length, flow_length, phi):
    _, (f, df) = iso
    z1, z2 = far_pair(x1, y1, theta, length)
    v, X = y1 * flow_length * unit(phi), y1 * unit(theta + phi)
    d = mf.dist(H, z1, z2)
    assert abs(mf.dist(H, f(z1), f(z2)) - d) <= BOUND * d
    assert rel(mf.log(H, f(z1), f(z2)), df(mf.log(H, z1, z2))) <= BOUND
    (p, w), (fp, fw) = mf.flow(H, z1, v, 1.0), mf.flow(H, f(z1), df(v), 1.0)
    assert point_error(fp, f(p)) <= BOUND
    assert rel(fw, df(w)) <= BOUND
    assert rel(H.transport(f(z1), f(z2), df(X)), df(H.transport(z1, z2, X))) <= BOUND


@ISOMETRY
@given(isometries(), xs, ys, angles, st.floats(-3.0, 0.0).map(lambda e: 10.0**e))
def test_path_energy_commutes_with_translations_and_scalings(iso, x1, y1, theta, length):
    _, (f, _) = iso
    z1 = np.array([x1, y1])
    v = y1 * length * unit(theta)
    samples = np.stack([on_grid(oracles.exact_flow(z1, v, t)[0]) for t in np.linspace(0.0, 1.0, 17)])
    energy = pth.path_energy(pth.DiscretePath(H, samples))
    assert abs(pth.path_energy(pth.DiscretePath(H, f(samples))) - energy) <= BOUND * energy


def test_a_vertical_ray_has_the_same_energy_far_from_the_origin():
    # 1/2 ln^2 2 at every x; through the hyperboloid model, 5804 at x = 1e4
    energies = [pth.path_energy(pth.make_vertical_ray(H, x, 1.0, 2.0, n=1024, collar=0.0)) for x in (0.0, 1e4)]
    assert energies[1] == pytest.approx(energies[0], rel=BOUND)
    assert energies[0] == pytest.approx(0.5 * math.log(2.0) ** 2, rel=1e-12)


# -- scale edges --------------------------------------------------------------


@pytest.mark.parametrize("radius", [1e160, 1e-160, 1e-200, 1.1e50, 9e-51])
def test_a_sphere_radius_float64_cannot_compute_with_is_rejected(radius):
    # 1e160 raised a bare OverflowError in dist, 1e-160 read a quarter turn
    # as 0, and 1e-200 made a NaN
    with pytest.raises(mf.DomainError, match=r"^sphere radius must lie in \[1e-50, 1e50\] \(got "):
        mf.Sphere(radius)
    with pytest.raises(mf.DomainError, match=r"^sphere radius must lie"):
        mf.ManifoldSpec.from_json({"kind": "sphere", "radius": radius})


@pytest.mark.parametrize("radius", [1e50, 1e-50])
@pytest.mark.parametrize("angle", [math.pi / 2, 1e-8])
def test_the_extreme_sphere_radii_keep_their_digits(radius, angle):
    spec = mf.Sphere(radius)
    x, y = np.array([radius, 0.0, 0.0]), radius * np.array([math.cos(angle), math.sin(angle), 0.0])
    assert mf.dist(spec, x, y) == pytest.approx(angle * radius, rel=1e-15)
    assert rel(mf.log(spec, x, y), [0.0, angle * radius, 0.0]) <= 1e-15


@pytest.mark.parametrize("k", [515, -515, 1000, -1000])
def test_the_half_plane_kernels_are_scale_free(k):
    # 2^515 is about 1e155: y1 y2 overflows there, and at 2^-515 it is subnormal
    f, df = oracles.scaling(k)
    z1, z2, v = np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([0.3, -0.4])
    assert mf.dist(H, f(z1), f(z2)) == mf.dist(H, z1, z2)
    assert np.array_equal(mf.log(H, f(z1), f(z2)), df(mf.log(H, z1, z2)))
    assert np.array_equal(H.transport(f(z1), f(z2), df(v)), df(H.transport(z1, z2, v)))
    p, w = mf.flow(H, z1, v, 2.0)
    assert all(map(np.array_equal, mf.flow(H, f(z1), df(v), 2.0), (f(p), df(w))))
    assert mf.log_map(mf.ManifoldPoint(H, f(z1)), mf.ManifoldPoint(H, f(z2))).components[1] > 0
