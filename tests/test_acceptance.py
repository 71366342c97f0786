"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All tolerances are stated inline; random cases are drawn from fixed seeds
so the gate is reproducible run to run.
"""

import math
import time

import numpy as np

from pathgeo import backtrack as bt
from pathgeo import category as cat
from pathgeo import checks
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps

from oracles import integrate_sheet

SEED = 977


def _report(num, ok, msg):
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", msg))
    assert ok, "criterion %d failed: %s" % (num, msg)


def _manifolds():
    return checks.builtin_manifolds()


def test_criterion_1_geodesic_oracle_agreement():
    # RK4 endpoints match closed-form geodesics within 1e-5 for 200 random
    # initial conditions (|v| <= 2) per built-in manifold, 1000 steps/unit,
    # in under 5 seconds.
    rng = np.random.default_rng(SEED + 1)
    t0 = time.time()
    worst = 0.0
    for spec in _manifolds().values():
        xs = np.stack([spec.random_point(rng) for _ in range(200)])
        vs = np.stack([checks.random_tangent(spec, x, rng, max_norm=2.0) for x in xs])
        got, _ = mf.integrate_batch(spec, xs, vs, 1.0, 1000)
        want, _ = mf.flow(spec, xs, vs, 1.0)
        worst = max(worst, float(np.max(mf.dist(spec, got[-1], want))))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    _report(1, ok, "worst endpoint gap %.3g, %.2f s" % (worst, elapsed))


def test_criterion_2_exp_log_roundtrip():
    # |log(p, exp(p, v)) - v| <= 1e-5 for 200 random v inside 0.9 times the
    # injectivity radius, all built-ins.
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for spec in _manifolds().values():
        inj = spec.injectivity_radius()
        cap = 0.9 * inj if math.isfinite(inj) else 2.0
        for _ in range(200):
            x = spec.random_point(rng)
            v = checks.random_tangent(spec, x, rng, max_norm=cap)
            y, _ = mf.flow(spec, x, v, 1.0)
            back = mf.log(spec, x, np.asarray(y))
            worst = max(worst, float(np.max(np.abs(back - v))))
    ok = worst <= 1e-5
    _report(2, ok, "worst roundtrip error %.3g" % worst)


def test_criterion_3_energy_fubini_identity():
    # |E - sum of transverse energies dt| <= 1e-6 (1 + E) on 50 random
    # worldsheets at N=256, S=64.
    rng = np.random.default_rng(SEED + 3)
    specs = list(_manifolds().values())
    worst = 0.0
    for k in range(50):
        spec = specs[k % len(specs)]
        gamma = checks.random_collared_path(spec, rng, n=256)
        field = checks.random_collared_field(gamma, rng)
        sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), 64)
        E = ps.sheet_energy(sheet)
        # independent quadrature path through numpy.trapezoid
        g = mf.inner(spec, sheet.points, sheet.velocities, sheet.velocities)
        et = 0.5 * np.trapezoid(g, dx=1.0 / 64, axis=0)
        resummed = float(np.trapezoid(et, dx=1.0 / 256))
        worst = max(worst, abs(E - resummed) / (1.0 + abs(E)))
    ok = worst <= 1e-6
    _report(3, ok, "worst relative defect %.3g over 50 sheets" % worst)


def test_criterion_4_distance_chain():
    # |L(connecting sheet) - dtilde| <= 1e-4 on 50 random normal-neighborhood
    # pairs per manifold; the sphere latitude-pair fixture equals pi/4.
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for spec in _manifolds().values():
        for _ in range(50):
            g1 = checks.random_collared_path(spec, rng, n=64)
            g2 = checks.nearby_path(g1, rng)
            sheet = ps.connecting_geodesic(g1, g2, S=64)
            worst = max(
                worst, abs(ps.sheet_length(sheet) - ps.pathspace_distance(g1, g2))
            )
    sph = mf.ManifoldSpec.sphere(1.0)
    lat1 = pth.make_latitude_circle(sph, 3 * math.pi / 8, n=256)
    lat2 = pth.make_latitude_circle(sph, 5 * math.pi / 8, n=256)
    fixture = abs(ps.pathspace_distance(lat1, lat2) - math.pi / 4)
    ok = worst <= 1e-4 and fixture <= 1e-4
    _report(4, ok, "worst |L - dtilde| %.3g, latitude fixture defect %.3g" % (worst, fixture))


def test_criterion_5_minimizing_property():
    # 100 random endpoint-fixed perturbations of connecting sheets never
    # beat dtilde by more than 1e-4.
    rng = np.random.default_rng(SEED + 5)
    specs = list(_manifolds().values())
    worst = -math.inf
    for k in range(20):
        spec = specs[k % len(specs)]
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
            worst = max(worst, dtilde - ps.sheet_length(perturbed))
    ok = worst <= 1e-4
    _report(5, ok, "worst undercut %.3g over 100 perturbations" % worst)


def test_criterion_6_transport_isometry():
    # L2 norm drift <= 1e-5 relative along 50 random worldsheets; sphere
    # latitude holonomy matches 2 pi (1 - cos theta) within 1e-4.
    rng = np.random.default_rng(SEED + 6)
    specs = list(_manifolds().values())
    worst = 0.0
    for k in range(50):
        spec = specs[k % len(specs)]
        gamma = checks.random_collared_path(spec, rng, n=64)
        vfield = checks.random_collared_field(gamma, rng)
        xfield = checks.random_collared_field(gamma, rng)
        sheet = ps.pathspace_geodesic(gamma, vfield, (0.0, 1.0), 16)
        moved = ps.pathspace_transport(sheet, xfield)
        g0 = ps.l2_metric(moved[0].base, moved[0], moved[0])
        g1 = ps.l2_metric(moved[-1].base, moved[-1], moved[-1])
        worst = max(worst, abs(g1 - g0) / max(abs(g0), 1e-12))
    # holonomy fixture
    sph = mf.ManifoldSpec.sphere(1.0)
    theta = 1.1
    n = 2048
    ang = 2 * np.pi * np.arange(n + 1) / n
    st, ct = math.sin(theta), math.cos(theta)
    curve = np.stack([st * np.cos(ang), st * np.sin(ang), ct * np.ones_like(ang)], axis=-1)
    v0 = np.array([0.0, 0.0, 1.0])
    v0 = v0 - np.dot(v0, curve[0]) * curve[0]
    v0 /= np.linalg.norm(v0)
    moved = mf.transport_along(sph, curve, v0)
    got = math.acos(float(np.clip(np.dot(moved[-1], v0), -1, 1)))
    want = 2 * math.pi * (1 - math.cos(theta))
    want = min(want, 2 * math.pi - want)
    hol = abs(got - want)
    ok = worst <= 1e-5 and hol <= 1e-4
    _report(6, ok, "worst L2 drift %.3g, holonomy defect %.3g" % (worst, hol))


def test_criterion_7_backtrack_suite():
    # exact-reflection fixtures: the pointwise exponential preserves windows
    # (flat: bitwise, curved: <= 1e-9); a geodesic sheet seeded on a
    # concatenation splits into the sheets of the pieces (<= 1e-9);
    # equivalence descends through the exponential at 1e-5; canonical_form
    # is idempotent to 1e-9.
    rng = np.random.default_rng(SEED + 7)
    worst_preserve = 0.0
    worst_split = 0.0
    worst_idem = 0.0
    descended = True
    for name, spec in _manifolds().items():
        # window preservation and descent through the exponential
        spurred, clean, (T, k) = checks._spur_path(spec, rng, n=32)
        c = 0.2 * rng.standard_normal(spec.point_dim)
        moved = ps.pathspace_exp(spurred, pth.make_constant_field(spurred, c))
        moved_clean = ps.pathspace_exp(clean, pth.make_constant_field(clean, c))
        for u in range(k + 1):
            a, b = moved.samples[T + u], moved.samples[T + 2 * k - u]
            if spec.kind in (mf.EUCLIDEAN, mf.FLAT_TORUS):
                if not np.array_equal(a, b):
                    worst_preserve = math.inf
            else:
                worst_preserve = max(worst_preserve, float(mf.dist(spec, a, b)))
        descended = descended and bt.bt_equivalent(moved, moved_clean, 1e-5)
        # split of a sheet seeded on a concatenated morphism
        m1, m2, _ = checks._composable_triple(spec, rng, n=16)
        big = cat.morphism2(cat.compose1(m2, m1), (0.0, 1.0), S=8).sheet
        s1 = cat.morphism2(m1, (0.0, 1.0), S=8).sheet
        s2 = cat.morphism2(m2, (0.0, 1.0), S=8).sheet
        glued = np.concatenate([s1.points, s2.points[:, 1:]], axis=1)
        worst_split = max(worst_split, float(np.max(np.abs(big.points - glued))))
        # idempotence
        c1 = bt.canonical_form(spurred)
        c2 = bt.canonical_form(c1)
        worst_idem = max(worst_idem, float(np.max(mf.dist(spec, c1.samples, c2.samples))))
    ok = worst_preserve <= 1e-9 and worst_split <= 1e-9 and worst_idem <= 1e-9 and descended
    _report(
        7,
        ok,
        "window preservation %.3g, split %.3g, idempotence %.3g, descent %s"
        % (worst_preserve, worst_split, worst_idem, descended),
    )


def test_criterion_8_double_category_laws():
    # src/tgt coherence, identity laws, both associativities, and the
    # exchange law on 100 random composable configurations per manifold,
    # node-wise discrepancy <= 1e-9; a full `check all` run stays under 60 s.
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    identities = True
    for spec in _manifolds().values():
        for j in range(100):
            m1, m2, m3 = checks._composable_triple(spec, rng, n=16)
            # strict associativity of 1-composition
            lhs = cat.compose1(m3, cat.compose1(m2, m1))
            rhs = cat.compose1(cat.compose1(m3, m2), m1)
            worst = max(worst, float(np.max(np.abs(lhs.path.samples - rhs.path.samples))))
            b = float(rng.uniform(0.3, 0.7))
            F1 = cat.morphism2(m1, (0.0, b), S=4)
            G1 = cat.morphism2(m1, (b, 1.0), S=4)
            F2 = cat.morphism2(m2, (0.0, b), S=4)
            G2 = cat.morphism2(m2, (b, 1.0), S=4)
            # vertical associativity through a three-way split
            H1 = cat.morphism2(m1, (1.0, 1.5), S=4)
            va = cat.compose2_vertical(H1, cat.compose2_vertical(G1, F1))
            vb = cat.compose2_vertical(cat.compose2_vertical(H1, G1), F1)
            gap, _ = cat.sheet_discrepancy(va, vb)
            worst = max(worst, gap)
            # horizontal associativity
            F3 = cat.morphism2(m3, (0.0, b), S=4)
            ha = cat.compose2_horizontal(cat.compose2_horizontal(F1, F2), F3)
            hb = cat.compose2_horizontal(F1, cat.compose2_horizontal(F2, F3))
            gap, _ = cat.sheet_discrepancy(ha, hb)
            worst = max(worst, gap)
            # src/tgt coherence of the horizontal composite
            H = cat.compose2_horizontal(F1, F2)
            coh = cat.compose1(cat.src2(F2), cat.src2(F1))
            worst = max(
                worst, float(np.max(np.abs(cat.src2(H).path.samples - coh.path.samples)))
            )
            # exchange law
            rep = cat.check_exchange(F1, G1, F2, G2)
            worst = max(worst, rep.max_discrepancy if rep.error is None else math.inf)
            # identity laws on a subsampled schedule (quotient equality)
            if j % 10 == 0:
                ido = cat.identity1(cat.src1(m1), n=16)
                idt = cat.identity1(cat.tgt1(m1), n=16)
                identities = (
                    identities
                    and cat.morphism1_equal(cat.compose1(m1, ido), m1, 1e-6)
                    and cat.morphism1_equal(cat.compose1(idt, m1), m1, 1e-6)
                )
    t0 = time.time()
    report = checks.run_checks("all", cases=6)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and identities and report["passed"] and elapsed < 60.0
    _report(
        8,
        ok,
        "worst law discrepancy %.3g, identities %s, check-all %s in %.1f s"
        % (worst, identities, "passed" if report["passed"] else "failed", elapsed),
    )


def test_criterion_9_completeness_smoke():
    # a sphere worldsheet integrated over [0, 20 pi] keeps the coordinate
    # norm drift at or below 1e-6 per unit of s.
    sph = mf.ManifoldSpec.sphere(1.0)
    gamma = pth.make_great_circle_arc(sph, [1, 0, 0], [0, 1, 0], n=32)
    field = pth.make_constant_field(gamma, [0.0, 0.3, 1.0])
    span = 20 * math.pi
    sheet = integrate_sheet(
        sph, gamma.samples, field.components, np.linspace(0.0, span, 41), gamma.collar,
        steps_per_unit=200,
    )
    drift = float(np.max(np.abs(np.linalg.norm(sheet.points, axis=-1) - 1.0)))
    ok = drift / span <= 1e-6
    _report(9, ok, "radius drift %.3g over s span %.4g" % (drift, span))
