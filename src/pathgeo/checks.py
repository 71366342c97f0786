"""Property suites: randomized invariant checks with reproducible reports.

Each suite runs a fixed list of properties; every property draws its own
random cases from a seed derived deterministically from the run seed, so
reports are byte-identical for identical inputs regardless of execution
order. Failures are report content, never exceptions.

A property is a generator that yields each value it measures. The
report's ``worst`` is the largest of them (``_run_property``): a NaN is the
worst value and fails, and an infinite value ends the property.

``run_checks`` runs the properties in worker processes forked from the
calling process, one per CPU it may run on, which claim the properties
one at a time (``_fork``); it collects their results in suite order, so
the report is byte-identical to a serial run.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import _fork
from . import backtrack as bt
from . import category as cat
from . import manifold as mf
from . import path as pth
from . import pathspace as ps

DEFAULT_SEED = 42

SUITES = ("manifold", "pathspace", "backtrack", "category", "all")


def builtin_manifolds():
    return {
        "euclidean": mf.ManifoldSpec.euclidean(2),
        "sphere": mf.ManifoldSpec.sphere(1.0),
        "hyperbolic_half_plane": mf.ManifoldSpec.hyperbolic_half_plane(),
        "flat_torus": mf.ManifoldSpec.flat_torus([1.0, 2.0]),
    }


@dataclass(frozen=True)
class PropertyResult:
    name: str
    worst: float
    tolerance: float
    cases: int
    detail: str = ""

    @property
    def passed(self):
        return self.worst <= self.tolerance

    def to_json(self):
        out = {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst if np.isfinite(self.worst) else None,
            "tolerance": self.tolerance,
            "cases": self.cases,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


# ---------------------------------------------------------------------------
# random case generators
# ---------------------------------------------------------------------------


def random_tangent(spec, x, rng, max_norm=2.0):
    v = spec.random_vector(x, rng)
    nrm = mf.norm(spec, x, v)
    if nrm > 0:
        v = v * (rng.uniform(0.2, 1.0) * max_norm / nrm)
    return v


def _speed_cap(spec, requested):
    """Keep random constructions well inside the injectivity radius."""
    inj = spec.injectivity_radius()
    return min(requested, 0.7 * inj) if np.isfinite(inj) else requested


def random_collared_path(spec, rng, n=64, collar=pth.DEFAULT_COLLAR):
    """A collar-warped geodesic arc between two random nearby points."""
    x = spec.random_point(rng)
    v = random_tangent(spec, x, rng, max_norm=_speed_cap(spec, 1.0))
    p = mf.ManifoldPoint(spec, x)
    q = mf.exp_map(p, mf.TangentVector(p, v))
    return pth.make_geodesic_arc(p, q, n=n, collar=collar)


def random_collared_field(gamma, rng, scale=0.3):
    """A random tangent field, constant on the collars of its base path.

    Scaled so the largest pointwise metric norm equals the (injectivity
    capped) scale; pointwise exponentials then stay in normal range.
    """
    spec = gamma.manifold
    n = gamma.n_segments
    comps = rng.standard_normal((n + 1, spec.point_dim))
    k_head, k_tail = pth._collar_nodes(n, gamma.collar)  # each at least its end sample
    comps = spec.project_tangent(gamma.samples, comps)
    comps[:k_head] = comps[k_head - 1]
    comps[-k_tail:] = comps[-k_tail]
    peak = float(np.max(mf.norm(spec, gamma.samples, comps)))
    if peak > 0:
        comps = comps * (_speed_cap(spec, scale) / peak)
    return pth.PathTangentField(gamma, comps)


def nearby_path(gamma, rng, scale=0.2):
    """A second path in the same normal neighborhood, via a pointwise Exp."""
    field = random_collared_field(gamma, rng, scale=scale)
    return ps.pathspace_exp(gamma, field)


# ---------------------------------------------------------------------------
# manifold suite
# ---------------------------------------------------------------------------


def _geodesic_draws(spec, rng, cases):
    """The cases of geodesic_oracle: points and initial velocities, stacked."""
    xs = np.stack([spec.random_point(rng) for _ in range(cases)])
    vs = np.stack([random_tangent(spec, x, rng) for x in xs])
    return xs, vs


def _prop_geodesic_oracle(spec, rng, cases):
    xs, vs = _geodesic_draws(spec, rng, cases)
    pts, _ = mf.integrate_batch(spec, xs, vs, 1.0, mf.GEODESIC_ORACLE_STEPS)
    ref, _ = mf.flow(spec, xs, vs, 1.0)
    yield float(np.max(mf.dist(spec, pts[-1], ref)))


def _prop_exp_log(spec, rng, cases):
    inj = spec.injectivity_radius()
    cap = 0.9 * inj if np.isfinite(inj) else 2.0
    for _ in range(cases):
        x = spec.random_point(rng)
        v = random_tangent(spec, x, rng, max_norm=cap)
        p = mf.ManifoldPoint(spec, x)
        q = mf.exp_map(p, mf.TangentVector(p, v))
        back = mf.log_map(p, q)
        yield float(np.max(np.abs(back.components - v)))


def _prop_distance_axioms(spec, rng, cases):
    for _ in range(cases):
        x, y, z = (spec.random_point(rng) for _ in range(3))
        dxy = mf.dist(spec, x, y)
        yield abs(float(dxy - mf.dist(spec, y, x)))
        yield -float(dxy + mf.dist(spec, y, z) - mf.dist(spec, x, z))


def _transport_draws(spec, rng, cases):
    """The cases of transport_isometry: geodesics of 33 samples (cases on
    axis 1) and the vectors to transport along them (cases on axis 0)."""
    draws = []
    for _ in range(cases):
        x = spec.random_point(rng)
        v = random_tangent(spec, x, rng, max_norm=1.0)
        draws.append((x, v, random_tangent(spec, x, rng, max_norm=1.0)))
    x, v, w = (np.stack(c) for c in zip(*draws))  # cases on axis 0
    curves, _ = mf.flow(spec, x, v, np.linspace(0, 1, 33)[:, None])
    return curves, w


def _prop_transport_isometry(spec, rng, cases):
    curves, w = _transport_draws(spec, rng, cases)
    moved = mf.transport_along(spec, curves, w)
    n0 = mf.norm(spec, curves[0], moved[0])
    n1 = mf.norm(spec, curves[-1], moved[-1])
    yield float(np.max(np.abs(n1 - n0) / np.maximum(n0, 1e-12)))
    oracle = mf.transport_along_rk4(spec, curves, w)
    yield float(np.max(np.abs(moved - oracle)))


# ---------------------------------------------------------------------------
# pathspace suite
# ---------------------------------------------------------------------------


def _prop_fubini(spec, rng, cases, n=64, S=16):
    for _ in range(cases):
        gamma = random_collared_path(spec, rng, n=n)
        field = random_collared_field(gamma, rng)
        sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), S)
        E = ps.sheet_energy(sheet)
        et = ps.transverse_energies(sheet)
        resummed = float(np.sum(pth.trapezoid_weights(n) / n * et))
        yield abs(E - resummed) / (1.0 + abs(E))


def _prop_distance_chain(spec, rng, cases, n=64):
    for _ in range(cases):
        g1 = random_collared_path(spec, rng, n=n)
        g2 = nearby_path(g1, rng)
        sheet = ps.connecting_geodesic(g1, g2, S=32)
        yield abs(ps.sheet_length(sheet) - ps.pathspace_distance(g1, g2))


def _prop_minimizing(spec, rng, cases, n=64):
    for _ in range(cases):
        g1 = random_collared_path(spec, rng, n=n)
        g2 = nearby_path(g1, rng)
        dtilde = ps.pathspace_distance(g1, g2)
        sheet = ps.connecting_geodesic(g1, g2, S=16)
        bump = np.sin(np.pi * np.linspace(0, 1, len(sheet.s_nodes)))[:, None, None]
        noise = 0.05 * rng.standard_normal(sheet.points.shape) * bump
        pts = spec.retract(sheet.points + noise)
        perturbed = ps.sheet_from_grid(spec, sheet.interval, pts)
        yield dtilde - ps.sheet_length(perturbed)


def _prop_l2_transport(spec, rng, cases, n=64, S=16):
    for _ in range(cases):
        gamma = random_collared_path(spec, rng, n=n)
        vfield = random_collared_field(gamma, rng)
        xfield = random_collared_field(gamma, rng)
        sheet = ps.pathspace_geodesic(gamma, vfield, (0.0, 1.0), S)
        moved = ps.pathspace_transport(sheet, xfield)
        g0 = ps.l2_metric(moved[0].base, moved[0], moved[0])
        g1 = ps.l2_metric(moved[-1].base, moved[-1], moved[-1])
        yield abs(g1 - g0) / max(abs(g0), 1e-12)


def _prop_geodesic_residual(spec, rng, cases, n=32, S=64):
    for _ in range(cases):
        gamma = random_collared_path(spec, rng, n=n)
        field = random_collared_field(gamma, rng)
        sheet = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), S)
        yield ps.transverse_residual(sheet)


# ---------------------------------------------------------------------------
# backtrack suite
# ---------------------------------------------------------------------------


def _spur_path(spec, rng, n=64):
    """A collared path with one exact retraced spur; returns it with its
    spur-free counterpart and the spur window."""
    clean = random_collared_path(spec, rng, n=n, collar=0.0)
    k = n // 4
    mid = n // 2
    out_and_back = clean.samples[mid : mid + k + 1]
    samples = np.concatenate(
        [clean.samples[: mid + k + 1], out_and_back[::-1][1:], clean.samples[mid + 1 :]]
    )
    # window center sits at the spur tip, index mid + k
    return pth.DiscretePath(spec, samples, 0.0), clean, (mid, k)


def _prop_detect_erase(spec, rng, cases, n=64):
    for _ in range(cases):
        spurred, clean, (T, k) = _spur_path(spec, rng, n=n)
        wins = bt.detect_backtracks(spurred)
        if len(wins) != 1 or wins[0].start != T or wins[0].half_width != k:
            yield math.inf
        if not bt.bt_equivalent(spurred, clean, 1e-6):
            yield math.inf
        c = bt.canonical_form(spurred)
        cc = bt.canonical_form(c)
        yield float(np.max(mf.dist(spec, c.samples, cc.samples)))


def _prop_exp_preserves_windows(spec, rng, cases, n=64):
    for _ in range(cases):
        spurred, _, (T, k) = _spur_path(spec, rng, n=n)
        field = pth.make_constant_field(spurred, 0.2 * rng.standard_normal(spec.point_dim))
        moved = ps.pathspace_exp(spurred, field)
        wins = bt.detect_backtracks(moved, tol=1e-9)
        covered = any(w.start <= T and w.start + 2 * w.half_width >= T + 2 * k for w in wins)
        if not covered:
            yield math.inf
        for u in range(k + 1):
            yield float(mf.dist(spec, moved.samples[T + u], moved.samples[T + 2 * k - u]))


def _prop_field_reflection(spec, rng, cases, n=64):
    for _ in range(cases):
        spurred, _, _ = _spur_path(spec, rng, n=n)
        field = pth.make_constant_field(spurred, 0.3 * rng.standard_normal(spec.point_dim))
        try:
            out = bt.field_canonical_form(field)
        except mf.DomainError:
            yield math.inf
        out2 = bt.field_canonical_form(out)
        yield float(np.max(np.abs(out.components - out2.components)))


def _prop_config_field(config, fname):
    field = config.build_field(fname)
    try:
        bt.field_canonical_form(field)
    except mf.DomainError:
        yield math.inf
    yield 0.0


# ---------------------------------------------------------------------------
# category suite
# ---------------------------------------------------------------------------


def _composable_triple(spec, rng, n=32):
    """Three head-to-tail morphisms sharing a constant-in-chart field value."""
    pts = [spec.random_point(rng)]
    for _ in range(3):
        p = mf.ManifoldPoint(spec, pts[-1])
        v = random_tangent(spec, pts[-1], rng, max_norm=_speed_cap(spec, 0.8))
        pts.append(mf.exp_map(p, mf.TangentVector(p, v)).coords)
    c = 0.3 * rng.standard_normal(spec.point_dim)
    ms = []
    for a, b in zip(pts[:-1], pts[1:]):
        arc = pth.make_geodesic_arc(
            mf.ManifoldPoint(spec, a), mf.ManifoldPoint(spec, b), n=n
        )
        ms.append(cat.morphism1(arc, pth.make_constant_field(arc, c), 0.0))
    return ms


def _prop_cat1_laws(spec, rng, cases, n=32):
    for _ in range(cases):
        m1, m2, m3 = _composable_triple(spec, rng, n=n)
        lhs = cat.compose1(m3, cat.compose1(m2, m1))
        rhs = cat.compose1(cat.compose1(m3, m2), m1)
        yield float(np.max(np.abs(lhs.path.samples - rhs.path.samples)))
        yield float(np.max(np.abs(lhs.field.components - rhs.field.components)))
        ido = cat.identity1(cat.src1(m1), n=n)
        if not cat.morphism1_equal(cat.compose1(m1, ido), m1, 1e-6):
            yield math.inf
        idt = cat.identity1(cat.tgt1(m1), n=n)
        if not cat.morphism1_equal(cat.compose1(idt, m1), m1, 1e-6):
            yield math.inf


def _prop_cat2_laws(spec, rng, cases, n=32, S=8):
    for _ in range(cases):
        m1, m2, _ = _composable_triple(spec, rng, n=n)
        a, b, c = 0.0, float(rng.uniform(0.3, 0.7)), 1.0
        F1 = cat.morphism2(m1, (a, b), S=S)
        G1 = cat.morphism2(m1, (b, c), S=S)
        F2 = cat.morphism2(m2, (a, b), S=S)
        G2 = cat.morphism2(m2, (b, c), S=S)
        V = cat.compose2_vertical(G1, F1)
        yield float(np.max(np.abs(V.sheet.points[: S + 1] - F1.sheet.points)))
        yield float(np.max(np.abs(V.sheet.points[S:] - G1.sheet.points)))
        H = cat.compose2_horizontal(F1, F2)
        if not cat.morphism1_equal(cat.src2(H), cat.compose1(cat.src2(F2), cat.src2(F1)), 1e-9):
            yield math.inf
        rep = cat.check_exchange(F1, G1, F2, G2)
        if rep.error is not None:
            yield math.inf
        yield rep.max_discrepancy
        V2 = cat.compose2_vertical(F1, cat.identity2(m1))
        yield float(np.max(np.abs(V2.sheet.points - F1.sheet.points)))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


# suite -> (seed base, first offset, halve cases, [(label, property, tol)]).
# Property k of the idx-th built-in manifold draws its cases from
# seed + base + 1000 * idx + first + k. Seeds overlap across suites (seed +
# 2001 feeds geodesic_oracle/hyperbolic_half_plane and distance_chain/
# euclidean); the report's bytes depend on them, so they stay as they are.
PROPERTY_TABLES = {
    "manifold": (0, 1, False, [
        ("geodesic_oracle", _prop_geodesic_oracle, 1e-5),
        ("exp_log_roundtrip", _prop_exp_log, 1e-5),
        ("distance_axioms", _prop_distance_axioms, 1e-9),
        ("transport_isometry", _prop_transport_isometry, 1e-5),
    ]),
    "pathspace": (2000, 0, True, [
        ("fubini_identity", _prop_fubini, 1e-6),
        ("distance_chain", _prop_distance_chain, 1e-4),
        ("minimizing_sheet", _prop_minimizing, 1e-4),
        ("l2_transport_isometry", _prop_l2_transport, 1e-5),
        ("geodesic_residual", _prop_geodesic_residual, 1e-4),
    ]),
    "backtrack": (4000, 1, True, [
        ("detect_erase_canonical", _prop_detect_erase, 1e-9),
        ("exp_preserves_windows", _prop_exp_preserves_windows, 1e-9),
        ("field_reflection", _prop_field_reflection, 1e-9),
    ]),
    "category": (6000, 1, True, [
        ("category_1_laws", _prop_cat1_laws, 1e-9),
        ("category_2_laws", _prop_cat2_laws, 1e-9),
    ]),
}


def _run_property(name, fn, tol, cases):
    """The one fold of the values ``fn()`` yields: one not ``<= worst``
    replaces it, so a NaN wins, and once ``worst`` is inf or NaN ``fn`` is
    not resumed. An exception reports inf, with its message as detail."""
    worst, detail = 0.0, ""
    try:
        for value in fn():
            if not value <= worst:
                worst = float(value)
                if not worst < math.inf:
                    break
    except Exception as err:  # report, never raise
        worst, detail = math.inf, str(err)
    return PropertyResult(name, worst, tol, cases, detail)


def run_checks(suite, seed=DEFAULT_SEED, cases=10, config=None):
    """Run a named suite; returns a JSON-ready deterministic report.

    The properties run in worker processes forked from this one
    (``_results``), one per CPU this process may run on, at most one per
    property; a worker that dies raises ``ChildProcessError``.
    """
    if suite not in SUITES:
        raise mf.DomainError("unknown suite %r (choose from %s)" % (suite, ", ".join(SUITES)))
    cases = mf.as_integer("cases", cases)
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and 0 <= seed < 2**64):
        raise mf.DomainError("seed must be an integer in [0, 2**64) (got %r)" % (seed,))
    tasks = []
    for name, (base, first, halve, table) in PROPERTY_TABLES.items():
        if suite not in (name, "all"):
            continue
        n = max(3, cases // 2) if halve else cases
        for idx, (mname, spec) in enumerate(builtin_manifolds().items()):
            for off, (label, prop, tol) in enumerate(table, first):
                rng = np.random.default_rng(seed + base + 1000 * idx + off)
                tasks.append((label + "/" + mname, functools.partial(prop, spec, rng, n), tol, n))
        if name == "backtrack" and config is not None:
            for fname in sorted(config.fields):
                fn = functools.partial(_prop_config_field, config, fname)
                tasks.append(("config_field_reflection/" + fname, fn, 1e-9, 1))
    results = _results(tasks)
    return {
        "suite": suite,
        "seed": int(seed),
        "passed": all(r.passed for r in results),
        "properties": [r.to_json() for r in results],
    }


def _results(tasks):
    """The ``PropertyResult`` of each task ``(name, property, tolerance,
    cases)``, in order, each run in a worker process forked from this one
    (``_fork._forked``).

    There are ``min(CPUs, len(tasks))`` workers. Each runs the child loop
    ``_fork._serve``: it claims the next task through the claims file it
    shares with the others, runs it, and sends its index and result back
    through its pipe at once; it leaves when no task is left. This process
    only collects the results. A worker that exits before it has sent the
    result of a task it claimed is a ``ChildProcessError`` naming the first
    task without a result. Every worker is killed and reaped before this
    returns or raises.
    """
    results = [None] * len(tasks)
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    jobs = [functools.partial(_job, i, *task) for i, task in enumerate(tasks)]
    with _fork._forked(workers, functools.partial(_fork._serve, jobs, pickle.dumps)) as (claims, ends):
        sent = _fork._poll(ends)
        running = len(ends)
        while running:
            for r, _ in sent.poll():
                try:
                    i, result = pickle.loads(_fork._message(r))
                except EOFError:  # the worker is gone
                    sent.unregister(r)
                    running -= 1
                else:
                    results[i] = result
    if None in results:
        name = tasks[results.index(None)][0]
        raise ChildProcessError("a check worker exited before it sent the result of %s" % name)
    return results


def _job(i, *task):
    """``(i, result)`` of task i of ``_results``, run in a worker."""
    return i, _run_property(*task)
