import numpy as np
import pytest

from pathgeo import category as cat
from pathgeo import checks
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo import serialize as ser

SEED = 14142


def specs():
    return list(checks.builtin_manifolds().values())


def triple(spec, seed, n=32):
    return checks._composable_triple(spec, np.random.default_rng(seed), n=n)


# ---------------------------------------------------------------------------
# 1-morphisms
# ---------------------------------------------------------------------------


def test_compose1_grid_gluing_oracle():
    spec = mf.ManifoldSpec.euclidean(2)
    m1, m2, _ = triple(spec, SEED)
    comp = cat.compose1(m2, m1)
    # oracle: explicit appended sample and component arrays
    want_samples = np.concatenate([m1.path.samples, m2.path.samples[1:]])
    want_comps = np.concatenate([m1.field.components, m2.field.components[1:]])
    assert np.array_equal(comp.path.samples, want_samples)
    assert np.array_equal(comp.field.components, want_comps)
    assert comp.time == m1.time


def test_compose1_rejects_mismatches():
    spec = mf.ManifoldSpec.euclidean(2)
    m1, m2, _ = triple(spec, SEED + 1)
    far = cat.GeodMorphism1(m2.field, m2.time + 1.0)
    with pytest.raises(cat.CompositionError):
        cat.compose1(far, m1)  # time labels differ
    with pytest.raises(cat.CompositionError):
        cat.compose1(m1, m2)  # endpoints do not meet (wrong order)
    bad_field = cat.GeodMorphism1(pth.PathTangentField(m2.path, m2.field.components + 1.0), m2.time)
    with pytest.raises(cat.CompositionError):
        cat.compose1(bad_field, m1)  # field values jump at the join


def test_src_tgt_of_composition():
    for spec in specs():
        m1, m2, _ = triple(spec, SEED + 2)
        comp = cat.compose1(m2, m1)
        assert np.array_equal(cat.src1(comp).point.coords, cat.src1(m1).point.coords)
        assert np.array_equal(cat.tgt1(comp).point.coords, cat.tgt1(m2).point.coords)


def test_associativity_on_the_nose():
    for spec in specs():
        m1, m2, m3 = triple(spec, SEED + 3)
        lhs = cat.compose1(m3, cat.compose1(m2, m1))
        rhs = cat.compose1(cat.compose1(m3, m2), m1)
        assert np.array_equal(lhs.path.samples, rhs.path.samples)
        assert np.array_equal(lhs.field.components, rhs.field.components)


def test_identity1_laws():
    for spec in specs():
        m1, _, _ = triple(spec, SEED + 4)
        ids = cat.identity1(cat.src1(m1), n=32)
        idt = cat.identity1(cat.tgt1(m1), n=32)
        assert cat.morphism1_equal(cat.compose1(m1, ids), m1, 1e-6)
        assert cat.morphism1_equal(cat.compose1(idt, m1), m1, 1e-6)


def test_morphism1_equality_quotients_backtracks():
    spec = mf.ManifoldSpec.euclidean(2)
    m1, m2, _ = triple(spec, SEED + 5)
    # going there and back and there again equals going there once
    back = cat.GeodMorphism1(pth.PathTangentField(pth.reverse(m1.path), m1.field.components[::-1].copy()), m1.time)
    wiggle = cat.compose1(m1, cat.compose1(back, m1))
    assert cat.morphism1_equal(wiggle, m1, 1e-6)
    assert not cat.morphism1_equal(m1, m2, 1e-6)


def test_morphism1_equality_needs_equal_times():
    spec = mf.ManifoldSpec.euclidean(2)
    m1, _, _ = triple(spec, SEED + 6)
    shifted = cat.GeodMorphism1(m1.field, m1.time + 0.5)
    assert not cat.morphism1_equal(m1, shifted, 1e-6)


# ---------------------------------------------------------------------------
# 2-morphisms
# ---------------------------------------------------------------------------


def test_src2_tgt2_are_boundary_slices():
    for spec in specs():
        m1, _, _ = triple(spec, SEED + 7)
        F = cat.morphism2(m1, (0.0, 1.0), S=8)
        assert np.array_equal(cat.src2(F).path.samples, m1.path.samples)
        assert np.array_equal(cat.src2(F).field.components, m1.field.components)
        assert cat.src2(F).time == 0.0 and cat.tgt2(F).time == 1.0


def test_vertical_composition_restricts_to_factors():
    for spec in specs():
        m1, _, _ = triple(spec, SEED + 8)
        F = cat.morphism2(m1, (0.0, 0.4), S=4)
        G = cat.morphism2(m1, (0.4, 1.0), S=6)
        V = cat.compose2_vertical(G, F)
        assert np.array_equal(V.sheet.points[:5], F.sheet.points)
        assert np.max(np.abs(V.sheet.points[4:] - G.sheet.points)) <= 1e-9


def test_vertical_composition_rejects_disjoint_intervals():
    spec = mf.ManifoldSpec.euclidean(2)
    m1, _, _ = triple(spec, SEED + 9)
    F = cat.morphism2(m1, (0.0, 0.4), S=4)
    H = cat.morphism2(m1, (0.6, 1.0), S=4)
    with pytest.raises(cat.CompositionError):
        cat.compose2_vertical(H, F)


def test_vertical_associativity():
    for spec in specs():
        m1, _, _ = triple(spec, SEED + 10)
        F = cat.morphism2(m1, (0.0, 0.3), S=3)
        G = cat.morphism2(m1, (0.3, 0.7), S=4)
        H = cat.morphism2(m1, (0.7, 1.0), S=3)
        lhs = cat.compose2_vertical(H, cat.compose2_vertical(G, F))
        rhs = cat.compose2_vertical(cat.compose2_vertical(H, G), F)
        gap, _ = cat.sheet_discrepancy(lhs, rhs)
        assert gap <= 1e-9


@pytest.mark.parametrize(
    "spec", [mf.ManifoldSpec.euclidean(2), mf.ManifoldSpec.flat_torus([1.0, 2.0])], ids=["euclidean", "flat_torus"]
)
def test_vertical_composite_on_uneven_s_nodes_is_a_geodesic(spec):
    # s-spacing 0.1 on [0, 0.3], then 0.175 on [0.3, 1]: sheets read their
    # own spacings, so the composite's residual is rounding only
    m1, _, _ = triple(spec, SEED + 17)
    V = cat.compose2_vertical(cat.morphism2(m1, (0.3, 1.0), S=4), cat.morphism2(m1, (0.0, 0.3), S=3))
    assert ps.transverse_residual(V.sheet) <= 1e-12
    whole = cat.morphism2(m1, (0.0, 1.0), S=7).sheet
    assert ps.sheet_energy(V.sheet) == pytest.approx(ps.sheet_energy(whole), rel=1e-12)


def test_horizontal_composition_seed_and_boundaries():
    for spec in specs():
        m1, m2, _ = triple(spec, SEED + 11)
        F = cat.morphism2(m1, (0.0, 1.0), S=8)
        G = cat.morphism2(m2, (0.0, 1.0), S=8)
        H = cat.compose2_horizontal(F, G)
        assert cat.morphism1_equal(
            cat.src2(H), cat.compose1(cat.src2(G), cat.src2(F)), 1e-9
        )
        # shared boundary fiber agrees with both factors
        n = m1.path.n_segments
        assert np.max(np.abs(H.sheet.points[:, : n + 1] - F.sheet.points)) <= 1e-9
        assert np.max(np.abs(H.sheet.points[:, n:] - G.sheet.points)) <= 1e-9


def test_horizontal_associativity():
    for spec in specs():
        m1, m2, m3 = triple(spec, SEED + 12)
        F = cat.morphism2(m1, (0.0, 1.0), S=4)
        G = cat.morphism2(m2, (0.0, 1.0), S=4)
        H = cat.morphism2(m3, (0.0, 1.0), S=4)
        lhs = cat.compose2_horizontal(cat.compose2_horizontal(F, G), H)
        rhs = cat.compose2_horizontal(F, cat.compose2_horizontal(G, H))
        gap, _ = cat.sheet_discrepancy(lhs, rhs)
        assert gap <= 1e-9


def test_identity2_is_vertically_neutral():
    for spec in specs():
        m1, _, _ = triple(spec, SEED + 13)
        F = cat.morphism2(m1, (0.0, 1.0), S=8)
        ids = cat.identity2(m1)  # degenerate segment over [0, 0]
        V = cat.compose2_vertical(F, ids)
        gap, _ = cat.sheet_discrepancy(V, F)
        assert gap <= 1e-9


def test_exchange_law():
    for spec in specs():
        m1, m2, _ = triple(spec, SEED + 14)
        F1 = cat.morphism2(m1, (0.0, 0.5), S=4)
        G1 = cat.morphism2(m1, (0.5, 1.0), S=4)
        F2 = cat.morphism2(m2, (0.0, 0.5), S=4)
        G2 = cat.morphism2(m2, (0.5, 1.0), S=4)
        rep = cat.check_exchange(F1, G1, F2, G2)
        assert rep.passed and rep.error is None
        assert rep.max_discrepancy <= 1e-9


def test_exchange_reports_incomposable_inputs():
    spec = mf.ManifoldSpec.euclidean(2)
    m1, m2, _ = triple(spec, SEED + 15)
    F1 = cat.morphism2(m1, (0.0, 0.5), S=4)
    G1 = cat.morphism2(m1, (0.5, 1.0), S=4)
    F2 = cat.morphism2(m2, (0.0, 0.5), S=4)
    G2_bad = cat.morphism2(m2, (0.6, 1.0), S=4)
    rep = cat.check_exchange(F1, G1, F2, G2_bad)
    assert not rep.passed
    assert rep.error is not None
    assert rep.to_json()["failing_node"] is None


def test_morphism_json_roundtrip():
    spec = mf.ManifoldSpec.sphere(1.0)
    m1, _, _ = triple(spec, SEED + 16, n=8)
    back = cat.GeodMorphism1.from_json(m1.to_json())
    assert np.array_equal(back.path.samples, m1.path.samples)
    assert np.array_equal(back.field.components, m1.field.components)
    F = cat.morphism2(m1, (0.0, 1.0), S=2)
    back2 = cat.GeodMorphism2.from_json(F.to_json())
    assert np.array_equal(back2.sheet.points, F.sheet.points)


def test_object_validation():
    spec = mf.ManifoldSpec.euclidean(2)
    p = mf.ManifoldPoint(spec, [0.0, 0.0])
    q = mf.ManifoldPoint(spec, [1.0, 0.0])
    v = mf.TangentVector(q, [0.0, 1.0])
    with pytest.raises(mf.DomainError):
        cat.GeodObject(p, v, 0.0)


def time_label_calls():
    """Each place a time label enters, as a function of the label's JSON text."""
    m = triple(mf.ManifoldSpec.euclidean(2), SEED + 30)[0]
    record = m.to_json()
    return {
        "morphism1": lambda text: cat.morphism1(m.path, m.field, ser.loads(text)),
        "GeodMorphism1.from_json": lambda text: cat.GeodMorphism1.from_json(
            dict(record, time=ser.loads('{"time": %s}' % text)["time"])
        ),
        "GeodObject": lambda text: cat.GeodObject(m.path.start(), m.field.vector(0), ser.loads(text)),
        "GeodMorphism1": lambda text: cat.GeodMorphism1(m.field, ser.loads(text)),
    }


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", '"0"', "true"])
@pytest.mark.parametrize("entry", list(time_label_calls()))
def test_a_time_label_that_is_not_finite_is_rejected(entry, text):
    # a NaN label composed with nothing, not even itself, and failed only
    # when its morphism was exported; the 1-morphism constructor took one
    # (and a string) as given, so its compose1 raised "time labels differ:
    # nan vs nan"
    with pytest.raises(mf.DomainError, match=r"^time must be a finite number \(got "):
        time_label_calls()[entry](text)


# ---------------------------------------------------------------------------
# node-wise comparison: one manifold and one grid, or a CompositionError
# ---------------------------------------------------------------------------

SPHERE, FLAT3 = mf.ManifoldSpec.sphere(1.0), mf.ManifoldSpec.euclidean(3)


def on(spec, m):
    """The 1-morphism m with the same coordinates on another manifold."""
    path = pth.DiscretePath(spec, m.path.samples, m.path.collar)
    return cat.morphism1(path, pth.PathTangentField(path, m.field.components), m.time)


def flat_copy(F):
    """The 2-morphism of F's seed coordinates on euclidean(3), over F's s-nodes."""
    return cat.GeodMorphism2(on(FLAT3, F.seed), F.s_nodes)


def compose_across_dimensions():
    plane = triple(mf.ManifoldSpec.euclidean(2), SEED + 20)[0]
    cat.compose1(triple(SPHERE, SEED + 21)[0], plane)


def equal_across_manifolds():
    m = triple(SPHERE, SEED + 22)[0]
    cat.morphism1_equal(m, on(FLAT3, m))


def equal_across_manifolds_and_times():
    m = triple(SPHERE, SEED + 22)[0]
    flat = on(FLAT3, m)
    cat.morphism1_equal(m, cat.morphism1(flat.path, flat.field, m.time + 1.0))


def discrepancy_across_manifolds():
    F = cat.morphism2(triple(SPHERE, SEED + 23)[0], (0.0, 1.0), S=2)
    cat.sheet_discrepancy(F, flat_copy(F))


def field_on_another_manifold():
    m = triple(SPHERE, SEED + 24)[0]
    cat.morphism1(m.path, on(FLAT3, m).field, m.time)


def field_on_another_grid():
    m = triple(SPHERE, SEED + 25, n=16)[0]
    finer = pth.resample(m.path, 32)
    cat.morphism1(m.path, pth.make_zero_field(finer), m.time)


def horizontal_across_intervals():
    m1, m2, _ = triple(SPHERE, SEED + 27, n=16)
    cat.compose2_horizontal(cat.morphism2(m1, (0.0, 0.5), S=2), cat.morphism2(m2, (0.0, 1.0), S=2))


@pytest.mark.parametrize(
    "call, needle",
    [
        (compose_across_dimensions, "different manifolds"),
        (equal_across_manifolds, "different manifolds"),
        (equal_across_manifolds_and_times, "different manifolds"),
        (discrepancy_across_manifolds, "different manifolds"),
        (field_on_another_manifold, "different manifolds"),
        (field_on_another_grid, "grids differ"),
        (horizontal_across_intervals, "^horizontal composition needs equal intervals$"),
    ],
    ids=["compose1", "morphism1_equal", "morphism1_equal-times", "sheet_discrepancy", "morphism1-field", "morphism1-field-grid",
         "compose2_horizontal-intervals"],
)
def test_comparisons_reject_another_manifold_or_grid(call, needle):
    with pytest.raises(cat.CompositionError, match=needle):
        call()


def test_exchange_reports_morphisms_on_another_manifold():
    m1, m2, _ = triple(SPHERE, SEED + 26, n=16)
    F1, G1 = cat.morphism2(m1, (0.0, 0.5), S=2), cat.morphism2(m1, (0.5, 1.0), S=2)
    F2, G2 = cat.morphism2(m2, (0.0, 0.5), S=2), cat.morphism2(m2, (0.5, 1.0), S=2)
    rep = cat.check_exchange(F1, G1, flat_copy(F2), flat_copy(G2))
    assert not rep.passed and rep.failing_node is None
    assert "different manifolds" in rep.error


# ---------------------------------------------------------------------------
# tolerances and the node an error names
# ---------------------------------------------------------------------------


def exchange_quad(seed):
    m1, m2, _ = triple(SPHERE, seed, n=16)
    return [cat.morphism2(m, ab, S=2) for m in (m1, m2) for ab in ((0.0, 0.5), (0.5, 1.0))]


@pytest.mark.parametrize("tol", [float("nan"), -1.0, True, "1e-9"], ids=["nan", "negative", "bool", "string"])
@pytest.mark.parametrize("where", ["morphism1_equal", "check_exchange"])
def test_a_bad_tolerance_is_rejected(where, tol):
    with pytest.raises(mf.DomainError, match="tolerance must be a nonnegative number"):
        if where == "morphism1_equal":
            m = triple(SPHERE, SEED + 30, n=16)[0]
            cat.morphism1_equal(m, m, tol=tol)
        else:
            cat.check_exchange(*exchange_quad(SEED + 31), tol=tol)


def test_a_zero_tolerance_is_accepted():
    m = triple(SPHERE, SEED + 30, n=16)[0]
    assert cat.morphism1_equal(m, m, tol=0)
    assert cat.check_exchange(*exchange_quad(SEED + 31), tol=0.0).error is None


def test_vertical_composition_names_the_t_node_of_the_seed_gap():
    spec = mf.ManifoldSpec.euclidean(2)
    m1, _, _ = triple(spec, SEED + 32, n=8)
    F = cat.morphism2(m1, (0.0, 0.5), S=2)
    field = m1.field.components.copy()
    field[5] += [0.0, 1e-3]  # G's seed leaves F's end fiber at t-node 5 only
    G = cat.morphism2(cat.morphism1(m1.path, pth.PathTangentField(m1.path, field), m1.time), (0.5, 1.0), S=2)
    with pytest.raises(cat.CompositionError, match=r"segments are not one geodesic \(seed gap .* at t-node 5\)"):
        cat.compose2_vertical(G, F)


def test_a_field_on_another_path_names_its_first_sample_off_it():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0.0, 0.0], [1.0, 0.0], n=8, collar=0.0)
    samples = gamma.samples.copy()
    samples[3:6, 1] += [1e-3, 2e-3, 1e-3]
    other = pth.DiscretePath(spec, samples, 0.0)
    with pytest.raises(cat.CompositionError, match=r"different path \(its sample 3 is 0.001 away\)"):
        cat.morphism1(gamma, pth.make_zero_field(other), 0.0)
