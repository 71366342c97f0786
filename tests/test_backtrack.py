import json
import warnings

import numpy as np
import pytest

from pathgeo import backtrack as bt
from pathgeo import checks
from pathgeo import cli
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps

SEED = 16180


def specs():
    return list(checks.builtin_manifolds().values())


def brute_force_windows(spec, samples, tol=1e-9):
    """Independent O(n^3) reference: maximal reflection windows, greedily
    disjoint left to right."""
    n = len(samples) - 1
    cand = []
    for c in range(1, n):
        sigma = 0
        for u in range(1, min(c, n - c) + 1):
            if float(mf.dist(spec, samples[c - u], samples[c + u])) <= tol:
                sigma = u
            else:
                break
        if sigma >= 1:
            cand.append((c - sigma, sigma))
    maximal = []
    for T, s in cand:
        contained = any(
            T2 <= T and T + 2 * s <= T2 + 2 * s2 and (T2, s2) != (T, s)
            for T2, s2 in cand
        )
        if not contained:
            maximal.append((T, s))
    out = []
    last = -1
    for T, s in sorted(maximal):
        if T > last:
            out.append((T, s))
            last = T + 2 * s
    return out


def insert_spur(samples, at, k):
    """Retrace the k samples after index ``at`` back to it: a window
    starting at ``at`` with half width k."""
    return np.concatenate(
        [samples[: at + k + 1], samples[at : at + k][::-1], samples[at + 1 :]]
    )


def shaped_paths(spec, rng):
    """Nested spurs, a full palindrome, collar plateaus with a spur, and
    spurs touching either end."""
    s = checks.random_collared_path(spec, rng, n=24, collar=0.0).samples
    nested = insert_spur(insert_spur(s, 6, 5), 8, 2)
    collared = checks.random_collared_path(spec, rng, n=32, collar=0.125)
    plateaus = insert_spur(collared.samples, 12, 4)
    return [
        nested,
        insert_spur(nested, 20, 3),
        np.concatenate([s, s[-2::-1]]),
        np.concatenate([nested, nested[-2::-1]]),
        plateaus,
        np.concatenate([s[1:4][::-1], s]),
        np.concatenate([s, s[-4:-1][::-1]]),
        np.concatenate([plateaus[5:8][::-1], plateaus, plateaus[-4:-1][::-1]]),
    ]


def scan_oracle(spec, samples, tol=bt.DETECT_TOL):
    """Reference window scan: grow every center's reflection radius one
    offset at a time, measuring only the centers that still reflect; then
    keep the maximal windows, greedily disjoint left to right."""
    n = len(samples) - 1
    sigma = np.zeros(n + 1, dtype=int)
    live = np.arange(1, n)
    u = 1
    while live.size:
        live = live[mf.dist(spec, samples[live - u], samples[live + u]) <= tol]
        sigma[live] = u
        u += 1
        live = live[(live >= u) & (live <= n - u)]
    centers = np.flatnonzero(sigma)
    cand = sorted(zip(centers - sigma[centers], sigma[centers]), key=lambda w: (w[0], -w[1]))
    windows = []
    reach = last_end = -1
    for T, s in cand:
        if T + 2 * s > reach:
            reach = T + 2 * s
            if T > last_end:
                windows.append((int(T), int(s)))
                last_end = reach
    return windows


def reduce_oracle(spec, samples, tol=bt.DETECT_TOL):
    """Reference reduction: erase the leftmost maximal window, rescan what
    is left, and repeat until no window remains or the path is constant
    within tol. Returns the kept indices and, per erased window, its mirror
    index pairs, all numbering the input samples."""
    keep = np.arange(len(samples))
    erased = []
    while True:
        cur = samples[keep]
        if np.max(mf.dist(spec, cur, cur[0])) <= tol:
            return keep[:1], erased
        windows = scan_oracle(spec, cur, tol)
        if not windows:
            return keep, erased
        T, s = windows[0]
        u = np.arange(s + 1)
        erased.append((keep[T + u], keep[T + 2 * s - u]))
        keep = np.delete(keep, np.s_[T + 1 : T + 2 * s + 1])


def stack_oracle(spec, samples, tol=bt.DETECT_TOL):
    """Reference stack pass, one sample and one distance at a time: a sample
    within tol of the one below the top pops the top, any other is pushed.
    Returns the kept indices and the mirror pairs as rows (left, right) in
    pop order, like ``_reduce``."""
    keep, pairs = [], []
    for i in range(len(samples)):
        if len(keep) > 1 and mf.dist(spec, samples[keep[-2]], samples[i]) <= tol:
            keep.pop()
            pairs.append((keep[-1], i))
        else:
            keep.append(i)
    keep = np.array(keep)
    if np.max(mf.dist(spec, samples[keep], samples[0])) <= tol:
        keep = keep[:1]
    return keep, np.array(pairs, dtype=int).reshape(-1, 2).T


def lattice_walk(rng, steps, moves=((1, 0), (-1, 0), (0, 1), (0, -1))):
    """A random walk on the integer lattice of the plane, from the origin."""
    moves = np.array(moves, dtype=float)
    return np.cumsum(np.vstack([[0.0, 0.0], moves[rng.integers(0, len(moves), steps)]]), axis=0)


def three_spur_paths(rng, n):
    """A great-circle arc on the unit sphere and a line in the plane, each
    with three retraced spurs of n // 16 samples, one per third of the
    n-grid."""
    k = n // 16
    sphere, plane = mf.ManifoldSpec.sphere(1.0), mf.ManifoldSpec.euclidean(2)
    a, b = (x / np.linalg.norm(x) for x in rng.standard_normal((2, 3)))
    clean = [
        pth.make_great_circle_arc(sphere, a, b, n=n, collar=0.0),
        pth.make_line(plane, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2) + 2.0, n=n, collar=0.0),
    ]
    width = (n - k - 2) // 3
    out = []
    for gamma in clean:
        samples = gamma.samples
        for t in (2, 1, 0):  # right to left, so the earlier starts keep their index
            samples = insert_spur(samples, 1 + t * width + int(rng.integers(0, width - k - 1)), k)
        out.append((gamma.manifold, samples))
    return out


def assert_reduces_like_oracle(spec, samples, same_indices=True):
    keep, pairs = bt._reduce(spec, samples, bt.DETECT_TOL)
    stack_keep, stack_pairs = stack_oracle(spec, samples)
    assert np.array_equal(keep, stack_keep) and np.array_equal(pairs, stack_pairs)
    want, _ = reduce_oracle(spec, samples)
    assert np.array_equal(samples[keep], samples[want])
    if same_indices:
        assert np.array_equal(keep, want)
    i, j = pairs
    assert np.all(mf.dist(spec, samples[i], samples[j]) <= bt.DETECT_TOL)
    assert bt._scan_windows(spec, samples, bt.DETECT_TOL) == scan_oracle(spec, samples)


def abcba_path(spec=None):
    spec = spec or mf.ManifoldSpec.euclidean(2)
    A, B, C = [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]
    return pth.DiscretePath(spec, np.array([A, B, C, B, A]), 0.0)


def test_full_palindrome_window():
    gamma = abcba_path()
    wins = bt.detect_backtracks(gamma)
    assert [(w.start, w.half_width) for w in wins] == [(0, 2)]


def test_interior_spur_window():
    spec = mf.ManifoldSpec.euclidean(2)
    pts = np.array([[0, 0], [1, 0], [2, 0], [1, 0], [3, 0]], dtype=float)
    wins = bt.detect_backtracks(pth.DiscretePath(spec, pts, 0.0))
    assert [(w.start, w.half_width) for w in wins] == [(1, 1)]


def test_no_window_on_injective_path():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 0], n=16, collar=0.0)
    assert bt.detect_backtracks(gamma) == []


def test_detection_matches_brute_force():
    rng = np.random.default_rng(SEED)
    for spec in specs():
        for _ in range(5):
            spurred, _, _ = checks._spur_path(spec, rng, n=32)
            got = [(w.start, w.half_width) for w in bt.detect_backtracks(spurred)]
            want = brute_force_windows(spec, spurred.samples)
            assert got == want
        for samples in shaped_paths(spec, rng):
            gamma = pth.DiscretePath(spec, samples, 0.0)
            got = [(w.start, w.half_width) for w in bt.detect_backtracks(gamma)]
            assert got == brute_force_windows(spec, samples)
            assert got


def test_reduce_matches_oracle_on_shaped_paths():
    for seed in range(30):
        rng = np.random.default_rng(SEED + 100 + seed)
        for spec in specs():
            for samples in shaped_paths(spec, rng):
                assert_reduces_like_oracle(spec, samples)


def test_reduce_matches_oracle_on_lattice_walks_with_plateaus():
    rng = np.random.default_rng(SEED + 9)
    spec = mf.ManifoldSpec.euclidean(2)
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1), (0, 0))
    for _ in range(2000):
        samples = lattice_walk(rng, int(rng.integers(2, 41)), moves)
        # a lattice walk revisits points, so an equal point may be kept at
        # another index
        assert_reduces_like_oracle(spec, samples, same_indices=False)
    for n in (256, 1024, 4096):
        assert_reduces_like_oracle(spec, lattice_walk(rng, n), same_indices=False)


def test_reduce_matches_oracle_on_three_spur_paths():
    rng = np.random.default_rng(SEED + 10)
    for n in (256, 1024, 4096):
        for spec, samples in three_spur_paths(rng, n):
            assert_reduces_like_oracle(spec, samples)
            assert len(bt._reduce(spec, samples, bt.DETECT_TOL)[0]) == n + 1


def block_edge_paths(spec, rng, k):
    """Spurs of half width k: interior; retracing to the path start; coming
    from before the path start, so the retrace run empties the stack down
    to its bottom; reaching the path end; nested in a spur of half width
    k + 2; with a run of three equal samples at the apex and a pair at the
    foot; and with a pair at the apex, which stops the retrace."""
    s = checks.random_collared_path(spec, rng, n=k + 8, collar=0.0).samples
    interior = insert_spur(s, 3, k)
    plateaus = np.ones(len(interior), dtype=int)
    plateaus[[3, 3 + k]] = 2, 3
    apex_pair = np.ones(len(interior), dtype=int)
    apex_pair[3 + k] = 2
    return [
        interior,
        insert_spur(s, 0, k),
        np.concatenate([s[1 : k + 1][::-1], s]),
        np.concatenate([s, s[-2 : -k - 2 : -1]]),
        insert_spur(insert_spur(s, 1, k + 2), 3, k),
        np.repeat(interior, plateaus, axis=0),
        np.repeat(interior, apex_pair, axis=0),
    ]


# A retrace run pops its first four samples one pair at a time and then
# measures blocks of 4, 8, 16, ... pairs, so it has popped 4, 8, 16, ...
# samples at each block edge; a reflection radius grows by blocks of offsets
# 1, 2-3, 4-7, ...: half widths 8, 16 and 64 end a run exactly at a block
# edge, 1, 3, 7, 15 and 63 a radius, and their neighbours one pair before or
# after.
@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65])
def test_reduce_and_scan_match_oracles_at_block_edges(k):
    rng = np.random.default_rng(SEED + 12 + k)
    for spec in specs():
        for samples in block_edge_paths(spec, rng, k):
            assert_reduces_like_oracle(spec, samples, same_indices=False)
            gamma = pth.DiscretePath(spec, samples, 0.0)
            got = [(w.start, w.half_width) for w in bt.detect_backtracks(gamma)]
            assert got == brute_force_windows(spec, samples)


def test_a_retrace_run_costs_logarithmically_many_dist_calls(monkeypatch):
    spec, samples = three_spur_paths(np.random.default_rng(SEED + 11), 4096)[0]
    assert spec == mf.ManifoldSpec.sphere(1.0)
    calls = []
    dist = mf.dist
    monkeypatch.setattr(mf, "dist", lambda *args: calls.append(1) or dist(*args))
    # three spurs of 256 samples: one dist call per pop or per offset would
    # be 773 and 257 calls
    for reduce, most in ((bt._reduce, 40), (bt._scan_windows, 16)):
        calls.clear()
        reduce(spec, samples, bt.DETECT_TOL)
        assert len(calls) <= most, reduce.__name__


def test_scan_blocks_measure_at_most_n_pairs_on_a_plateau(monkeypatch):
    samples = np.tile([0.0, 0.0, 1.0], (1025, 1))
    spec = mf.ManifoldSpec.sphere(1.0)
    want = scan_oracle(spec, samples)
    assert want == [(0, 512)]
    pairs = []
    dist = mf.dist
    monkeypatch.setattr(mf, "dist", lambda spec, x, y: pairs.append(x.size // 3) or dist(spec, x, y))
    assert bt._scan_windows(spec, samples, bt.DETECT_TOL) == want
    assert max(pairs) <= 1024


def test_reduce_erases_a_run_of_three_equal_samples_but_not_a_pair():
    spec = mf.ManifoldSpec.euclidean(1)
    keep, pairs = bt._reduce(spec, np.array([[0.0], [1.0], [1.0], [2.0]]), bt.DETECT_TOL)
    assert keep.tolist() == [0, 1, 2, 3] and pairs.size == 0
    keep, pairs = bt._reduce(spec, np.array([[0.0], [1.0], [1.0], [1.0], [2.0]]), bt.DETECT_TOL)
    assert keep.tolist() == [0, 1, 4] and pairs.T.tolist() == [[1, 3]]
    keep, _ = bt._reduce(spec, np.array([[0.0], [1.0], [0.0], [0.0]]), bt.DETECT_TOL)
    assert keep.tolist() == [0]


def test_erase_backtrack_index_deletion_oracle():
    spec = mf.ManifoldSpec.euclidean(2)
    rng = np.random.default_rng(SEED + 1)
    spurred, clean, (T, k) = checks._spur_path(spec, rng, n=16)
    win = bt.BackTrackWindow(T, k)
    erased = bt.erase_backtrack(spurred, win)
    # oracle: delete indices (T, T+2k] by hand, then compare canonically
    kept = np.delete(spurred.samples, np.s_[T + 1 : T + 2 * k + 1], axis=0)
    assert np.array_equal(kept, clean.samples)
    assert bt.bt_equivalent(erased, clean, 1e-9)


def test_erase_rejects_non_window():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 0], n=16, collar=0.0)
    with pytest.raises(mf.DomainError):
        bt.erase_backtrack(gamma, bt.BackTrackWindow(2, 3))


def test_canonical_form_idempotent():
    rng = np.random.default_rng(SEED + 2)
    for spec in specs():
        spurred, _, _ = checks._spur_path(spec, rng, n=32)
        c1 = bt.canonical_form(spurred)
        c2 = bt.canonical_form(c1)
        assert np.max(mf.dist(spec, c1.samples, c2.samples)) <= 1e-9


def test_canonical_nodes_match_per_node_search():
    rng = np.random.default_rng(SEED + 8)
    for spec in specs():
        for samples in shaped_paths(spec, rng):
            idx, frac, total = bt._canonical_nodes(spec, samples, 40)
            arcs = np.concatenate([[0.0], np.cumsum(mf.dist(spec, samples[:-1], samples[1:]))])
            assert total == arcs[-1]
            phi = pth.collar_ramp(np.arange(41) / 40, pth.DEFAULT_COLLAR)
            for k, target in enumerate(phi * total):
                # per-node reference: last arc position not beyond the target
                i = int(np.searchsorted(arcs, target, side="right")) - 1
                i = min(max(i, 0), len(arcs) - 2)
                seg = arcs[i + 1] - arcs[i]
                f = 0.0 if seg <= 0 else min(max((target - arcs[i]) / seg, 0.0), 1.0)
                assert (idx[k], frac[k]) == (i, f)


def test_canonical_form_of_constant_path():
    spec = mf.ManifoldSpec.sphere(1.0)
    gamma = pth.make_constant_path(mf.ManifoldPoint(spec, [0.0, 0.0, 1.0]), n=16)
    c = bt.canonical_form(gamma)
    assert np.max(mf.dist(spec, c.samples, gamma.samples)) == 0.0


def test_field_canonical_form_of_a_path_that_reduces_to_a_point():
    # a path out and straight back erases to its start: the canonical field
    # is the start's vector on a constant path, on the grid asked for
    spec = mf.ManifoldSpec.euclidean(2)
    line = pth.make_line(spec, [0, 0], [1, 0.5], n=8, collar=0.0)
    out_and_back = pth.DiscretePath(spec, np.concatenate([line.samples, line.samples[-2::-1]]), 0.0)
    field = pth.make_constant_field(out_and_back, [0.3, -0.2])
    canonical = bt.field_canonical_form(field, n=6)
    assert canonical.base.n_segments == 6
    assert np.array_equal(canonical.base.samples, np.zeros((7, 2)))
    assert np.array_equal(canonical.components, np.tile([0.3, -0.2], (7, 1)))


def test_bt_equivalence_positive_and_negative():
    rng = np.random.default_rng(SEED + 3)
    for spec in specs():
        spurred, clean, _ = checks._spur_path(spec, rng, n=32)
        assert bt.bt_equivalent(spurred, clean, 1e-6)
        other = checks.random_collared_path(spec, rng, n=32, collar=0.0)
        if np.max(mf.dist(spec, clean.samples, other.samples)) > 1e-3:
            assert not bt.bt_equivalent(clean, other, 1e-6)


def test_bt_equivalence_is_reparametrization_invariant():
    spec = mf.ManifoldSpec.euclidean(2)
    gamma = pth.make_line(spec, [0, 0], [1, 0], n=64, collar=0.0)
    # quadratic time warp of the same segment
    warped = pth.reparametrize(gamma, (np.arange(65) / 64) ** 2)
    assert bt.bt_equivalent(gamma, warped, 1e-6)


def test_exp_preserves_windows_flat_bitwise():
    spec = mf.ManifoldSpec.euclidean(2)
    rng = np.random.default_rng(SEED + 4)
    spurred, _, (T, k) = checks._spur_path(spec, rng, n=32)
    field = pth.make_constant_field(spurred, [0.3, -0.2])
    moved = ps.pathspace_exp(spurred, field)
    # mirrored samples stay bitwise equal after the pointwise exponential
    for u in range(k + 1):
        assert np.array_equal(moved.samples[T + u], moved.samples[T + 2 * k - u])


def test_exp_preserves_windows_sphere():
    spec = mf.ManifoldSpec.sphere(1.0)
    rng = np.random.default_rng(SEED + 5)
    spurred, _, (T, k) = checks._spur_path(spec, rng, n=32)
    field = pth.make_constant_field(spurred, [0.1, 0.2, -0.1])
    moved = ps.pathspace_exp(spurred, field)
    for u in range(k + 1):
        d = mf.dist(spec, moved.samples[T + u], moved.samples[T + 2 * k - u])
        assert float(d) <= 1e-9


def test_field_canonical_form_accepts_reflecting_field():
    rng = np.random.default_rng(SEED + 6)
    for spec in specs():
        spurred, _, _ = checks._spur_path(spec, rng, n=32)
        field = pth.make_constant_field(spurred, 0.2 * rng.standard_normal(spec.point_dim))
        out = bt.field_canonical_form(field)
        assert bt.detect_backtracks(out.base) == [] or all(
            # only collar plateaus may remain
            float(
                mf.dist(
                    spec, out.base.samples[w.start], out.base.samples[w.start + 1]
                )
            )
            <= 1e-12
            for w in bt.detect_backtracks(out.base)
        )


def test_field_canonical_form_rejects_non_reflecting_field():
    spec = mf.ManifoldSpec.euclidean(2)
    rng = np.random.default_rng(SEED + 7)
    spurred, _, _ = checks._spur_path(spec, rng, n=16)
    comps = np.outer(np.linspace(0.0, 1.0, len(spurred.samples)), [1.0, 0.0])
    field = pth.PathTangentField(spurred, comps)
    with pytest.raises(mf.DomainError):
        bt.field_canonical_form(field)


def test_field_canonical_form_names_the_failing_window_in_input_numbering():
    spec = mf.ManifoldSpec.euclidean(2)
    line = pth.make_line(spec, [0, 0], [1, 0.5], n=24, collar=0.0)
    spurred = pth.DiscretePath(spec, insert_spur(insert_spur(line.samples, 14, 3), 4, 2), 0.0)
    first, second = bt.detect_backtracks(spurred)
    assert (first.start, first.half_width, second.start) == (4, 2, 18)
    comps = np.tile([1.0, 0.0], (len(spurred.samples), 1))
    comps[second.start + 1] = [0.0, 1.0]  # reflects on the first window only
    field = pth.PathTangentField(spurred, comps)
    with pytest.raises(mf.DomainError, match=r"window \[18, 24\]"):
        bt.field_canonical_form(field)


@pytest.mark.parametrize("broken, window", [(11, (8, 12)), (17, (6, 20))])
def test_field_canonical_form_names_the_window_of_a_broken_nested_pair(broken, window):
    spec = mf.ManifoldSpec.euclidean(2)
    line = pth.make_line(spec, [0, 0], [1, 0.5], n=24, collar=0.0)
    # spur [6, 20] holds spur [8, 12] and the pairs (13, 17), (14, 16)
    spurred = pth.DiscretePath(spec, insert_spur(insert_spur(line.samples, 6, 5), 8, 2), 0.0)
    comps = np.tile([1.0, 0.0], (len(spurred.samples), 1))
    bt.field_canonical_form(pth.PathTangentField(spurred, comps))
    comps[broken] = [0.0, 1.0]
    with pytest.raises(mf.DomainError, match=r"window \[%d, %d\]" % window):
        bt.field_canonical_form(pth.PathTangentField(spurred, comps))


@pytest.mark.parametrize("tol", [-1.0, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize(
    "call",
    [bt.detect_backtracks, bt.canonical_form, lambda gamma, tol: bt.bt_equivalent(gamma, gamma, tol)],
    ids=["detect_backtracks", "canonical_form", "bt_equivalent"],
)
def test_a_bad_tolerance_is_rejected(call, tol):
    with pytest.raises(mf.DomainError, match="tolerance must be a nonnegative number"):
        call(abcba_path(), tol)


@pytest.mark.parametrize("n", [2.0, 0, True], ids=repr)
@pytest.mark.parametrize(
    "call", [bt.canonical_form, lambda gamma, n: bt.field_canonical_form(pth.make_zero_field(gamma), n)],
    ids=["canonical_form", "field_canonical_form"],
)
def test_a_canonical_grid_size_that_is_not_a_positive_integer_is_rejected(call, n):
    # an injective path, so the grid size reaches the reparametrization
    gamma = pth.make_line(mf.ManifoldSpec.euclidean(2), [0, 0], [1, 0], n=8)
    with pytest.raises(mf.DomainError, match=r"^n must be an integer >= 1 \(got %r\)$" % n):
        call(gamma, n=n)


def test_window_validation():
    with pytest.raises(mf.DomainError):
        bt.BackTrackWindow(-1, 1)
    with pytest.raises(mf.DomainError):
        bt.BackTrackWindow(0, 0)
    with pytest.raises(mf.DomainError):
        bt.detect_backtracks(abcba_path(), tol=-1.0)


# ---------------------------------------------------------------------------
# chords at the injectivity radius
# ---------------------------------------------------------------------------


def old_join(spec, rng):
    """The last ``shaped_paths`` case as it first stood: a spur cut from one
    random path, joined to the start of another, collared one."""
    s = checks.random_collared_path(spec, rng, n=24, collar=0.0).samples
    collared = checks.random_collared_path(spec, rng, n=32, collar=0.125)
    plateaus = insert_spur(collared.samples, 12, 4)
    return np.concatenate([s[1:4][::-1], plateaus, plateaus[-4:-1][::-1]])


def test_old_join_of_two_paths_is_rejected():
    # the draws of test_canonical_nodes_match_per_node_search: on the flat
    # torus the join of samples 2 and 3 is longer than the injectivity
    # radius, so it has no unique chord
    rng = np.random.default_rng(SEED + 8)
    joins = {spec: old_join(spec, rng) for spec in specs()}
    spec = mf.ManifoldSpec.flat_torus([1.0, 2.0])
    samples = joins[spec]
    assert mf.dist(spec, samples[2], samples[3]) >= spec.injectivity_radius()
    with pytest.raises(mf.NormalNeighborhoodError, match="samples 2 and 3 "):
        bt._canonical_nodes(spec, samples, 40)
    with pytest.raises(mf.NormalNeighborhoodError, match="samples 2 and 3 "):
        bt.canonical_form(pth.DiscretePath(spec, samples, 0.0))


def defect_path(kind):
    """Five samples whose chord from sample 3 to 4 reaches the injectivity
    radius: antipodal samples on the unit sphere, or a jump of half a
    circumference on the flat torus; every other chord is short."""
    if kind == "sphere":
        c, s = np.cos(0.5), np.sin(0.5)
        samples = [[1, 0, 0], [c, s, 0], [c * c - s * s, 2 * s * c, 0], [0, 0, 1], [0, 0, -1]]
        return mf.ManifoldSpec.sphere(1.0), np.array(samples, dtype=float)
    samples = [[0.1, 0.5], [0.15, 0.5], [0.2, 0.5], [0.25, 0.5], [0.75, 0.5]]
    return mf.ManifoldSpec.flat_torus([1.0, 2.0]), np.array(samples)


@pytest.mark.parametrize("spur", [False, True], ids=["plain", "spur"])
@pytest.mark.parametrize("kind", ["sphere", "flat_torus"])
def test_a_chord_at_the_injectivity_radius_is_rejected(tmp_path, capsys, kind, spur):
    spec, samples = defect_path(kind)
    # a retraced spur at sample 2 moves the bad chord to input samples 5
    # and 6, and an error after its erasure must name those
    bad = 3
    if spur:
        samples, bad = insert_spur(samples, 2, 1), 5
    gamma = pth.DiscretePath(spec, samples, 0.0)
    field = pth.make_zero_field(gamma)
    ops = {
        "canonical_form": lambda: bt.canonical_form(gamma),
        "canonical_form n=16": lambda: bt.canonical_form(gamma, n=16),
        "bt_equivalent": lambda: bt.bt_equivalent(gamma, gamma),
        "field_canonical_form": lambda: bt.field_canonical_form(field),
        "evaluate_many": lambda: pth.evaluate_many(gamma, [(bad + 0.5) / gamma.n_segments]),
        "arc_length": lambda: pth.arc_length(gamma),
        # the neighbour logs read every chord: an antipodal log would give a
        # zero velocity or, with a numpy warning, a NaN normal
        "path_energy": lambda: pth.path_energy(gamma),
        "velocity_components": lambda: pth.velocity_components(gamma),
        "make_normal_field": lambda: pth.make_normal_field(gamma),
    }
    if spur:
        ops["erase_backtrack"] = lambda: bt.erase_backtrack(gamma, bt.BackTrackWindow(2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, op in ops.items():
            with pytest.raises(mf.NormalNeighborhoodError, match="^samples %d and %d " % (bad, bad + 1)):
                op()
    # a chord that is read only where it is short, or not at all, is fine
    pth.evaluate_many(gamma, np.concatenate([[0.5 / gamma.n_segments], gamma.grid]))
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps({"manifold": spec.to_json(), "samples": samples.tolist()}))
    assert cli.main(["backtrack", "--input", str(path_file), "--canonical"]) == 1
    assert capsys.readouterr().err.startswith("error: samples %d and %d " % (bad, bad + 1))
