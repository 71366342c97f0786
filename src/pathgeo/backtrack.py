"""Back-track detection, erasure, and canonical representatives.

A path back-tracks over the window [T, T+2*sigma] when it exactly retraces
itself: gamma(T+u) = gamma(T+2*sigma-u) for u in [0, sigma]. Erasing the
retraced portion yields an equivalent path. On samples, erasure is free
reduction of a word, unique by Hambly & Lyons (Ann. Math. 2010), so one
stack pass reduces a path (``_reduce``: a run of three equal samples
erases, a pair does not, and a path within tol of its first sample reduces
to that sample). A retrace run, in the pass as in the window scan, is
measured in doubling blocks of sample pairs with one vectorized distance
per block, so it costs O(log run) distance calls.
The equivalence generated by erasures together with reparametrization is
decided through canonical representatives: the reduced samples, collared
and at constant speed on the standard grid.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import manifold as mf
from . import path as pth
from .manifold import DomainError
from .path import DiscretePath, PathTangentField

DETECT_TOL = 1e-9
# a retrace run pops its first _FIRST_BLOCK samples one pair at a time and
# then doubles with every vectorized dist call. On a random lattice walk
# three runs in four stop after one pop, so blocks started sooner would
# mostly measure pairs past the end of a run
_FIRST_BLOCK = 4


@dataclass(frozen=True)
class BackTrackWindow:
    start: int  # grid index T
    half_width: int  # grid-index sigma

    def __post_init__(self):
        for name, value in vars(self).items():  # start, then half_width
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError("window %s must be an integer (got %r)" % (name, value))
        if self.half_width < 1 or self.start < 0:
            raise DomainError("window needs start >= 0 and half_width >= 1")

    @property
    def end(self):
        return self.start + 2 * self.half_width


def _prefix(spec, samples, a, b, tol):
    """Per row of the sample indices ``a`` and ``b`` (index arrays or slices
    of equal shape, the last axis a block of pairs), how many leading pairs
    name samples within tol of each other; one ``dist`` measures the whole
    block."""
    near = mf.dist(spec, samples[a], samples[b]) <= tol
    return np.logical_and.accumulate(near, axis=-1).sum(axis=-1)


def _scan_windows(spec, samples, tol):
    """Maximal reflection windows in a raw sample list, left to right,
    greedily disjoint."""
    n = len(samples) - 1
    # grow every center's reflection radius by a block of offsets
    # u .. u+w-1, w doubling, measuring only the centers that still reflect;
    # a radius stops at the center's reach, its distance to the nearer end.
    # A block measures at most about n pairs, as the first one does, so a
    # long plateau, where every center reflects far, needs no more memory
    sigma = np.zeros(n + 1, dtype=int)
    live = np.arange(1, n)
    u = w = 1
    while live.size:
        w = min(w, max(n // live.size, 1))
        reach = np.minimum(live, n - live)
        off = np.minimum(u + np.arange(w), reach[:, None])
        run = np.minimum(_prefix(spec, samples, live[:, None] - off, live[:, None] + off, tol), reach - u + 1)
        sigma[live] = u - 1 + run
        u += w
        live = live[(run == w) & (reach >= u)]
        w *= 2
    centers = np.flatnonzero(sigma)
    cand = sorted(zip(centers - sigma[centers], sigma[centers]), key=lambda w: (w[0], -w[1]))
    # by start, widest first: a candidate lies inside another exactly when an
    # earlier one reaches at least as far
    windows = []
    reach = last_end = -1
    for T, s in cand:
        if T + 2 * s > reach:
            reach = T + 2 * s
            if T > last_end:
                windows.append((int(T), int(s)))
                last_end = reach
    return windows


def detect_backtracks(gamma, tol=DETECT_TOL):
    """All maximal back-track windows of the path, disjoint, left to right."""
    mf._require_tol(tol)
    return [
        BackTrackWindow(T, s)
        for (T, s) in _scan_windows(gamma.manifold, gamma.samples, tol)
    ]


def erase_backtrack(gamma, window):
    """Delete the retraced portion and resample onto the canonical grid."""
    spec, samples = gamma.manifold, gamma.samples
    if window.end > gamma.n_segments:
        raise DomainError("window exceeds the grid")
    span = samples[window.start : window.end + 1]
    if np.max(mf.dist(spec, span, span[::-1])) > DETECT_TOL:
        raise DomainError("the given window is not a back-track of this path")
    keep = np.delete(np.arange(len(samples)), np.s_[window.start + 1 : window.end + 1])
    return _canonical_reparametrize(spec, samples[keep], gamma.n_segments, keep)[0]


# ---------------------------------------------------------------------------
# canonical representatives
# ---------------------------------------------------------------------------


def _reduce(spec, samples, tol):
    """Free reduction of a raw sample list in one left-to-right stack pass.

    A sample within tol of the one below the top of the stack pops the top,
    and the two form a mirror pair; any other sample is pushed. So a run of
    three equal samples erases to one, and a pair stays. If every kept
    sample lies within tol of the first, only the first is kept (the
    constant path). Returns the kept indices and the mirror pairs as rows
    (left, right) in pop order, all numbering the input samples.
    """
    n = len(samples)
    # a turn j retraces its predecessor: samples j-2 and j are within tol.
    # Those distances are measured up front, so while the top two entries
    # are i-2, i-1 every sample before the next turn (n if none) is pushed
    # unmeasured
    turns = (np.flatnonzero(mf.dist(spec, samples[:-2], samples[2:]) <= tol) + 2).tolist() + [n]
    keep, left, right = [], [], []
    i = 0
    while i < n:
        if len(keep) > 1 and keep[-1] == keep[-2] + 1 == i - 1:
            i = turns[bisect_left(turns, i)]
            keep += range(keep[-1] + 1, i)
            if i == n:
                break
        elif len(keep) < 2 or not mf.dist(spec, samples[keep[-2]], samples[i]) <= tol:
            keep.append(i)
            i += 1
            continue
        keep.pop()
        left.append(keep[-1])
        right.append(i)
        i += 1
        if len(right) < _FIRST_BLOCK or right[-_FIRST_BLOCK] != i - _FIRST_BLOCK:
            continue
        # a retrace run has popped _FIRST_BLOCK samples in a row. The
        # samples after it are measured against the stack below the top,
        # read downwards, in blocks as long as the run so far, one dist per
        # block. The matching prefix pops, and the first sample that fails
        # is pushed
        m = min(n - i, len(keep) - 1)
        run, w = 0, _FIRST_BLOCK
        while run < m:
            w = min(w, m - run)
            top = len(keep) - 1 - run  # the top once the run so far is popped
            got = int(_prefix(spec, samples, slice(i + run, i + run + w), keep[top - w : top][::-1], tol))
            run += got
            if got < w:
                break
            w *= 2
        if run:
            left += keep[-1 - run : -1][::-1]
            right += range(i, i + run)
            del keep[-run:]
        if i + run < n:
            keep.append(i + run)
        i += run + 1
    keep = np.array(keep)
    if np.max(mf.dist(spec, samples[keep], samples[0])) <= tol:
        keep = keep[:1]
    return keep, np.array([left, right], dtype=int)


def _canonical_nodes(spec, samples, n, numbers=None):
    """Segment index and fraction of every node of the collared
    constant-speed n-grid, by arc length along the samples (numbered by
    ``numbers`` in a chord error); also the total arc length."""
    arcs = np.concatenate([[0.0], np.cumsum(pth.segment_lengths(spec, samples, numbers))])
    target = pth.collar_ramp(np.arange(n + 1) / n, pth.DEFAULT_COLLAR) * arcs[-1]
    idx = np.clip(np.searchsorted(arcs, target, side="right") - 1, 0, len(arcs) - 2)
    seg = arcs[idx + 1] - arcs[idx]
    frac = np.divide(target - arcs[idx], seg, out=np.zeros_like(target), where=seg > 0)
    return idx, np.clip(frac, 0.0, 1.0), arcs[-1]


def _canonical_reparametrize(spec, samples, n, numbers):
    """Collared constant-speed representative on the uniform n-grid.

    Constant on both collars, constant speed in between; the canonical
    parametrization every equivalence check compares against. Also returns
    the node locations, so a field can be resampled alongside.
    """
    idx, frac, total = _canonical_nodes(spec, samples, n, numbers)
    out = np.tile(samples[0], (n + 1, 1)) if total <= 1e-15 else pth.chord_points(spec, samples, idx, frac)
    return DiscretePath(spec, out, pth.DEFAULT_COLLAR), idx, frac


def canonical_form(gamma, tol=DETECT_TOL, n=None):
    """Erase back-tracks until none remain, then reparametrize canonically.

    The reduced samples are read as chords (``path.segment_lengths``,
    ``path.chord_points``): one at or beyond the injectivity radius raises
    NormalNeighborhoodError, naming its two samples by input number.
    Idempotent within 1e-9 only on piecewise-geodesic paths: the collared
    constant-speed representative has only trivial (plateau) windows, which
    erase and re-ramp to themselves. Elsewhere the resampled nodes sit on
    the geodesic chords between the input samples, and a second pass cuts
    new chords (a latitude circle at N = 256 moves by about 3.5e-8).
    ``n`` overrides the output grid (defaults to the input grid).
    """
    mf._require_tol(tol)
    spec = gamma.manifold
    n = gamma.n_segments if n is None else mf.as_integer("n", n)
    keep, _ = _reduce(spec, gamma.samples, tol)
    if len(keep) == 1:
        return pth.make_constant_path(gamma.start(), n)
    return _canonical_reparametrize(spec, gamma.samples[keep], n, keep)[0]


def bt_equivalent(gamma1, gamma2, tol=1e-6):
    """Equality of canonical forms built on a common grid, node-wise.

    Reflexive and symmetric; transitivity accumulates tolerance (a chain of
    k comparisons is only guaranteed within k * tol, documented as the
    3*tol bound for the usual three-path arguments).
    """
    mf._require_tol(tol)
    n = max(gamma1.n_segments, gamma2.n_segments)
    c1 = canonical_form(gamma1, DETECT_TOL, n)
    c2 = canonical_form(gamma2, DETECT_TOL, n)
    return bool(np.max(mf.node_gaps((c1.manifold, c1.samples), (c2.manifold, c2.samples))) <= tol)


# ---------------------------------------------------------------------------
# tangent fields over the quotient
# ---------------------------------------------------------------------------


def _interp_field_many(spec, samples, comps, idx, frac, x):
    """Field values at the points x between samples idx and idx+1: transport
    both neighbor vectors to x and blend linearly."""
    a = spec.transport(samples[idx], x, comps[idx])
    b = spec.transport(samples[idx + 1], x, comps[idx + 1])
    out = spec.project_tangent(x, (1 - frac)[..., None] * a + frac[..., None] * b)
    out = np.where((frac == 0.0)[..., None], comps[idx], out)
    return np.where((frac == 1.0)[..., None], comps[idx + 1], out)


def field_canonical_form(field, n=None):
    """Joint canonical form of (path, field) under back-track erasure.

    Raises DomainError when the field fails the reflection identity on a
    mirror pair of the reduction: the right vector, parallel transported to
    the left sample (a componentwise comparison is chart dependent), must
    match the left one. The error names the window of the pair's retrace
    run, the pops at consecutive samples. ``n`` overrides the output grid
    (defaults to the input grid).
    """
    gamma = field.base
    spec, samples, comps = gamma.manifold, gamma.samples, field.components
    n_out = gamma.n_segments if n is None else mf.as_integer("n", n)
    keep, (i, j) = _reduce(spec, samples, DETECT_TOL)
    moved = spec.transport(samples[j], samples[i], comps[j])
    bad = np.flatnonzero(np.max(np.abs(comps[i] - moved), axis=-1) > DETECT_TOL)
    if bad.size:
        ends = np.flatnonzero(np.diff(j, append=-1) != 1)
        last = ends[np.searchsorted(ends, bad[0])]
        raise DomainError(
            "field violates the reflection identity on window [%d, %d]" % (i[last], j[last])
        )
    if len(keep) == 1:
        base = pth.make_constant_path(gamma.start(), n_out)
        return PathTangentField(base, np.tile(comps[0], (n_out + 1, 1)))
    samples, comps = samples[keep], comps[keep]
    base, idx, frac = _canonical_reparametrize(spec, samples, n_out, keep)
    return PathTangentField(base, _interp_field_many(spec, samples, comps, idx, frac, base.samples))
