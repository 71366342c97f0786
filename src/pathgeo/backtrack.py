"""Back-track detection, erasure, and canonical representatives.

A path back-tracks over the window [T, T+sigma] when it exactly retraces
itself: gamma(T+u) = gamma(T+2*sigma-u) for u in [0, sigma]. Erasing the
retraced portion yields an equivalent path; the equivalence generated by
such erasures together with reparametrization is decided here through
canonical representatives (leftmost-first erasure, then a collared
constant-speed reparametrization on the standard grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import manifold as mf
from . import path as pth
from .manifold import DomainError
from .path import DiscretePath, PathTangentField

DETECT_TOL = 1e-9


@dataclass(frozen=True)
class BackTrackWindow:
    start: int  # grid index T
    half_width: int  # grid-index sigma

    def __post_init__(self):
        if self.half_width < 1 or self.start < 0:
            raise DomainError("window needs start >= 0 and half_width >= 1")

    @property
    def end(self):
        return self.start + 2 * self.half_width

    @property
    def center(self):
        return self.start + self.half_width


def _mirror_pairs(start, half_width):
    """Index pairs (start + u, end - u), u = 0..half_width, of a window."""
    u = np.arange(half_width + 1)
    return start + u, start + 2 * half_width - u


def _scan_windows(spec, samples, tol):
    """Maximal reflection windows in a raw sample list, left to right,
    greedily disjoint."""
    n = len(samples) - 1
    # grow every center's reflection radius one offset at a time, measuring
    # only the centers that still reflect
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
    if tol < 0:
        raise DomainError("tolerance must be nonnegative")
    return [
        BackTrackWindow(T, s)
        for (T, s) in _scan_windows(gamma.manifold, gamma.samples, tol)
    ]


def erase_backtrack(gamma, window, tol=DETECT_TOL):
    """Delete the retraced portion and resample onto the canonical grid."""
    spec, samples = gamma.manifold, gamma.samples
    if window.end > gamma.n_segments:
        raise DomainError("window exceeds the grid")
    i, j = _mirror_pairs(window.start, window.half_width)
    if np.max(mf.dist(spec, samples[i], samples[j])) > tol:
        raise DomainError("the given window is not a back-track of this path")
    kept = np.delete(samples, np.s_[window.start + 1 : window.end + 1], axis=0)
    return _canonical_reparametrize(spec, kept, gamma.n_segments)[0]


# ---------------------------------------------------------------------------
# canonical representatives
# ---------------------------------------------------------------------------


def _reduce(spec, samples, tol):
    """Leftmost-first erasure of back-tracks from a raw sample list.

    Returns the indices of the kept samples (only the first one when the
    path is constant within tol) and, for each erased window in erasure
    order, its mirror index pairs; all indices number the input samples.
    """
    keep = np.arange(len(samples))
    erased = []
    while True:
        cur = samples[keep]
        if np.max(mf.dist(spec, cur, cur[0])) <= tol:
            return keep[:1], erased
        windows = _scan_windows(spec, cur, tol)
        if not windows:
            return keep, erased
        T, s = windows[0]
        i, j = _mirror_pairs(T, s)
        erased.append((keep[i], keep[j]))
        keep = np.delete(keep, np.s_[T + 1 : T + 2 * s + 1])


def _canonical_nodes(spec, samples, n):
    """Segment index and fraction of every node of the collared
    constant-speed n-grid, by arc length along the samples; also the total
    arc length."""
    arcs = np.concatenate([[0.0], np.cumsum(mf.dist(spec, samples[:-1], samples[1:]))])
    target = pth.collar_ramp(np.arange(n + 1) / n, pth.DEFAULT_COLLAR) * arcs[-1]
    idx = np.clip(np.searchsorted(arcs, target, side="right") - 1, 0, len(arcs) - 2)
    seg = arcs[idx + 1] - arcs[idx]
    frac = np.divide(target - arcs[idx], seg, out=np.zeros_like(target), where=seg > 0)
    return idx, np.clip(frac, 0.0, 1.0), arcs[-1]


def _canonical_reparametrize(spec, samples, n):
    """Collared constant-speed representative on the uniform n-grid.

    Constant on both collars, constant speed in between; the canonical
    parametrization every equivalence check compares against. Also returns
    the node locations, so a field can be resampled alongside.
    """
    idx, frac, total = _canonical_nodes(spec, samples, n)
    if total <= 1e-15:
        out = np.tile(samples[0], (n + 1, 1))
    else:
        u = mf.log(spec, samples[idx], samples[idx + 1])
        out, _ = mf.flow(spec, samples[idx], u, frac)
        out = np.where((frac == 0.0)[:, None], samples[idx], out)
        out = np.where((frac == 1.0)[:, None], samples[idx + 1], out)
    return DiscretePath(spec, out, pth.DEFAULT_COLLAR), idx, frac


def canonical_form(gamma, tol=DETECT_TOL, n=None):
    """Erase back-tracks until none remain, then reparametrize canonically.

    Idempotent within 1e-9 only on piecewise-geodesic paths: the collared
    constant-speed representative has only trivial (plateau) windows, which
    erase and re-ramp to themselves. Elsewhere the resampled nodes sit on
    the geodesic chords between the input samples, and a second pass cuts
    new chords (a latitude circle at N = 256 moves by about 3.5e-8).
    ``n`` overrides the output grid (defaults to the input grid).
    """
    spec = gamma.manifold
    n = gamma.n_segments if n is None else n
    keep, _ = _reduce(spec, gamma.samples, tol)
    if len(keep) == 1:
        return pth.make_constant_path(gamma.start(), n)
    return _canonical_reparametrize(spec, gamma.samples[keep], n)[0]


def bt_equivalent(gamma1, gamma2, tol=1e-6):
    """Equality of canonical forms built on a common grid, node-wise.

    Reflexive and symmetric; transitivity accumulates tolerance (a chain of
    k comparisons is only guaranteed within k * tol, documented as the
    3*tol bound for the usual three-path arguments).
    """
    if gamma1.manifold != gamma2.manifold:
        raise DomainError("paths live on different manifolds")
    n = max(gamma1.n_segments, gamma2.n_segments)
    c1 = canonical_form(gamma1, DETECT_TOL, n)
    c2 = canonical_form(gamma2, DETECT_TOL, n)
    return bool(np.max(mf.dist(gamma1.manifold, c1.samples, c2.samples)) <= tol)


# ---------------------------------------------------------------------------
# tangent fields over the quotient
# ---------------------------------------------------------------------------


def _field_reflects(spec, samples, comps, i, j, tol):
    """Does the field satisfy the reflection identity on the pairs (i, j)?

    The reflected vector is parallel transported across the retraced
    segment before comparison (componentwise comparison is chart dependent;
    a flat chart keeps the components).
    """
    moved = spec.transport(samples[j], samples[i], comps[j])
    return bool(np.max(np.abs(comps[i] - moved)) <= tol)


def _interp_field_many(spec, samples, comps, idx, frac):
    """Field values between samples idx and idx+1 (vectorized): transport
    both neighbor vectors to the interpolated point and blend linearly."""
    p0, p1 = samples[idx], samples[idx + 1]
    u = mf.log(spec, p0, p1)
    x, _ = mf.flow(spec, p0, u, frac)
    a = spec.transport(p0, x, comps[idx])
    b = spec.transport(p1, x, comps[idx + 1])
    out = spec.project_tangent(x, (1 - frac)[..., None] * a + frac[..., None] * b)
    out = np.where((frac == 0.0)[..., None], comps[idx], out)
    out = np.where((frac == 1.0)[..., None], comps[idx + 1], out)
    return out


def field_canonical_form(field, tol=DETECT_TOL, n=None):
    """Joint canonical form of (path, field) under back-track erasure.

    Raises DomainError when the base has a back-track window on which the
    field fails the reflection identity (the pair is then not a valid
    element of the quotient tangent space). ``n`` overrides the output
    grid (defaults to the input grid).
    """
    gamma = field.base
    spec = gamma.manifold
    comps = field.components
    n_out = gamma.n_segments if n is None else n
    keep, erased = _reduce(spec, gamma.samples, tol)
    for i, j in erased:
        if not _field_reflects(spec, gamma.samples, comps, i, j, max(tol, 1e-9)):
            raise DomainError(
                "field violates the reflection identity on window [%d, %d]" % (i[0], j[0])
            )
    if len(keep) == 1:
        base = pth.make_constant_path(gamma.start(), n_out)
        return PathTangentField(base, np.tile(comps[0], (n_out + 1, 1)))
    samples, comps = gamma.samples[keep], comps[keep]
    base, idx, frac = _canonical_reparametrize(spec, samples, n_out)
    return PathTangentField(base, _interp_field_many(spec, samples, comps, idx, frac))
