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


def _pair_dist(spec, samples, i, j):
    return float(mf.dist(spec, samples[i], samples[j]))


def _scan_windows(spec, samples, tol):
    """Maximal reflection windows in a raw sample list, left to right,
    greedily disjoint."""
    n = len(samples) - 1
    # one vectorized sweep per offset u: which centers still reflect
    close = []
    for u in range(1, (n + 1) // 2 + 1):
        d = mf.dist(spec, samples[: n + 1 - 2 * u], samples[2 * u :])
        close.append(np.asarray(d) <= tol)  # close[u-1][c-u] for center c
    windows = []
    cand = []
    for c in range(1, n):
        sigma = 0
        for u in range(1, min(c, n - c) + 1):
            if close[u - 1][c - u]:
                sigma = u
            else:
                break
        if sigma >= 1:
            cand.append((c - sigma, sigma))
    # drop windows contained in another candidate
    maximal = [
        (T, s)
        for (T, s) in cand
        if not any(
            (T2 <= T and T + 2 * s <= T2 + 2 * s2 and (T2, s2) != (T, s))
            for (T2, s2) in cand
        )
    ]
    last_end = -1
    for T, s in sorted(maximal):
        if T > last_end:
            windows.append((T, s))
            last_end = T + 2 * s
    return windows


def detect_backtracks(gamma, tol=DETECT_TOL):
    """All maximal back-track windows of the path, disjoint, left to right."""
    if tol < 0:
        raise DomainError("tolerance must be nonnegative")
    return [
        BackTrackWindow(T, s)
        for (T, s) in _scan_windows(gamma.manifold, gamma.samples, tol)
    ]


def _check_window(spec, samples, window, tol):
    n = len(samples) - 1
    if window.end > n:
        raise DomainError("window exceeds the grid")
    for u in range(0, window.half_width + 1):
        if _pair_dist(spec, samples, window.start + u, window.end - u) > tol:
            raise DomainError("the given window is not a back-track of this path")


def _erase_indices(n_samples, window):
    """Sample indices kept after deleting the retraced portion (T, T+2sigma]."""
    keep = np.ones(n_samples, dtype=bool)
    keep[window.start + 1 : window.end + 1] = False
    return np.flatnonzero(keep)


def erase_backtrack(gamma, window, tol=DETECT_TOL):
    """Delete the retraced portion and resample onto the canonical grid."""
    _check_window(gamma.manifold, gamma.samples, window, tol)
    kept = gamma.samples[_erase_indices(len(gamma.samples), window)]
    return _canonical_reparametrize(gamma.manifold, kept, gamma.n_segments)


# ---------------------------------------------------------------------------
# canonical representatives
# ---------------------------------------------------------------------------


def _cumulative_arcs(spec, samples):
    seg = mf.dist(spec, samples[:-1], samples[1:])
    return np.concatenate([[0.0], np.cumsum(seg)])


def _locate_arc(arcs, target):
    """Segment index and fraction for an arc-length position."""
    i = int(np.searchsorted(arcs, target, side="right")) - 1
    i = min(max(i, 0), len(arcs) - 2)
    seg = arcs[i + 1] - arcs[i]
    frac = 0.0 if seg <= 0 else (target - arcs[i]) / seg
    return i, min(max(frac, 0.0), 1.0)


def _canonical_reparametrize(spec, samples, n, collar=pth.DEFAULT_COLLAR):
    """Collared constant-speed representative on the uniform n-grid.

    Constant on both collars, constant speed in between; the canonical
    parametrization every equivalence check compares against.
    """
    arcs = _cumulative_arcs(spec, samples)
    total = arcs[-1]
    if total <= 1e-15:
        return DiscretePath(spec, np.tile(samples[0], (n + 1, 1)), collar)
    phi = pth.collar_ramp(np.arange(n + 1) / n, collar)
    located = [_locate_arc(arcs, target) for target in phi * total]
    idx = np.array([i for i, _ in located])
    frac = np.array([f for _, f in located])
    u = mf.log(spec, samples[idx], samples[idx + 1])
    out, _ = mf.flow(spec, samples[idx], u, frac)
    out = np.where((frac == 0.0)[:, None], samples[idx], out)
    out = np.where((frac == 1.0)[:, None], samples[idx + 1], out)
    return DiscretePath(spec, out, collar)


def _erase_all(spec, samples, tol):
    """Leftmost-first erasure loop on a raw sample list (no resampling)."""
    samples = np.asarray(samples, dtype=float)
    while True:
        if np.max(mf.dist(spec, samples, samples[0])) <= tol:
            return samples[:1]
        windows = _scan_windows(spec, samples, tol)
        if not windows:
            return samples
        T, s = windows[0]
        win = BackTrackWindow(T, s)
        samples = samples[_erase_indices(len(samples), win)]


def canonical_form(gamma, tol=DETECT_TOL, n=None):
    """Erase back-tracks until none remain, then reparametrize canonically.

    Idempotent: the collared constant-speed representative has only
    trivial (plateau) windows, which erase and re-ramp to themselves.
    ``n`` overrides the output grid (defaults to the input grid).
    """
    spec = gamma.manifold
    n = gamma.n_segments if n is None else n
    reduced = _erase_all(spec, gamma.samples, tol)
    if len(reduced) == 1:
        return pth.make_constant_path(mf.ManifoldPoint(spec, reduced[0]), n)
    return _canonical_reparametrize(spec, reduced, n)


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


def _field_reflects(spec, samples, comps, window, tol):
    """Does the field satisfy the reflection identity on the window?

    On flat charts components are compared directly; on curved models the
    reflected vector is parallel transported across the retraced segment
    before comparison (componentwise comparison is chart dependent).
    """
    for u in range(0, window.half_width + 1):
        i, j = window.start + u, window.end - u
        if not spec.flat and _pair_dist(spec, samples, i, j) > 1e-12:
            seg = np.stack([samples[j], samples[i]])
            moved = mf.transport_along(spec, seg, comps[j])[-1]
        else:
            moved = comps[j]
        if np.max(np.abs(comps[i] - moved)) > tol:
            return False
    return True


def _interp_field_many(spec, samples, comps, idx, frac):
    """Field values between samples idx and idx+1 (vectorized): transport
    both neighbor vectors to the interpolated point and blend linearly."""
    idx = np.asarray(idx)
    frac = np.asarray(frac, dtype=float)
    p0, p1 = samples[idx], samples[idx + 1]
    u = mf.log(spec, p0, p1)
    x, _ = mf.flow(spec, p0, u, frac)
    if not spec.flat:
        a = mf.transport_along(spec, np.stack([p0, x]), comps[idx])[-1]
        b = mf.transport_along(spec, np.stack([p1, x]), comps[idx + 1])[-1]
    else:
        a, b = comps[idx], comps[idx + 1]
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
    samples = gamma.samples
    comps = field.components
    n_out = gamma.n_segments if n is None else n
    while True:
        if np.max(mf.dist(spec, samples, samples[0])) <= tol:
            base = pth.make_constant_path(mf.ManifoldPoint(spec, samples[0]), n_out)
            return PathTangentField(base, np.tile(comps[0], (n_out + 1, 1)))
        windows = _scan_windows(spec, samples, tol)
        if not windows:
            break
        T, s = windows[0]
        win = BackTrackWindow(T, s)
        if not _field_reflects(spec, samples, comps, win, max(tol, 1e-9)):
            raise DomainError(
                "field violates the reflection identity on window [%d, %d]"
                % (win.start, win.end)
            )
        keep = _erase_indices(len(samples), win)
        samples = samples[keep]
        comps = comps[keep]
    # collared constant-speed resample of base and field together
    arcs = _cumulative_arcs(spec, samples)
    phi = pth.collar_ramp(np.arange(n_out + 1) / n_out, pth.DEFAULT_COLLAR)
    base = _canonical_reparametrize(spec, samples, n_out)
    located = [_locate_arc(arcs, target) for target in phi * arcs[-1]]
    idx = np.array([i for i, _ in located])
    frac = np.array([f for _, f in located])
    out = _interp_field_many(spec, samples, comps, idx, frac)
    return PathTangentField(base, out)
