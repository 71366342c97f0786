"""The benchmark's three workloads: inputs from a seed, one timed pass, and
the correctness gate for every operation of a pass.

An operation is one CLI command or one checked library call. ``run_pass``
records each operation's result, or the exception it raised, under a key;
``check`` later decides, outside the timed region, whether that result is
correct. Tolerances are the library's own: residual 1e-4, distance 1e-4,
L2 transport isometry 1e-5 relative, canonical idempotence 1e-9.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from pathgeo import backtrack as bt
from pathgeo import cli
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps

from tracing import SIZE_SLOTS

SIZES = (256, 1024, 4096)
SMOKE_SIZES = (32, 64, 128)

RESIDUAL_TOL = 1e-4
DISTANCE_TOL = 1e-4
ISOMETRY_TOL = 1e-5
IDEMPOTENCE_TOL = 1e-9


def run_op(outcomes, key, fn):
    """Run one operation; a raised exception is a failed operation."""
    try:
        outcomes[key] = (fn(), None)
    except Exception as err:  # any error is counted, never fatal to the run
        outcomes[key] = (None, "%s: %s" % (type(err).__name__, err))


def run_cli(argv):
    """``pathgeo <argv>`` in-process; returns the exit code and stdout text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def file_digest(filename):
    h = hashlib.sha256()
    with open(filename, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class CheckAll:
    """``pathgeo check --suite all``: 56 properties on small arrays."""

    def __init__(self, seed, smoke, workdir):
        cases = 2 if smoke else 10
        self.argv = ["check", "--suite", "all", "--seed", str(seed), "--cases", str(cases)]
        self.first_text = None

    def run_pass(self, outcomes, set_slot):
        run_op(outcomes, "check", lambda: run_cli(self.argv))

    def after_pass(self, outcomes):
        pass

    def check(self, key, result):
        code, text = result
        if code != 0:
            return "exit code %d" % code
        report = json.loads(text)
        props = report["properties"]
        bad = [p["name"] for p in props if not p["passed"] or not p["worst"] <= p["tolerance"]]
        if bad or not report["passed"]:
            return "failed properties: %s" % ", ".join(bad)
        if len(props) != 56:
            return "expected 56 properties, got %d" % len(props)
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            return "report differs from the first pass"
        return None


class SheetPipeline:
    """Worldsheet export and distance through the CLI on sphere scenario
    configs, plus library transport of a second field on the sphere and on
    a half-plane vertical ray; S = 64 throughout."""

    S = 64

    def __init__(self, seed, smoke, workdir):
        rng = np.random.default_rng(seed)
        self.sphere = mf.ManifoldSpec.sphere(1.0)
        self.half_plane = mf.ManifoldSpec.hyperbolic_half_plane()
        self.sizes = SMOKE_SIZES if smoke else SIZES
        self.cases = []
        for n in self.sizes:
            colat1 = float(rng.uniform(0.9, 1.3))
            colat2 = colat1 + float(rng.uniform(0.1, 0.3))
            scale = float(rng.uniform(0.4, 0.8))
            folder = os.path.join(workdir, "N%d" % n)
            os.makedirs(folder)
            config = os.path.join(folder, "scenario.json")
            with open(config, "w") as fh:
                json.dump(
                    {
                        "manifold": {"kind": "sphere", "radius": 1.0},
                        "paths": {
                            "path1": {"generator": "latitude_circle", "colatitude": colat1},
                            "path2": {"generator": "latitude_circle", "colatitude": colat2},
                        },
                        "fields": {
                            "normal": {"generator": "normal_to_path", "path": "path1", "scale": scale}
                        },
                        "interval": [0.0, 1.0],
                        "resolution": {"N": n, "S": self.S},
                    },
                    fh,
                )
            out = os.path.join(folder, "out")
            lat = pth.make_latitude_circle(self.sphere, colat1, n=n)
            y0 = float(rng.uniform(0.5, 1.0))
            ray = pth.make_vertical_ray(
                self.half_plane, float(rng.uniform(-1.0, 1.0)), y0, y0 * float(rng.uniform(2.0, 3.0)), n=n
            )
            transports = {}
            for label, gamma in (("sphere", lat), ("half_plane", ray)):
                d = gamma.manifold.point_dim
                seed_field = pth.make_constant_field(gamma, 0.5 * rng.standard_normal(d))
                second = pth.make_constant_field(gamma, rng.standard_normal(d))
                transports[label] = (gamma, seed_field, second)
            self.cases.append(
                {
                    "n": n,
                    "colat1": colat1,
                    "colat2": colat2,
                    "scale": scale,
                    "sheet_argv": ["worldsheet", "--config", config, "--path", "path1",
                                   "--field", "normal", "--format", "json", "--out", out],
                    "distance_argv": ["distance", "--config", config, "--path1", "path1",
                                      "--path2", "path2"],
                    "sheet_file": os.path.join(out, "worldsheet.json"),
                    "transports": transports,
                }
            )
        self.verified_digest = {}

    def run_pass(self, outcomes, set_slot):
        for slot, case in zip(SIZE_SLOTS, self.cases):
            set_slot(slot)
            n = case["n"]
            run_op(outcomes, ("worldsheet", n), lambda: run_cli(case["sheet_argv"]))
            run_op(outcomes, ("distance", n), lambda: run_cli(case["distance_argv"]))
            for label, (gamma, seed_field, second) in case["transports"].items():
                run_op(outcomes, ("transport", label, n), lambda: self._transport(gamma, seed_field, second))
        set_slot(None)

    def _transport(self, gamma, seed_field, second):
        sheet = ps.pathspace_geodesic(gamma, seed_field, (0.0, 1.0), self.S)
        moved = ps.pathspace_transport(sheet, second)
        return second, moved[0], moved[-1]

    def after_pass(self, outcomes):
        # the export is overwritten by the next pass: keep its digest
        for case in self.cases:
            result, error = outcomes[("worldsheet", case["n"])]
            if error is None and os.path.exists(case["sheet_file"]):
                outcomes[("worldsheet", case["n"])] = (result + (file_digest(case["sheet_file"]),), None)

    def check(self, key, result):
        case = next(c for c in self.cases if c["n"] == key[-1])
        if key[0] == "worldsheet":
            return self._check_sheet(case, result)
        if key[0] == "distance":
            return self._check_distance(case, result)
        return self._check_transport(result)

    def _check_sheet(self, case, result):
        if len(result) != 3:
            return "no worldsheet.json written"
        code, text, digest = result
        if code != 0:
            return "exit code %d" % code
        summary = json.loads(text)
        if not summary["fiber_residual_max"] <= RESIDUAL_TOL:
            return "fiber residual %.3g above %g" % (summary["fiber_residual_max"], RESIDUAL_TOL)
        n = case["n"]
        if n not in self.verified_digest:
            # the last pass's file; every pass's digest must match it
            problem = self._check_export(case, summary)
            if problem:
                return problem
            self.verified_digest[n] = file_digest(case["sheet_file"])
        if digest != self.verified_digest[n]:
            return "worldsheet.json differs between passes"
        return None

    def _check_export(self, case, summary):
        gamma = pth.make_latitude_circle(self.sphere, case["colat1"], n=case["n"])
        field = pth.make_normal_field(gamma, case["scale"])
        ref = ps.pathspace_geodesic(gamma, field, (0.0, 1.0), self.S)
        with open(case["sheet_file"]) as fh:
            sheet = ps.Worldsheet.from_json(json.load(fh))
        same = (
            sheet.manifold == ref.manifold
            and sheet.collar == ref.collar
            and all(
                np.array_equal(getattr(sheet, a), getattr(ref, a))
                for a in ("s_nodes", "points", "velocities")
            )
        )
        if not same:
            return "exported sheet is not bit-equal to the library rebuild"
        if summary["energy"] != ps.sheet_energy(ref) or summary["length"] != ps.sheet_length(ref):
            return "summary energy or length differs from the library rebuild"
        return None

    def _check_distance(self, case, result):
        code, text = result
        if code != 0:
            return "exit code %d" % code
        report = json.loads(text)
        if not report["passed"] or not report["difference"] <= DISTANCE_TOL:
            return "sheet length and distance differ by %.3g" % report["difference"]
        # same-longitude samples on two latitude circles: every fiber is a
        # meridian arc of the colatitude gap, so the L2 distance is that gap
        expected = case["colat2"] - case["colat1"]
        if not abs(report["dtilde"] - expected) <= DISTANCE_TOL:
            return "distance %.17g, expected %.17g" % (report["dtilde"], expected)
        return None

    def _check_transport(self, result):
        second, first, last = result
        if not np.array_equal(first.components, second.components):
            return "transported field at s = 0 differs from the input"
        g0 = ps.l2_metric(first.base, first, first)
        g1 = ps.l2_metric(last.base, last, last)
        rel = abs(g1 - g0) / max(abs(g0), 1e-12)
        if not rel <= ISOMETRY_TOL:
            return "L2 norm changed by %.3g (relative)" % rel
        return None


def spur_starts(rng, n, k):
    """Three spur positions on an n-grid, far enough apart that each spur
    is its own maximal window: one per third of the grid."""
    width = (n - k - 2) // 3
    return [1 + i * width + int(rng.integers(0, width - k - 1)) for i in range(3)]


def add_spurs(clean, starts, k):
    """Insert an exact out-and-back excursion of k samples after each start."""
    s = clean.samples
    parts = []
    prev = 0
    for m in starts:
        parts.append(s[prev : m + k + 1])
        parts.append(s[m : m + k][::-1])
        prev = m + 1
    parts.append(s[prev:])
    return pth.DiscretePath(clean.manifold, np.concatenate(parts), 0.0)


class BacktrackReduce:
    """Back-track detection, equivalence and canonical forms of paths with
    three exact retraced spurs, on sphere(1) and euclidean(2)."""

    SPURS = 3

    def __init__(self, seed, smoke, workdir):
        rng = np.random.default_rng(seed)
        self.sizes = SMOKE_SIZES if smoke else SIZES
        sphere = mf.ManifoldSpec.sphere(1.0)
        plane = mf.ManifoldSpec.euclidean(2)
        self.cases = {}
        for n in self.sizes:
            k = n // 16
            # geodesic clean paths: canonical_form is idempotent within 1e-9
            # on them (the check suite's case), not on curved ones
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            t = rng.standard_normal(3)
            t -= np.dot(t, a) * a
            t /= np.linalg.norm(t)
            theta = rng.uniform(1.0, 2.5)
            arc = pth.make_great_circle_arc(sphere, a, math.cos(theta) * a + math.sin(theta) * t, n=n, collar=0.0)
            start = rng.uniform(-1.0, 1.0, 2)
            angle = rng.uniform(0.0, 2 * math.pi)
            end = start + rng.uniform(1.0, 2.0) * np.array([math.cos(angle), math.sin(angle)])
            line = pth.make_line(plane, start, end, n=n, collar=0.0)
            for label, clean in (("sphere", arc), ("euclidean", line)):
                starts = spur_starts(rng, n, k)
                spurred = add_spurs(clean, starts, k)
                field = pth.make_constant_field(spurred, 0.3 * rng.standard_normal(clean.manifold.point_dim))
                # window i starts where spur i leaves the path, shifted by
                # the 2k samples each earlier spur inserted
                windows = [(m + 2 * k * i, k) for i, m in enumerate(starts)]
                self.cases[label, n] = (clean, spurred, field, windows)
        self.reference = {}

    def run_pass(self, outcomes, set_slot):
        for slot, n in zip(SIZE_SLOTS, self.sizes):
            set_slot(slot)
            for label in ("sphere", "euclidean"):
                clean, spurred, field, _ = self.cases[label, n]
                run_op(outcomes, ("detect", label, n), lambda: bt.detect_backtracks(spurred))
                run_op(outcomes, ("equivalent", label, n), lambda: bt.bt_equivalent(spurred, clean))
                run_op(outcomes, ("canonical", label, n), lambda: bt.canonical_form(spurred))
                run_op(outcomes, ("field_canonical", label, n), lambda: bt.field_canonical_form(field))
        set_slot(None)

    def after_pass(self, outcomes):
        pass

    def check(self, key, result):
        op, label, n = key
        _, _, _, windows = self.cases[label, n]
        if op == "detect":
            found = [(w.start, w.half_width) for w in result]
            return None if found == windows else "windows %s, expected %s" % (found, windows)
        if op == "equivalent":
            return None if result is True else "spurred path not equivalent to the clean path"
        if op == "canonical":
            return self._check_stable(key, result.samples, bt.canonical_form, result)
        return self._check_stable(key, result.components, bt.field_canonical_form, result)

    def _check_stable(self, key, values, reduce, result):
        """Idempotence within 1e-9 on the first pass; later passes must
        reproduce the first pass bit for bit."""
        if key not in self.reference:
            again = reduce(result)
            if isinstance(result, pth.DiscretePath):
                worst = float(np.max(mf.dist(result.manifold, result.samples, again.samples)))
            else:
                worst = float(np.max(np.abs(result.components - again.components)))
            if not worst <= IDEMPOTENCE_TOL:
                return "not idempotent: %.3g" % worst
            self.reference[key] = values
        if not np.array_equal(values, self.reference[key]):
            return "result differs from the first pass"
        return None


WORKLOADS = {
    "check_all": CheckAll,
    "sheet_pipeline": SheetPipeline,
    "backtrack_reduce": BacktrackReduce,
}
