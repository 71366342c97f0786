"""Command-line front end: scenario ingestion, exports, and check suites.

Subcommands: worldsheet, distance, energy, backtrack, compose, check.
Scenario configs are JSON files naming a manifold, path and field
generators (or inline arrays), an interval, resolution, and tolerances.
Exit code 0 means every requested check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import backtrack as bt
from . import category as cat
from . import checks
from . import manifold as mf
from . import path as pth
from . import pathspace as ps
from . import serialize as ser
from .manifold import DomainError, GeometryError


class ConfigError(DomainError):
    """Scenario configuration is missing or invalid."""


def _read_json(filename, build):
    """``build`` of the JSON in ``filename``; an unreadable file, text that is
    not JSON, a record missing a key or holding a value of the wrong type, or
    a record ``build`` rejects is a ConfigError naming the file."""
    try:
        with open(filename) as fh:
            return build(ser.loads(fh.read()))
    except OSError as err:
        raise ConfigError("cannot read %s: %s" % (filename, err)) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError("%s is not valid JSON: %s" % (filename, err)) from None
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError("%s: bad record (%s: %s)" % (filename, type(err).__name__, err)) from None
    except DomainError as err:
        raise ConfigError("%s: %s" % (filename, err)) from None


def _section(data, name):
    """A copy of the config section ``name`` ({} if absent), which must be a
    JSON object: a list of pairs is not read as one."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError("config %s must be a JSON object (got %s)" % (name, type(section).__name__))
    return dict(section)


class ScenarioConfig:
    """Validated scenario: manifold, named paths/fields, interval, resolution."""

    def __init__(self, data):
        keys = ("manifold", "paths", "fields", "interval", "resolution", "tolerances")
        mf.only_keys("config key", data, keys, ("manifold",))
        self.manifold = mf.ManifoldSpec.from_json(data["manifold"])
        sections = ("paths", "fields", "resolution", "tolerances")
        self.paths, self.fields, res, tols = (_section(data, name) for name in sections)
        interval = data.get("interval", (0.0, 1.0))
        self.interval = tuple(mf.as_number("interval", v) for v in interval)
        mf.only_keys("resolution key", res, ("N", "S"))
        self.N = mf.as_integer("resolution N", res.get("N", pth.DEFAULT_GRID))
        self.S = mf.as_integer("resolution S", res.get("S", 16))
        mf.only_keys("tolerance", tols, ("distance",))
        self.tolerances = {k: mf.as_number("tolerance %r" % k, v) for k, v in tols.items()}
        self._validate()
        self._path_cache = {}

    def _validate(self):
        if self.N & (self.N - 1) != 0:
            raise ConfigError("resolution N must be a power of two (got %d)" % self.N)
        ps.s_grid(self.interval, self.S)  # the interval and S rule of every s-grid
        for name, tol in self.tolerances.items():
            if not 0.0 <= tol < np.inf:
                raise ConfigError("tolerance %r must be finite and nonnegative (got %r)" % (name, tol))
        for kind, table in (("path", self.paths), ("field", self.fields)):
            for name, d in table.items():
                if not isinstance(d, dict):
                    raise ConfigError("%s %r must be a JSON object (got %r)" % (kind, name, d))
        for name, d in self.fields.items():
            ref = d.get("path")
            if ref is not None and ref not in self.paths:
                raise ConfigError(
                    "field %r references unknown path %r" % (name, ref)
                )

    @classmethod
    def load(cls, filename):
        return _read_json(filename, cls)

    def tolerance(self, name, default):
        return self.tolerances.get(name, default)

    def build_path(self, name):
        if name in self._path_cache:
            return self._path_cache[name]
        if name not in self.paths:
            raise ConfigError("unknown path %r (have: %s)" % (name, ", ".join(sorted(self.paths)) or "none"))
        d = dict(self.paths[name])
        gen = d.pop("generator", None)
        if "samples" not in d and gen not in pth.GENERATORS:
            raise ConfigError(
                "path %r needs 'samples' or a known generator (%s)" % (name, ", ".join(sorted(pth.GENERATORS)))
            )
        try:
            if "samples" in d:
                gamma = pth.DiscretePath(self.manifold, pth._numbers("samples", d["samples"]), d.get("collar", 0.0))
            else:
                d.setdefault("n", self.N)
                gamma = getattr(pth, pth.GENERATORS[gen])(self.manifold, **d)
        except (TypeError, ValueError) as err:
            raise ConfigError("path %r: bad parameters (%s)" % (name, err))
        except GeometryError as err:
            raise ConfigError("path %r: %s" % (name, err))
        self._path_cache[name] = gamma
        return gamma

    def build_field(self, name):
        if name not in self.fields:
            raise ConfigError("unknown field %r (have: %s)" % (name, ", ".join(sorted(self.fields)) or "none"))
        d = dict(self.fields[name])
        ref = d.pop("path", None)
        if ref is None:
            raise ConfigError("field %r needs a 'path' reference" % name)
        gamma = self.build_path(ref)
        gen = d.pop("generator", None)
        if gen is None and "components" not in d:
            raise ConfigError("field %r needs a generator or inline 'components'" % name)
        if gen is not None and gen not in pth.FIELD_GENERATORS:
            raise ConfigError(
                "field %r: unknown generator %r (%s)"
                % (name, gen, ", ".join(sorted(pth.FIELD_GENERATORS)))
            )
        try:
            if gen is None:
                return pth.PathTangentField(gamma, pth._numbers("components", d["components"]))
            return getattr(pth, pth.FIELD_GENERATORS[gen])(gamma, **d)
        except (TypeError, KeyError, ValueError) as err:
            raise ConfigError("field %r: bad parameters (%s)" % (name, err))
        except GeometryError as err:
            raise ConfigError("field %r: %s" % (name, err))


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write(outdir, filename, pieces):
    """Write the text ``pieces`` to ``outdir/filename`` and return its path;
    without ``outdir``, return None and draw no piece. The pieces go to a
    temporary file beside the target that replaces it only once the last
    piece is written, so an export that fails part-way leaves no partial
    file and an earlier file as it was. A generator of ``pieces`` is closed
    on the way out, so an export helper it forked ends with it."""
    if not outdir:
        return None
    os.makedirs(outdir, exist_ok=True)
    full = os.path.join(outdir, filename)
    tmp = "%s.%d.tmp" % (full, os.getpid())
    try:
        with open(tmp, "w") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, full)
    finally:
        if hasattr(pieces, "close"):
            pieces.close()
        if os.path.exists(tmp):
            os.remove(tmp)
    return full


def _emit_report(args, filename, report):
    text = ser.dumps(report)
    sys.stdout.write(text)  # first, so a file that cannot be written loses no report
    written = _write(args.out, filename, [text])
    if written:
        print("wrote %s" % written, file=sys.stderr)


def _load_config(args, required=True):
    if not args.config:
        if required:
            raise ConfigError("this subcommand needs --config FILE")
        return None
    return ScenarioConfig.load(args.config)


def _single_name(config, kind, requested):
    table = config.paths if kind == "path" else config.fields
    if requested:
        return requested
    if len(table) == 1:
        return next(iter(table))
    raise ConfigError(
        "config defines %d %ss; select one with --%s" % (len(table), kind, kind)
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_worldsheet(args):
    config = _load_config(args)
    gamma = config.build_path(_single_name(config, "path", args.path))
    field = config.build_field(_single_name(config, "field", args.field))
    sheet = ps.pathspace_geodesic(gamma, field, config.interval, config.S)
    writers = {"csv": ser.sheet_csv_pieces, "obj": ser.sheet_obj_pieces, "json": lambda s: ser.json_pieces(s.to_json())}
    _write(args.out, "worldsheet." + args.format, writers[args.format](sheet))
    energy = ps.sheet_energy(sheet)
    summary = {
        "energy": energy,
        "length": ps._length(sheet.interval, energy),
        "fiber_residual_max": ps.transverse_residual(sheet),
    }
    _emit_report(args, "summary.json", summary)
    return 0


def cmd_distance(args):
    config = _load_config(args)
    g1 = config.build_path(args.path1)
    g2 = config.build_path(args.path2)
    dtilde = ps.pathspace_distance(g1, g2)
    sheet = ps.connecting_geodesic(g1, g2, S=config.S)
    length = ps.sheet_length(sheet)
    diff = abs(length - dtilde)
    tol = config.tolerance("distance", 1e-4)
    report = {
        "dtilde": dtilde,
        "sheet_length": length,
        "difference": diff,
        "tolerance": tol,
        "passed": diff <= tol,
    }
    _emit_report(args, "distance.json", report)
    return 0 if diff <= tol else 1


def cmd_energy(args):
    config = _load_config(args)
    names = [args.path] if args.path else sorted(config.paths)
    if not names:
        raise ConfigError("config defines no paths")
    report = {}
    for name in names:
        gamma = config.build_path(name)
        report[name] = {
            "energy": pth.path_energy(gamma),
            "arc_length": pth.arc_length(gamma),
        }
    _emit_report(args, "energy.json", report)
    return 0


def cmd_backtrack(args):
    if args.input:
        gamma = _read_json(args.input, pth.DiscretePath.from_json)
    else:
        config = _load_config(args)
        gamma = config.build_path(_single_name(config, "path", args.path))
    if args.canonical:
        out = bt.canonical_form(gamma, args.tol)
        _emit_report(args, "canonical.json", out.to_json())
    else:
        wins = bt.detect_backtracks(gamma, args.tol)
        _emit_report(
            args,
            "windows.json",
            [{"start": w.start, "half_width": w.half_width, "end": w.end} for w in wins],
        )
    return 0


def cmd_compose(args):
    ms = [_read_json(f, ser.morphism_from_json) for f in args.files]
    if len(ms) == 4:
        if not all(isinstance(m, cat.GeodMorphism2) for m in ms):
            raise DomainError("exchange check needs four 2-morphism files")
        F1, G1, F2, G2 = ms
        report = cat.check_exchange(F1, G1, F2, G2, tol=args.tol)
        _emit_report(args, "exchange.json", report.to_json())
        return 0 if report.passed else 1
    if len(ms) != 2:
        raise DomainError("compose needs exactly two or four morphism files")
    g, f = ms
    if isinstance(f, cat.GeodMorphism1) and isinstance(g, cat.GeodMorphism1):
        out = cat.compose1(g, f)
        _emit_report(args, "composite.json", ser.morphism1_to_json(out))
        return 0
    if isinstance(f, cat.GeodMorphism2) and isinstance(g, cat.GeodMorphism2):
        if args.horizontal:
            out = cat.compose2_horizontal(f, g)
        else:
            out = cat.compose2_vertical(g, f)
        _emit_report(args, "composite.json", ser.morphism2_to_json(out))
        return 0
    raise DomainError("cannot mix 1-morphism and 2-morphism files")


def cmd_check(args):
    config = _load_config(args, required=False)
    report = checks.run_checks(args.suite, seed=args.seed, cases=args.cases, config=config)
    _emit_report(args, "report.json", report)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="DIR", help="output directory")
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", metavar="FILE", help="scenario config (JSON)")

    parser = argparse.ArgumentParser(
        prog="pathgeo",
        description="Geodesics, transport, and composition laws on spaces of paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("worldsheet", parents=[common, scenario], help="generate and export a geodesic worldsheet")
    p.add_argument("--path", help="seed path name in the config")
    p.add_argument("--field", help="seed field name in the config")
    p.add_argument(
        "--format",
        choices=("csv", "json", "obj"),
        default="json",
        help="export format for grid data (default json)",
    )
    p.set_defaults(func=cmd_worldsheet)

    p = sub.add_parser("distance", parents=[common, scenario], help="path-space distance between two config paths")
    p.add_argument("--path1", default="path1", help="first path name (default path1)")
    p.add_argument("--path2", default="path2", help="second path name (default path2)")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("energy", parents=[common, scenario], help="energy and arc length of config paths")
    p.add_argument("--path", help="path name (default: all)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("backtrack", parents=[common], help="back-track windows or canonical form of a path")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="FILE", help="path JSON file")
    source.add_argument("--config", metavar="FILE", help="scenario config (JSON)")
    p.add_argument("--path", help="path name in the config")
    p.add_argument("--tol", type=float, default=bt.DETECT_TOL, help="detection tolerance")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--windows", action="store_true", help="list windows (default)")
    group.add_argument("--canonical", action="store_true", help="emit the canonical path")
    p.set_defaults(func=cmd_backtrack)

    p = sub.add_parser("compose", parents=[common], help="compose morphism files or check the exchange law")
    p.add_argument("files", nargs="+", metavar="FILE", help="two morphism files, or four for exchange")
    p.add_argument("--horizontal", action="store_true", help="horizontal 2-composition (default vertical)")
    p.add_argument("--tol", type=float, default=1e-9, help="exchange tolerance")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("check", parents=[common, scenario], help="run a property suite")
    p.add_argument("--suite", required=True, choices=checks.SUITES, help="suite to run")
    p.add_argument(
        "--cases",
        type=int,
        default=10,
        help="random cases per property (default 10); the pathspace, backtrack and category "
        "suites use max(3, cases // 2)",
    )
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED, help="RNG seed (default 42)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GeometryError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
