"""Outside-in span tracing of pathgeo's public functions.

The package calls across modules through module attributes (``mf.flow``,
``pth.concatenate``, ``bt.canonical_form``, ...) and within a module through
its globals, which are the same dictionary. Replacing those attributes with
timing wrappers therefore catches every call without touching the package.

Spans live in memory as tuples ``(id, parent, thread, name, start_ns,
end_ns, tag)``. ``parent`` is the id of the enclosing span on the same
thread; the first span on another thread (a ``checks`` pool worker) takes
the innermost open span of the thread that installed the tracer, which is
``run_checks``; 0 marks a root. ``tag`` is the grid-size slot the benchmark
was working on when the span started. Under the ``checks`` thread pool a
span's duration includes the time its thread waited for the GIL.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time
from collections import Counter, defaultdict

# (module, attribute path) of every traced function; metric names are
# "<module>.<attribute path>" with the dunder of DiscretePath dropped.
TRACED = [
    ("manifold", "flow"),
    ("manifold", "dist"),
    ("manifold", "log"),
    ("manifold", "transport_along"),
    ("manifold", "integrate_batch"),
    ("manifold", "gamma_quad"),
    ("path", "DiscretePath.__post_init__"),
    ("path", "path_energy"),
    ("path", "make_normal_field"),
    ("path", "concatenate"),
    ("path", "evaluate_many"),
    ("pathspace", "build_sheet"),
    ("pathspace", "pathspace_transport"),
    ("pathspace", "connecting_geodesic"),
    ("pathspace", "pathspace_distance"),
    ("pathspace", "sheet_energy"),
    ("pathspace", "transverse_residual"),
    ("backtrack", "detect_backtracks"),
    ("backtrack", "canonical_form"),
    ("backtrack", "field_canonical_form"),
    ("backtrack", "bt_equivalent"),
    ("category", "check_exchange"),
    ("category", "compose1"),
    ("category", "morphism1_equal"),
    ("checks", "run_checks"),
    ("serialize", "dumps"),
    ("cli", "main"),
    ("cli", "ScenarioConfig.build_path"),
    ("cli", "ScenarioConfig.build_field"),
]

MODULES = ["manifold", "path", "pathspace", "backtrack", "category", "checks", "serialize", "cli"]

# functions whose cost is tracked per grid size, to show how it grows with N
SCALED = [
    "pathspace.pathspace_transport",
    "backtrack.canonical_form",
    "backtrack.detect_backtracks",
    "backtrack.field_canonical_form",
    "path.make_normal_field",
    "serialize.dumps",
]

# grid-size slots; a smoke run uses smaller grids under the same slot names
SIZE_SLOTS = ["N256", "N1024", "N4096"]

DUMPS = "serialize.dumps"
RUN_CHECKS = "checks.run_checks"


NAMES = [module + "." + attr.replace(".__post_init__", "") for module, attr in TRACED]


def per_layer_metric_units():
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for name in NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in SCALED:
        for slot in SIZE_SLOTS:
            units[name + ".busy_s." + slot] = "s"
        units[name + ".growth"] = "log4"
    for module in MODULES:
        units[module + ".self_s"] = "s"
        units[module + ".share"] = "ratio"
    units["serialize.out_bytes"] = "bytes"
    units["checks.thread_overlap"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Installs timing wrappers on pathgeo and collects spans in memory."""

    def __init__(self):
        self.spans = []
        self.out_bytes = []
        self.tag = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals = []
        self._home_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans = self.spans
        out_bytes = self.out_bytes
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            # a slice, because the home thread may pop its last span meanwhile
            enclosing = stack[-1:] or self._home_stack[-1:]
            parent = enclosing[0] if enclosing else 0
            tag = self.tag
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, threading.get_ident(), name, t0, t1, tag))
            if name == DUMPS:
                out_bytes.append(len(result))
            return result

        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        self._home_stack = self._stack()
        for (module, attr), name in zip(TRACED, NAMES):
            owner = importlib.import_module("pathgeo." + module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._originals):
            setattr(owner, leaf, original)
        self._originals = []

    def take(self):
        """Hand over the spans and byte counts collected so far and reset."""
        spans, out_bytes = self.spans[:], sum(self.out_bytes)
        del self.spans[:]
        del self.out_bytes[:]
        return spans, out_bytes


def summarize(spans, out_bytes):
    """Per-layer metrics of one traced pass (all times in seconds)."""
    by_id = {}
    children = defaultdict(list)
    for span in spans:
        sid, parent, _, _, t0, t1, _ = span
        by_id[sid] = span
        if parent:
            children[parent].append((t0, t1))

    calls = Counter()
    self_ns = Counter()
    busy_ns = Counter()
    for sid, parent, _, name, t0, t1, tag in spans:
        calls[name] += 1
        self_ns[name] += t1 - t0 - _covered(children.get(sid, ()))
        if name in SCALED and tag is not None and not _nested_in_same(by_id, parent, name):
            busy_ns[name, tag] += t1 - t0

    out = {}
    for name in NAMES:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_ns[name] * 1e-9
    for name in SCALED:
        for slot in SIZE_SLOTS:
            out[name + ".busy_s." + slot] = busy_ns[name, slot] * 1e-9
        big, mid = busy_ns[name, SIZE_SLOTS[2]], busy_ns[name, SIZE_SLOTS[1]]
        # log_4 of the cost ratio for a 4x larger grid: 1 is linear, 2 quadratic
        out[name + ".growth"] = math.log(big / mid, 4) if big > 0 and mid > 0 else 0.0
    total_self = sum(self_ns.values()) or 1
    for module in MODULES:
        module_ns = sum(v for k, v in self_ns.items() if k.startswith(module + "."))
        out[module + ".self_s"] = module_ns * 1e-9
        out[module + ".share"] = module_ns / total_self
    out["serialize.out_bytes"] = out_bytes
    runs = [s for s in spans if s[3] == RUN_CHECKS]
    wall = sum(s[5] - s[4] for s in runs)
    work = sum(t1 - t0 for s in runs for t0, t1 in children.get(s[0], ()))
    # about 1 for a serial suite, above 1 when pool threads overlap
    out["checks.thread_overlap"] = work / wall if wall else 0.0
    return out


def _covered(intervals):
    """Length of the union of (start, end) intervals: child spans on pool
    threads overlap each other."""
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def _nested_in_same(by_id, parent, name):
    while parent:
        span = by_id[parent]
        if span[3] == name:
            return True
        parent = span[1]
    return False


def write_spans(spans, filename):
    """One tab-separated line per span: id, parent, thread, name, start_ns,
    end_ns, size slot."""
    with open(filename, "w") as fh:
        fh.write("id\tparent\tthread\tname\tstart_ns\tend_ns\tslot\n")
        for sid, parent, tid, name, t0, t1, tag in spans:
            fh.write("%d\t%d\t%d\t%s\t%d\t%d\t%s\n" % (sid, parent, tid, name, t0, t1, tag or "-"))
