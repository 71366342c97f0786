"""One workload in one fresh process: set up, time passes, verify.

Started by ``run.py`` with ``PYTHONPATH=src``. Prints ``READY`` once the
inputs exist (``run.py`` times interpreter start, import and input
generation up to that line), then a single JSON line with the raw
measurements. With ``--trace 1`` untraced and traced passes alternate, so
the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import tracing
import workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny grids, one pass")
    p.add_argument("--setup-only", action="store_true", help="exit after READY")
    p.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    return p.parse_args(argv)


def run(args):
    tracer = tracing.Tracer() if args.trace else None

    def set_slot(slot):
        if tracer is not None:
            tracer.tag = slot

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return None

    times = {False: [], True: []}
    layers = []
    passes = []
    spans = []
    measured = 0.0
    peak_rss_mb = None
    while True:
        traced = bool(args.trace) and len(times[False]) > len(times[True])
        outcomes = {}
        if traced:
            tracer.install()
        start = time.perf_counter()
        workload.run_pass(outcomes, set_slot)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            spans, out_bytes = tracer.take()
            layers.append(tracing.summarize(spans, out_bytes))
        times[traced].append(elapsed)
        measured += elapsed
        if peak_rss_mb is None:
            # after one pass, so the figure does not depend on the pass count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.after_pass(outcomes)
        passes.append(outcomes)
        enough = measured >= args.seconds or args.smoke
        if enough and (not args.trace or times[True]):
            break

    attempted = failed = 0
    failures = []
    for outcomes in passes:
        for key, (result, error) in outcomes.items():
            attempted += 1
            if error is None:
                try:
                    error = workload.check(key, result)
                except Exception as err:  # a malformed output fails its check
                    error = "check raised %s: %s" % (type(err).__name__, err)
            if error is not None:
                failed += 1
                failures.append("%s: %s" % (key, error))

    record = {
        "pass_s": times[False],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if args.trace:
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        per_layer["trace.overhead"] = statistics.median(times[True]) / statistics.median(times[False])
        record["per_layer"] = per_layer
        record["traced_pass_s"] = times[True]
        record["spans_file"] = os.path.join(os.path.dirname(args.workdir), "spans-%s.tsv" % args.workload)
        tracing.write_spans(spans, record["spans_file"])
    return record


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(args.workdir)
    try:
        record = run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    if record is not None:
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
