"""pathgeo benchmark: one workload, end-to-end or traced, from a repo checkout.

    python3 bench/run.py --workload check_all --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout (it imports the package from ``src/``).
Each workload runs in fresh processes started with ``PYTHONPATH=src`` and
without ``PATHGEO_THREADS``: a few that only set up, to time set-up, and
one that also times passes of the workload and checks every output.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. A readable summary, with the
error rate, pass count and machine record, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("check_all", "sheet_pipeline", "backtrack_reduce")
# set-up-only processes before and after the measuring one, which adds a
# sample; a shared host's speed drifts over tens of seconds, so set-up is
# sampled at both ends of the run
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
WORK_DIR = ".bench_work"


def seed_arg(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be a nonnegative integer")
    return seed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=seed_arg, required=True, help="derives every input")
    p.add_argument("--seconds", type=float, default=10.0, help="timed pass time to collect")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    p.add_argument("--smoke", action="store_true", help="tiny grids, one pass (for the tests)")
    return p.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    env.pop("PATHGEO_THREADS", None)
    env["PYTHONPATH"] = "src"
    return env


def read_line(proc, deadline):
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    if not ready:
        raise TimeoutError("worker did not answer in time")
    return proc.stdout.readline().decode()


def start_worker(args, extra, deadline):
    """Start a worker; returns it and the seconds until it printed READY."""
    workdir = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, os.getpid(), time.monotonic_ns()))
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir] + extra
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), bufsize=0)
    try:
        line = read_line(proc, deadline)
        setup = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError("worker failed during set-up")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def finish_worker(proc, deadline):
    """Collect the worker's last stdout line and wait for it to exit."""
    try:
        lines = []
        while True:
            line = read_line(proc, deadline)
            if not line:
                break
            lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError("worker exited with code %d" % code)
    return json.loads(lines[-1]) if lines else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.exists(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def probe_setup(args, deadline):
    proc, setup = start_worker(args, ["--setup-only"], deadline)
    finish_worker(proc, deadline)
    return setup


def measure(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    probes = 0 if args.smoke else SETUP_PROBES
    setups = [probe_setup(args, deadline) for _ in range(probes)]
    proc, setup = start_worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    record = finish_worker(proc, deadline)
    setups.append(setup)
    setups += [probe_setup(args, deadline) for _ in range(probes)]
    record["setup_samples_s"] = setups
    return record


def result_line(args, record):
    if args.trace:
        metrics = record["per_layer"]
        units = tracing.per_layer_metric_units()
    else:
        metrics = {
            "pass_s": statistics.median(record["pass_s"]),
            "setup_s": statistics.median(record["setup_samples_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        units = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def summary(args, record, result):
    lines = [
        "pathgeo benchmark: workload %s, seed %d, trace %d%s"
        % (args.workload, args.seed, args.trace, " (smoke)" if args.smoke else ""),
        "machine: nproc %s, cpu %s, python %s, numpy %s, commit %s"
        % (os.cpu_count(), cpu_model(), record["python"], record["numpy"], git_commit()),
        "untraced passes (s): %s" % " ".join("%.3f" % t for t in record["pass_s"]),
        "set-up samples (s): %s" % " ".join("%.3f" % t for t in record["setup_samples_s"]),
        "error_rate: %.6g ratio (%d failed of %d operations)"
        % (record["failed"] / max(1, record["attempted"]), record["failed"], record["attempted"]),
    ]
    for failure in record["failures"]:
        lines.append("  failed %s" % failure)
    for name, m in result["metrics"].items():
        lines.append("%s: %.6g %s" % (name, m["value"], m["unit"]))
    if args.trace:
        lines.append("traced passes (s): %s" % " ".join("%.3f" % t for t in record["traced_pass_s"]))
        lines.append("spans written to %s" % record["spans_file"])
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "pathgeo", "__init__.py")):
        print("error: run from the root of a pathgeo checkout (src/pathgeo not found)", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        record = measure(args)
    except (RuntimeError, TimeoutError, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    result = result_line(args, record)
    print(summary(args, record, result), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
