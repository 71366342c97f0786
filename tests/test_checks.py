"""The property runner: its fold of the values a property yields, its forked
workers and the arguments it takes."""

import contextlib
import inspect
import math
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pathgeo import backtrack as bt
from pathgeo import category as cat
from pathgeo import checks, cli
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo import serialize as ser

SRC = Path(__file__).resolve().parents[1] / "src"


def _dies(spec, rng, cases):
    os._exit(3)


def _passes(spec, rng, cases):
    yield 0.0


def _sleeps(spec, rng, cases):
    time.sleep(60)
    return 0.0


def _timeout(signum, frame):
    raise TimeoutError("run_checks did not return")


@pytest.fixture
def alarm():
    """Fails a test whose run hangs, by SIGALRM after 60 s."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def no_children():
    """True if this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_a_dead_worker_raises_instead_of_hanging(monkeypatch, alarm):
    monkeypatch.setattr(checks, "PROPERTY_TABLES", {"manifold": (0, 1, False, [("dies", _dies, 1e-9)])})
    with pytest.raises(ChildProcessError, match="the result of dies/euclidean$"):
        checks.run_checks("manifold")
    assert no_children()


def test_a_dead_worker_is_a_cli_error(monkeypatch, alarm, capsys):
    # ChildProcessError is an OSError: one error line and exit code 1
    monkeypatch.setattr(checks, "PROPERTY_TABLES", {"manifold": (0, 1, False, [("dies", _dies, 1e-9)])})
    assert cli.main(["check", "--suite", "manifold"]) == 1
    assert capsys.readouterr().err == "error: a check worker exited before it sent the result of dies/euclidean\n"
    assert no_children()


def test_an_interrupted_run_kills_and_reaps_its_workers(monkeypatch, alarm):
    # the first result interrupts this process while the other worker
    # sleeps in its property: without the kill, the reap would wait 60 s
    table = [("passes", _passes, 1e-9), ("sleeps", _sleeps, 1e-9)]
    monkeypatch.setattr(checks, "PROPERTY_TABLES", {"manifold": (0, 1, False, table)})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def interrupted(fd):
        raise KeyboardInterrupt

    monkeypatch.setattr(ser, "_message", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        checks.run_checks("manifold")
    assert time.monotonic() - started < 30
    assert no_children()


def test_a_fork_that_fails_while_the_workers_start_is_a_cli_error(monkeypatch, alarm, capsys):
    # the second fork fails while the first worker sleeps in its first
    # property: one error line, and without the kill the reap would wait 60 s
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(checks, "_run_property", lambda *task: _sleeps(None, None, None))
    fork, forks = os.fork, []

    def second_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    started = time.monotonic()
    assert cli.main(["check", "--suite", "all"]) == 1
    assert capsys.readouterr().err == "error: [Errno 11] Resource temporarily unavailable\n"
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    assert no_children()


def _open_files(claims, out):
    """Sends the (target, access mode) of every file this process holds
    open: ``pipe:[inode]`` for either end of a pipe."""
    held = []
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):  # the listing's own descriptor is gone
            info = Path("/proc/self/fdinfo", fd).read_text().split()
            held.append((os.readlink("/proc/self/fd/" + fd), int(info[info.index("flags:") + 1], 8) & os.O_ACCMODE))
    ser._send(out, pickle.dumps(held))


def test_each_child_closes_the_read_ends_it_inherited(alarm):
    # so a child whose parent is gone gets EPIPE instead of blocking on a
    # full pipe; each keeps the write end of its own pipe
    with ser._forked(3, _open_files) as (claims, ends):
        pipes = [os.readlink("/proc/self/fd/%d" % r) for r in ends]
        held = [set(pickle.loads(ser._message(r))) for r in ends]
    for pipe, files in zip(pipes, held):
        assert (pipe, os.O_WRONLY) in files
        assert not files & {(p, os.O_RDONLY) for p in pipes}
    assert no_children()


def test_a_check_run_leaves_no_pool_thread_or_child():
    # the parent forks its workers itself: it loads no executor machinery,
    # starts no thread, and reaps every worker
    probe = textwrap.dedent("""
        import os, sys, threading
        from pathgeo import checks, cli
        assert checks.run_checks("all", cases=2)["passed"]
        print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
        print(threading.active_count())
        try:
            os.waitpid(-1, os.WNOHANG)
            print("child left")
        except ChildProcessError:
            print("no child")
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == ["[]", "1", "no child", ""]


def test_every_property_is_a_generator():
    props = [prop for _, _, _, table in checks.PROPERTY_TABLES.values() for _, prop, _ in table]
    assert len(props) == 14
    for prop in props + [checks._prop_config_field]:
        assert inspect.isgeneratorfunction(prop), prop.__name__


def test_a_nan_is_the_worst_value_and_fails():
    result = checks._run_property("p", lambda: iter([0.1, math.nan, 0.2]), 1e-9, 3)
    assert math.isnan(result.worst) and not result.passed
    assert result.to_json() == {"name": "p", "passed": False, "worst": None, "tolerance": 1e-9, "cases": 3}


def test_the_worst_value_is_the_largest_and_never_below_zero():
    assert checks._run_property("p", lambda: iter([0.5, -1.0, 2.0, 1.0]), 3.0, 4).to_json()["worst"] == 2.0
    result = checks._run_property("p", lambda: iter([-1.0]), 0.0, 1)
    assert result.worst == 0.0 and result.passed


def test_an_infinite_value_ends_the_property():
    def fails_then_raises():
        yield math.inf
        raise AssertionError("resumed after an infinite value")

    result = checks._run_property("p", fails_then_raises, 1e-9, 1)
    assert result.worst == math.inf and not result.passed and result.detail == ""


def test_an_exception_is_an_infinite_worst_with_its_message():
    def raises():
        yield 0.0
        raise mf.DomainError("no such case")

    result = checks._run_property("p", raises, 1e-9, 1)
    assert result.worst == math.inf and not result.passed
    assert result.to_json() == {"name": "p", "passed": False, "worst": None, "tolerance": 1e-9, "cases": 1,
                                "detail": "no such case"}


def _answers(*values):
    """A stub that returns the given values, one a call."""
    it = iter(values)
    return lambda *args, **kwargs: next(it)


def _refuses(*args, **kwargs):
    raise mf.DomainError("refused")


def _case(prop):
    return lambda: prop(mf.ManifoldSpec.euclidean(2), np.random.default_rng(0), 1)


# fault -> (property, module, kernel the property calls, stub of that kernel)
STRUCTURAL_FAULTS = {
    "detect_erase-windows": (_case(checks._prop_detect_erase), bt, "detect_backtracks", lambda: _answers([])),
    "detect_erase-equivalence": (_case(checks._prop_detect_erase), bt, "bt_equivalent", lambda: _answers(False)),
    "exp_preserves_windows": (_case(checks._prop_exp_preserves_windows), bt, "detect_backtracks", lambda: _answers([])),
    "field_reflection": (_case(checks._prop_field_reflection), bt, "field_canonical_form", lambda: _refuses),
    "config_field_reflection": (
        lambda: checks._prop_config_field(SimpleNamespace(build_field=lambda name: None), "f"),
        bt, "field_canonical_form", lambda: _refuses,
    ),
    "cat1-left-identity": (_case(checks._prop_cat1_laws), cat, "morphism1_equal", lambda: _answers(False)),
    "cat1-right-identity": (_case(checks._prop_cat1_laws), cat, "morphism1_equal", lambda: _answers(True, False)),
    "cat2-horizontal-source": (_case(checks._prop_cat2_laws), cat, "morphism1_equal", lambda: _answers(False)),
    "cat2-exchange": (_case(checks._prop_cat2_laws), cat, "check_exchange",
                      lambda: _answers(SimpleNamespace(error="no exchange"))),
}


@pytest.mark.parametrize("fault", sorted(STRUCTURAL_FAULTS))
def test_a_failed_structural_check_ends_its_property_as_inf(monkeypatch, fault):
    # not resumed: field_reflection would go on to read an unset result
    prop, module, kernel, stub = STRUCTURAL_FAULTS[fault]
    monkeypatch.setattr(module, kernel, stub())
    result = checks._run_property(fault, prop, 1e-9, 1)
    assert (result.worst, result.detail) == (math.inf, "")


def test_a_config_field_that_reflects_passes():
    field = pth.make_zero_field(pth.make_line(mf.ManifoldSpec.euclidean(2), [0, 0], [1, 0], n=8))
    config = SimpleNamespace(build_field=lambda name: field)
    result = checks._run_property("f", lambda: checks._prop_config_field(config, "f"), 1e-9, 1)
    assert result.passed and result.worst == 0.0


def test_a_nan_residual_fails_its_property(monkeypatch, alarm):
    monkeypatch.setattr(ps, "transverse_residual", lambda sheet: math.nan)
    report = checks.run_checks("pathspace", seed=42)
    residuals = [p for p in report["properties"] if p["name"].startswith("geodesic_residual/")]
    assert len(residuals) == 4 and not report["passed"]
    for p in residuals:
        assert p["passed"] is False and p["worst"] is None


def test_an_unknown_suite_is_rejected():
    with pytest.raises(mf.DomainError, match=r"^unknown suite 'geometry' \(choose from manifold, pathspace, backtrack, category, all\)$"):
        checks.run_checks("geometry")


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True, "7"])
def test_a_bad_seed_is_rejected(seed):
    with pytest.raises(mf.DomainError, match="seed must be an integer"):
        checks.run_checks("category", seed=seed)


@pytest.mark.parametrize("cases", [0, -2, 2.0, None])
def test_bad_cases_are_rejected(cases):
    with pytest.raises(mf.DomainError, match="cases must be an integer"):
        checks.run_checks("category", cases=cases)
