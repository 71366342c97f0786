"""The property runner: its forked workers and the arguments it takes."""

import contextlib
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from pathgeo import checks, cli
from pathgeo import manifold as mf
from pathgeo import serialize as ser

SRC = Path(__file__).resolve().parents[1] / "src"


def _dies(spec, rng, cases):
    os._exit(3)


def _passes(spec, rng, cases):
    return 0.0


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


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True, "7"])
def test_a_bad_seed_is_rejected(seed):
    with pytest.raises(mf.DomainError, match="seed must be an integer"):
        checks.run_checks("category", seed=seed)


@pytest.mark.parametrize("cases", [0, -2, 2.0, None])
def test_bad_cases_are_rejected(cases):
    with pytest.raises(mf.DomainError, match="cases must be an integer"):
        checks.run_checks("category", cases=cases)
