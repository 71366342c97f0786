"""The property runner: its worker pool and the arguments it takes."""

import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from pathgeo import checks
from pathgeo import manifold as mf


def _dies(spec, rng, cases):
    os._exit(3)


def _timeout(signum, frame):
    raise TimeoutError("run_checks did not return")


def test_a_dead_worker_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(checks, "PROPERTY_TABLES", {"manifold": (0, 1, False, [("dies", _dies, 1e-9)])})
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            checks.run_checks("manifold")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True, "7"])
def test_a_bad_seed_is_rejected(seed):
    with pytest.raises(mf.DomainError, match="seed must be an integer"):
        checks.run_checks("category", seed=seed)


@pytest.mark.parametrize("cases", [0, -2, 2.0, None])
def test_bad_cases_are_rejected(cases):
    with pytest.raises(mf.DomainError, match="cases must be an integer"):
        checks.run_checks("category", cases=cases)
