"""The ordered fork map that the property runner and large exports share."""

import os
import time

import pytest

from pathgeo import _forkmap
from pathgeo.manifold import DomainError


def test_results_come_back_in_order_from_worker_processes():
    parent = os.getpid()
    results = list(_forkmap.fork_map(lambda i: (i * i, os.getpid()), 50))
    assert [r for r, _ in results] == [i * i for i in range(50)]
    assert parent not in {pid for _, pid in results}
    assert _forkmap._CALLS == {}


def test_an_error_is_raised_at_its_place_in_the_order():
    def fn(i):
        if i == 7:
            raise DomainError("task 7 failed")
        return i

    got = []
    with pytest.raises(DomainError, match="task 7 failed"):
        got.extend(_forkmap.fork_map(fn, 20))
    assert got == list(range(7))
    assert _forkmap._CALLS == {}


def test_a_consumer_that_stops_early_cancels_the_tasks_not_started():
    # 200 tasks of 0.1 s each would take 10 s on two workers
    start = time.perf_counter()
    results = _forkmap.fork_map(lambda i: time.sleep(0.1) or i, 200)
    assert [next(results), next(results)] == [0, 1]
    results.close()
    assert time.perf_counter() - start < 3.0
    assert _forkmap._CALLS == {}
