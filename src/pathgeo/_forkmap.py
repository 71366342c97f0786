"""One ordered map over forked worker processes, shared by the property
runner (``checks.run_checks``) and the export of large sheet arrays
(``serialize``).

A worker is started with ``fork``, so it already holds everything the
parent held when the pool started: ``fork_map`` sends it a task index, not
the task's data, and gets back only the task's result.
"""

from __future__ import annotations

import collections
import itertools
import os

# the ``fn`` of each running fork_map call, found by the forked workers
_CALLS = {}
_TOKENS = itertools.count()
# Tasks in flight per worker, counted from the oldest result not yet
# yielded. A slow task at the head of the order stalls the window, so a
# small one idles workers: on 2 vCPU, ``pathgeo check --suite all`` (56
# properties of 5-76 ms) took 0.62 s with 2 per worker, 0.52 s with 3 or 4
# and 0.54 s with no bound; a worldsheet export's slabs take equal time,
# and 4 slabs per worker hold about 2.4 MB of text at N = 4096.
_PER_WORKER = 4


def _call(token, i):
    return _CALLS[token](i)


def fork_map(fn, n):
    """Yield ``fn(0)``, ..., ``fn(n - 1)`` in order, each computed in a
    worker process; ``n`` >= 1.

    One worker per CPU this process may run on, at most ``n``; at most
    ``_PER_WORKER`` tasks per worker are in flight, so a slow consumer
    holds only a fixed window of results. An exception ``fn`` raises is
    raised here, at its place in the order; a worker that dies raises
    ``BrokenProcessPool``. A consumer that stops early (closes the
    generator) cancels the tasks not yet started.
    """
    # imported here, not at module level: ``import pathgeo`` would pay for
    # the executor machinery (about 25 ms) in every command. ``fork`` starts
    # each worker from this process's memory, where ``spawn`` would import
    # numpy and pathgeo again in every worker.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(os.sched_getaffinity(0)), n)
    token = next(_TOKENS)
    _CALLS[token] = fn
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            pending = collections.deque()
            try:
                for i in range(n):
                    if len(pending) == _PER_WORKER * workers:
                        yield pending.popleft().result()
                    pending.append(pool.submit(_call, token, i))
                while pending:
                    yield pending.popleft().result()
            finally:
                for future in pending:
                    future.cancel()
    finally:
        del _CALLS[token]
