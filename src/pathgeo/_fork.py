"""The package's child processes: the check workers of ``checks._results``
and the export helper of ``serialize._text``, forked by ``_forked``. Each
child runs ``_serve``: it runs the jobs it claims first (``_claim``) and
sends each result through its pipe (``_send``, read by ``_message``).
``fcntl``, ``select`` and ``signal`` are imported where they are used, so
``import pathgeo`` loads none of them.
"""

import contextlib
import os

# bytes of the length before each message (``_send``), and of the last item
# taken in a claims file (``_claim``)
_LENGTH = 8
# each child's pipe (``_forked``) holds about four N = 4096 slabs of JSON, so
# the export helper formats on while the exporting process has yet to read
# them; with the default 64 KB it waits for each read, and an N = 4096 JSON
# export took 1.2 times as long (2 vCPUs)
_PIPE_BYTES = 1 << 20


@contextlib.contextmanager
def _forked(count, work):
    """Fork ``count`` children that share one claims file (``_claim``), and
    yield ``(claims, read ends)``: the file, and the read end of each
    child's pipe, in order. The one place the package starts processes.

    Each child closes every read end it inherited, so it gets EPIPE rather
    than blocking on a full pipe if this process is gone; it then runs
    ``work(claims, out)``, with ``out`` the binary write end of its pipe,
    and leaves by ``os._exit``, with status 1 if ``work`` raised: no buffer
    it inherited is flushed twice and no cleanup of this process runs. Every
    child is killed and reaped, and the ends and the claims file closed,
    on every way out: the end of the block, an error or an interrupt in it,
    and a fork that fails after some children have started.
    """
    import fcntl
    import signal

    claims, ends, pids = os.memfd_create("pathgeo-claims"), [], []
    try:
        for _ in range(count):
            r, w = os.pipe()
            ends.append(r)
            with contextlib.suppress(OSError):  # where the limit allows: messages in flight
                fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            try:
                pid = os.fork()
                if not pid:
                    status = 1
                    try:
                        for fd in ends:
                            os.close(fd)
                        with os.fdopen(w, "wb") as out:
                            work(claims, out)
                        status = 0
                    finally:
                        os._exit(status)
                pids.append(pid)
            finally:
                os.close(w)
        yield claims, ends
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for fd in ends + [claims]:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(jobs, encode, claims, out):
    """The loop of a child of ``_forked``: runs each job (a callable) of
    ``jobs`` that it claims first, and sends ``encode`` of its result
    through the binary file ``out``."""
    for k, job in enumerate(jobs, 1):
        if _claim(claims, k):
            _send(out, encode(job()))


def _claim(claims, k):
    """True if this process takes item k: the first of the processes that
    share the claims file to ask for it. Each process asks for the items
    1, 2, ... in order (the slabs of an export from the fork, or the tasks
    of ``checks.run_checks``), so each item goes to exactly one of them.
    The claims file holds the last item taken; ``lockf`` makes the test and
    the update one step, and the kernel lifts the lock of a process that
    dies."""
    os.lockf(claims, os.F_LOCK, 0)
    try:
        taken = int.from_bytes(os.pread(claims, _LENGTH, 0), "little") < k
        if taken:
            os.pwrite(claims, k.to_bytes(_LENGTH, "little"), 0)
    finally:
        os.lockf(claims, os.F_ULOCK, 0)
    return taken


def _poll(ends):
    """A ``select.poll`` object with each read end of ``ends`` registered."""
    import select

    sent = select.poll()
    for r in ends:
        sent.register(r, select.POLLIN)
    return sent


def _send(out, data):
    """Write the bytes ``data`` to the binary file ``out`` after their
    length, and flush them: one message of ``_message``."""
    out.write(len(data).to_bytes(_LENGTH, "little"))
    out.write(data)
    out.flush()


def _message(fd):
    """The bytes of the next message ``_send`` wrote to the pipe ``fd``;
    EOFError if every writer closes the pipe before it is whole, or before
    it begins."""
    return _read(fd, int.from_bytes(_read(fd, _LENGTH), "little"))


def _read(fd, n):
    """Exactly ``n`` bytes from the pipe ``fd``; EOFError if every writer
    closes it first."""
    data = bytearray(n)
    view, got = memoryview(data), 0
    while got < n:
        more = os.readv(fd, [view[got:]])
        if not more:
            raise EOFError
        got += more
    return data
