import os

import pytest


def no_children():
    """True if this process has no child, running or unreaped (a zombie
    found here is reaped)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails every test that leaves a child process, running or unreaped:
    an export helper or a check worker ends with the call that forked it."""
    yield
    if not no_children():
        pytest.fail("the test left a child process, running or unreaped")


@pytest.fixture
def helpers(monkeypatch):
    """The process ids of the children forked with ``os.fork`` (by
    ``_fork._forked``) while it is active: the export helpers of
    ``serialize._text``, and the check workers of ``checks._results`` in a
    test that runs checks."""
    started = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return started
