import os

import pytest


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
