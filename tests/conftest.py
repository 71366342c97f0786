import os

import pytest


@pytest.fixture
def helpers(monkeypatch):
    """The process ids of the children forked with ``os.fork`` while it is
    active: the export helpers of ``serialize``."""
    started = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return started
