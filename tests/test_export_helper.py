"""The export helper of ``serialize._text``: a process forked once per
export of a worldsheet array of more than one block, which formats the
slabs it claims before this process does. It must not outlive its export,
whether the export succeeds, fails, is closed early or loses the helper;
an export must read the same with it as without it; and the process with
the freer CPU must take more slabs."""

import os
import signal
import time

import numpy as np
import pytest
from conftest import no_children

from pathgeo import category as cat
from pathgeo import checks, cli
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo import serialize as ser
from pathgeo.manifold import DomainError


@pytest.fixture(scope="module")
def clean_sheet():
    """The S = 64 sheet of a latitude circle at N = 256: five blocks of
    fibers per rank-3 array."""
    circle = pth.make_latitude_circle(mf.ManifoldSpec.sphere(1.0), 1.0, n=256)
    return ps.pathspace_geodesic(circle, pth.make_normal_field(circle, 0.5), (0.0, 1.0), 64)


@pytest.fixture
def sheet(clean_sheet):
    """A sheet over copies of the arrays of ``clean_sheet``, for a test that
    spoils it."""
    return ps.Worldsheet(clean_sheet.manifold, clean_sheet.s_nodes, clean_sheet.points.copy(),
                         clean_sheet.velocities.copy(), clean_sheet.collar)


def test_a_child_left_running_is_seen():
    # the check of the autouse fixture ``no_child_left`` of conftest.py
    pid = os.fork()
    if pid == 0:
        try:
            time.sleep(60)
        finally:
            os._exit(0)
    try:
        assert not no_children()
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert no_children()


def _timeout(signum, frame):
    raise TimeoutError("the export did not return")


@pytest.fixture
def alarm():
    """Fails a test whose export hangs, by SIGALRM after 60 s."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def one_cpu(monkeypatch):
    """A function that makes this process look, from then on, as if it may
    run on one CPU only."""
    def apply():
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    return apply


two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="a helper needs a second CPU")

EXPORTS = {
    "json": lambda sheet: ser.json_pieces(sheet.to_json()),
    "csv": ser.sheet_csv_pieces,
    "obj": ser.sheet_obj_pieces,
}


@two_cpus
@pytest.mark.parametrize("fmt", sorted(EXPORTS))
def test_a_wide_export_forks_one_helper_and_reaps_it(clean_sheet, helpers, one_cpu, fmt):
    text = "".join(EXPORTS[fmt](clean_sheet))
    assert len(helpers) == 1
    assert no_children()
    one_cpu()
    assert "".join(EXPORTS[fmt](clean_sheet)) == text
    assert len(helpers) == 1


@pytest.fixture(scope="module")
def report():
    return checks.run_checks("category", seed=1, cases=2)  # its own pool, before ``helpers`` counts forks


def test_reports_and_records_start_no_helper(report, clean_sheet, helpers):
    m1, m2, _ = checks._composable_triple(mf.ManifoldSpec.sphere(1.0), np.random.default_rng(5), n=16)
    records = [
        report,
        m1.path.to_json(),
        m1.field.to_json(),
        m1.to_json(),
        cat.morphism2(m2, (0.0, 1.0), S=64).to_json(),
    ]
    for record in records:
        ser.dumps(record)
    ser.path_to_csv(clean_sheet.slice_path(3))
    assert helpers == []


def logged_rows(monkeypatch, log, paused):
    """Makes every ``_float_rows`` call append its process id to ``log``,
    after a pause of 20 ms in a process for which ``paused(pid)`` holds;
    returns the reader of that log."""
    rows = ser._float_rows

    def logged(a, *args):
        if paused(os.getpid()):
            time.sleep(0.02)
        with open(log, "a") as fh:
            fh.write("%d\n" % os.getpid())
        return rows(a, *args)

    monkeypatch.setattr(ser, "_float_rows", logged)
    return lambda: [int(line) for line in log.read_text().split()]


@two_cpus
@pytest.mark.parametrize("slow", ["parent", "helper"])
def test_the_process_with_the_freer_cpu_formats_more_slabs(clean_sheet, monkeypatch, tmp_path, helpers, slow):
    # each slab goes to the process that claims it first: a process slowed
    # down (by a busy CPU, here by a pause) leaves most slabs to the other
    text = ser.sheet_to_csv(clean_sheet)
    monkeypatch.setattr(ps, "_BLOCK_NODES", 257)  # 65 blocks of one fiber of 257 rows, a slab each
    parent = os.getpid()
    calls = logged_rows(monkeypatch, tmp_path / "slabs", lambda pid: (pid == parent) == (slow == "parent"))
    assert ser.sheet_to_csv(clean_sheet) == text
    pids = calls()
    assert len(pids) == 65 and set(pids) == {parent, helpers[-1]}
    slowed = pids.count(parent) if slow == "parent" else len(pids) - pids.count(parent)
    assert slowed < 65 / 3


@two_cpus
def test_a_dead_helper_raises_instead_of_hanging(clean_sheet, tmp_path, monkeypatch, helpers, alarm):
    parent, rows = os.getpid(), ser._float_rows

    def dies(a, *args):
        if os.getpid() != parent:
            os._exit(3)  # the helper's first slab
        time.sleep(0.02)  # so the helper claims a slab
        return rows(a, *args)

    monkeypatch.setattr(ser, "_float_rows", dies)
    with pytest.raises(ChildProcessError, match="export helper exited"):
        cli._write(str(tmp_path), "worldsheet.json", ser.json_pieces(clean_sheet.to_json()))
    assert len(helpers) == 1
    assert os.listdir(tmp_path) == []
    assert no_children()


@pytest.mark.parametrize("fmt, array", [("json", "velocities")])
def test_a_nan_in_a_late_block_raises_the_in_process_error(sheet, helpers, one_cpu, alarm, monkeypatch, tmp_path,
                                                           fmt, array):
    # an export checks each array whole before its first slab, and the JSON
    # velocities come after the points, so the helper is at work. The
    # helper is slowed down, so this process has drawn past slabs the
    # helper has yet to send when the stream fails: they come first
    values = getattr(sheet, array)
    values.flags.writeable = True  # a sheet is read-only; this one is spoilt on purpose
    values[-1, 5, 0] = np.nan
    parent = os.getpid()
    logged_rows(monkeypatch, tmp_path / "slabs", lambda pid: pid != parent)

    def failed_export():
        pieces = []
        with pytest.raises(DomainError) as err:
            pieces.extend(EXPORTS[fmt](sheet))
        return "".join(pieces), str(err.value)

    text, message = failed_export()
    assert message == "cannot serialize NaN"
    assert len(text) > 1_000_000
    assert len(helpers) == (len(os.sched_getaffinity(0)) > 1)
    assert no_children()
    one_cpu()
    assert failed_export() == (text, message)


@pytest.mark.parametrize("fmt", ["csv", "obj"])
def test_a_nan_fails_a_csv_or_obj_export_before_its_first_piece(sheet, helpers, fmt):
    # the points are checked whole when the export is called: no piece is
    # drawn and no helper forks, though the sheet is five blocks wide
    sheet.points.flags.writeable = True  # a sheet is read-only; this one is spoilt on purpose
    sheet.points[-1, 5, 0] = np.nan
    pieces = []
    with pytest.raises(DomainError, match="^cannot serialize NaN$"):
        pieces.extend(EXPORTS[fmt](sheet))
    assert pieces == []
    assert helpers == []


def test_closing_an_export_early_reaps_its_helper(clean_sheet, helpers):
    pieces = ser.json_pieces(clean_sheet.to_json())
    head = [next(pieces) for _ in range(40)]  # into the points, past the fork
    assert sum(piece.count("[") for piece in head) > 1000
    assert len(helpers) == (len(os.sched_getaffinity(0)) > 1)
    pieces.close()
    assert no_children()


def test_a_failed_write_reaps_the_helper(clean_sheet, helpers):
    class Full:
        def write(self, piece):
            if piece.count("[") > 100:  # a slab of the points
                raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space"):
        ser.dump(clean_sheet.to_json(), Full())
    assert len(helpers) == (len(os.sched_getaffinity(0)) > 1)
    assert no_children()


def test_a_failed_fork_formats_in_this_process(clean_sheet, monkeypatch):
    text = ser.sheet_to_csv(clean_sheet)

    def no_fork():
        raise BlockingIOError("no process can be started")

    monkeypatch.setattr(os, "fork", no_fork)
    assert ser.sheet_to_csv(clean_sheet) == text
    assert no_children()


def test_write_closes_its_pieces_in_a_finally(tmp_path):
    closed = []

    def pieces():
        try:
            yield "a line\n"
            yield 7  # not text: the write fails
            yield "never drawn\n"
        finally:
            closed.append(True)

    # the traceback kept in ``failed`` holds the frame of ``_write``, and so
    # its pieces: only an explicit close has closed them by now
    with pytest.raises(TypeError) as failed:
        cli._write(str(tmp_path), "export.txt", pieces())
    assert closed == [True]
    assert failed.traceback[-1].name == "_write"
    assert os.listdir(tmp_path) == []
