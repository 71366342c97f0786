"""Refactor gate: the deterministic reports of ``pathgeo check --suite all``
at seeds 42, 1, 3, 7 and 1234, the exports of one fixed worldsheet at two
sizes and the records of three fixed composites must not change. A change
that alters them on purpose updates the digests below and says why.

A report or composite digest that does not match prints the numpy version
and the SIMD target of each float64 loop the kernels use (``dispatch``): a
host whose numpy dispatches to another target can round those loops
differently, and so write other bits."""

import hashlib
import os
import re
import sys

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from pathgeo import category as cat
from pathgeo import checks
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo import serialize as ser

REPORT_SHA256 = "f83523849be274c1cf47da60281c82aa2a488cfbff70254badfd239a9b1a3e46"
# the same report at four more seeds
OTHER_SEED_SHA256 = {
    1: "482e6a24f1799918fb930941366bf1dc28e7eac03bedc246c032ddb59b94f483",
    3: "dcf33abe9de7f6a9b95fbe0acf014d8730dbbc7ffb8e1dfa0d12ce291488411c",
    7: "5f56c2933bd9cd139f3180d96b1252e43431192dbdb3a71cdd8c1db8752e6e2f",
    1234: "246d7ab846ddeb817dc880f0b0caa2cca87a7f8aac4714d75278b1fd54c732d5",
}

# sphere latitude circle at colatitude 1, N = 64 (default collar), swept
# for s in [0, 1] with S = 8 by its normal field scaled by 0.5
EXPORT_SHA256 = {
    "sheet_json": "c9f71f8b116bf5d13eda5b9ec99e73559578a62d20651e6b58c788a91a464780",
    "sheet_csv": "caabd04c85e638d72894a861870fab20acc1ade54fd93b9e9c41c8f6d66eaf64",
    "sheet_obj": "ff447ba26ab885bcea133592bdee228054f96d65b0982b1812550be13a764f45",
    "path_csv": "1e2e9f14203fa7706f281580cf018d311a90808f1d0915d3066f32c8988967f8",
}

# the same circle and field at N = 4096, swept with S = 64: 798,915 floats
# per rank-3 array
LARGE_EXPORT_SHA256 = {
    "sheet_json": "63c51ac4b9eed98ff4f3371d5930ab81d6231f5187c6aa79c87917ace21ef6dc",
    "sheet_csv": "047e6e4c6b62c2714aefe10103b0025c04fc5edf781fcbd805d46539312ff621",
    "sheet_obj": "8f63c1564f6e5c6a9d234ce5018f48275654638698b4520be140f4c38275a552",
}

# composites of the sphere triple checks._composable_triple(rng seed 2718,
# n = 16): m1 over [0, 1/2] then [1/2, 1] with S = 4 (vertical), m1 beside
# m2 over [0, 1] with S = 4 (horizontal), and m2 after m1; a 2-morphism
# record holds its seed and s-nodes
COMPOSITE_SHA256 = {
    "vertical": "0c0f47edd59a32aec67b1dd0f7a118b7f33a4b38e8c246a6aea7d62ce83492b5",
    "horizontal": "f0bf42c3ab48299c6decd67abb5594bf9f008eba83621658bc686ac63941534f",
    "morphism1": "ab6a1f9dbfb80407fc1c98816d015e0907b8e913cdf1f9da4b103f0f68de7f29",
}


# the ufuncs whose float64 loops the manifold kernels and the check report use
KERNEL_UFUNCS = ("arcsinh", "arccosh", "sinh", "cosh", "arctan2", "arctan", "exp", "log", "power")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def dispatch():
    """The numpy version and the current SIMD target of each float64 loop of
    KERNEL_UFUNCS on this host, as one line."""
    info = opt_func_info(func_name="^(%s)$" % "|".join(KERNEL_UFUNCS), signature="float64")
    targets = ", ".join(
        "%s %s" % (name, "/".join(loop["current"] for loop in info[name].values()) if name in info else "baseline")
        for name in KERNEL_UFUNCS
    )
    return "numpy %s; float64 loops dispatch to: %s" % (np.__version__, targets)


def assert_digest(text, want):
    """``text`` hashes to ``want``; else the failure names this host's dispatch."""
    got = sha256(text)
    assert got == want, "digest %s, pinned %s (%s)" % (got, want, dispatch())


def test_seed_42_report_is_byte_identical(check_workers):
    assert_digest(ser.dumps(checks.run_checks("all", seed=42)), REPORT_SHA256)
    assert len(check_workers) == min(len(os.sched_getaffinity(0)), 56)  # one worker per CPU


@pytest.mark.parametrize("seed", sorted(OTHER_SEED_SHA256))
def test_other_seed_reports_are_byte_identical(seed):
    assert_digest(ser.dumps(checks.run_checks("all", seed=seed)), OTHER_SEED_SHA256[seed])


def test_one_worker_report_is_byte_identical(monkeypatch, check_workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_digest(ser.dumps(checks.run_checks("all", seed=1)), OTHER_SEED_SHA256[1])
    assert len(check_workers) == 1


def test_a_digest_mismatch_names_the_numpy_version_and_every_kernel_loop():
    with pytest.raises(AssertionError) as err:
        assert_digest("not a report", REPORT_SHA256)
    message = str(err.value)
    assert ("numpy %s;" % np.__version__) in message
    for name in KERNEL_UFUNCS:
        assert re.search(r"[:,] %s \S" % name, message), name


def fixed_sheet(n, S):
    circle = pth.make_latitude_circle(mf.ManifoldSpec.sphere(1.0), 1.0, n=n)
    return circle, ps.pathspace_geodesic(circle, pth.make_normal_field(circle, 0.5), (0.0, 1.0), S)


SHEET_WRITERS = {
    "sheet_json": lambda sheet: ser.dumps(sheet.to_json()),
    "sheet_csv": ser.sheet_to_csv,
    "sheet_obj": ser.sheet_to_obj,
}


def sheet_exports(sheet):
    return {name: write(sheet) for name, write in SHEET_WRITERS.items()}


@pytest.fixture(scope="module")
def exports():
    circle, sheet = fixed_sheet(64, 8)
    return dict(sheet_exports(sheet), path_csv=ser.path_to_csv(circle))


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_fixed_sheet_exports_are_byte_identical(exports, name):
    assert sha256(exports[name]) == EXPORT_SHA256[name]


def callers(frame):
    """The code of ``frame`` and of every frame below it on the stack."""
    while frame:
        yield frame.f_code
        frame = frame.f_back


@pytest.fixture
def check_workers(monkeypatch):
    """The process ids of the check workers forked while it is active: the
    children ``serialize._forked`` starts under ``checks._results``; an
    export helper is not one."""
    started = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid and checks._results.__code__ in callers(sys._getframe(1)):
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return started


@pytest.fixture(scope="module")
def large_sheet():
    return fixed_sheet(4096, 64)[1]


def test_large_sheet_exports_are_byte_identical(large_sheet, check_workers, helpers):
    # 65 blocks of one fiber: each export forks exactly one helper, which
    # formats the blocks it claims first
    for name, write in SHEET_WRITERS.items():
        started = len(helpers)
        assert sha256(write(large_sheet)) == LARGE_EXPORT_SHA256[name]
        assert len(helpers) == started + min(len(os.sched_getaffinity(0)) - 1, 1), name
    assert check_workers == []


def test_one_cpu_large_sheet_exports_are_byte_identical(large_sheet, monkeypatch, helpers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    digests = {name: sha256(text) for name, text in sheet_exports(large_sheet).items()}
    assert digests == LARGE_EXPORT_SHA256
    assert helpers == []  # on one CPU every slab is formatted in this process


def test_small_exports_start_no_pool(check_workers, helpers):
    circle, sheet = fixed_sheet(64, 8)
    exports = dict(sheet_exports(sheet), path_csv=ser.path_to_csv(circle))
    assert {name: sha256(text) for name, text in exports.items()} == EXPORT_SHA256
    assert check_workers == []
    assert helpers == []  # a sheet of one block of fibers starts no helper


@pytest.fixture(scope="module")
def composites():
    m1, m2, _ = checks._composable_triple(mf.ManifoldSpec.sphere(1.0), np.random.default_rng(2718), n=16)
    F, G = cat.morphism2(m1, (0.0, 0.5), S=4), cat.morphism2(m1, (0.5, 1.0), S=4)
    H1, H2 = cat.morphism2(m1, (0.0, 1.0), S=4), cat.morphism2(m2, (0.0, 1.0), S=4)
    return {
        "vertical": ser.dumps(ser.morphism2_to_json(cat.compose2_vertical(G, F))),
        "horizontal": ser.dumps(ser.morphism2_to_json(cat.compose2_horizontal(H1, H2))),
        "morphism1": ser.dumps(ser.morphism1_to_json(cat.compose1(m2, m1))),
    }


@pytest.mark.parametrize("name", sorted(COMPOSITE_SHA256))
def test_composite_records_are_byte_identical(composites, name):
    assert_digest(composites[name], COMPOSITE_SHA256[name])
