"""Refactor gate: the deterministic reports of ``pathgeo check --suite all``
at seeds 42, 1, 3, 7 and 1234, the exports of one fixed worldsheet at two
sizes and the records of three fixed composites must not change. A change
that alters them on purpose updates the digests below and says why.

A report or composite digest that does not match prints the numpy version
and the SIMD target of each float64 loop the kernels use (``dispatch``): a
host whose numpy dispatches to another target can round those loops
differently, and so write other bits. So the reports and composites are
pinned twice: for a host whose kernel loops run AVX-512, and for one whose
loops run none (``avx512``); each host is held to the one set of its
dispatch, and an AVX-512 host checks the second set in a process with
AVX-512 disabled too."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from pathgeo import category as cat
from pathgeo import checks
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo import serialize as ser

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT_SHA256 = "1aa76014f86b7cc9223862e2ff1d2ee4308b6c1f989b91fd87b872c23377fb51"
# the same report at four more seeds
OTHER_SEED_SHA256 = {
    1: "d83274f6a5a39f22274c5e374511c696230c2fc17ee157b39dd4a912becc8852",
    3: "ba24a480fd73b636c5c2c0eaee71094a0d518985671377bdd4a114e3c9de98ad",
    7: "f3f2914bed296b1dd1d59e05880178b47c399c6632cd2e2245667f6de61f4be3",
    1234: "e9a73287bc5b32cf5e51fc60ab15af000dc3ccbcafa5bde60dbe87559fa1f1e4",
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

# the same reports (by seed) and composites where no float64 loop of
# KERNEL_UFUNCS dispatches to an AVX-512 target (``avx512``), as on an
# x86-64 host with AVX2 at most: there those loops round some values
# differently. Computed on an AVX-512 host with NPY_DISABLE_CPU_FEATURES set
# to NO_AVX512, which leaves exp and log on X86_V3 and the others on the
# baseline; adding X86_V3 to it gives the same digests
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
NO_AVX512_REPORT_SHA256 = {
    42: "578fd326d8a75214a222a2e1a8a671236e98773137bb0412fc6f11b15211272a",
    1: "8c9178cd5e13b4fb5b390ce2b37ccbb30525fe8754db5451aebe6f012b46e7e4",
    3: "2a068c2aa50a50f698c8f40b3009e15c289ebffd2f86f86e70df7d53dd45f426",
    7: "a3edadaecbfab6a55e4d5ee2f64b5746f68ea3e59a9a097e324cc4ac9af12098",
    1234: "e384f0d2dab838c91b526da1c02ac6773cfccec20cb769f1116cf859b8760228",
}
NO_AVX512_COMPOSITE_SHA256 = {
    "vertical": "fefd20a60c9c2436f1325f6e4129b49c058839073a8a8a098ee130d8268d2e13",
    "horizontal": "04291917e95b7a30f7c19fe05fbf27c5a97454ae4c662890bca6b14630cc9ae3",
    "morphism1": "8c7130daeb31e47d9365fccdbf89356325e83b42dcc926845a573169e3abcc9d",
}

# the ufuncs whose float64 loops the manifold kernels and the check report use
KERNEL_UFUNCS = ("arcsinh", "arccosh", "sinh", "cosh", "arctan2", "arctan", "exp", "log", "power", "expm1",
                 "cos", "sin")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def targets():
    """The current SIMD target of each float64 loop of KERNEL_UFUNCS on this
    host, by name ("baseline" for a ufunc without dispatched loops)."""
    info = opt_func_info(func_name="^(%s)$" % "|".join(KERNEL_UFUNCS), signature="float64")
    return {
        name: "/".join(loop["current"] for loop in info[name].values()) if name in info else "baseline"
        for name in KERNEL_UFUNCS
    }


def avx512():
    """True if a kernel loop dispatches to an AVX-512 target on this host."""
    return any(t == "X86_V4" or t.startswith("AVX512") for t in targets().values())


def report_digests():
    """The pinned report digests, by seed, of this host's dispatch: one of
    the two sets, never either."""
    return {42: REPORT_SHA256, **OTHER_SEED_SHA256} if avx512() else NO_AVX512_REPORT_SHA256


def composite_digests():
    """The pinned composite digests of this host's dispatch, as
    ``report_digests`` picks its set."""
    return COMPOSITE_SHA256 if avx512() else NO_AVX512_COMPOSITE_SHA256


def dispatch():
    """The numpy version and the current SIMD target of each float64 loop of
    KERNEL_UFUNCS on this host, as one line."""
    loops = ", ".join("%s %s" % item for item in targets().items())
    return "numpy %s; float64 loops dispatch to: %s" % (np.__version__, loops)


def assert_digest(text, want):
    """``text`` hashes to ``want``; else the failure names this host's dispatch."""
    got = sha256(text)
    assert got == want, "digest %s, pinned %s (%s)" % (got, want, dispatch())


def test_seed_42_report_is_byte_identical(check_workers):
    assert_digest(ser.dumps(checks.run_checks("all", seed=42)), report_digests()[42])
    assert len(check_workers) == min(len(os.sched_getaffinity(0)), 56)  # one worker per CPU


@pytest.mark.parametrize("seed", sorted(OTHER_SEED_SHA256))
def test_other_seed_reports_are_byte_identical(seed):
    assert_digest(ser.dumps(checks.run_checks("all", seed=seed)), report_digests()[seed])


def test_one_worker_report_is_byte_identical(monkeypatch, check_workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_digest(ser.dumps(checks.run_checks("all", seed=1)), report_digests()[1])
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
    children ``_fork._forked`` starts under ``checks._results``; an
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
    return composite_records()


def composite_records():
    """The records of the three composites, by name."""
    m1, m2, _ = checks._composable_triple(mf.ManifoldSpec.sphere(1.0), np.random.default_rng(2718), n=16)
    F, G = cat.morphism2(m1, (0.0, 0.5), S=4), cat.morphism2(m1, (0.5, 1.0), S=4)
    H1, H2 = cat.morphism2(m1, (0.0, 1.0), S=4), cat.morphism2(m2, (0.0, 1.0), S=4)
    return {
        "vertical": ser.dumps(cat.compose2_vertical(G, F).to_json()),
        "horizontal": ser.dumps(cat.compose2_horizontal(H1, H2).to_json()),
        "morphism1": ser.dumps(cat.compose1(m2, m1).to_json()),
    }


@pytest.mark.parametrize("name", sorted(COMPOSITE_SHA256))
def test_composite_records_are_byte_identical(composites, name):
    assert_digest(composites[name], composite_digests()[name])


@pytest.mark.skipif(not avx512(), reason="no kernel loop of this host dispatches to AVX-512")
def test_the_digests_without_avx512_hold_here_with_avx512_disabled():
    # both sets are gated on an AVX-512 host: the first in this process, the
    # second in one that numpy starts with the AVX-512 targets disabled
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [str(SRC), tests, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    code = (
        "import json, test_report_gate as t\n"
        "from pathgeo import checks, serialize as ser\n"
        "report = ser.dumps(checks.run_checks('all', seed=42))\n"
        "composites = {name: t.sha256(text) for name, text in t.composite_records().items()}\n"
        "print(json.dumps([t.avx512(), t.sha256(report), composites]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [False, NO_AVX512_REPORT_SHA256[42], NO_AVX512_COMPOSITE_SHA256]
