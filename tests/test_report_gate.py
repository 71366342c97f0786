"""Refactor gate: the deterministic reports of ``pathgeo check --suite all``
at seeds 42, 1, 3, 7 and 1234, the exports of one fixed worldsheet at two
sizes and the records of three fixed composites must not change. A change
that alters them on purpose updates the digests below and says why."""

import concurrent.futures
import hashlib
import os

import numpy as np
import pytest

from pathgeo import category as cat
from pathgeo import checks
from pathgeo import manifold as mf
from pathgeo import path as pth
from pathgeo import pathspace as ps
from pathgeo import serialize as ser

REPORT_SHA256 = "301e6a50f19f0e7e28a6b27d8b93d68ff47ed5adac3dbdcdd09580cd2dec5ee0"
# the same report at four more seeds
OTHER_SEED_SHA256 = {
    1: "4ebcf425d848774d50cb054208d90ce43af88fbb13bcb52f17a5776b9a103fb9",
    3: "b60e2c73d2c783095c44f4a68b1539272a5c9d054e736dbbb9687f33fe29a40f",
    7: "0f8e621b79f85e743098d3433d19c05e869be21bb0a8d8206b2722580f6c3e79",
    1234: "cd2e7f3f9afe8ebc22f0531c54804c2a88173791587e3d92a4ad447a8ccf8655",
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


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_seed_42_report_is_byte_identical(pools):
    assert sha256(ser.dumps(checks.run_checks("all", seed=42))) == REPORT_SHA256
    assert pools == [min(len(os.sched_getaffinity(0)), 56)]  # one pool, one worker per CPU


@pytest.mark.parametrize("seed", sorted(OTHER_SEED_SHA256))
def test_other_seed_reports_are_byte_identical(seed):
    assert sha256(ser.dumps(checks.run_checks("all", seed=seed))) == OTHER_SEED_SHA256[seed]


def test_one_worker_report_is_byte_identical(monkeypatch, pools):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert sha256(ser.dumps(checks.run_checks("all", seed=1))) == OTHER_SEED_SHA256[1]
    assert pools == [1]


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


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools started while it is active."""
    started = []
    executor = concurrent.futures.ProcessPoolExecutor

    def counting(max_workers, **kwargs):
        started.append(max_workers)
        return executor(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    return started


@pytest.fixture(scope="module")
def large_sheet():
    return fixed_sheet(4096, 64)[1]


def test_large_sheet_exports_are_byte_identical(large_sheet, pools, helpers):
    # 65 blocks of one fiber: each export forks exactly one helper, which
    # formats the blocks it claims first
    for name, write in SHEET_WRITERS.items():
        started = len(helpers)
        assert sha256(write(large_sheet)) == LARGE_EXPORT_SHA256[name]
        assert len(helpers) == started + min(len(os.sched_getaffinity(0)) - 1, 1), name
    assert pools == []


def test_one_cpu_large_sheet_exports_are_byte_identical(large_sheet, monkeypatch, helpers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    digests = {name: sha256(text) for name, text in sheet_exports(large_sheet).items()}
    assert digests == LARGE_EXPORT_SHA256
    assert helpers == []  # on one CPU every slab is formatted in this process


def test_small_exports_start_no_pool(pools, helpers):
    circle, sheet = fixed_sheet(64, 8)
    exports = dict(sheet_exports(sheet), path_csv=ser.path_to_csv(circle))
    assert {name: sha256(text) for name, text in exports.items()} == EXPORT_SHA256
    assert pools == []
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
    assert sha256(composites[name]) == COMPOSITE_SHA256[name]
