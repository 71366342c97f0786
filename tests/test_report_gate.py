"""Refactor gate: the deterministic reports of ``pathgeo check --suite all``
at seeds 42, 1, 3, 7 and 1234, the exports of one fixed worldsheet and the
records of three fixed composites must not change. A change that alters
them on purpose updates the digests below and says why."""

import hashlib

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

# composites of the sphere triple checks._composable_triple(rng seed 2718,
# n = 16): m1 over [0, 1/2] then [1/2, 1] with S = 4 (vertical), m1 beside
# m2 over [0, 1] with S = 4 (horizontal), and m2 after m1
COMPOSITE_SHA256 = {
    "vertical": "015e02077c1183c9f9aff45b9afcbf5bdc545a394578acbaff13b53da1c9306c",
    "horizontal": "4a0a53c1f6fb35ead7a5441910e78ae571aab0302c2a526cbb7e78c36c19d639",
    "morphism1": "ab6a1f9dbfb80407fc1c98816d015e0907b8e913cdf1f9da4b103f0f68de7f29",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_seed_42_report_is_byte_identical():
    assert sha256(ser.dumps(checks.run_checks("all", seed=42))) == REPORT_SHA256


@pytest.mark.parametrize("seed", sorted(OTHER_SEED_SHA256))
def test_other_seed_reports_are_byte_identical(seed):
    assert sha256(ser.dumps(checks.run_checks("all", seed=seed))) == OTHER_SEED_SHA256[seed]


@pytest.fixture(scope="module")
def exports():
    circle = pth.make_latitude_circle(mf.ManifoldSpec.sphere(1.0), 1.0, n=64)
    sheet = ps.pathspace_geodesic(circle, pth.make_normal_field(circle, 0.5), (0.0, 1.0), 8)
    return {
        "sheet_json": ser.dumps(sheet.to_json()),
        "sheet_csv": ser.sheet_to_csv(sheet),
        "sheet_obj": ser.sheet_to_obj(sheet),
        "path_csv": ser.path_to_csv(circle),
    }


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_fixed_sheet_exports_are_byte_identical(exports, name):
    assert sha256(exports[name]) == EXPORT_SHA256[name]


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
