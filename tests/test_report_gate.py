"""Refactor gate: the deterministic report of ``pathgeo check --suite all
--seed 42`` must not change. A change that alters it on purpose updates
the digest below and says why."""

import hashlib

from pathgeo import checks
from pathgeo import serialize as ser

REPORT_SHA256 = "301e6a50f19f0e7e28a6b27d8b93d68ff47ed5adac3dbdcdd09580cd2dec5ee0"


def test_seed_42_report_is_byte_identical():
    report = ser.dumps(checks.run_checks("all", seed=42))
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256
