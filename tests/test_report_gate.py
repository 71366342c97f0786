"""Refactor gate: the deterministic report of ``pathgeo check --suite all
--seed 42`` must not change. A change that alters it on purpose updates
the digest below and says why."""

import hashlib

from pathgeo import checks
from pathgeo import serialize as ser

REPORT_SHA256 = "62fccf316a06acb7c9e781c7b594469cba50a62a6633f184421b21191e9b83e0"


def test_seed_42_report_is_byte_identical():
    report = ser.dumps(checks.run_checks("all", seed=42))
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256
