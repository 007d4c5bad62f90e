"""The ``BENCH_*.json`` records at the repository root: each parses and carries the keys every record shares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SHARED_KEYS = ("what", "parent_commit", "machine", "command", "protocol", "claimed")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_parses_with_the_shared_keys(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    missing = [key for key in SHARED_KEYS if key not in record]
    assert not missing, f"{path.name} lacks {missing}"
