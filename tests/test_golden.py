"""Seeded command outputs are byte-identical to the committed golden digests.

A change to any random stream, draw order or output format shows here.
Re-record with tests/record_golden.py only when a stream changes on purpose.
"""

import json

from record_golden import RECORD, digests, numpy_version


def test_seeded_outputs_match_golden_digests():
    record = json.loads(RECORD.read_text())
    got = digests()
    changed = sorted(name for name in record["digests"] if got.get(name) != record["digests"][name])
    assert set(got) == set(record["digests"])
    assert not changed, (
        f"seeded outputs changed: {changed}; recorded with numpy {record['numpy']}, "
        f"running numpy {numpy_version()}"
    )
