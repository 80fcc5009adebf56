"""Every artifact of the digest matrix, byte for byte.

`tests/record_digests.py` defines the cells (configs x cluster methods through
`pipeline`, serial and `--jobs 2`, the stage chain and `loss --check-grads`)
and is the only writer of `tests/digests.json`. Each cell runs here into
`tmp_path`; a failure names every file whose sha256 differs from the record,
and every file missing or extra.
"""

import json

import pytest

from record_digests import CELLS, RECORD, SHARES, recorded_as, run_cell, shared_differences

RECORDS = json.loads(RECORD.read_text())


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_files_hash_as_recorded(cell, tmp_path):
    want = RECORDS[recorded_as(cell)]
    got = run_cell(cell, tmp_path)
    assert sorted(set(got) ^ set(want)) == []
    assert [name for name in sorted(got) if got[name] != want[name]] == []


@pytest.mark.parametrize("cell", sorted(SHARES))
def test_stage_files_are_the_pipeline_files(cell):
    assert shared_differences(RECORDS[cell], RECORDS[SHARES[cell]]) == []
