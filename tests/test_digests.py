"""Every artifact of the digest matrix, byte for byte.

`tests/record_digests.py` defines the cells (configs x cluster methods,
serial and `--jobs 2`) and is the only writer of `tests/digests.json`. Each
cell runs here into `tmp_path`; a failure names every file whose sha256
differs from the record, and every file missing or extra.
"""

import json

import pytest

from record_digests import CELLS, RECORD, recorded_as, run_cell

RECORDS = json.loads(RECORD.read_text())


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_files_hash_as_recorded(cell, tmp_path):
    want = RECORDS[recorded_as(cell)]
    got = run_cell(cell, tmp_path)
    assert sorted(set(got) ^ set(want)) == []
    assert [name for name in sorted(got) if got[name] != want[name]] == []
