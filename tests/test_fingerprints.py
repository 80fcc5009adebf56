"""Every recorded benchmark fixture, byte for byte.

`perfbench/fingerprints.json` holds, per benchmark workload, a config, a
master seed, a scene count and the sha256 of every file that `cmd_pipeline`
and `cmd_loss` write for them. Each fixture runs here serially and every
file must hash as recorded, so a change to any artifact's bytes fails tier 1
and not only the benchmark. The record is read, never written; the
benchmark's own runner is not imported, because importing it sets thread
environment variables and `sys.path`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bevlanes.config import PipelineConfig
from bevlanes.pipeline import cmd_loss, cmd_pipeline

FINGERPRINTS = Path(__file__).resolve().parents[1] / "perfbench" / "fingerprints.json"
RECORDS = json.loads(FINGERPRINTS.read_text())


@pytest.mark.parametrize("workload", sorted(RECORDS))
def test_fixture_files_hash_as_recorded(workload, tmp_path):
    record = RECORDS[workload]
    config = PipelineConfig.from_dict({**record["config"], "n_scenes": record["n_scenes"],
                                       "master_seed": record["seed"],
                                       "output_dir": str(tmp_path)})
    report = cmd_pipeline(config, jobs=1)
    cmd_loss(config)
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert sorted(got) == sorted(record["files"])
    assert [name for name in got if got[name] != record["files"][name]] == []
    assert report.map_score == record["map"]
