"""Self-tests of the benchmark runner.

    python3 -m pytest -q perfbench/test_bench.py

Tiny runs of every workload must print every metric named in BENCHMARK.json
with its unit and no failed scene; times must scale with the measured host
speed; scenes that raise must still give a result, with every scene counted
as failed; a tampered fixture report must fail the fingerprint check; traced
spans must nest; and a directory that holds only the benchmark must make the
runner fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracer as tr

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = bench.ROOT, script: Path = None):
    script = script or bench.BENCH_DIR / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace:
        spans = [json.loads(line) for line in
                 (bench.BENCH_DIR / "out" / f"spans-{workload}-5.jsonl").read_text().splitlines()]
        rows = [tuple(s[k] for k in ("id", "parent", "name", "scene", "start", "end", "pid",
                                     "counts")) for s in spans]
        assert rows and tr.nesting_errors(rows) == []
        if workload == "artifacts_jobs2":   # worker spans came back and name a parent
            assert len({s["pid"] for s in spans}) >= 2


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)


def test_altered_report_fails_fingerprint(tmp_path):
    bench.import_program()
    wl = bench.WORKLOADS["loop_default"]
    record = json.loads(bench.FINGERPRINTS.read_text())["loop_default"]
    report, got = bench.run_fixture(wl, tmp_path, jobs=1)
    assert bench.fixture_failures(record, got) == []
    assert report.map_score == record["map"]
    doc = json.loads((tmp_path / "report.json").read_text())
    doc["map_score"] += 1e-9
    (tmp_path / "report.json").write_text(json.dumps(doc))
    failures = bench.fixture_failures(record, bench.tree_digests(tmp_path))
    assert len(failures) == wl.fixture
    assert "report.json" in failures[0]


def test_changed_scene_file_fails_only_that_scene():
    record = json.loads(bench.FINGERPRINTS.read_text())["loop_default"]
    got = dict(record, tree_sha256="changed", files=dict(record["files"]))
    got["files"]["lanes/lanes_00003.json"] = "0" * 64
    got["files"]["plots/scores_00003.svg"] = "0" * 64
    got["files"]["segments/segments_00007.json"] = "0" * 64
    assert bench.fixture_failures(record, got) == [
        "fixture scene 3: artifacts differ from the record",
        "fixture scene 7: artifacts differ from the record"]
    del got["files"]["plots/scene_00001.svg"]
    assert len(bench.fixture_failures(record, got)) == record["n_scenes"]


def test_nesting_check_flags_escaping_child():
    parent = (1, None, "bench.batch", None, 0.0, 1.0, 7, None)
    inside = (2, 1, "pipeline.run_pipeline", None, 0.1, 0.9, 7, None)
    escaping = (3, 2, "evaluation.evaluate", None, 0.5, 0.95, 8, None)
    orphan = (4, 99, "io.save_json", None, 0.2, 0.3, 7, None)
    assert tr.nesting_errors([parent, inside]) == []
    errors = tr.nesting_errors([parent, inside, escaping, orphan])
    assert len(errors) == 2


def test_self_time_subtracts_only_same_process_children():
    spans = [(1, None, "pipeline.run_pipeline", None, 0.0, 10.0, 7, None),
             (2, 1, "evaluation.evaluate", None, 6.0, 9.0, 7, None),
             (3, 1, "pipeline.process_scene", "0/0", 1.0, 5.0, 8, None)]
    own = tr.self_times(spans)
    assert own == {1: 7.0, 2: 3.0, 3: 4.0}


def test_times_are_scaled_by_host_speed():
    def batch(wall, speed):     # two scenes of 0.1 * wall each
        spans = [(i, None, "pipeline.process_scene", f"0/{i}", 0.0, 0.1 * wall, 7, None)
                 for i in range(2)]
        return bench.Batch(2, wall, speed, spans, [])

    fast = bench.end_to_end([batch(1.0, 1.0)], [(0.3, 1.0)], 0.5)
    slow = bench.end_to_end([batch(2.0, 0.5)], [(0.6, 0.5)], 0.5)
    for name in ("scenes_per_s", "scene_ms_p50", "scene_ms_p95", "setup_s"):
        assert slow[name] == pytest.approx(fast[name]), name
    assert fast["scenes_per_s"] == pytest.approx(2.0)
    assert fast["scene_ms_p50"] == pytest.approx(100.0)
    assert 0.5 * bench.REFERENCE_S < bench.calibration_s() < 20 * bench.REFERENCE_S


@pytest.mark.parametrize("trace", [0, 1])
def test_raising_scenes_count_as_failed(trace, monkeypatch, capsys):
    bench.import_program()
    from bevlanes import pipeline

    def broken(config, index, method="embedding"):
        raise RuntimeError("scene broken on purpose")

    monkeypatch.setattr(pipeline, "process_scene", broken)
    assert bench.main(["--workload", "loop_default", "--seed", "5", "--seconds", "0.1",
                       "--trace", str(trace), "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("loop_default", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
