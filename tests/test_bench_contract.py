"""The package names that the benchmark's span tracer wraps.

`perfbench/tracer.py` replaces package functions by module and name, and a
traced benchmark run fails on the first name it cannot find. The tracer is
loaded here from its file, unchanged, and wraps one artifact batch
(`cmd_pipeline` and `cmd_loss` on one scene) and one in-memory batch
(`run_pipeline`). Its counters take `len` of what `decode_grid` returns, of
the segments `cluster_segments` is given and of each instance's `segments`.
The rasterizer must run under its traced name, `evaluation.rasterize_curve`,
so that the benchmark's rasterize time keeps measuring it, once per chunk of
scenes; it and `lateral_error` run inside `evaluate_results`, and so does
`evaluate`, inside `run_pipeline`, because the benchmark's fan-out time is
the one span minus the other. The benchmark's write and plot
times are the self time of the io writers and of the two plots, so the grid
dicts and both plots must run under their traced names, and every JSON
formatting call inside `save_json`.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from bevlanes import pipeline
from bevlanes.config import PipelineConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tr = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tr)
    return tr


def test_tracer_wraps_and_records_the_pipeline_layers(tmp_path):
    tr = _load_tracer()
    tracer = tr.Tracer(tmp_path)
    config = PipelineConfig.from_dict({"n_scenes": 1, "output_dir": str(tmp_path / "out")})
    tracer.install(tr.TRACED)
    try:
        pipeline.cmd_pipeline(config)
        pipeline.cmd_loss(config)
    finally:
        tracer.uninstall()
    names = {span[tr.NAME] for span in tracer.spans}
    assert {"pipeline.process_scene", "evaluation.evaluate", "io.save_json",
            "evaluation.rasterize_curve"} <= names
    counts = {span[tr.NAME]: span[tr.COUNTS] for span in tracer.spans
              if span[tr.NAME] in ("codec.decode_grid", "clustering.cluster_segments")}
    written = json.loads((tmp_path / "out" / "segments" / "segments_00000.json").read_text())
    assert counts["codec.decode_grid"]["segments"] == len(written["segments"]) > 0
    cluster = counts["clustering.cluster_segments"]
    assert 0 < cluster["assigned"] <= cluster["candidates"] == len(written["segments"])
    assert {"io.targets_to_dict", "io.preds_to_dict", "plots.scene_svg",
            "plots.heatmap_svg"} <= names
    assert tr.nesting_errors(tracer.spans) == []
    by_sid = {span[tr.SID]: span for span in tracer.spans}
    dumps = [span for span in tracer.spans if span[tr.NAME] == "io.canonical_json"]
    assert dumps and all(by_sid[span[tr.PARENT]][tr.NAME] == "io.save_json" for span in dumps)


def test_tracer_nests_evaluate_in_a_run_pipeline_batch(tmp_path):
    tr = _load_tracer()
    tracer = tr.Tracer(tmp_path)
    config = PipelineConfig.from_dict({"n_scenes": 6})
    tracer.install(tr.TRACED)
    try:
        pipeline.run_pipeline(config)
    finally:
        tracer.uninstall()
    assert tr.nesting_errors(tracer.spans) == []
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[tr.NAME], []).append(span)
    (run,) = by_name["pipeline.run_pipeline"]
    (results,) = by_name["pipeline.evaluate_results"]
    (evaluate,) = by_name["evaluation.evaluate"]
    assert results[tr.PARENT] == run[tr.SID]
    assert evaluate[tr.PARENT] == results[tr.SID]
    # the scenes are rasterized in chunks, and every chunk and every lateral
    # error is timed inside evaluate_results
    rasterize, lateral = by_name["evaluation.rasterize_curve"], by_name["evaluation.lateral_error"]
    assert 1 <= len(rasterize) < config.n_scenes and len(lateral) == config.n_scenes
    assert all(span[tr.PARENT] == results[tr.SID] for span in rasterize + lateral)


@pytest.mark.parametrize("n_scenes", [3, 5])
def test_a_jobs2_batch_records_one_scene_span_per_scene(tmp_path, n_scenes):
    """The benchmark fails every batch whose `pipeline.process_scene` spans,
    from this process and the pool workers together, are not exactly one per
    scene: they are its per-scene latency samples. A runner that takes a
    chunk of scenes through the stages at once (ROADMAP item 4) must keep
    this count, or wait for a benchmark that counts and times scenes
    otherwise."""
    tr = _load_tracer()
    tracer = tr.Tracer(tmp_path / "spool")
    (tmp_path / "spool").mkdir()
    config = PipelineConfig.from_dict({"n_scenes": n_scenes, "master_seed": 7,
                                       "output_dir": str(tmp_path / "out")})
    want = Counter(f"7/{i}" for i in range(n_scenes))
    for batch in (lambda: pipeline.run_pipeline(config, jobs=2),
                  lambda: (pipeline.cmd_pipeline(config, jobs=2), pipeline.cmd_loss(config))):
        mark = len(tracer.spans)
        tracer.install([tr.SCENE_FN])
        try:
            batch()
        finally:
            tracer.uninstall()
        tracer.collect()
        scenes = [span for span in tracer.spans[mark:]
                  if span[tr.NAME] == "pipeline.process_scene"]
        assert Counter(span[tr.SCENE] for span in scenes) == want
        assert len({span[tr.PID] for span in scenes}) == 2
