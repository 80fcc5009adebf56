"""End-to-end pipeline stages and their file-based orchestration.

Stage order: generate -> encode -> predict -> decode -> cluster -> eval.
Each stage is a pure function of (inputs, config, derived seed); per-scene
seeds are derived from (master_seed, scene_index, stage name), so results do
not depend on batch order and parallel execution reproduces serial output
bit for bit. File layout under the configured output directory:

    scenes/scene_NNNNN.json     targets/target_NNNNN.json
    preds/pred_NNNNN.json       segments/segments_NNNNN.json
    lanes/lanes_NNNNN.json      report.csv / report.json
    plots/scene_NNNNN.svg       plots/scores_NNNNN.svg
"""

from __future__ import annotations

import multiprocessing
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import io
from .clustering import Curve, assemble_curve, cluster_segments, greedy_baseline
from .codec import (LaneSegment, TilePredictionGrid, TileTargetGrid, array_fields, decode_grid,
                    encode_scene)
from .config import ConfigError, PipelineConfig
from .evaluation import EvalReport, evaluate
from .losses import embedding_loss, finite_diff_check, total_tile_loss
from .plots import heatmap_svg, scene_svg
from .synth import Scene, generate_scene, oracle_predict

CLUSTER_METHODS = ("embedding", "greedy")


def derive_seed(master_seed: int, scene_index: int, stage: str) -> int:
    """Deterministic per-scene, per-stage seed."""
    ss = np.random.SeedSequence(
        [master_seed & (2 ** 64 - 1), scene_index, zlib.crc32(stage.encode())])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# In-memory stages


def make_scene(config: PipelineConfig, index: int) -> Scene:
    cfg = replace(config.scene, seed=derive_seed(config.master_seed, index, "scene"))
    return generate_scene(cfg, grid=config.grid, rig=config.rig)


def encode_one(scene: Scene, config: PipelineConfig) -> TileTargetGrid:
    return encode_scene(scene.lanes, config.grid, config.bins)


def predict_one(targets: TileTargetGrid, config: PipelineConfig,
                index: int) -> TilePredictionGrid:
    noise = replace(config.noise, seed=derive_seed(config.master_seed, index, "noise"))
    return oracle_predict(targets, noise, config.embedding)


def decode_one(preds: TilePredictionGrid) -> list[LaneSegment]:
    return decode_grid(preds)


def cluster_one(segments: list[LaneSegment], config: PipelineConfig,
                method: str = "embedding") -> list[tuple[Curve, float]]:
    """Cluster segments and assemble each instance into a (curve, confidence)."""
    if method == "embedding":
        instances = cluster_segments(segments, config.cluster)
    elif method == "greedy":
        instances = greedy_baseline(segments)
    else:
        raise ConfigError(f"unknown cluster method {method!r}; expected one of "
                          f"{CLUSTER_METHODS}")
    return [(assemble_curve(inst), min(1.0, max(0.0, inst.confidence)))
            for inst in instances]


def scene_curves(scene: Scene) -> list[Curve]:
    return [Curve(points=lane.points, lane_id=lane.lane_id) for lane in scene.lanes]


@dataclass
class SceneResult:
    """One scene's artifacts, one field per STAGES row in order."""

    index: int
    scene: Scene
    targets: TileTargetGrid
    preds: TilePredictionGrid
    segments: list[LaneSegment]
    lanes: list[tuple[Curve, float]]


def process_scene(config: PipelineConfig, index: int, method: str = "embedding") -> SceneResult:
    """Run the STAGES steps in order on one scene, in memory."""
    artifacts, artifact = [], None
    for stage in STAGES.values():
        artifact = stage.step(config, index, artifact, method)
        artifacts.append(artifact)
    return SceneResult(index, *artifacts)


def _worker(args) -> SceneResult:
    config, index, method = args
    return process_scene(config, index, method)


def run_pipeline(config: PipelineConfig, method: str = "embedding",
                 jobs: int = 1) -> tuple[EvalReport, list[SceneResult]]:
    """Run every stage over n_scenes, in memory; returns the report + results.

    jobs > 1 distributes scenes over a process pool; results are reduced in
    scene-index order, so output is identical to a serial run.
    """
    tasks = [(config, i, method) for i in range(config.n_scenes)]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_worker, tasks)
    else:
        results = [_worker(t) for t in tasks]
    results.sort(key=lambda r: r.index)
    report = evaluate_results(results, config)
    return report, results


def evaluate_results(results: list[SceneResult], config: PipelineConfig) -> EvalReport:
    """Evaluate in scene-index order, whatever the order of results (confidence
    ties across scenes rank by scene order)."""
    return evaluate([(r.lanes, scene_curves(r.scene))
                     for r in sorted(results, key=lambda r: r.index)], config.eval)


# ---------------------------------------------------------------------------
# File-based stage commands


@dataclass(frozen=True)
class Stage:
    """A per-scene stage as files: its output directory, file stem, the names
    of the `io` reader and writer of its artifact (looked up at call time),
    and its step (config, index, input, method) -> artifact. A stage's input
    is the artifact of the row before it in STAGES."""

    dir: str
    stem: str
    reader: str
    step: Callable
    writer: str


def _decode_step(config: PipelineConfig, index: int, preds: TilePredictionGrid,
                 method: str) -> list[LaneSegment]:
    if preds.grid != config.grid:
        raise io.SchemaError(_stage_path(config, STAGES["predict"], index), "grid",
                             "prediction grid shape disagrees with the config grid")
    return decode_one(preds)


STAGES = {
    "generate": Stage("scenes", "scene", "scene_from_dict",
                      lambda config, i, _, method: make_scene(config, i), "scene_to_dict"),
    "encode": Stage("targets", "target", "targets_from_dict",
                    lambda config, i, scene, method: encode_one(scene, config),
                    "targets_to_dict"),
    "predict": Stage("preds", "pred", "preds_from_dict",
                     lambda config, i, targets, method: predict_one(targets, config, i),
                     "preds_to_dict"),
    "decode": Stage("segments", "segments", "segments_from_dict", _decode_step,
                    "segments_to_dict"),
    "cluster": Stage("lanes", "lanes", "lanes_from_dict",
                     lambda config, i, segments, method: cluster_one(segments, config, method),
                     "lanes_to_dict"),
}


def _stage_path(config: PipelineConfig, stage: Stage, index: int) -> Path:
    return Path(config.output_dir) / stage.dir / f"{stage.stem}_{index:05d}.json"


def _read_stage(config: PipelineConfig, stage: Stage) -> list:
    d = Path(config.output_dir) / stage.dir
    if not d.is_dir():
        raise io.SchemaError(d, "<dir>", "stage directory not found; run the producing "
                                         "stage first")
    paths = sorted(d.glob("*.json"))
    if not paths:
        raise io.SchemaError(d, "<dir>", "no input files")
    return [getattr(io, stage.reader)(io.load_json(p), str(p)) for p in paths]


def _write_artifact(config: PipelineConfig, stage: Stage, index: int, artifact) -> Path:
    path = _stage_path(config, stage, index)
    path.parent.mkdir(parents=True, exist_ok=True)
    io.save_json(path, getattr(io, stage.writer)(artifact))
    return path


def run_stage(config: PipelineConfig, command: str, method: str = "embedding") -> list[Path]:
    """Run one STAGES row over every file of the row before it (generate makes
    config.n_scenes new scenes); returns the paths written."""
    names = list(STAGES)
    k = names.index(command)
    inputs = _read_stage(config, STAGES[names[k - 1]]) if k else [None] * config.n_scenes
    stage = STAGES[command]
    return [_write_artifact(config, stage, i, stage.step(config, i, item, method))
            for i, item in enumerate(inputs)]


def cmd_eval(config: PipelineConfig) -> EvalReport:
    lanes_lists = _read_stage(config, STAGES["cluster"])
    scenes = _read_stage(config, STAGES["generate"])
    if len(lanes_lists) != len(scenes):
        raise io.SchemaError(Path(config.output_dir), "<dir>",
                             f"{len(lanes_lists)} lane files vs {len(scenes)} scenes")
    report = evaluate([(lanes, scene_curves(scene)) for lanes, scene in zip(lanes_lists, scenes)],
                      config.eval)
    _write_report(config, report)
    return report


def _write_report(config: PipelineConfig, report: EvalReport) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(io.report_to_csv(report))
    io.save_json(out / "report.json", report.to_dict())


def cmd_loss(config: PipelineConfig, grad_check: bool = False,
             grad_samples: int = 64) -> str:
    """Per-scene loss terms as CSV, optionally with a gradient-check summary."""
    targets = _read_stage(config, STAGES["encode"])
    preds = _read_stage(config, STAGES["predict"])
    if len(targets) != len(preds):
        raise io.SchemaError(Path(config.output_dir), "<dir>",
                             f"{len(targets)} target files vs {len(preds)} prediction files")
    lines = ["scene,score,angle,offsets,pull,push,total"]
    for i, (tgt, prd) in enumerate(zip(targets, preds)):
        if tgt.grid != prd.grid or tgt.bins != prd.bins:
            raise io.SchemaError(_stage_path(config, STAGES["predict"], i), "grid",
                                 "prediction and target grids disagree")
        tile = total_tile_loss(prd, tgt)
        emb = embedding_loss(prd.embedding, tgt.lane_id, config.embedding)
        c = {**tile.components, **emb.components}
        total = tile.value + emb.value
        lines.append(f"{i},{c['score']!r},{c['angle']!r},{c['offsets']!r},"
                     f"{c['pull']!r},{c['push']!r},{total!r}")
    if grad_check and targets:
        tgt, prd = targets[0], preds[0]
        tile_inputs = {f.name: getattr(prd, f.name) for f in array_fields(prd)
                       if f.name != "embedding"}
        tile_rep = finite_diff_check(
            lambda inputs: total_tile_loss(replace(prd, **inputs), tgt),
            tile_inputs, sample=grad_samples)
        emb_rep = finite_diff_check(
            lambda inp: embedding_loss(inp["embedding"], tgt.lane_id, config.embedding),
            {"embedding": prd.embedding}, sample=grad_samples)
        lines.append(f"grad_check,total_tile,max_rel_error,{tile_rep.max_rel_error!r}")
        lines.append(f"grad_check,embedding,max_rel_error,{emb_rep.max_rel_error!r}")
    csv = "\n".join(lines) + "\n"
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "loss.csv").write_text(csv)
    return csv


def cmd_pipeline(config: PipelineConfig, method: str = "embedding",
                 jobs: int = 1) -> EvalReport:
    """Run all stages, writing every intermediate file, report and SVG plots."""
    report, results = run_pipeline(config, method=method, jobs=jobs)
    plots = Path(config.output_dir) / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    for r in results:
        for stage, artifact in zip(STAGES.values(),
                                   (r.scene, r.targets, r.preds, r.segments, r.lanes)):
            _write_artifact(config, stage, r.index, artifact)
        gt = scene_curves(r.scene)
        pred_curves = [c for c, _ in r.lanes]
        (plots / f"scene_{r.index:05d}.svg").write_text(
            scene_svg(gt, pred_curves, config.grid))
        (plots / f"scores_{r.index:05d}.svg").write_text(
            heatmap_svg(r.preds.score(), config.grid))
    _write_report(config, report)
    return report
