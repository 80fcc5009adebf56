"""End-to-end pipeline stages and their file-based orchestration.

Stage order: generate -> encode -> predict -> decode -> cluster -> eval.
Each STAGES row's step maps (config, scene index, the previous row's
artifact, cluster method) to its artifact; eval scores the lanes against the
scene's `Lane3D`s. Per-scene seeds are derived from (master_seed,
scene_index, stage name), so results do not depend on batch order and
parallel execution reproduces serial output bit for bit. File layout under
the configured output directory:

    scenes/scene_NNNNN.json     targets/target_NNNNN.json
    preds/pred_NNNNN.json       segments/segments_NNNNN.json
    lanes/lanes_NNNNN.json      report.csv / report.json
    plots/scene_NNNNN.svg       plots/scores_NNNNN.svg
"""

from __future__ import annotations

import functools
import multiprocessing
import re
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import io
from .clustering import assemble_curve, cluster_segments, greedy_baseline
from .codec import (SegmentSet, TilePredictionGrid, TileTargetGrid, array_fields, decode_grid,
                    encode_scene)
from .config import ConfigError, PipelineConfig
from .evaluation import EvalReport, SceneRecord, evaluate, score_scene, score_scenes
from .geometry import Curve
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
# Stage steps: (config, index, input, method) -> artifact


def _generate_step(config: PipelineConfig, index: int, _, method: str) -> Scene:
    return generate_scene(config.scene, config.grid,
                          derive_seed(config.master_seed, index, "scene"))


def _encode_step(config: PipelineConfig, index: int, scene: Scene,
                 method: str) -> TileTargetGrid:
    return encode_scene(scene.lanes, config.grid, config.bins)


def _predict_step(config: PipelineConfig, index: int, targets: TileTargetGrid,
                  method: str) -> TilePredictionGrid:
    try:
        return oracle_predict(targets, config.noise, config.embedding,
                              derive_seed(config.master_seed, index, "noise"))
    except ValueError as e:     # more lane ids than embedding.dim + 1 anchors can hold apart
        raise io.SchemaError(_stage_path(config, STAGES["encode"], index), "fields.lane_id", str(e))


def _decode_step(config: PipelineConfig, index: int, preds: TilePredictionGrid,
                 method: str) -> SegmentSet:
    path = _stage_path(config, STAGES["predict"], index)
    if preds.grid != config.grid:
        raise io.SchemaError(path, "grid", "prediction grid shape disagrees with the config grid")
    try:
        return decode_grid(preds)
    except ValueError as e:     # a kept tile whose bin logits all underflow to probability 0
        raise io.SchemaError(path, "fields.bin_logits", str(e))


def _cluster_step(config: PipelineConfig, index: int, segments: SegmentSet,
                  method: str) -> list[tuple[Curve, float]]:
    """Cluster segments and assemble each instance into a (curve, confidence),
    its mean score, in [0, 1] as the segments reader holds every score; an
    instance that `assemble_curve` makes no curve of is left out. A tile
    outside the config grid is a SchemaError, as decode writes none."""
    rows, cols = segments.tile.T
    outside = np.flatnonzero((rows >= config.grid.n_rows) | (cols >= config.grid.n_cols))
    if len(outside):
        raise io.SchemaError(_stage_path(config, STAGES["decode"], index),
                             f"segments[{outside[0]}].tile", f"outside the {config.grid.n_rows} "
                             f"x {config.grid.n_cols} grid of the config")
    if method == "embedding":
        instances = cluster_segments(segments, config.cluster)
    elif method == "greedy":
        instances = greedy_baseline(segments)
    else:
        raise ConfigError(f"unknown cluster method {method!r}; expected one of "
                          f"{CLUSTER_METHODS}")
    lanes = [(assemble_curve(inst), inst.confidence) for inst in instances]
    return [(curve, conf) for curve, conf in lanes if curve is not None]


@dataclass
class SceneResult:
    """One scene's artifacts, one field per STAGES row in order."""

    index: int
    scene: Scene
    targets: TileTargetGrid
    preds: TilePredictionGrid
    segments: SegmentSet
    lanes: list[tuple[Curve, float]]


def process_scene(config: PipelineConfig, index: int, method: str = "embedding") -> SceneResult:
    """Run the STAGES steps in order on one scene, in memory."""
    artifacts, artifact = [], None
    for stage in STAGES.values():
        artifact = stage.step(config, index, artifact, method)
        artifacts.append(artifact)
    return SceneResult(index, *artifacts)


def _pool_size(config: PipelineConfig, jobs: int) -> int:
    """Processes for a run, this one included: jobs, but no more than there are scenes."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, config.n_scenes)


def _run_share(worker: Callable, tasks: list) -> list:
    return [worker(t) for t in tasks]


def _fan_out(worker: Callable, config: PipelineConfig, method: str, processes: int) -> list:
    """worker((config, index, method)) for every scene index, in index order.
    More than one process cuts the indices into that many contiguous shares,
    larger ones first; this process runs the first share instead of waiting,
    while a pool of the others runs one share each."""
    tasks = [(config, i, method) for i in range(config.n_scenes)]
    if processes == 1:
        return _run_share(worker, tasks)
    cuts = [-(-len(tasks) * k // processes) for k in range(processes + 1)]
    shares = [tasks[a:b] for a, b in zip(cuts, cuts[1:])]
    with multiprocessing.Pool(processes - 1) as pool:
        rest = pool.imap(functools.partial(_run_share, worker), shares[1:])
        return _run_share(worker, shares[0]) + [r for share in rest for r in share]


def _worker(args) -> SceneResult:     # picklable, and finds process_scene at call time
    return process_scene(*args)


def run_pipeline(config: PipelineConfig, method: str = "embedding",
                 jobs: int = 1) -> tuple[EvalReport, list[SceneResult]]:
    """Run every stage over n_scenes, in memory; returns the report + results.

    jobs > 1 shares the scenes out over at most n_scenes processes, this one
    and a pool of the rest; results come back in scene-index order, so output
    is identical to a serial run. jobs < 1 raises ConfigError.
    """
    results = _fan_out(_worker, config, method, _pool_size(config, jobs))
    return evaluate_results(results, config), results


def evaluate_results(results: list[SceneResult], config: PipelineConfig) -> EvalReport:
    """Evaluate in scene-index order, whatever the order of results (confidence
    ties across scenes rank by scene order)."""
    scenes = [(r.lanes, r.scene.lanes) for r in sorted(results, key=lambda r: r.index)]
    return evaluate(score_scenes(scenes, config.eval), config.eval)


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

    def read(self, path: Path):
        return getattr(io, self.reader)(io.load_json(path), str(path))


STAGES = {
    "generate": Stage("scenes", "scene", "scene_from_dict", _generate_step, "scene_to_dict"),
    "encode": Stage("targets", "target", "targets_from_dict", _encode_step, "targets_to_dict"),
    "predict": Stage("preds", "pred", "preds_from_dict", _predict_step, "preds_to_dict"),
    "decode": Stage("segments", "segments", "segments_from_dict", _decode_step, "segments_to_dict"),
    "cluster": Stage("lanes", "lanes", "lanes_from_dict", _cluster_step, "lanes_to_dict"),
}


def _stage_path(config: PipelineConfig, stage: Stage, index: int) -> Path:
    return Path(config.output_dir) / stage.dir / f"{stage.stem}_{index:05d}.json"


def _stage_files(config: PipelineConfig, stage: Stage) -> list[Path]:
    """The stage's files in the order of the scene index in their names, which
    must run 0, 1, 2, ... with no gap; none of them is read."""
    d = Path(config.output_dir) / stage.dir
    if not d.is_dir():
        raise io.SchemaError(d, "<dir>", "stage directory not found; run the producing "
                                         "stage first")
    by_index = {}
    for p in d.glob("*.json"):
        m = re.fullmatch(rf"{stage.stem}_(\d+)\.json", p.name, re.ASCII)
        if m is None or _stage_path(config, stage, int(m[1])).name != p.name:
            raise io.SchemaError(p, "<file>", f"name is not {stage.stem}_NNNNN.json")
        by_index[int(m[1])] = p
    if not by_index:
        raise io.SchemaError(d, "<dir>", "no input files")
    missing = sorted(set(range(len(by_index))) - set(by_index))
    if missing:
        raise io.SchemaError(d, "<dir>", f"no file for scene index {missing[0]}; the "
                                         f"indices run to {max(by_index)}")
    return [by_index[i] for i in range(len(by_index))]


def _write_artifact(config: PipelineConfig, stage: Stage, index: int, artifact) -> Path:
    path = _stage_path(config, stage, index)
    io.save_json(path, getattr(io, stage.writer)(artifact))
    return path


def run_stage(config: PipelineConfig, command: str, method: str = "embedding") -> list[Path]:
    """Run one STAGES row over every file of the row before it, each read just
    before its step (generate makes config.n_scenes new scenes); an output is
    numbered with its input's scene index. Returns the paths written."""
    names = list(STAGES)
    k = names.index(command)
    before, stage = STAGES[names[k - 1]], STAGES[command]
    inputs = _stage_files(config, before) if k else [None] * config.n_scenes
    (Path(config.output_dir) / stage.dir).mkdir(parents=True, exist_ok=True)
    return [_write_artifact(config, stage, i,
                            stage.step(config, i, before.read(path) if k else None, method))
            for i, path in enumerate(inputs)]


def cmd_eval(config: PipelineConfig) -> EvalReport:
    lanes_files = _stage_files(config, STAGES["cluster"])
    scene_files = _stage_files(config, STAGES["generate"])
    if len(lanes_files) != len(scene_files):
        raise io.SchemaError(Path(config.output_dir), "<dir>",
                             f"{len(lanes_files)} lane files vs {len(scene_files)} scenes")
    records = []
    for lanes_path, scene_path in zip(lanes_files, scene_files):
        lanes = STAGES["cluster"].read(lanes_path)
        _check_extent(config, lanes_path, [curve for curve, _ in lanes])
        gt = STAGES["generate"].read(scene_path).lanes
        _check_extent(config, scene_path, gt)
        records.append((lanes, gt))
    return _write_report(config, score_scenes(records, config.eval))


def _check_extent(config: PipelineConfig, path: Path, curves: list) -> None:
    """Reject a curve of the file with a vertex whose x or y lies outside
    config.eval.extent, the grid padded by lane_width / 2, where generate and
    cluster keep every vertex; eval resamples a lane at lateral_sample_step,
    so a far vertex would cost time in proportion to its distance."""
    (x_lo, x_hi), (y_lo, y_hi) = config.eval.extent
    for k, curve in enumerate(curves):
        x, y = curve.points[:, 0], curve.points[:, 1]
        if not np.all((x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi)):
            raise io.SchemaError(path, f"lanes[{k}].points",
                                 f"a vertex outside the eval extent {config.eval.extent}")


def _write_report(config: PipelineConfig, records: list[SceneRecord]) -> EvalReport:
    """Evaluate the scenes' records and write report.csv and report.json."""
    report = evaluate(records, config.eval)
    out = Path(config.output_dir)      # exists: the records' inputs were read or written there
    (out / "report.csv").write_text(io.report_to_csv(report))
    io.save_json(out / "report.json", report.to_dict())
    return report


def cmd_loss(config: PipelineConfig, grad_check: bool = False) -> str:
    """Per-scene loss terms as CSV, optionally with a gradient-check summary."""
    targets = _stage_files(config, STAGES["encode"])
    preds = _stage_files(config, STAGES["predict"])
    if len(targets) != len(preds):
        raise io.SchemaError(Path(config.output_dir), "<dir>",
                             f"{len(targets)} target files vs {len(preds)} prediction files")
    lines = ["scene,score,angle,offsets,pull,push,total"]
    for i, (tgt_path, prd_path) in enumerate(zip(targets, preds)):
        tgt, prd = STAGES["encode"].read(tgt_path), STAGES["predict"].read(prd_path)
        if tgt.grid != prd.grid or tgt.bins != prd.bins:
            raise io.SchemaError(prd_path, "grid", "prediction and target grids disagree")
        tile = total_tile_loss(prd, tgt)
        emb = embedding_loss(prd.embedding, tgt.lane_id, config.embedding)
        c = {**tile.components, **emb.components}
        total = tile.value + emb.value
        lines.append(f"{i},{c['score']!r},{c['angle']!r},{c['offsets']!r},"
                     f"{c['pull']!r},{c['push']!r},{total!r}")
        del tgt, prd, tile, emb     # before the next scene's grids are read
    if grad_check and targets:
        tgt, prd = STAGES["encode"].read(targets[0]), STAGES["predict"].read(preds[0])
        tile_inputs = {f.name: getattr(prd, f.name) for f in array_fields(prd)
                       if f.name != "embedding"}
        tile_rep = finite_diff_check(
            lambda inputs: total_tile_loss(replace(prd, **inputs), tgt),
            tile_inputs, sample=64)
        emb_rep = finite_diff_check(
            lambda inp: embedding_loss(inp["embedding"], tgt.lane_id, config.embedding),
            {"embedding": prd.embedding}, sample=64)
        lines.append(f"grad_check,total_tile,max_rel_error,{tile_rep.max_rel_error!r}")
        lines.append(f"grad_check,embedding,max_rel_error,{emb_rep.max_rel_error!r}")
    csv = "\n".join(lines) + "\n"
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "loss.csv").write_text(csv)
    return csv


def _write_scene(args) -> SceneRecord:
    """Run one scene and write its five stage files and two plots; returns its score."""
    config, index, method = args
    r = process_scene(config, index, method)
    for stage, artifact in zip(STAGES.values(), (r.scene, r.targets, r.preds, r.segments, r.lanes)):
        _write_artifact(config, stage, index, artifact)
    plots = Path(config.output_dir) / "plots"
    (plots / f"scene_{index:05d}.svg").write_text(
        scene_svg(r.scene.lanes, [c for c, _ in r.lanes], config.grid))
    (plots / f"scores_{index:05d}.svg").write_text(heatmap_svg(r.preds.score(), config.grid))
    return score_scene(r.lanes, r.scene.lanes, config.eval)


def cmd_pipeline(config: PipelineConfig, method: str = "embedding",
                 jobs: int = 1) -> EvalReport:
    """Run all stages, writing every intermediate file, report and SVG plots.
    Each process writes the files of the scenes it runs; this one also makes
    the directories and writes the report, so a run that fails can leave a
    partial tree."""
    processes = _pool_size(config, jobs)       # a bad value fails before any directory is made
    for d in [stage.dir for stage in STAGES.values()] + ["plots"]:
        (Path(config.output_dir) / d).mkdir(parents=True, exist_ok=True)
    return _write_report(config, _fan_out(_write_scene, config, method, processes))
