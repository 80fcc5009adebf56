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

import os
import pickle
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
from .geometry import Curve, first_out_of_range
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
    return decode_grid(preds)     # no bin logit is below -SATURATION, so a kept tile has an angle


def _cluster_step(config: PipelineConfig, index: int, segments: SegmentSet,
                  method: str) -> list[tuple[Curve, float]]:
    """Cluster segments and assemble each instance into a (curve, confidence),
    its mean score; an instance that `assemble_curve` makes no curve of is left out."""
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
    """Processes for a run, this one included: jobs, but no more than there are
    scenes. jobs < 1, or above 1 where there is no os.fork, is a ConfigError."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"jobs above 1 needs os.fork, which this platform lacks; got {jobs}")
    return min(jobs, config.n_scenes)


def _run_share(work: Callable, share: range) -> tuple:
    """(None, [work(i) for i in share], ""), or (the first exception raised, None,
    its traceback as text)."""
    try:
        return None, [work(i) for i in share], ""
    except Exception as e:
        import traceback
        return e, None, traceback.format_exc()


def _fan_out(work: Callable, n_scenes: int, processes: int) -> list:
    """work(i) for every scene index i, in index order. More than one process
    cuts the indices into that many contiguous shares, larger ones first; this
    process runs the first share while a forked child runs each other one and
    pickles its outcome into a pipe. Every pipe is read to its end and every
    child reaped before the first fault in scene order is raised; a child
    that sends nothing, as one killed by a signal, is a RuntimeError naming
    its first scene and how it ended."""
    cuts = [-(-n_scenes * k // processes) for k in range(processes + 1)]
    shares = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    children, sent = [], []     # (pid, read end of its pipe) and the bytes of each child
    try:
        for share in shares[1:]:
            fd, out = os.pipe()
            pid = os.fork()
            if pid == 0:    # the child: send the share's outcome, and exit 1 if that fails
                try:
                    os.close(fd)
                    with open(out, "wb") as f:
                        pickle.dump(_run_share(work, share), f, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(out)
            children.append((pid, fd))
        outcomes = [_run_share(work, shares[0])[:2]]
        for _, fd in children:
            with open(fd, "rb", closefd=False) as f:
                sent.append(f.read())
    finally:
        ended = [os.close(fd) or os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, fd in children]
    for share, data, code in zip(shares[1:], sent, ended):
        name = f"the process of scenes {share.start} to {share.stop - 1}"
        error, results, trace = pickle.loads(data) if code == 0 else (RuntimeError(
            f"{name} ended without a result, "
            + (f"killed by signal {-code}" if code < 0 else f"exit status {code}")), None, "")
        if trace:
            error.__cause__ = RuntimeError(f"raised in {name}:\n{trace}")
        outcomes.append((error, results))
    for error, _ in outcomes:
        if error is not None:
            raise error
    return [r for _, results in outcomes for r in results]


def run_pipeline(config: PipelineConfig, method: str = "embedding",
                 jobs: int = 1) -> tuple[EvalReport, list[SceneResult]]:
    """Run every stage over n_scenes, in memory; returns the report + results.

    jobs > 1 shares the scenes out over at most n_scenes processes, this one
    and forked children (`_fan_out`); results come back in scene-index order,
    so output is identical to a serial run. A bad jobs raises ConfigError.
    """
    results = _fan_out(lambda i: process_scene(config, i, method), config.n_scenes,
                       _pool_size(config, jobs))
    return evaluate_results(results, config), results


def evaluate_results(results: list[SceneResult], config: PipelineConfig) -> EvalReport:
    """Evaluate in scene-index order, whatever the order of results (confidence
    ties across scenes rank by scene order)."""
    scenes = [(r.lanes, r.scene.lanes) for r in sorted(results, key=lambda r: r.index)]
    return evaluate(score_scenes(scenes, config.eval), config.eval)


# ---------------------------------------------------------------------------
# File-based stage commands


def _check_config(config: PipelineConfig, path: Path, artifact) -> None:
    """The rules of a stage file that need the config, as the writers keep them:
    a grid file has the config's grid and bins, a segment's tile lies in that grid,
    and every lane vertex, segment midpoint and endpoint in config.eval.extent."""
    if isinstance(artifact, (TileTargetGrid, TilePredictionGrid)):
        for name in ("grid", "bins"):
            if getattr(artifact, name) != getattr(config, name):
                raise io.SchemaError(path, name, f"not the config's {getattr(config, name)}")
        return
    (x_lo, x_hi), (y_lo, y_hi) = config.eval.extent
    extent = {">=": (x_lo, y_lo), "<=": (x_hi, y_hi)}
    grid = (config.grid.n_rows, config.grid.n_cols)
    if isinstance(artifact, SegmentSet):    # a field names the row of its fault
        rules = [("segments[{}].tile", artifact.tile, {"<": grid})] + [
            (f"segments[{{}}].{name}", getattr(artifact, name)[..., :2], extent)
            for name in ("midpoint", "endpoints")]
    else:       # a scene, or clustered (curve, confidence) lanes
        curves = artifact.lanes if isinstance(artifact, Scene) else [c for c, _ in artifact]
        rules = [(f"lanes[{k}].points", c.points[:, :2], extent) for k, c in enumerate(curves)]
    for field, value, bounds in rules:
        bad = first_out_of_range(value, bounds)
        if bad:
            raise io.SchemaError(path, field.format(bad[0][0]), f"{field.split('.')[-1]}"
                                 f"{list(bad[0])} {bad[1]}, the config's grid or eval extent")


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


STAGES = {
    "generate": Stage("scenes", "scene", "scene_from_dict", _generate_step, "scene_to_dict"),
    "encode": Stage("targets", "target", "targets_from_dict", _encode_step, "targets_to_dict"),
    "predict": Stage("preds", "pred", "preds_from_dict", _predict_step, "preds_to_dict"),
    "decode": Stage("segments", "segments", "segments_from_dict", _decode_step, "segments_to_dict"),
    "cluster": Stage("lanes", "lanes", "lanes_from_dict", _cluster_step, "lanes_to_dict"),
}


def _stage_path(config: PipelineConfig, stage: Stage, index: int) -> Path:
    return Path(config.output_dir) / stage.dir / f"{stage.stem}_{index:05d}.json"


def _check_files(config: PipelineConfig, *names: str) -> None:
    """Each named stage's directory holds exactly the files of scene indices
    0 ... n_scenes - 1, none of them read; the first fault is a stray name,
    then a missing index, then one at or beyond n_scenes (an earlier run's)."""
    for stage in (STAGES[name] for name in names):
        d = Path(config.output_dir) / stage.dir
        if not d.is_dir():
            raise io.SchemaError(d, "<dir>", "stage directory not found; run the producing stage first")
        indices = set()
        for p in sorted(d.glob("*.json")):
            m = re.fullmatch(rf"{stage.stem}_(\d+)\.json", p.name, re.ASCII)
            if m is None or _stage_path(config, stage, int(m[1])).name != p.name:
                raise io.SchemaError(p, "<file>", f"name is not {stage.stem}_NNNNN.json")
            indices.add(int(m[1]))
        expected = set(range(config.n_scenes))
        if expected - indices:
            raise io.SchemaError(d, "<dir>", f"no file for scene index {min(expected - indices)}")
        if indices - expected:
            raise io.SchemaError(_stage_path(config, stage, min(indices - expected)), "<file>",
                                 f"scene index not below n_scenes = {config.n_scenes}; "
                                 f"empty the tree of an earlier run first")


def _read_scene(config: PipelineConfig, index: int, *names: str) -> list:
    """Scene `index`'s artifacts of the named stages, each file read by its
    index and checked against the config."""
    artifacts = []
    for stage in (STAGES[name] for name in names):
        path = _stage_path(config, stage, index)
        artifacts.append(getattr(io, stage.reader)(io.load_json(path), str(path)))
        _check_config(config, path, artifacts[-1])
    return artifacts


def _write_artifact(config: PipelineConfig, stage: Stage, index: int, artifact) -> Path:
    path = _stage_path(config, stage, index)
    io.save_json(path, getattr(io, stage.writer)(artifact))
    return path


def run_stage(config: PipelineConfig, command: str, method: str = "embedding",
              jobs: int = 1) -> list[Path]:
    """Run one STAGES row over scenes 0 ... n_scenes - 1, reading each scene's
    file of the row before just before its step (generate reads none), shared
    out over `jobs` processes as `run_pipeline` does. Returns the paths
    written, numbered with their scene index."""
    processes = _pool_size(config, jobs)
    names = list(STAGES)
    k = names.index(command)
    inputs = names[k - 1:k] if k else []
    _check_files(config, *inputs)
    stage = STAGES[command]
    (Path(config.output_dir) / stage.dir).mkdir(parents=True, exist_ok=True)
    return _fan_out(lambda i: _write_artifact(config, stage, i, stage.step(
        config, i, *_read_scene(config, i, *inputs) or [None], method)), config.n_scenes, processes)


def cmd_eval(config: PipelineConfig, jobs: int = 1) -> EvalReport:
    """Score each scene as its lanes and scene files are read, over `jobs`
    processes; write the report of the records in scene order."""
    processes = _pool_size(config, jobs)
    _check_files(config, "cluster", "generate")

    def score(i: int) -> SceneRecord:
        lanes, scene = _read_scene(config, i, "cluster", "generate")
        return score_scene(lanes, scene.lanes, config.eval)
    return _write_report(config, _fan_out(score, config.n_scenes, processes))


def _write_report(config: PipelineConfig, records: list[SceneRecord]) -> EvalReport:
    """Evaluate the scenes' records and write report.csv and report.json."""
    report = evaluate(records, config.eval)
    out = Path(config.output_dir)      # exists: the records' inputs were read or written there
    (out / "report.csv").write_text(io.report_to_csv(report))
    io.save_json(out / "report.json", report.to_dict())
    return report


def _loss_row(config: PipelineConfig, index: int) -> str:
    """Scene `index`'s loss terms as one CSV row."""
    tgt, prd = _read_scene(config, index, "encode", "predict")
    tile = total_tile_loss(prd, tgt)
    emb = embedding_loss(prd.embedding, tgt.lane_id, config.embedding)
    c = {**tile.components, **emb.components}
    return (f"{index},{c['score']!r},{c['angle']!r},{c['offsets']!r},"
            f"{c['pull']!r},{c['push']!r},{tile.value + emb.value!r}")


def cmd_loss(config: PipelineConfig, grad_check: bool = False, jobs: int = 1) -> str:
    """Per-scene loss terms as CSV, over `jobs` processes, optionally with a
    gradient-check summary of scene 0 computed in this process."""
    processes = _pool_size(config, jobs)
    _check_files(config, "encode", "predict")
    lines = ["scene,score,angle,offsets,pull,push,total"]
    lines += _fan_out(lambda i: _loss_row(config, i), config.n_scenes, processes)
    if grad_check:
        tgt, prd = _read_scene(config, 0, "encode", "predict")
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
    (Path(config.output_dir) / "loss.csv").write_text(csv)     # exists: holds the targets read
    return csv


def _write_scene(config: PipelineConfig, index: int, method: str) -> SceneRecord:
    """Run one scene and write its five stage files and two plots; returns its score."""
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
    return _write_report(config, _fan_out(lambda i: _write_scene(config, i, method),
                                          config.n_scenes, processes))
