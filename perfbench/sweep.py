"""Opt-in scaling sweep of the bevlanes pipeline (not part of the gated workloads).

    python3 perfbench/sweep.py [--seed 0]

One factor varies at a time around the base point (100 scenes, 16x26 grid,
jobs=1, the loop_dense noise). Every grid covers the default 20.48 m x 78 m
field. Each point runs `run_pipeline` once, traced, and records wall time,
scenes/s, ms/scene per stage and segments per scene, and the points are
written to perfbench/out/sweep.json.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import run as bench  # pins BLAS threads and puts the checkout's src/ first on sys.path
import tracer as tr

BASE = {"n_scenes": 100, "grid": (16, 26), "jobs": 1}
SCENES = (100, 1000, 4000)
GRIDS = ((16, 26), (32, 52), (64, 104))
JOBS = (1, 2)
OUT = bench.BENCH_DIR / "out" / "sweep.json"
STAGES = {
    "generate": "synth.generate_scene", "encode": "codec.encode_scene",
    "predict": "synth.oracle_predict", "decode": "codec.decode_grid",
    "cluster": "clustering.cluster_segments", "mean_shift": "clustering.mean_shift",
    "assemble": "clustering.assemble_curve", "eval": "evaluation.evaluate",
    "rasterize": "evaluation.rasterize_curve",
}


def point(n_scenes: int, grid: tuple[int, int], jobs: int, seed: int, spool: Path) -> dict:
    from bevlanes import pipeline
    from bevlanes.config import PipelineConfig
    cols, rows = grid
    cfg = PipelineConfig.from_dict({
        "n_scenes": n_scenes, "master_seed": seed, "noise": bench.DENSE_NOISE,
        "grid": {"n_cols": cols, "n_rows": rows, "tile_width": 20.48 / cols,
                 "tile_length": 78.0 / rows}})
    t = tr.Tracer(spool)
    t.install(tr.TRACED)
    start = time.perf_counter()
    try:
        report, _ = pipeline.run_pipeline(cfg, jobs=jobs)
    finally:
        wall = time.perf_counter() - start
        t.uninstall()
    t.collect()
    own = tr.self_times(t.spans)
    stage_ms = {stage: 1000.0 * sum(s[tr.END] - s[tr.START] for s in t.spans
                                    if s[tr.NAME] == name) / n_scenes
                for stage, name in STAGES.items()}
    stage_ms["eval_grouping_matching"] = 1000.0 * sum(
        own[s[tr.SID]] for s in t.spans if s[tr.NAME] == "evaluation.evaluate") / n_scenes
    segments = sum(s[tr.COUNTS]["segments"] for s in t.spans
                   if s[tr.NAME] == "codec.decode_grid")
    return {"n_scenes": n_scenes, "grid": f"{cols}x{rows}", "jobs": jobs,
            "wall_s": wall, "scenes_per_s": n_scenes / wall, "ms_per_scene": stage_ms,
            "segments_per_scene": segments / n_scenes, "map": report.map_score}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    bench.import_program()
    points = [(n, BASE["grid"], BASE["jobs"]) for n in SCENES]
    points += [(BASE["n_scenes"], g, BASE["jobs"]) for g in GRIDS]
    points += [(BASE["n_scenes"], BASE["grid"], j) for j in JOBS]
    spool = bench.ROOT / ".bench_tmp" / "sweep-spool"
    spool.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for p in dict.fromkeys(points):   # the base point appears once
            results.append(point(*p, args.seed, spool))
            r = results[-1]
            print(f"n={r['n_scenes']:5d} grid={r['grid']:7s} jobs={r['jobs']} "
                  f"{r['scenes_per_s']:8.2f} scenes/s  segments/scene {r['segments_per_scene']:6.1f}  "
                  + " ".join(f"{k}={v:.1f}" for k, v in r["ms_per_scene"].items()), flush=True)
    finally:
        for f in spool.glob("*"):
            f.unlink()
        spool.rmdir()
        if not any(spool.parent.iterdir()):
            spool.parent.rmdir()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"env": bench.environment(), "base": BASE, "points": results},
                              indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
