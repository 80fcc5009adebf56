"""
End-to-end pipeline: a lateral-noise sweep
==========================================

One call runs the whole chain per scene -- generate, encode to tiles,
corrupt with the oracle, decode to segments, cluster into lanes -- and
evaluates the pooled result. Sweeping the oracle's lateral jitter shows
the detection score degrade gracefully, and the same master seed always
reproduces the same report.
"""

import time
from pathlib import Path

from bevlanes import PipelineConfig, run_pipeline
from bevlanes.plots import scene_svg

out = Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)

# Gentle roads and no drops or false positives: the only corruption in
# the sweep is the per-tile lateral jitter sigma_r, so the first row is
# a closed loop and must come out perfect.
base = {
    "n_scenes": 25,
    "master_seed": 404,
    "scene": {"curvature_max": 0.01,
              "topology_weights": {"parallel": 0.7, "split": 0.0, "merge": 0.0,
                                   "short": 0.2, "perpendicular": 0.1}},
    "noise": {"drop_rate": 0.0, "fp_rate": 0.0, "sigma_f": 0.05},
}

print(f"{base['n_scenes']} scenes per noise level, parallel/short/perpendicular mix")
print("\n  sigma_r [m]    mAP    recall@0.5  near err [m]  far err [m]   time")
reports = {}
for sigma_r in (0.0, 0.1, 0.3, 0.5):
    cfg = PipelineConfig.from_dict(
        {**base, "noise": {**base["noise"], "sigma_r": sigma_r}})
    t0 = time.perf_counter()
    report, results = run_pipeline(cfg, method="embedding", jobs=1)
    dt = time.perf_counter() - t0
    near, far = (report.lateral_error[b] for b in ((0.0, 30.0), (30.0, 80.0)))
    print(f"  {sigma_r:9.1f}   {report.map_score:.4f}   {report.recall_at_reference:8.4f}"
          f"   {near:10.4f}   {far:9.4f}   {dt:4.1f}s")
    reports[sigma_r] = report
    if sigma_r == 0.3:
        r = results[0]
        svg = scene_svg(r.scene.lanes, [c for c, _ in r.lanes], cfg.grid)
        (out / "pipeline_scene0_sigma03.svg").write_text(svg)

print(f"\noverlay of scene 0 at sigma_r = 0.3 written to {out}/pipeline_scene0_sigma03.svg")
print("(ground truth red, recovered lanes blue)")

# Per-tile jitter moves decoded segments off the true line; past roughly
# half the ribbon width the rasterized overlap drops below the stricter
# IOU thresholds and mAP falls. The lateral error of the still-matched
# lanes stays below the raw jitter's half-normal mean (0.08/0.24/0.40 m
# for the three noisy levels) because curve assembly averages over tiles.

# Determinism: the same master seed reproduces the report bit for bit,
# and a process pool changes nothing but the wall clock.
cfg = PipelineConfig.from_dict({**base, "noise": {**base["noise"], "sigma_r": 0.3}})
again, _ = run_pipeline(cfg, method="embedding", jobs=1)
pooled, _ = run_pipeline(cfg, method="embedding", jobs=4)
print(f"\nsame seed, serial rerun: reports equal = {again.to_dict() == reports[0.3].to_dict()}")
print(f"same seed, 4 workers:    reports equal = {pooled.to_dict() == reports[0.3].to_dict()}")
