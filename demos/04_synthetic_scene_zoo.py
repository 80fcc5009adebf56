"""
Synthetic scene zoo: topologies, surface, and the noisy oracle
==============================================================

The scene generator draws arc-spline roads with a configurable lane
count, curvature budget, and a height field; one of five topologies is
sampled per scene (parallel lanes, a split, a merge, a short lane, or a
perpendicular crossing). This script forces each topology in turn,
prints what came out, renders a bird's-eye SVG of each, and then watches
the noisy oracle corrupt a prediction at known rates.
"""

from pathlib import Path

import numpy as np

from bevlanes import GridSpec, NoiseConfig, SceneConfig, generate_scene, oracle_predict
from bevlanes.codec import AngleBinSpec, encode_scene
from bevlanes.losses import EmbeddingParams
from bevlanes.plots import scene_svg
from bevlanes.synth import surface_height

out = Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)
grid = GridSpec()

def weights(name):
    w = {k: 0.0 for k in ("parallel", "split", "merge", "short", "perpendicular")}
    w[name] = 1.0
    return w

print("one scene per topology (3 base lanes, curvature <= 0.02 1/m):")
print("  topology       lanes  span_y [m]      |z| max")
for name in ("parallel", "split", "merge", "short", "perpendicular"):
    cfg = SceneConfig(curvature_max=0.02, surface_amplitude=0.3,
                      topology_weights=weights(name))
    scene = generate_scene(cfg, grid=grid, seed=5)
    ys = np.concatenate([lane.points[:, 1] for lane in scene.lanes])
    zs = np.concatenate([lane.points[:, 2] for lane in scene.lanes])
    print(f"  {name:13s} {len(scene.lanes):5d}  [{ys.min():5.1f}, {ys.max():5.1f}]"
          f"   {np.abs(zs).max():7.3f}")
    svg = scene_svg(scene.lanes, [], grid)
    (out / f"scene_{name}.svg").write_text(svg)
print(f"SVG overlays written to {out}/scene_<topology>.svg")

# The height field is a separable sinusoid, so every lane point obeys
# |z| <= amplitude and lanes share the same surface:
cfg = SceneConfig(surface_amplitude=0.4, topology_weights=weights("parallel"))
scene = generate_scene(cfg, grid=grid, seed=8)
worst = 0.0
for lane in scene.lanes:
    z_surface = surface_height(lane.points[:, 0], lane.points[:, 1], scene.surface)
    worst = max(worst, float(np.abs(lane.points[:, 2] - z_surface).max()))
print(f"\nlane heights vs. surface field, max deviation: {worst:.2e} m "
      f"(amplitude {scene.surface.amplitude})")

# The oracle predictor corrupts the encoded targets at configured rates:
# occupied tiles are dropped with drop_rate, empty tiles light up with
# fp_rate. Count what actually happened across many seeds.
bins = AngleBinSpec()
targets = encode_scene(scene.lanes, grid, bins)
occ = targets.occupancy > 0.5
n_occ, n_empty = int(occ.sum()), int((~occ).sum())
noise = dict(sigma_r=0.1, sigma_phi=0.05, sigma_z=0.05, drop_rate=0.1, fp_rate=0.02)
dropped = false_pos = 0
trials = 200
for seed in range(trials):
    pred = oracle_predict(targets, NoiseConfig(**noise), EmbeddingParams(), seed=seed)
    score = pred.score()
    dropped += int(np.sum(occ & (score < 0.5)))
    false_pos += int(np.sum(~occ & (score >= 0.5)))
print(f"\noracle corruption over {trials} seeds on {n_occ} occupied / {n_empty} empty tiles:")
print(f"  drop rate: {dropped / (trials * n_occ):.4f} (configured {noise['drop_rate']})")
print(f"  false-positive rate: {false_pos / (trials * n_empty):.4f} "
      f"(configured {noise['fp_rate']})")

# Offsets move by the configured jitter; the angle is re-encoded through
# the soft labels, so decoding stays consistent with the noisy direction.
pred = oracle_predict(targets, NoiseConfig(**noise), EmbeddingParams(), seed=0)
dr = (pred.lateral_offset - targets.lateral_offset)[occ]
print(f"  lateral jitter std on kept tiles: {dr.std():.4f} (configured {noise['sigma_r']})")
