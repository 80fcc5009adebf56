"""
Evaluating lane predictions: rasterized IOU, AP, lateral error
==============================================================

Curves are compared by rasterizing each one as a 1 m-wide ribbon on a
0.1 m grid and intersecting the masks. Predictions are matched to ground
truth greedily by confidence at a sweep of IOU thresholds; averaging the
per-threshold AP gives the summary detection score, and matched pairs
contribute a lateral error split into near/far range buckets.
"""

import numpy as np

from bevlanes import EvalConfig, curve_iou, evaluate, lateral_error, match_and_ap
from bevlanes.clustering import Curve

cfg = EvalConfig()
print(f"ribbon width {cfg.lane_width} m, raster cell {cfg.raster_resolution} m, "
      f"thresholds {cfg.iou_thresholds[0]}..{cfg.iou_thresholds[-1]}")

# Two parallel ribbons of width w at center distance d overlap in a strip
# of width w - d, so IOU = (w - d)/(w + d). Tilt the lines slightly so the
# raster samples many phases of the grid instead of snapping to one row.
tilt = 0.07
u = np.array([np.sin(tilt), np.cos(tilt), 0.0])
n = np.array([np.cos(tilt), -np.sin(tilt), 0.0])
p0 = np.array([-2.0, 5.0, 0.0])

def tilted(offset, length=60.0):
    return Curve(points=np.stack([p0 + offset * n, p0 + offset * n + length * u]))

print("\nparallel lines, analytic vs. rasterized IOU:")
print("  d [m]   analytic  measured")
for d in (0.1, 0.25, 0.5, 0.75):
    expect = (cfg.lane_width - d) / (cfg.lane_width + d)
    got = curve_iou(tilted(0.0), tilted(d), cfg)
    print(f"  {d:5.2f}   {expect:.4f}    {got:.4f}")

# Matching and AP on a hand-built case: two ground-truth lanes, three
# predictions. The confident stray (conf 0.9, no overlap) costs precision
# before the two true positives are swept in.
gts = [tilted(0.0), tilted(3.7)]
preds = [(tilted(0.02), 0.95), (tilted(8.0), 0.90), (tilted(3.68), 0.85)]
ap, matches, recall = match_and_ap(preds, gts, threshold=0.5, cfg=cfg)
print(f"\n2 GT lanes, 3 predictions (one stray at conf 0.90):")
print(f"  AP@0.5 = {ap:.4f}, recall = {recall:.2f}, "
      f"matched pairs = {[(p, g) for p, g, _ in matches]}")
# precision sweep: 1/1, 1/2, 2/3 -> area under the envelope = 5/6
print(f"  expected from the precision envelope: {5/6:.4f}")

# Lateral error: the prediction is resampled every metre of arc length
# and each sample measures its distance to the nearest ground-truth point.
# Jitter the GT laterally by N(0, 0.05) and the mean absolute distance
# approaches sigma * sqrt(2/pi).
rng = np.random.default_rng(0)
sigma = 0.05
ys = np.arange(0.0, 4000.0)
gt_pts = np.column_stack([rng.normal(0.0, sigma, len(ys)), ys, np.zeros(len(ys))])
pred_line = Curve(points=np.array([[0.0, 0.0, 0.0], [0.0, 3999.0, 0.0]]))
long_cfg = EvalConfig(range_buckets=((0.0, 1e6),),
                      extent=((-50.0, 50.0), (-1.0, 4001.0)))
means, mean_dz = lateral_error([(pred_line, Curve(points=gt_pts))], long_cfg)
expect = sigma * np.sqrt(2.0 / np.pi)
print(f"\nlateral error vs. N(0, {sigma}) jitter over {len(ys)} samples:")
print(f"  measured {means[(0.0, 1e6)]:.5f} m, half-normal mean {expect:.5f} m")

# The full protocol: per-scene matching pooled into one PR curve per
# threshold, near/far buckets, and the confidence cutoff where recall
# first reaches 0.75. Four scenes of three lanes each; predictions sit
# 0.03 m off their lane, scene confidence decays, and the last scene
# misses one lane entirely.
scenes = []
for s in range(4):
    gts = [tilted(x) for x in (-3.7, 0.0, 3.7)]
    preds = [(Curve(points=gt.points + [0.03, 0.0, 0.0]), 0.9 - 0.02 * s) for gt in gts]
    if s == 3:
        preds = preds[:2]  # a miss: no prediction for the last lane
    scenes.append((preds, gts))
report = evaluate(scenes, cfg)  # one (predictions, ground truth) pair per scene
print(f"\nend-to-end report, 4 scenes x 3 lanes, one lane missed in the last scene:")
print(f"  mAP = {report.map_score:.4f}, recall@0.5 = "
      f"{report.recall_at_reference:.4f} ({report.counts['n_matched']}/{report.counts['n_gt']})")
print(f"  lateral error near/far: "
      + ", ".join(f"[{lo:g},{hi:g}) {v:.4f} m" for (lo, hi), v in report.lateral_error.items()))
print(f"  recall-0.75 confidence cutoff: {report.recall75_confidence} "
      "(the 9th of 12 lanes arrives at this confidence)")
