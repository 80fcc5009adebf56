"""
Tile codec round trip: lanes -> per-tile targets -> segments
============================================================

A 3D lane polyline is encoded onto a fixed grid of tiles. Each occupied
tile stores a local line fit (direction bins + residuals, lateral offset
from the tile center, height offset). Decoding turns every confident tile
back into a short 3D segment. This script walks one lane through the full
round trip and measures how far the decoded segments land from the truth.
"""

import numpy as np

from bevlanes import (AngleBinSpec, GridSpec, Lane3D, decode_grid, encode_scene,
                      saturated_prediction)
from bevlanes.codec import angle_to_soft_labels, soft_labels_to_angle

grid = GridSpec()          # 16 x 26 tiles of 1.28 m x 3 m, y in [0, 78]
bins = AngleBinSpec()      # 8 direction bins around the circle
print(f"grid: {grid.n_cols} x {grid.n_rows} tiles, "
      f"x in [{grid.x_min:g}, {grid.x_max:g}], y in [{grid.y_min:g}, {grid.y_max:g}]")

# Two ground-truth lanes: a gentle left-bending arc and a straight line,
# both lifted onto a mild sinusoid so the height channel has something to do.
y = np.arange(0.0, 78.0 + 0.5, 0.5)
arc_x = -2.0 + 0.004 * y ** 2 / 2.0
z = 0.2 * np.sin(2.0 * np.pi * y / 40.0)
arc = Lane3D(points=np.column_stack([arc_x, y, z]), lane_id=0)
straight = Lane3D(points=np.column_stack([np.full_like(y, 3.1), y, z]), lane_id=1)

targets = encode_scene([arc, straight], grid, bins)
occupied = np.argwhere(targets.occupancy > 0.5)
print(f"occupied tiles: {len(occupied)} of {grid.n_rows * grid.n_cols}")

# Peek at a few tiles: row, col, which lane won the tile, the fitted
# direction (radians from +x) and the signed lateral offset.
print("\n  row col lane   angle  offset  height")
for i, j in occupied[::9]:
    print(f"  {i:3d} {j:3d} {targets.lane_id[i, j]:4d}"
          f" {targets.angle[i, j]:7.3f} {targets.lateral_offset[i, j]:7.3f}"
          f" {targets.height_offset[i, j]:7.3f}")

# The direction is not stored as a raw angle but as soft labels over the
# bins plus per-bin residuals. The transform is exactly invertible:
phis = np.linspace(0.0, 2.0 * np.pi, 721)
worst = 0.0
for phi in phis:
    p, res, _ = angle_to_soft_labels(float(phi), bins)
    back = soft_labels_to_angle(p, res, bins)
    err = abs((back - phi + np.pi) % (2.0 * np.pi) - np.pi)
    worst = max(worst, err)
print(f"\nangle -> soft labels -> angle, worst wrap error over 721 angles: {worst:.2e} rad")

# A saturated prediction copies the targets through the activations
# (logits at +/-12), so decoding it recovers the encoded geometry.
preds = saturated_prediction(targets, embedding_dim=4)
segments = decode_grid(preds)
print(f"decoded segments: {len(segments)} (one per occupied tile)")

# The segments are columns, one row per decoded tile. How close are the
# decoded midpoints to the original polylines? Sample both lanes densely and
# take the nearest distance in 3D.
table = {0: np.column_stack([arc_x, y, z]), 1: np.column_stack([np.full_like(y, 3.1), y, z])}
rows, cols = segments.tile.T
lane_of = targets.lane_id[rows, cols]
errors = np.array([np.linalg.norm(table[lane] - mid, axis=1).min()
                   for lane, mid in zip(lane_of.tolist(), segments.midpoint)])
print(f"midpoint-to-truth distance: mean {errors.mean():.4f} m, "
      f"max {errors.max():.4f} m (tile line fits vs. 0.5 m polyline sampling)")

# Each segment also spans its tile border to border; the chord direction
# should agree with the stored angle.
chord = segments.endpoints[:, 1, :2] - segments.endpoints[:, 0, :2]
phi = np.arctan2(chord[:, 1], chord[:, 0])
diff = np.abs((phi - targets.angle[rows, cols] + np.pi) % (2.0 * np.pi) - np.pi)
ang_err = np.minimum(diff, np.abs(diff - np.pi))  # chord sign is arbitrary
print(f"chord vs. stored angle, max deviation: {ang_err.max():.2e} rad")
