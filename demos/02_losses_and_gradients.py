"""
Training losses and their analytic gradients
============================================

Every loss in the library returns (value, gradient) as a pure function of
the prediction arrays, which makes them easy to validate: perturb one
coordinate, difference the loss, compare with the analytic entry. This
script evaluates the losses at a perfect prediction, at a corrupted one,
and then runs the central-difference check on every operator.
"""

import numpy as np

from bevlanes import (EmbeddingParams, GridSpec, Lane3D, angle_loss, embedding_loss,
                      encode_scene, finite_diff_check, offsets_loss, pull_loss,
                      push_loss, saturated_prediction, score_loss, total_tile_loss)
from bevlanes.codec import AngleBinSpec, TilePredictionGrid
from bevlanes.losses import ClusterSummary

rng = np.random.default_rng(7)
grid = GridSpec(n_cols=6, n_rows=8)
bins = AngleBinSpec()

# Lanes drift sideways a little, so the tile direction falls between two
# bin centers and the soft labels are genuine two-bin mixtures.
y = np.arange(grid.y_min, grid.y_max + 1.0, 1.0)
lanes = [Lane3D(np.column_stack([x + 0.08 * y, y, 0.05 * y]), lane_id=k)
         for k, x in enumerate((-1.9, 1.7))]
targets = encode_scene(lanes, grid, bins)
occ = targets.occupancy > 0.5
print(f"toy scene: {len(lanes)} lanes on a {grid.n_cols} x {grid.n_rows} grid, "
      f"{int(occ.sum())} occupied tiles")

# At a saturated perfect prediction the regression terms vanish and the
# score term is pinned by the logit saturation; only the angle term keeps
# an irreducible floor, the binary entropy of the soft bin labels.
perfect = saturated_prediction(targets, embedding_dim=4)
base = total_tile_loss(perfect, targets)
p = targets.bin_probs[occ]
with np.errstate(divide="ignore", invalid="ignore"):
    ent = np.where(p > 0, -p * np.log(p), 0.0) + np.where(p < 1, -(1 - p) * np.log1p(-p), 0.0)
floor = float(ent.sum())
print(f"\nperfect prediction: total {base.value:.6f}")
for name, val in base.components.items():
    print(f"  {name:8s} {val:.6f}")
print(f"  angle floor (sum of per-bin binary entropies): {floor:.6f}")

# Corrupt the offsets and watch only the offsets component move.
noisy = saturated_prediction(targets, embedding_dim=4)
noisy.lateral_offset = noisy.lateral_offset + rng.normal(0.0, 0.1, noisy.lateral_offset.shape)
out = total_tile_loss(noisy, targets)
print(f"\nafter N(0, 0.1) lateral noise: offsets {out.components['offsets']:.4f} "
      f"(score and angle unchanged: {out.components['score']:.6f}, "
      f"{out.components['angle']:.6f})")

# The push-pull pair on embeddings, with hand-checkable values. Two lane
# means at distance 1 with push margin 3 cost (3 - 1)^2 = 4; one member
# at distance 0.6 from its mean with pull margin 0.1 costs (0.5)^2 = 0.25.
params = EmbeddingParams(pull_margin=0.1, push_margin=3.0, dim=3)
means = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
summary = ClusterSummary(ids=np.array([0, 1]), means=means)
print(f"\npush at mean distance 1, margin 3: {push_loss(summary, params).value:.6f} (expect 4)")
# pull_loss derives the mean from the members, so probe it through a pair
# symmetric about the origin: each sits 0.6 from the mean.
pair = np.array([[0.6, 0.0, 0.0], [-0.6, 0.0, 0.0]])
val, _ = pull_loss(pair, np.array([0, 0]), params)
print(f"pull at member distance 0.6, margin 0.1: {val.value:.6f} (expect 0.25)")

# Now the gradient checks. Each operator is wrapped as a function of a
# dict of named arrays; finite_diff_check probes coordinates one by one.
i, j = map(int, np.argwhere(occ)[0])
checks = {
    "score": (lambda d: score_loss(d["score_logit"], 1.0),
              {"score_logit": np.array(0.3)}),
    "offsets": (lambda d: offsets_loss((d["lateral_offset"], d["height_offset"]),
                                       (targets.lateral_offset[i, j],
                                        targets.height_offset[i, j])),
                {"lateral_offset": np.array(0.21), "height_offset": np.array(-0.4)}),
    "angle": (lambda d: angle_loss((d["bin_logits"], d["bin_residuals"]),
                                   (targets.bin_probs[i, j], targets.bin_residuals[i, j],
                                    targets.bin_mask[i, j])),
              {"bin_logits": rng.normal(0.0, 1.0, bins.n_bins),
               "bin_residuals": rng.normal(0.0, 0.2, bins.n_bins)}),
    "embedding": (lambda d: embedding_loss(d["embedding"], targets.lane_id,
                                           EmbeddingParams(dim=4)),
                  {"embedding": rng.normal(0.0, 1.0, (grid.n_rows, grid.n_cols, 4))}),
}


def total_fn(d):
    probe = TilePredictionGrid(grid=grid, bins=bins, embedding=perfect.embedding,
                               **{k: d[k] for k in ("score_logit", "lateral_offset",
                                                    "height_offset", "bin_logits",
                                                    "bin_residuals")})
    return total_tile_loss(probe, targets)


checks["total"] = (total_fn, {
    "score_logit": rng.normal(0.0, 2.0, (grid.n_rows, grid.n_cols)),
    "lateral_offset": rng.normal(0.0, 0.3, (grid.n_rows, grid.n_cols)),
    "height_offset": rng.normal(0.0, 0.3, (grid.n_rows, grid.n_cols)),
    "bin_logits": rng.normal(0.0, 1.0, (grid.n_rows, grid.n_cols, bins.n_bins)),
    "bin_residuals": rng.normal(0.0, 0.2, (grid.n_rows, grid.n_cols, bins.n_bins)),
})

print("\ncentral-difference check (eps 1e-6, tolerance 1e-6):")
print("  op         coords  max rel error  worst field")
for name, (fn, inputs) in checks.items():
    rep = finite_diff_check(fn, inputs, sample=48)
    status = "ok" if rep.passed else "FAIL"
    print(f"  {name:9s} {rep.n_coords:6d}   {rep.max_rel_error:.3e}  "
          f"{rep.worst_field} {status}")
