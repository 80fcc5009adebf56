"""Training losses for the tile grid, with analytic gradients.

Every loss is a pure function returning both its value and the gradient with
respect to each prediction field it touches, so correctness can be checked
against central finite differences. Cross-entropy terms are evaluated from
pre-activation logits in the numerically stable softplus form, never through
log(sigmoid(z)) directly.

Per-tile regression terms are masked by ground-truth occupancy: the masking
is applied by multiplying with the {0, 1} occupancy array, which makes the
gradients at unoccupied tiles exactly zero rather than merely small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import MAX_COORDINATE, TilePredictionGrid, TileTargetGrid, _sigmoid
from .geometry import check_settings, distinct


@dataclass(frozen=True)
class EmbeddingParams:
    """Margins and dimension of the per-tile lane embeddings."""

    pull_margin: float = 0.1
    push_margin: float = field(default=3.0, metadata={"<=": MAX_COORDINATE / 10})
    dim: int = field(default=4, metadata={">=": 1})

    def __post_init__(self):
        check_settings(self)
        if not (0.0 < self.pull_margin < self.push_margin):
            raise ValueError(
                f"need 0 < pull_margin < push_margin, got {self.pull_margin}, {self.push_margin}")


@dataclass
class ClusterSummary:
    """Per-lane mean embeddings."""

    ids: np.ndarray     # (C,) lane ids, ascending
    means: np.ndarray   # (C, d) mean member embedding

    @property
    def n_lanes(self) -> int:
        return len(self.ids)

    @classmethod
    def from_embeddings(cls, embeddings: np.ndarray, lane_ids: np.ndarray) -> "ClusterSummary":
        """Summarize embeddings grouped by lane id; negative ids are background."""
        f = np.asarray(embeddings, dtype=float).reshape(-1, np.shape(embeddings)[-1])
        labels = np.asarray(lane_ids).reshape(-1)
        if labels.shape[0] != f.shape[0]:
            raise ValueError(f"{labels.shape[0]} lane ids for {f.shape[0]} embeddings")
        ids = distinct(labels[labels >= 0])
        if len(ids) == 0:
            return cls(ids=ids, means=np.zeros((0, f.shape[1])))
        return cls(ids=ids, means=np.stack([f[labels == c].mean(axis=0) for c in ids]))


@dataclass
class LossValueAndGrad:
    """A scalar loss with gradients keyed by prediction field name."""

    value: float
    grad: dict[str, np.ndarray]
    components: dict[str, float] = field(default_factory=dict)


def _bce_from_logit(z, p):
    """Stable binary cross-entropy from logits; returns (value, d/dz) arrays.

    -(p*log(s) + (1-p)*log(1-s)) with s = sigmoid(z), written as
    p*softplus(-z) + (1-p)*softplus(z).
    """
    z = np.asarray(z, dtype=float)
    p = np.asarray(p, dtype=float)
    sp_neg = np.logaddexp(0.0, -z)
    sp_pos = np.logaddexp(0.0, z)
    value = p * sp_neg + (1.0 - p) * sp_pos
    s = _sigmoid(z)
    grad = p * (s - 1.0) + (1.0 - p) * s
    return value, grad


def _l1(pred, target):
    """Elementwise L1 with subgradient 0 at the kink."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    return np.abs(pred - target), np.sign(pred - target)


def offsets_loss(pred, target, occupancy=1.0) -> LossValueAndGrad:
    """L1 loss on (lateral offset, height offset), masked by the occupancy.

    pred and target are (r, dz) pairs of arrays of any one shape, or of
    numbers for one tile; occupancy is 0 or 1 per tile.
    """
    occ = np.asarray(occupancy, dtype=float)
    v_r, g_r = _l1(pred[0], target[0])
    v_z, g_z = _l1(pred[1], target[1])
    return LossValueAndGrad(
        value=float(np.sum(occ * (v_r + v_z))),
        grad={"lateral_offset": occ * g_r, "height_offset": occ * g_z},
    )


def angle_loss(pred, target, occupancy=1.0) -> LossValueAndGrad:
    """Direction loss: bin cross-entropy plus masked residual L1, masked by
    the occupancy.

    pred is (bin_logits, bin_residuals); target is (bin_probs, bin_residuals,
    bin_mask), each with the bins on the last axis and any leading shape;
    occupancy is 0 or 1 per tile. The cross-entropy runs over every bin; the
    residual term only over bins active in the target.
    """
    z, res_pred = (np.asarray(a, dtype=float) for a in pred)
    p, res_tgt, mask = (np.asarray(a, dtype=float) for a in target)
    occ = np.asarray(occupancy, dtype=float)
    bce_v, bce_g = _bce_from_logit(z, p)
    l1_v, l1_g = _l1(res_pred, res_tgt)
    occ_bins = occ[..., None]
    return LossValueAndGrad(
        value=float(np.sum(occ * (np.sum(bce_v, axis=-1) + np.sum(mask * l1_v, axis=-1)))),
        grad={"bin_logits": occ_bins * bce_g, "bin_residuals": occ_bins * mask * l1_g},
    )


def score_loss(pred_logit, target) -> LossValueAndGrad:
    """Occupancy binary cross-entropy from the pre-activation, summed over
    the tiles; target is 0 or 1 per tile."""
    target = np.asarray(target, dtype=float)
    bad = (target != 0.0) & (target != 1.0)
    if np.any(bad):
        raise ValueError(f"occupancy target must be 0 or 1, got {target[bad][0]}")
    v, g = _bce_from_logit(pred_logit, target)
    return LossValueAndGrad(value=float(np.sum(v)), grad={"score_logit": np.asarray(g)})


def total_tile_loss(preds: TilePredictionGrid, targets: TileTargetGrid) -> LossValueAndGrad:
    """Sum of score, angle and offset losses over the whole grid.

    value = sum_ij [ score_ij + c_ij * (angle_ij + offsets_ij) ]

    Angle and offset terms (values and gradients) are multiplied by the
    occupancy indicator, so unoccupied tiles contribute exactly zero and
    perturbing their regression fields changes nothing.
    """
    if preds.grid != targets.grid or preds.bins != targets.bins:
        raise ValueError("prediction and target grids have mismatched shapes")
    occ = targets.occupancy
    parts = (score_loss(preds.score_logit, occ),
             angle_loss((preds.bin_logits, preds.bin_residuals),
                        (targets.bin_probs, targets.bin_residuals, targets.bin_mask), occ),
             offsets_loss((preds.lateral_offset, preds.height_offset),
                          (targets.lateral_offset, targets.height_offset), occ))
    score, angle, offsets = (part.value for part in parts)
    return LossValueAndGrad(
        value=score + angle + offsets,
        grad={name: g for part in parts for name, g in part.grad.items()},
        components={"score": score, "angle": angle, "offsets": offsets},
    )


# ---------------------------------------------------------------------------
# Embedding (push-pull) losses


def pull_loss(embeddings: np.ndarray, lane_ids: np.ndarray,
              params: EmbeddingParams) -> tuple[LossValueAndGrad, ClusterSummary]:
    """Hinged variance loss pulling each lane's embeddings toward their mean.

    value = (1/C) sum_c (1/N_c) sum_members max(0, ||mu_c - f|| - pull_margin)^2

    The lane mean mu_c is a function of the member embeddings, and that
    dependence is propagated through the gradient. Tiles with negative lane
    id are background and do not participate. Zero lanes give value 0.
    """
    emb = np.asarray(embeddings, dtype=float)
    shape = emb.shape
    f = emb.reshape(-1, shape[-1])
    labels = np.asarray(lane_ids).reshape(-1)
    summary = ClusterSummary.from_embeddings(f, labels)
    grad = np.zeros_like(f)
    if summary.n_lanes == 0:
        return LossValueAndGrad(value=0.0, grad={"embedding": grad.reshape(shape)}), summary

    c_count = summary.n_lanes
    value = 0.0
    for c_idx, lane in enumerate(summary.ids):
        member = np.flatnonzero(labels == lane)
        fc = f[member]
        n_c = len(member)
        mu = summary.means[c_idx]
        diff = mu[None, :] - fc                       # (N_c, d)
        dist = np.linalg.norm(diff, axis=1)
        hinge = np.maximum(0.0, dist - params.pull_margin)
        value += float(np.sum(hinge ** 2)) / n_c

        active = hinge > 0.0
        if np.any(active):
            unit = np.zeros_like(diff)
            unit[active] = diff[active] / dist[active, None]
            hu = hinge[:, None] * unit                # (N_c, d)
            # d||mu - f_i|| / df_j = unit_i / N_c - [i == j] * unit_i
            g = (2.0 / n_c) * (hu.sum(axis=0)[None, :] / n_c - hu)
            grad[member] += g / c_count
    value /= c_count
    return LossValueAndGrad(value=value, grad={"embedding": grad.reshape(shape)}), summary


def push_loss(summary: ClusterSummary, params: EmbeddingParams) -> LossValueAndGrad:
    """Hinged margin loss pushing lane mean embeddings apart.

    value = (1/(C(C-1))) sum over ordered pairs A != B of
            max(0, push_margin - ||mu_A - mu_B||)^2

    With fewer than two lanes there are no pairs and the value is 0.
    The gradient is with respect to the means.
    """
    mu = np.asarray(summary.means, dtype=float)
    c_count = summary.n_lanes
    grad = np.zeros_like(mu)
    if c_count <= 1:
        return LossValueAndGrad(value=0.0, grad={"means": grad})
    norm = 1.0 / (c_count * (c_count - 1))
    value = 0.0
    for a in range(c_count):
        for b in range(c_count):
            if a == b:
                continue
            d_vec = mu[a] - mu[b]
            dist = float(np.linalg.norm(d_vec))
            gap = params.push_margin - dist
            if gap <= 0.0:
                continue
            value += gap ** 2
            if dist > 0.0:
                grad[a] += -2.0 * gap * d_vec / dist
                grad[b] += 2.0 * gap * d_vec / dist
            # coincident means: ||.|| is non-differentiable, subgradient 0
    return LossValueAndGrad(value=norm * value, grad={"means": norm * grad})


def embedding_loss(embeddings: np.ndarray, lane_ids: np.ndarray,
                   params: EmbeddingParams) -> LossValueAndGrad:
    """Combined push-pull embedding loss with gradients w.r.t. the embeddings.

    The push term's dependence on the embeddings runs through the lane means
    (each member contributes 1/N_c to its lane mean), and is chained into the
    returned gradient.
    """
    emb = np.asarray(embeddings, dtype=float)
    shape = emb.shape
    pull, summary = pull_loss(emb, lane_ids, params)
    push = push_loss(summary, params)
    grad = pull.grad["embedding"].reshape(-1, shape[-1]).copy()
    labels = np.asarray(lane_ids).reshape(-1)
    for c_idx, lane in enumerate(summary.ids):
        member = np.flatnonzero(labels == lane)
        grad[member] += push.grad["means"][c_idx] / len(member)
    return LossValueAndGrad(
        value=pull.value + push.value,
        grad={"embedding": grad.reshape(shape)},
        components={"pull": pull.value, "push": push.value},
    )


# ---------------------------------------------------------------------------
# Finite-difference verification


# The central-difference step, and the largest relative error that passes.
FD_EPSILON = 1e-6
FD_TOLERANCE = 1e-6


@dataclass
class FiniteDiffReport:
    """Worst-case comparison of analytic gradients to central differences."""

    max_rel_error: float
    worst_field: str | None
    worst_index: tuple
    n_coords: int
    non_finite_at: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.non_finite_at is None and self.max_rel_error <= FD_TOLERANCE


def finite_diff_check(loss_fn, inputs: dict[str, np.ndarray],
                      sample: int | None = None) -> FiniteDiffReport:
    """Check loss_fn's analytic gradient coordinate by coordinate.

    loss_fn maps a dict of named arrays to a LossValueAndGrad whose grad dict
    uses the same names. Each probed coordinate is compared against the
    central difference (f(x+eps) - f(x-eps)) / (2 eps), eps = FD_EPSILON, with
    relative error |a - fd| / max(|a|, |fd|, 1). `sample`, if given, probes
    only that many evenly spaced coordinates per input (useful on large
    grids). Non-finite loss values at probe points are recorded in the report
    (max_rel_error becomes inf).
    """
    inputs = {k: np.array(v, dtype=float) for k, v in inputs.items()}
    base = loss_fn(inputs)
    report = FiniteDiffReport(max_rel_error=0.0, worst_field=None, worst_index=(), n_coords=0)
    for name, arr in inputs.items():
        if name not in base.grad:
            continue
        analytic = np.asarray(base.grad[name], dtype=float)
        flat = arr.reshape(-1)
        idx = np.arange(flat.size)
        if sample is not None and sample < flat.size:
            idx = distinct(np.linspace(0, flat.size - 1, sample).astype(int))
        for k in idx:
            orig = flat[k]
            flat[k] = orig + FD_EPSILON
            f_plus = loss_fn(inputs).value
            flat[k] = orig - FD_EPSILON
            f_minus = loss_fn(inputs).value
            flat[k] = orig
            report.n_coords += 1
            coord = np.unravel_index(k, arr.shape)
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                report.non_finite_at = (name, *coord)
                report.max_rel_error = np.inf
                report.worst_field = name
                report.worst_index = coord
                return report
            fd = (f_plus - f_minus) / (2.0 * FD_EPSILON)
            a = float(analytic.reshape(-1)[k])
            rel = abs(a - fd) / max(abs(a), abs(fd), 1.0)
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_field = name
                report.worst_index = coord
    return report
