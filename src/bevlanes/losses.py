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

from .codec import TilePredictionGrid, TileTargetGrid, _sigmoid


@dataclass(frozen=True)
class EmbeddingParams:
    """Margins and dimension of the per-tile lane embeddings."""

    pull_margin: float = 0.1
    push_margin: float = 3.0
    dim: int = 4

    def __post_init__(self):
        if not (0.0 < self.pull_margin < self.push_margin):
            raise ValueError(
                f"need 0 < pull_margin < push_margin, got {self.pull_margin}, {self.push_margin}")
        if self.dim < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {self.dim}")


@dataclass
class ClusterSummary:
    """Per-lane member counts and mean embeddings."""

    ids: np.ndarray     # (C,) lane ids, ascending
    counts: np.ndarray  # (C,) member tile counts, each >= 1
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
        ids = np.unique(labels[labels >= 0])
        counts = np.array([int(np.sum(labels == c)) for c in ids], dtype=np.int64)
        if len(ids) == 0:
            return cls(ids=ids, counts=counts, means=np.zeros((0, f.shape[1])))
        means = np.stack([f[labels == c].mean(axis=0) for c in ids])
        return cls(ids=ids, counts=counts, means=means)


@dataclass
class LossValueAndGrad:
    """A scalar loss with gradients keyed by prediction field name."""

    value: float
    grad: dict[str, np.ndarray]
    components: dict[str, float] = field(default_factory=dict)


def _bce_from_logit(z, p, pos_weight: float = 1.0):
    """Stable binary cross-entropy from logits; returns (value, d/dz) arrays.

    -(w*p*log(s) + (1-p)*log(1-s)) with s = sigmoid(z), written as
    w*p*softplus(-z) + (1-p)*softplus(z).
    """
    z = np.asarray(z, dtype=float)
    p = np.asarray(p, dtype=float)
    sp_neg = np.logaddexp(0.0, -z)
    sp_pos = np.logaddexp(0.0, z)
    value = pos_weight * p * sp_neg + (1.0 - p) * sp_pos
    s = _sigmoid(z)
    grad = pos_weight * p * (s - 1.0) + (1.0 - p) * s
    return value, grad


def _l1(pred, target):
    """Elementwise L1 with subgradient 0 at the kink."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    return np.abs(pred - target), np.sign(pred - target)


def offsets_loss(pred, target) -> LossValueAndGrad:
    """L1 loss on (lateral offset, height offset) for one tile.

    pred and target are (r, dz) pairs.
    """
    v_r, g_r = _l1(pred[0], target[0])
    v_z, g_z = _l1(pred[1], target[1])
    return LossValueAndGrad(
        value=float(v_r + v_z),
        grad={"lateral_offset": np.asarray(g_r), "height_offset": np.asarray(g_z)},
    )


def angle_loss(pred, target) -> LossValueAndGrad:
    """Direction loss for one tile: bin cross-entropy plus masked residual L1.

    pred is (bin_logits, bin_residuals); target is (bin_probs, bin_residuals,
    bin_mask). The cross-entropy runs over every bin; the residual term only
    over bins active in the target.
    """
    z, res_pred = (np.asarray(a, dtype=float) for a in pred)
    p, res_tgt, mask = (np.asarray(a, dtype=float) for a in target)
    bce_v, bce_g = _bce_from_logit(z, p)
    l1_v, l1_g = _l1(res_pred, res_tgt)
    return LossValueAndGrad(
        value=float(np.sum(bce_v) + np.sum(mask * l1_v)),
        grad={"bin_logits": bce_g, "bin_residuals": mask * l1_g},
    )


def score_loss(pred_logit, target, pos_weight: float = 1.0) -> LossValueAndGrad:
    """Occupancy binary cross-entropy for one tile, from the pre-activation."""
    target = float(target)
    if target not in (0.0, 1.0):
        raise ValueError(f"occupancy target must be 0 or 1, got {target}")
    v, g = _bce_from_logit(pred_logit, target, pos_weight)
    return LossValueAndGrad(value=float(v), grad={"score_logit": np.asarray(g)})


def total_tile_loss(preds: TilePredictionGrid, targets: TileTargetGrid,
                    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
                    pos_weight: float = 1.0) -> LossValueAndGrad:
    """Sum of score, angle and offset losses over the whole grid.

    value = sum_ij [ w_s * score_ij + c_ij * (w_a * angle_ij + w_o * offsets_ij) ]

    Angle and offset terms (values and gradients) are multiplied by the
    occupancy indicator, so unoccupied tiles contribute exactly zero and
    perturbing their regression fields changes nothing.
    """
    if preds.grid != targets.grid or preds.bins != targets.bins:
        raise ValueError("prediction and target grids have mismatched shapes")
    w_s, w_a, w_o = (float(w) for w in weights)
    occ = targets.occupancy

    score_v, score_g = _bce_from_logit(preds.score_logit, occ, pos_weight)

    bce_v, bce_g = _bce_from_logit(preds.bin_logits, targets.bin_probs)
    res_v, res_g = _l1(preds.bin_residuals, targets.bin_residuals)
    angle_v = np.sum(bce_v, axis=2) + np.sum(targets.bin_mask * res_v, axis=2)

    r_v, r_g = _l1(preds.lateral_offset, targets.lateral_offset)
    z_v, z_g = _l1(preds.height_offset, targets.height_offset)

    score_term = w_s * float(np.sum(score_v))
    angle_term = w_a * float(np.sum(occ * angle_v))
    offset_term = w_o * float(np.sum(occ * (r_v + z_v)))
    occ3 = occ[:, :, None]
    return LossValueAndGrad(
        value=score_term + angle_term + offset_term,
        grad={
            "score_logit": w_s * score_g,
            "bin_logits": w_a * occ3 * bce_g,
            "bin_residuals": w_a * occ3 * targets.bin_mask * res_g,
            "lateral_offset": w_o * occ * r_g,
            "height_offset": w_o * occ * z_g,
        },
        components={"score": score_term, "angle": angle_term, "offsets": offset_term},
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


@dataclass
class FiniteDiffReport:
    """Worst-case comparison of analytic gradients to central differences."""

    max_rel_error: float
    worst_field: str | None
    worst_index: tuple
    tolerance: float
    n_coords: int
    non_finite_at: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.non_finite_at is None and self.max_rel_error <= self.tolerance


def finite_diff_check(loss_fn, inputs: dict[str, np.ndarray], epsilon: float = 1e-6,
                      tolerance: float = 1e-6, sample: int | None = None) -> FiniteDiffReport:
    """Check loss_fn's analytic gradient coordinate by coordinate.

    loss_fn maps a dict of named arrays to a LossValueAndGrad whose grad dict
    uses the same names. Each probed coordinate is compared against the
    central difference (f(x+eps) - f(x-eps)) / (2 eps) with relative error
    |a - fd| / max(|a|, |fd|, 1). `sample`, if given, probes only that many
    evenly spaced coordinates per input (useful on large grids).

    Raises:
        epsilon <= 0 is rejected; non-finite loss values at probe points are
        recorded in the report (max_rel_error becomes inf).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    inputs = {k: np.array(v, dtype=float) for k, v in inputs.items()}
    base = loss_fn(inputs)
    report = FiniteDiffReport(max_rel_error=0.0, worst_field=None, worst_index=(),
                              tolerance=tolerance, n_coords=0)
    for name, arr in inputs.items():
        if name not in base.grad:
            continue
        analytic = np.asarray(base.grad[name], dtype=float)
        flat = arr.reshape(-1)
        idx = np.arange(flat.size)
        if sample is not None and sample < flat.size:
            idx = np.unique(np.linspace(0, flat.size - 1, sample).astype(int))
        for k in idx:
            orig = flat[k]
            flat[k] = orig + epsilon
            f_plus = loss_fn(inputs).value
            flat[k] = orig - epsilon
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
            fd = (f_plus - f_minus) / (2.0 * epsilon)
            a = float(analytic.reshape(-1)[k])
            rel = abs(a - fd) / max(abs(a), abs(fd), 1.0)
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_field = name
                report.worst_index = coord
    return report
