"""Detection-style evaluation of predicted lane curves.

Curves are associated by IOU of their fixed-width rasterized footprints in
the BEV plane. Predictions are matched greedily in confidence order per
scene; average precision uses the exact area under the precision envelope
(all-point interpolation), and the headline score is the mean AP over a
sweep of IOU thresholds. Geometric accuracy is reported separately as the
mean absolute lateral error of matched curves, bucketed by range, at the
IOU = 0.5 operating point; height error is a supplementary scalar, not part
of the lateral metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Curve
from .geometry import resample_polyline

DEFAULT_EXTENT = ((-10.74, 10.74), (-0.5, 78.5))  # default grid padded by w/2


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation protocol settings."""

    iou_thresholds: tuple = tuple(round(0.1 * k, 1) for k in range(1, 10))
    lane_width: float = 1.0          # full dilation width for rasterization
    raster_resolution: float = 0.1   # meters per cell
    range_buckets: tuple = ((0.0, 30.0), (30.0, 80.0))
    lateral_sample_step: float = 1.0
    extent: tuple = DEFAULT_EXTENT   # ((x_lo, x_hi), (y_lo, y_hi)) raster window

    def __post_init__(self):
        t = self.iou_thresholds
        if not t or any(not (0.0 < v < 1.0) for v in t) or any(
                b <= a for a, b in zip(t[:-1], t[1:])):
            raise ValueError("iou_thresholds must be strictly increasing within (0, 1)")
        if self.lane_width <= 0:
            raise ValueError("lane_width must be positive")
        if not 0 < self.raster_resolution <= self.lane_width / 4:
            raise ValueError("raster_resolution must be in (0, lane_width/4]")
        if self.lateral_sample_step <= 0:
            raise ValueError("lateral_sample_step must be positive")
        for lo, hi in self.range_buckets:
            if hi <= lo:
                raise ValueError(f"empty range bucket ({lo}, {hi})")
        (x_lo, x_hi), (y_lo, y_hi) = self.extent
        if x_hi <= x_lo or y_hi <= y_lo:
            raise ValueError(f"empty raster extent {self.extent}")


@dataclass
class EvalReport:
    """Aggregated detection and geometry metrics."""

    ap_per_threshold: dict            # threshold -> AP
    map_score: float                  # mean of ap_per_threshold values
    recall_at_reference: float        # recall at the IOU = 0.5 operating point
    lateral_error: dict               # (y_lo, y_hi) -> mean abs lateral error, meters
    mean_abs_dz: float | None         # supplementary height error, meters
    counts: dict                      # n_gt, n_pred, n_matched (at IOU = 0.5)
    operating_iou: float = 0.5
    recall75_confidence: float | None = None   # confidence cutoff reaching recall 0.75
    lateral_error_at_recall75: dict | None = None

    def to_dict(self) -> dict:
        return {
            "ap_per_threshold": {f"{t:g}": v for t, v in self.ap_per_threshold.items()},
            "map_score": self.map_score,
            "recall_at_reference": self.recall_at_reference,
            "lateral_error": {f"{lo:g}-{hi:g}": v for (lo, hi), v in self.lateral_error.items()},
            "mean_abs_dz": self.mean_abs_dz,
            "counts": dict(self.counts),
            "operating_iou": self.operating_iou,
            "recall75_confidence": self.recall75_confidence,
            "lateral_error_at_recall75": (
                None if self.lateral_error_at_recall75 is None else
                {f"{lo:g}-{hi:g}": v for (lo, hi), v in self.lateral_error_at_recall75.items()}),
        }


# ---------------------------------------------------------------------------
# Rasterization and IOU


# Cells evaluated per step of the rasterizer. One segment's box can span the
# whole raster (~1.7e5 cells at the default extent), so boxes are walked in
# bands of rows rather than materialized at once.
_CELL_BUDGET = 4096


def rasterize_curve(curve: Curve, cfg: EvalConfig) -> np.ndarray:
    """Binary mask of cells whose centers lie within lane_width/2 of the curve.

    The mask covers cfg.extent at cfg.raster_resolution, row index along y.
    Cell (j, i) has center (x_lo + (i + 0.5) * res, y_lo + (j + 0.5) * res)
    and is set when, for some polyline segment p -> q, its squared xy
    distance to p + t (q - p) is at most (lane_width/2)^2, where t is the
    projection of the center onto the segment clipped to [0, 1] (t = 0 when
    |q - p|_xy is 0). Only cells in each segment's bounding box, padded by
    lane_width/2 and clipped to the extent, are tested. The box rows of all
    segments, grouped by box width, are tested in bands of at most
    _CELL_BUDGET cells (one row when a row is wider), so the working memory
    beside the mask is a few hundred KB however long a segment is. Curves
    outside the extent produce empty masks.
    """
    (x_lo, x_hi), (y_lo, y_hi) = cfg.extent
    res = cfg.raster_resolution
    nx = int(round((x_hi - x_lo) / res))
    ny = int(round((y_hi - y_lo) / res))
    mask = np.zeros((ny, nx), dtype=bool)
    half = cfg.lane_width / 2.0
    p, q = curve.points[:-1, :2], curve.points[1:, :2]
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    # Clamp before the integer cast; a box clamped past the far edge is empty.
    ia = np.clip(np.floor((lo[:, 0] - half - x_lo) / res - 0.5), 0, nx).astype(np.int64)
    ib = np.clip(np.ceil((hi[:, 0] + half - x_lo) / res), -1, nx - 1).astype(np.int64)
    ja = np.clip(np.floor((lo[:, 1] - half - y_lo) / res - 0.5), 0, ny).astype(np.int64)
    jb = np.clip(np.ceil((hi[:, 1] + half - y_lo) / res), -1, ny - 1).astype(np.int64)
    kept = np.flatnonzero((ia <= ib) & (ja <= jb))
    if not len(kept):
        return mask
    kept = kept[np.argsort((ib - ia)[kept], kind="stable")]    # by box width
    ia, ja, jb, width = ia[kept], ja[kept], jb[kept], (ib - ia + 1)[kept]
    p, v = p[kept], (q - p)[kept]
    den = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
    # A segment without xy extent measures to p: with v = 0, t is 0 and
    # p + t * v is p exactly.
    point = den <= 0
    v[point] = 0.0
    den[point] = 1.0
    # One entry per box row. Terms constant along a row are computed here,
    # with the operations the per-cell predicate would apply to them.
    rows = jb - ja + 1
    seg = np.repeat(np.arange(len(kept)), rows)
    row = ja[seg] + np.arange(len(seg)) - np.repeat(np.cumsum(rows) - rows, rows)
    first_col, width = ia[seg], width[seg]
    gy = y_lo + (row + 0.5) * res
    table = np.stack([p[seg, 0], v[seg, 0], p[seg, 1], v[seg, 1], gy,
                      (gy - p[seg, 1]) * v[seg, 1], den[seg]], axis=1)
    cx = x_lo + (np.arange(nx) + 0.5) * res     # cell-centre x of every column
    limit = half * half
    groups = np.concatenate([[0], np.flatnonzero(np.diff(width)) + 1, [len(seg)]])
    for g0, g1 in zip(groups[:-1], groups[1:]):     # rows of one box width
        cols = np.arange(width[g0])
        band = max(1, _CELL_BUDGET // len(cols))
        for r0 in range(g0, g1, band):
            r1 = min(r0 + band, g1)
            px, vx, py, vy, cy, ay, dn = table[r0:r1, :, None].transpose(1, 0, 2)
            gx = cx[first_col[r0:r1, None] + cols]
            t = np.maximum(((gx - px) * vx + ay) / dn, 0.0)     # clip to [0, 1]
            np.minimum(t, 1.0, out=t)
            hit_r, hit_c = np.nonzero(
                (gx - (px + t * vx)) ** 2 + (cy - (py + t * vy)) ** 2 <= limit)
            mask[row[r0 + hit_r], first_col[r0 + hit_r] + hit_c] = True
    return mask


def curve_iou(a: Curve, b: Curve, cfg: EvalConfig) -> float:
    """Intersection over union of the two curves' rasterized footprints."""
    return mask_iou(rasterize_curve(a, cfg), rasterize_curve(b, cfg))


def mask_iou(ma: np.ndarray, mb: np.ndarray) -> float:
    union = int(np.count_nonzero(ma | mb))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(ma & mb)) / union


# ---------------------------------------------------------------------------
# Matching and average precision


def _confidence_order(confidences) -> list[int]:
    """Indices by descending confidence; ties keep insertion order."""
    return sorted(range(len(confidences)), key=lambda i: (-confidences[i], i))


def _greedy_match(iou: np.ndarray, order: list[int], threshold: float):
    """Match each prediction (in the given order) to the best free GT.

    Returns (tp flags aligned with `order`, matches as (pred, gt) pairs).
    """
    n_gt = iou.shape[1]
    taken = np.zeros(n_gt, dtype=bool)
    tp = np.zeros(len(order), dtype=bool)
    matches = []
    for rank, p in enumerate(order):
        best_g, best_v = -1, -1.0
        for g in range(n_gt):
            if not taken[g] and iou[p, g] >= threshold and iou[p, g] > best_v:
                best_g, best_v = g, iou[p, g]
        if best_g >= 0:
            taken[best_g] = True
            tp[rank] = True
            matches.append((p, best_g))
    return tp, matches


def _ap_from_flags(confidences: np.ndarray, tp: np.ndarray, n_gt: int) -> float:
    """Exact area under the precision envelope (all-point interpolation)."""
    if n_gt == 0 or len(tp) == 0:
        return 0.0
    order = np.argsort(-confidences, kind="stable")
    flags = tp[order]
    cum_tp = np.cumsum(flags)
    precision = cum_tp / np.arange(1, len(flags) + 1)
    recall = cum_tp / n_gt
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap, prev_r = 0.0, 0.0
    for k in range(len(flags)):
        if flags[k]:
            ap += (recall[k] - prev_r) * env[k]
            prev_r = recall[k]
    return float(ap)


def _check_confidences(preds: list) -> None:
    if any(not (0.0 <= c <= 1.0) for _, c in preds):
        raise ValueError("confidences must lie in [0, 1]")


def _score_scene(preds: list, gts: list, cfg: EvalConfig):
    """IOU matrix (P, G), confidences and confidence order of one scene.

    GT masks are held for the scene; each prediction's mask only for its row.
    """
    masks_g = [rasterize_curve(g, cfg) for g in gts]
    iou = np.zeros((len(preds), len(gts)))
    for i, (curve, _) in enumerate(preds):
        mask = rasterize_curve(curve, cfg)
        iou[i] = [mask_iou(mask, mg) for mg in masks_g]
    conf = np.array([c for _, c in preds])
    return iou, conf, _confidence_order(conf)


def _pooled_match(scored: list, threshold: float):
    """Greedy matching of every scored scene at one IOU threshold, pooled.

    scored holds each scene's _score_scene result. Returns the confidences
    and TP flags of all predictions (scene by scene, each scene in its
    confidence order) and the matches as (scene, pred, gt) triples.
    """
    conf, tp, matches = [], [], []
    for s, (iou, scene_conf, order) in enumerate(scored):
        flags, pairs = _greedy_match(iou, order, threshold)
        conf.extend(scene_conf[order])
        tp.extend(flags)
        matches.extend((s, p, g) for p, g in pairs)
    return np.array(conf), np.array(tp, dtype=bool), matches


def match_and_ap(preds: list, gts: list, threshold: float, cfg: EvalConfig):
    """Greedy confidence-ordered matching at one IOU threshold, for one scene.

    preds is a list of (Curve, confidence). Returns (AP, matches, recall)
    where matches are (pred_index, gt_index, iou) triples.
    """
    _check_confidences(preds)
    scored = _score_scene(preds, gts, cfg)
    conf, tp, matches = _pooled_match([scored], threshold)
    ap = _ap_from_flags(conf, tp, len(gts))
    iou = scored[0]
    recall = len(matches) / len(gts) if gts else 0.0
    return ap, [(p, g, float(iou[p, g])) for _, p, g in matches], recall


# ---------------------------------------------------------------------------
# Lateral error


def lateral_error(pairs: list, cfg: EvalConfig):
    """Mean absolute lateral error of matched curves, bucketed by range.

    pairs is a list of (predicted Curve, ground-truth Curve). Each predicted
    curve is resampled at lateral_sample_step along its xy arc length; every
    sample contributes its distance to the nearest point of the matched GT
    polyline (the first GT segment on ties), bucketed by the first range
    bucket holding the sample's y. Returns (bucket means, mean |dz|); buckets
    without samples are omitted rather than reported as zero.
    """
    dists, ys, dzs = [], [], []
    for pred, gt in pairs:
        q = resample_polyline(pred.points, cfg.lateral_sample_step)
        p = gt.points[:-1]
        v = gt.points[1:] - p
        den = np.sum(v[:, :2] ** 2, axis=1)
        den[den == 0] = 1.0
        # (samples, GT segments): every sample projected on every segment
        qx, qy = q[:, :1], q[:, 1:2]
        t = np.clip(((qx - p[:, 0]) * v[:, 0] + (qy - p[:, 1]) * v[:, 1]) / den, 0.0, 1.0)
        d2 = (p[:, 0] + t * v[:, 0] - qx) ** 2 + (p[:, 1] + t * v[:, 1] - qy) ** 2
        k = np.argmin(d2, axis=1)
        rows = np.arange(len(q))
        dists.append(np.sqrt(d2[rows, k]))
        ys.append(q[:, 1])
        dzs.append(np.abs(q[:, 2] - (p[k, 2] + t[rows, k] * v[k, 2])))
    if not sum(len(d) for d in dists):   # no pairs, or only zero-length predictions
        return {}, None
    d, y = np.concatenate(dists), np.concatenate(ys)
    means = {}
    free = np.ones(len(d), dtype=bool)
    for lo, hi in cfg.range_buckets:
        inside = free & (lo <= y) & (y < hi)
        if inside.any():
            means[(lo, hi)] = float(np.mean(d[inside]))
        free &= ~inside
    return means, float(np.mean(np.concatenate(dzs)))


# ---------------------------------------------------------------------------
# Full protocol


def evaluate(scenes, cfg: EvalConfig) -> EvalReport:
    """Run the full protocol over a sequence of (preds, gts) pairs, one per scene.

    preds: list of (Curve, confidence); gts: list of Curve. Predictions match
    only their own scene's GTs, while detections pool into a single PR curve
    per threshold, as in standard detection MAP. Confidence ties keep
    prediction order within a scene and scene order across scenes; with zero
    noise every confidence is 1.0, so AP there depends on that order.
    Lateral errors come from the IOU = 0.5 operating point with all
    predictions kept; if some confidence cutoff reaches recall 0.75, the
    lateral error at that cutoff is reported as well.
    """
    scenes = list(scenes)
    for preds, _ in scenes:
        _check_confidences(preds)
    scored = [_score_scene(preds, gts, cfg) for preds, gts in scenes]
    n_gt = sum(len(gts) for _, gts in scenes)
    n_pred = sum(len(preds) for preds, _ in scenes)
    thresholds = list(cfg.iou_thresholds)
    operating = 0.5
    ap_per_threshold = {}
    for t in sorted(set(thresholds) | {operating}):
        conf, tp, matches = _pooled_match(scored, t)
        if t in thresholds:
            ap_per_threshold[t] = _ap_from_flags(conf, tp, n_gt)
        if t == operating:
            op_conf, op_tp, op_matches = conf, tp, matches

    matched = [(*scenes[s][0][p], scenes[s][1][g]) for s, p, g in op_matches]
    lat, mean_dz = lateral_error([(curve, gt) for curve, _, gt in matched], cfg)
    recall_ref = len(op_matches) / n_gt if n_gt else 0.0

    recall75_conf = None
    lat75 = None
    if n_gt:
        desc = np.argsort(-op_conf, kind="stable")
        cum = np.cumsum(op_tp[desc])
        reach = np.flatnonzero(cum / n_gt >= 0.75)
        if len(reach):
            recall75_conf = float(op_conf[desc][reach[0]])
            lat75, _ = lateral_error(
                [(curve, gt) for curve, c, gt in matched if c >= recall75_conf], cfg)

    return EvalReport(
        ap_per_threshold=ap_per_threshold,
        map_score=float(np.mean(list(ap_per_threshold.values()))),
        recall_at_reference=recall_ref,
        lateral_error=lat,
        mean_abs_dz=mean_dz,
        counts={"n_gt": n_gt, "n_pred": n_pred, "n_matched": len(op_matches)},
        operating_iou=operating,
        recall75_confidence=recall75_conf,
        lateral_error_at_recall75=lat75,
    )
