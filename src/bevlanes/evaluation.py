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

import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import Curve

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


def rasterize_curve(curve: Curve, cfg: EvalConfig) -> np.ndarray:
    """Binary mask of cells whose centers lie within lane_width/2 of the curve.

    The mask covers cfg.extent at cfg.raster_resolution, row index along y.
    Curves outside the extent produce empty masks.
    """
    (x_lo, x_hi), (y_lo, y_hi) = cfg.extent
    res = cfg.raster_resolution
    nx = int(round((x_hi - x_lo) / res))
    ny = int(round((y_hi - y_lo) / res))
    mask = np.zeros((ny, nx), dtype=bool)
    half = cfg.lane_width / 2.0
    pts = curve.points[:, :2]
    for p, q in zip(pts[:-1], pts[1:]):
        ia = max(0, int(math.floor((min(p[0], q[0]) - half - x_lo) / res - 0.5)))
        ib = min(nx - 1, int(math.ceil((max(p[0], q[0]) + half - x_lo) / res)))
        ja = max(0, int(math.floor((min(p[1], q[1]) - half - y_lo) / res - 0.5)))
        jb = min(ny - 1, int(math.ceil((max(p[1], q[1]) + half - y_lo) / res)))
        if ia > ib or ja > jb:
            continue
        cx = x_lo + (np.arange(ia, ib + 1) + 0.5) * res
        cy = y_lo + (np.arange(ja, jb + 1) + 0.5) * res
        gx, gy = np.meshgrid(cx, cy)
        vx, vy = q[0] - p[0], q[1] - p[1]
        den = vx * vx + vy * vy
        if den <= 0:
            d2 = (gx - p[0]) ** 2 + (gy - p[1]) ** 2
        else:
            t = np.clip(((gx - p[0]) * vx + (gy - p[1]) * vy) / den, 0.0, 1.0)
            d2 = (gx - (p[0] + t * vx)) ** 2 + (gy - (p[1] + t * vy)) ** 2
        mask[ja:jb + 1, ia:ib + 1] |= d2 <= half * half
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
    """IOU matrix (P, G), confidences and confidence order of one scene."""
    masks_p = [rasterize_curve(c, cfg) for c, _ in preds]
    masks_g = [rasterize_curve(g, cfg) for g in gts]
    iou = np.array([[mask_iou(mp, mg) for mg in masks_g] for mp in masks_p]
                   ).reshape(len(preds), len(gts))
    conf = np.array([c for _, c in preds])
    return iou, conf, _confidence_order(conf)


def match_and_ap(preds: list, gts: list, threshold: float, cfg: EvalConfig):
    """Greedy confidence-ordered matching at one IOU threshold, for one scene.

    preds is a list of (Curve, confidence). Returns (AP, matches, recall)
    where matches are (pred_index, gt_index, iou) triples.
    """
    _check_confidences(preds)
    iou, conf, order = _score_scene(preds, gts, cfg)
    tp, pairs = _greedy_match(iou, order, threshold)
    ap = _ap_from_flags(conf[order], tp, len(gts))
    recall = (sum(tp) / len(gts)) if gts else 0.0
    matches = [(p, g, float(iou[p, g])) for p, g in pairs]
    return ap, matches, float(recall)


# ---------------------------------------------------------------------------
# Lateral error


def _resample_curve(points: np.ndarray, step: float) -> np.ndarray:
    """Resample a 3D polyline at fixed xy arc-length steps (endpoint kept)."""
    seg = np.linalg.norm(np.diff(points[:, :2], axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(0.0, s[-1], step)
    if s[-1] - (targets[-1] if len(targets) else 0.0) > 1e-9:
        targets = np.append(targets, s[-1])
    return np.column_stack([np.interp(targets, s, points[:, k]) for k in range(3)])


def _nearest_on_polyline(points: np.ndarray, q: np.ndarray):
    """(xy distance, interpolated z) of the polyline point nearest to q (xy)."""
    p = points[:-1]
    v = points[1:] - p
    den = np.sum(v[:, :2] ** 2, axis=1)
    den[den == 0] = 1.0
    t = np.clip(((q[0] - p[:, 0]) * v[:, 0] + (q[1] - p[:, 1]) * v[:, 1]) / den, 0.0, 1.0)
    proj = p + t[:, None] * v
    d2 = (proj[:, 0] - q[0]) ** 2 + (proj[:, 1] - q[1]) ** 2
    k = int(np.argmin(d2))
    return math.sqrt(float(d2[k])), float(proj[k, 2])


def lateral_error(pairs: list, cfg: EvalConfig):
    """Mean absolute lateral error of matched curves, bucketed by range.

    pairs is a list of (predicted Curve, ground-truth Curve). Each predicted
    curve is resampled at lateral_sample_step along its xy arc length; every
    sample contributes its distance to the nearest point of the matched GT
    polyline, bucketed by the sample's y. Returns (bucket means, mean |dz|);
    buckets without samples are omitted rather than reported as zero.
    """
    samples = {bucket: [] for bucket in cfg.range_buckets}
    dz_all = []
    for pred, gt in pairs:
        for q in _resample_curve(pred.points, cfg.lateral_sample_step):
            d, z_gt = _nearest_on_polyline(gt.points, q)
            dz_all.append(abs(q[2] - z_gt))
            for lo, hi in cfg.range_buckets:
                if lo <= q[1] < hi:
                    samples[(lo, hi)].append(d)
                    break
    means = {b: float(np.mean(v)) for b, v in samples.items() if v}
    return means, (float(np.mean(dz_all)) if dz_all else None)


# ---------------------------------------------------------------------------
# Full protocol


def evaluate(preds: list, gts: list, cfg: EvalConfig,
             pred_scene_ids=None, gt_scene_ids=None) -> EvalReport:
    """Run the full protocol over one or many scenes.

    preds: list of (Curve, confidence); gts: list of Curve. Scene ids (same
    length as each list) keep matching within scenes while detections pool
    into a single PR curve per threshold, as in standard detection MAP.
    Lateral errors come from the IOU = 0.5 operating point with all
    predictions kept; if some confidence cutoff reaches recall 0.75, the
    lateral error at that cutoff is reported as well.
    """
    pred_scene_ids = list(pred_scene_ids) if pred_scene_ids is not None else [0] * len(preds)
    gt_scene_ids = list(gt_scene_ids) if gt_scene_ids is not None else [0] * len(gts)
    if len(pred_scene_ids) != len(preds) or len(gt_scene_ids) != len(gts):
        raise ValueError("scene id lists must parallel the curve lists")
    _check_confidences(preds)

    groups = {}
    for i, sid in enumerate(pred_scene_ids):
        groups.setdefault(sid, ([], []))[0].append(i)
    for i, sid in enumerate(gt_scene_ids):
        groups.setdefault(sid, ([], []))[1].append(i)
    per_scene = []
    for sid in sorted(groups):
        p_idx, g_idx = groups[sid]
        iou, conf, order = _score_scene([preds[i] for i in p_idx], [gts[i] for i in g_idx], cfg)
        per_scene.append((p_idx, g_idx, iou, conf, order))

    n_gt, n_pred = len(gts), len(preds)
    thresholds = list(cfg.iou_thresholds)
    operating = 0.5
    ap_per_threshold = {}
    op_matches = []
    op_tp_pool = None
    for t in sorted(set(thresholds) | {operating}):
        pool_conf, pool_tp = [], []
        matches_t = []
        for p_idx, g_idx, iou, conf, order in per_scene:
            tp, pairs = _greedy_match(iou, order, t)
            pool_conf.extend(conf[order])
            pool_tp.extend(tp)
            matches_t.extend((p_idx[p], g_idx[g]) for p, g in pairs)
        ap = _ap_from_flags(np.array(pool_conf), np.array(pool_tp, dtype=bool), n_gt)
        if t in thresholds:
            ap_per_threshold[t] = ap
        if t == operating:
            op_matches = matches_t
            op_tp_pool = (np.array(pool_conf), np.array(pool_tp, dtype=bool))

    pairs = [(preds[p][0], gts[g]) for p, g in op_matches]
    lat, mean_dz = lateral_error(pairs, cfg)
    recall_ref = len(op_matches) / n_gt if n_gt else 0.0

    recall75_conf = None
    lat75 = None
    if n_gt and op_tp_pool is not None:
        conf_sorted, tp_sorted = op_tp_pool
        desc = np.argsort(-conf_sorted, kind="stable")
        cum = np.cumsum(tp_sorted[desc])
        reach = np.flatnonzero(cum / n_gt >= 0.75)
        if len(reach):
            recall75_conf = float(conf_sorted[desc][reach[0]])
            pairs75 = [(preds[p][0], gts[g]) for p, g in op_matches
                       if preds[p][1] >= recall75_conf]
            lat75, _ = lateral_error(pairs75, cfg)

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
