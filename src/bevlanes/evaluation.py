"""Detection-style evaluation of predicted lane curves.

Curves are associated by IOU of their fixed-width rasterized footprints in
the BEV plane. Predictions are matched greedily in confidence order per
scene; average precision uses the exact area under the precision envelope
(all-point interpolation), and the headline score is the mean AP over a
sweep of IOU thresholds. Geometric accuracy is reported separately as the
mean absolute lateral error of matched curves, bucketed by range, at the
IOU = 0.5 operating point; height error is a supplementary scalar, not part
of the lateral metric.

As in COCOeval's split into per-image `evaluate` and `accumulate`, the
protocol has a per-scene part and a reduction: `score_scene` rasterizes,
matches and samples one scene into a small `SceneRecord`, and `evaluate`
pools the records of all scenes into the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Curve
from .geometry import Lane3D, resample_polyline

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


def rasterize_curve(curve: Curve | Lane3D, cfg: EvalConfig) -> np.ndarray:
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


def _scene_iou(preds: list, gts: list, cfg: EvalConfig):
    """IOU matrix (P, G), confidences (each in [0, 1]) and confidence order of
    one scene. GT masks are held for the scene, each prediction's only for its row.
    """
    if any(not (0.0 <= c <= 1.0) for _, c in preds):
        raise ValueError("confidences must lie in [0, 1]")
    masks_g = [rasterize_curve(g, cfg) for g in gts]
    iou = np.zeros((len(preds), len(gts)))
    for i, (curve, _) in enumerate(preds):
        mask = rasterize_curve(curve, cfg)
        iou[i] = [mask_iou(mask, mg) for mg in masks_g]
    conf = np.array([c for _, c in preds])
    return iou, conf, _confidence_order(conf)


def match_and_ap(preds: list, gts: list, threshold: float, cfg: EvalConfig):
    """Greedy confidence-ordered matching at one IOU threshold, for one scene.

    preds is a list of (Curve, confidence). Returns (AP, matches, recall)
    where matches are (pred_index, gt_index, iou) triples.
    """
    iou, conf, order = _scene_iou(preds, gts, cfg)
    tp, matches = _greedy_match(iou, order, threshold)
    ap = _ap_from_flags(conf[order], tp, len(gts))
    recall = len(matches) / len(gts) if gts else 0.0
    return ap, [(p, g, float(iou[p, g])) for p, g in matches], recall


# ---------------------------------------------------------------------------
# Lateral error


def lateral_error(pairs: list, cfg: EvalConfig) -> list[np.ndarray]:
    """Lateral samples of matched curves, one (3, n) array per pair, for `range_means`.

    pairs is a list of (predicted Curve, ground-truth Lane3D). Each predicted
    curve is resampled at lateral_sample_step along its xy arc length; every
    sample gives a column (distance to the nearest point of the matched GT
    polyline, the first GT segment on ties; its y; |dz| to that point).
    """
    samples = []
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
        samples.append(np.stack([np.sqrt(d2[rows, k]), q[:, 1],
                                 np.abs(q[:, 2] - (p[k, 2] + t[rows, k] * v[k, 2]))]))
    return samples


def range_means(samples: list, cfg: EvalConfig):
    """(mean absolute lateral error by range bucket, mean |dz|) of the
    `lateral_error` samples in the given order; a sample counts in the first
    bucket holding its y. Buckets without samples are omitted rather than
    reported as zero, and no samples at all give ({}, None)."""
    d, y, dz = np.concatenate([np.zeros((3, 0)), *samples], axis=1)
    if not len(d):     # no pairs, or only zero-length predictions
        return {}, None
    means = {}
    free = np.ones(len(d), dtype=bool)
    for lo, hi in cfg.range_buckets:
        inside = free & (lo <= y) & (y < hi)
        if inside.any():
            means[(lo, hi)] = float(np.mean(d[inside]))
        free &= ~inside
    return means, float(np.mean(dz))


# ---------------------------------------------------------------------------
# Full protocol: score_scene per scene, evaluate over all of them

OPERATING_IOU = 0.5


def _thresholds(cfg: EvalConfig) -> list:
    """The IOU thresholds matched in each scene: the sweep and the operating point."""
    return sorted(set(cfg.iou_thresholds) | {OPERATING_IOU})


@dataclass(frozen=True)
class SceneRecord:
    """What `evaluate` needs of one scene, without its curves. Predictions are
    in confidence order, and the matches at the operating IOU in match order."""

    n_gt: int
    conf: np.ndarray          # (P,) confidences
    tp: np.ndarray            # (T, P) TP flags at each threshold of `_thresholds`
    match_conf: np.ndarray    # (M,) confidence of each match
    n_samples: np.ndarray     # (M,) lateral samples of each match
    samples: np.ndarray       # (3, S) their `lateral_error` columns, match after match


def score_scene(preds: list, gts: list, cfg: EvalConfig) -> SceneRecord:
    """Match one scene at every threshold and sample its operating-point matches.

    preds: list of (Curve, confidence); gts: the scene's Lane3Ds, which may
    repeat a vertex. Predictions match only this scene's GTs.
    """
    iou, conf, order = _scene_iou(preds, gts, cfg)
    thresholds = _thresholds(cfg)
    tp, pairs = zip(*(_greedy_match(iou, order, t) for t in thresholds))
    matches = pairs[thresholds.index(OPERATING_IOU)]
    samples = lateral_error([(preds[p][0], gts[g]) for p, g in matches], cfg)
    return SceneRecord(len(gts), conf[order], np.array(tp, dtype=bool),
                       np.array([preds[p][1] for p, _ in matches], dtype=float),
                       np.array([s.shape[1] for s in samples], dtype=np.int64),
                       np.concatenate([np.zeros((3, 0)), *samples], axis=1))


def evaluate(records, cfg: EvalConfig) -> EvalReport:
    """Pool the `score_scene` records of all scenes, in scene order, into one PR
    curve per threshold, as in standard detection MAP. Confidence ties keep
    prediction order within a scene and scene order across scenes (with zero
    noise every confidence is 1.0, so AP there depends on that order).
    Lateral errors come from the IOU = 0.5 matches of all predictions; if some
    confidence cutoff reaches recall 0.75, those of the matches at or above
    it are reported as well."""
    records = list(records)
    thresholds = _thresholds(cfg)
    n_gt = sum(r.n_gt for r in records)
    conf = np.concatenate([np.zeros(0), *(r.conf for r in records)])
    tp = np.concatenate([np.zeros((len(thresholds), 0), dtype=bool),
                         *(r.tp for r in records)], axis=1)
    ap_per_threshold = {t: _ap_from_flags(conf, flags, n_gt)
                        for t, flags in zip(thresholds, tp) if t in cfg.iou_thresholds}
    op_tp = tp[thresholds.index(OPERATING_IOU)]
    n_matched = int(np.count_nonzero(op_tp))
    lat, mean_dz = range_means([r.samples for r in records], cfg)

    recall75_conf = lat75 = None
    if n_gt:
        desc = np.argsort(-conf, kind="stable")
        cum = np.cumsum(op_tp[desc])
        reach = np.flatnonzero(cum / n_gt >= 0.75)
        if len(reach):
            recall75_conf = float(conf[desc][reach[0]])
            lat75, _ = range_means(
                [r.samples[:, np.repeat(r.match_conf, r.n_samples) >= recall75_conf]
                 for r in records], cfg)

    return EvalReport(
        ap_per_threshold=ap_per_threshold,
        map_score=float(np.mean(list(ap_per_threshold.values()))),
        recall_at_reference=n_matched / n_gt if n_gt else 0.0,
        lateral_error=lat,
        mean_abs_dz=mean_dz,
        counts={"n_gt": n_gt, "n_pred": len(conf), "n_matched": n_matched},
        operating_iou=OPERATING_IOU,
        recall75_confidence=recall75_conf,
        lateral_error_at_recall75=lat75,
    )
