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
protocol has a per-scene part and a reduction: `score_scenes` rasterizes,
matches and samples each scene into a small `SceneRecord`, and `evaluate`
pools the records of all scenes into the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .geometry import Curve, check_settings, distinct, resample_polyline

DEFAULT_EXTENT = ((-10.74, 10.74), (-0.5, 78.5))  # default grid padded by w/2


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation protocol settings."""

    iou_thresholds: tuple = tuple(round(0.1 * k, 1) for k in range(1, 10))
    lane_width: float = field(default=1.0, metadata={">": 0.0})   # full dilation width
    raster_resolution: float = field(default=0.1, metadata={">": 0.0})   # meters per cell
    range_buckets: tuple = ((0.0, 30.0), (30.0, 80.0))
    lateral_sample_step: float = field(default=1.0, metadata={">": 0.0})
    extent: tuple = DEFAULT_EXTENT   # ((x_lo, x_hi), (y_lo, y_hi)) raster window

    def __post_init__(self):
        check_settings(self)
        t = self.iou_thresholds
        if not t or any(not (0.0 < v < 1.0) for v in t) or any(
                b <= a for a, b in zip(t[:-1], t[1:])):
            raise ValueError("iou_thresholds must be strictly increasing within (0, 1)")
        if self.raster_resolution > self.lane_width / 4:
            raise ValueError(f"raster_resolution must be <= lane_width / 4, got "
                             f"{self.raster_resolution} for lane_width {self.lane_width}")
        for lo, hi in self.range_buckets:
            if hi <= lo:
                raise ValueError(f"empty range bucket ({lo}, {hi})")
        if [len(pair) for pair in self.extent] != [2, 2]:
            raise ValueError(f"extent must be a pair [[x_lo, x_hi], [y_lo, y_hi]], "
                             f"got {self.extent}")
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


# Rows and tested cells per step of the rasterizer, so that its working
# memory beside the footprints stays near a megabyte however many curves a
# call gets and however long their segments are.
_ROW_BUDGET = 4096
_CELL_BUDGET = 8192

# A segment's ribbon (the points within `half` of it) is a capsule: the part
# of the strip |distance to the segment's line| <= half inside the slab
# 0 <= t <= 1, and a disk at each end. Each piece is convex, so each row of
# cells cuts it in one interval of x, found analytically. Cells whose centre
# lies inside the interval at radius half - _ETA are filled without a test;
# cells outside the interval at radius half + _ETA are skipped; the few
# between are tested with the cell-centre predicate. For coordinates up to
# _REACH that predicate computes d2 with a rounding error of about 1e-12 m^2,
# far below the 2 * half * _ETA (1e-6 m^2 at half = 0.5) that separates those
# radii from half, so a filled centre tests true and a skipped one false. The
# interval ends are square roots of differences of squares, or products of
# coordinates and slopes |vx / vy|, |vy / vx| <= 2 * _REACH / _AXIS taken
# from each piece's first row (so over no more rows than the piece spans);
# they carry errors of at most about 1e-8 m, well inside _MARGIN, the slack
# in x (and in y for the rows a piece spans). A segment that is shorter than _AXIS, closer to an axis, or
# reaches beyond _REACH tests its whole box rows instead.
_ETA = 1e-6
_MARGIN = 1e-6
_AXIS = 1e-3
_REACH = 1e4


def _rows(y0, y1, lo, hi, y_lo, res):
    """First row and number of rows whose centre y lies in [y0, y1], widened
    by _MARGIN and clipped to the rows [lo, hi]."""
    first = np.maximum(np.ceil((y0 - _MARGIN - y_lo) / res - 0.5), lo)
    last = np.minimum(np.floor((y1 + _MARGIN - y_lo) / res - 0.5), hi)
    return first.astype(np.int64), np.maximum(last - first + 1, 0).astype(np.int64)


def _bands(count, budget):
    """Ranges [s0, s1) of items, in order, that hold about `budget` of the
    summed count each (one item may hold more)."""
    ends = np.cumsum(count)
    cuts = distinct(np.searchsorted(ends, np.arange(0, ends[-1] if len(ends) else 0, budget),
                                     side="right"))
    return zip(cuts, np.append(cuts[1:], len(count)))


def _entries(first, count, params, budget):
    """(piece, rows past the piece's first, row, params of the piece) of every
    row of the pieces, in bands of whole pieces of about `budget` rows."""
    start = np.cumsum(count) - count
    for s0, s1 in _bands(count, budget):
        n = count[s0:s1]
        step = np.arange(n.sum()) - np.repeat(start[s0:s1] - start[s0], n)
        yield (np.repeat(np.arange(s0, s1), n), step, step + np.repeat(first[s0:s1], n),
               np.repeat(params[:, s0:s1], n, axis=1))


def rasterize_curve(curves: list, cfg: EvalConfig) -> list:
    """The footprint of each curve: cells whose centers lie within lane_width/2.

    Cell (j, i) of cfg.extent at cfg.raster_resolution (row index along y)
    has center (x_lo + (i + 0.5) * res, y_lo + (j + 0.5) * res) and is set
    when, for some polyline segment p -> q, its squared xy distance to
    p + t (q - p) is at most (lane_width/2)^2, where t is the projection of
    the center onto the segment clipped to [0, 1] (t = 0 when |q - p|_xy is
    0). Only cells in each segment's bounding box, padded by lane_width/2 and
    clipped to the extent, can be set. A footprint is (row0, col0, mask): the
    bool mask of the box that holds all of its curve's segment boxes, whose
    first cell is (row0, col0). Curves outside the extent get a 0 x 0 mask.

    Each row of each piece of a segment's ribbon (see _ETA) is filled
    between its ends, and only the cells at its ends are tested with the
    predicate above. All curves of a call share one buffer, and the runs of
    all their rows are filled by one pass over it.
    """
    (x_lo, x_hi), (y_lo, y_hi) = cfg.extent
    res = cfg.raster_resolution
    nx = int(round((x_hi - x_lo) / res))
    ny = int(round((y_hi - y_lo) / res))
    half = cfg.lane_width / 2.0
    n_seg = [len(c.points) - 1 for c in curves]
    xy = [c.points[:, :2] for c in curves]
    p = np.concatenate([np.zeros((0, 2))] + [c[:-1] for c in xy])
    q = np.concatenate([np.zeros((0, 2))] + [c[1:] for c in xy])
    owner = np.repeat(np.arange(len(curves)), n_seg)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    # Clamp before the integer cast; a box clamped past the far edge is empty.
    ia = np.clip(np.floor((lo[:, 0] - half - x_lo) / res - 0.5), 0, nx).astype(np.int64)
    ib = np.clip(np.ceil((hi[:, 0] + half - x_lo) / res), -1, nx - 1).astype(np.int64)
    ja = np.clip(np.floor((lo[:, 1] - half - y_lo) / res - 0.5), 0, ny).astype(np.int64)
    jb = np.clip(np.ceil((hi[:, 1] + half - y_lo) / res), -1, ny - 1).astype(np.int64)
    kept = np.flatnonzero((ia <= ib) & (ja <= jb))
    ia, ib, ja, jb, owner = ia[kept], ib[kept], ja[kept], jb[kept], owner[kept]
    far = np.maximum(np.maximum(-lo[:, 0], hi[:, 0]), np.maximum(-lo[:, 1], hi[:, 1]))[kept] > _REACH
    p, v = p[kept], (q - p)[kept]

    # Each curve's box and its place in the shared buffer.
    row0, col0 = np.full(len(curves), ny), np.full(len(curves), nx)
    row1, col1 = np.full(len(curves), -1), np.full(len(curves), -1)
    np.minimum.at(row0, owner, ja)
    np.minimum.at(col0, owner, ia)
    np.maximum.at(row1, owner, jb)
    np.maximum.at(col1, owner, ib)
    height, width = np.maximum(row1 - row0 + 1, 0), np.maximum(col1 - col0 + 1, 0)
    base = np.cumsum(height * width) - height * width
    # Per segment: its box's columns [ia, ib + 1), and the buffer offset of
    # column 0 of row 0 in its curve's footprint and that footprint's width,
    # as floats to ride along with each piece's lines.
    frame = np.stack([ia, ib + 1, (base - row0 * width - col0)[owner], width[owner]]).astype(float)

    den = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
    exact = (np.abs(v) >= _AXIS).all(axis=1) & ~far
    # A segment without xy extent measures to p: with v = 0, t is 0 and
    # p + t * v is p exactly.
    point = den <= 0
    v[point] = 0.0
    den[point] = 1.0
    table = np.stack([p[:, 0], v[:, 0], p[:, 1], v[:, 1], den], axis=1)
    cx = x_lo + (np.arange(nx) + 0.5) * res     # cell-centre x of every column
    limit, m = half * half, _MARGIN / res
    r_out, r_in = half + _ETA, max(half - _ETA, 0.0)
    runs, hits = [], []
    span = nx + 1       # a run is kept as one key: buffer offset * span + length

    def emit(segs, row, a, b, f, g, box_a, box_b, origin, w):
        """Fill [f, g) and test [a, f) and [g, b) of each (piece, row) entry,
        in columns u = (x - x_lo) / res - 0.5, after clipping the window
        [a, b] to the box and the run [f, g] to the window. A tested cell is
        set when the predicate of any of the entry's segments `segs` holds."""
        a = np.clip(np.ceil(a), box_a, box_b)
        b = np.clip(np.floor(b) + 1, a, box_b)
        f = np.clip(np.ceil(f), a, b)
        g = np.clip(np.floor(g) + 1, f, b)
        line = origin + row * w                 # buffer offset of column 0, a whole float
        run = f < g
        runs.append((((line + f) * span + (g - f))[run]).astype(np.int64))
        left, right = np.flatnonzero(f > a), np.flatnonzero(b > g)
        entry = np.concatenate([left, right])
        begin = np.concatenate([a[left], g[right]]).astype(np.int64)
        count = np.concatenate([(f - a)[left], (b - g)[right]]).astype(np.int64)
        for c0, c1 in _bands(count, _CELL_BUDGET):
            n = count[c0:c1]
            ent = np.repeat(entry[c0:c1], n)
            col = np.repeat(begin[c0:c1] - (np.cumsum(n) - n), n) + np.arange(n.sum())
            gx, gy = cx[col], y_lo + (row[ent] + 0.5) * res
            hit = np.zeros(len(col), dtype=bool)
            for seg in segs:
                px, vx, py, vy, dn = table[seg[ent]].T
                t = np.maximum(((gx - px) * vx + (gy - py) * vy) / dn, 0.0)     # clip to [0, 1]
                np.minimum(t, 1.0, out=t)
                hit |= (gx - (px + t * vx)) ** 2 + (gy - (py + t * vy)) ** 2 <= limit
            hits.append((line[ent] + col)[hit].astype(np.int64))

    # The strip inside the slab, in columns u = c + k * i for the i-th row of
    # the strip's rows: the sides at radius r_out widened and at r_in
    # narrowed by _MARGIN, and the slab's ends t = 0 and t = 1 likewise. Rows
    # of a segment that is not exact get the whole box to test and nothing
    # to fill.
    lines = np.zeros((10, len(p)))
    lines[2:] = np.array([-np.inf, np.inf, np.inf, -np.inf, -np.inf, np.inf, np.inf, -np.inf])[:, None]
    first, count = ja, jb - ja + 1
    ex = np.flatnonzero(exact)
    if len(ex):
        (px, py), (vx, vy), dn = p[ex].T, v[ex].T, den[ex]
        length = np.sqrt(dn)
        rise = r_out * np.abs(vx) / length          # the strip's corners reach this far past p, q
        first, count = first.copy(), count.copy()
        first[ex], count[ex] = _rows(np.minimum(py, py + vy) - rise, np.maximum(py, py + vy) + rise,
                                     ja[ex], jb[ex], y_lo, res)
        dy = y_lo + (first[ex] + 0.5) * res - py            # from p to the strip's first row
        side = (px + dy * (vx / vy) - x_lo) / res - 0.5     # the line through p and q there
        end = (px - dy * (vy / vx) - x_lo) / res - 0.5      # the slab's end through p there
        end_lo, end_hi = end + np.minimum(0.0, dn / (vx * res)), end + np.maximum(0.0, dn / (vx * res))
        wo, wi = r_out * length / (np.abs(vy) * res) + m, r_in * length / (np.abs(vy) * res) - m
        lines[:, ex] = [vx / vy, -vy / vx, side - wo, side + wo, side - wi, side + wi,
                        end_lo - m, end_hi + m, end_lo + m, end_hi - m]
    for seg, step, row, (k_side, k_end, ol, oh, il, ih, el, eh, fl, fh, *box) in _entries(
            first, count, np.concatenate([lines, frame]), _ROW_BUDGET):
        side, end = k_side * step, k_end * step
        emit([seg], row, np.maximum(ol + side, el + end),
             np.minimum(oh + side, eh + end), np.maximum(il + side, fl + end),
             np.minimum(ih + side, fh + end), *box)

    # The end disks of exact segments. Where exact segments s and s + 1 of a
    # curve meet, one disk at the next p serves both, and its cells are tested
    # with both predicates: the predicate of s puts its end at p + v (t = 1),
    # which may differ from the next p in the last bit.
    joined = np.zeros(len(p), dtype=bool)
    joined[:-1] = exact[:-1] & exact[1:] & (np.diff(kept) == 1) & (np.diff(owner) == 0)
    at_p = np.flatnonzero(exact & ~np.append(False, joined[:-1]))
    at_q = np.flatnonzero(exact & ~joined)
    at_join = np.flatnonzero(joined)
    centre = np.concatenate([p[at_p], p[at_q] + v[at_q], p[at_join + 1]]).T     # (2, disks)
    seg_a = np.concatenate([at_p, at_q, at_join])
    seg_b = np.concatenate([at_p, at_q, at_join + 1])
    first, count = _rows(centre[1] - r_out, centre[1] + r_out, ja[seg_a], jb[seg_a], y_lo, res)
    disks = np.concatenate([[(centre[0] - x_lo) / res - 0.5, centre[1], seg_a, seg_b],
                            frame[:, seg_a]])
    for _, _, row, (u, cy, sa, sb, *box) in _entries(first, count, disks, _ROW_BUDGET):
        d2 = (y_lo + (row + 0.5) * res - cy) ** 2
        wo = np.sqrt(np.maximum(r_out * r_out - d2, 0.0)) / res + m
        wi = np.sqrt(np.maximum(r_in * r_in - d2, 0.0)) / res - m
        emit([sa.astype(np.int64), sb.astype(np.int64)], row, u - wo, u + wo, u - wi, u + wi,
             *box)

    # Fill the runs: merge those that overlap or touch, mark the first cell
    # of each merged run and the cell past its end, and toggle along the
    # buffer from mark to mark.
    total = int(height @ width)
    cells = np.zeros(total + 1, dtype=bool)
    none = np.zeros(0, dtype=np.int64)
    keys = np.concatenate([none, *runs])
    runs.clear()
    keys.sort()
    starts, reach = np.divmod(keys, span)
    del keys
    if len(starts):
        reach += starts                         # the cell past each run's end
        np.maximum.accumulate(reach, out=reach)
        new = np.flatnonzero(np.append(True, starts[1:] > reach[:-1]))
        cells[starts[new]] = True
        cells[reach[np.append(new[1:] - 1, len(starts) - 1)]] = True
        np.bitwise_xor.accumulate(cells, out=cells)
    cells[np.concatenate([none, *hits])] = True
    return [(int(r), int(c), cells[o:o + h * w].reshape(h, w))
            for r, c, o, h, w in zip(row0 * (height > 0), col0 * (width > 0), base, height, width)]


def footprint_iou(a: tuple, b: tuple) -> float:
    """IOU of two `rasterize_curve` footprints of one config. The intersection
    is counted on the overlap of the two boxes and the union is
    |a| + |b| - |a & b|, so a pair whose boxes do not overlap reads 0 without
    touching a cell."""
    (ra, ca, ma), (rb, cb, mb) = a, b
    r0, r1 = max(ra, rb), min(ra + ma.shape[0], rb + mb.shape[0])
    c0, c1 = max(ca, cb), min(ca + ma.shape[1], cb + mb.shape[1])
    inter = 0
    if r0 < r1 and c0 < c1:
        inter = int(np.count_nonzero(ma[r0 - ra:r1 - ra, c0 - ca:c1 - ca]
                                     & mb[r0 - rb:r1 - rb, c0 - cb:c1 - cb]))
    union = int(np.count_nonzero(ma)) + int(np.count_nonzero(mb)) - inter
    if union == 0:
        return 0.0
    return inter / union


def curve_iou(a: Curve, b: Curve, cfg: EvalConfig) -> float:
    """Intersection over union of the two curves' rasterized footprints."""
    return footprint_iou(*rasterize_curve([a, b], cfg))


# ---------------------------------------------------------------------------
# Matching and average precision


def _greedy_match(iou: np.ndarray, order, threshold: float):
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


def _ap_from_flags(flags: np.ndarray, n_gt: int) -> float:
    """Exact area under the precision envelope (all-point interpolation) of TP
    flags in confidence order."""
    if n_gt == 0 or len(flags) == 0:
        return 0.0
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


def _scene_iou(preds: list, footprints: list):
    """IOU matrix (P, G), confidences and confidence order (descending, ties in
    prediction order) of one scene, from the footprints of its P predictions
    followed by those of its G GTs."""
    iou = np.zeros((len(preds), len(footprints) - len(preds)))
    for i, fp in enumerate(footprints[:len(preds)]):
        iou[i] = [footprint_iou(fp, fg) for fg in footprints[len(preds):]]
    conf = np.array([c for _, c in preds], dtype=float)
    return iou, conf, np.argsort(-conf, kind="stable")


# ---------------------------------------------------------------------------
# Lateral error


# (sample, GT segment) pairs per step of `lateral_error`, so that each of its
# working arrays stays near 8 MB however long the two lanes are.
_LATERAL_BUDGET = 2 ** 20


def _lateral(q, p, v, den):
    """The (3, len(q)) columns of the samples q against the GT segments p + t v."""
    # (samples, GT segments): every sample projected on every segment
    qx, qy = q[:, :1], q[:, 1:2]
    t = np.clip(((qx - p[:, 0]) * v[:, 0] + (qy - p[:, 1]) * v[:, 1]) / den, 0.0, 1.0)
    d2 = (p[:, 0] + t * v[:, 0] - qx) ** 2 + (p[:, 1] + t * v[:, 1] - qy) ** 2
    k = np.argmin(d2, axis=1)
    rows = np.arange(len(q))
    return np.stack([np.sqrt(d2[rows, k]), q[:, 1],
                     np.abs(q[:, 2] - (p[k, 2] + t[rows, k] * v[k, 2]))])


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
        step = max(1, _LATERAL_BUDGET // len(p))
        samples.append(np.concatenate([_lateral(q[s:s + step], p, v, den)
                                       for s in range(0, max(len(q), 1), step)], axis=1))
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
# Full protocol: score_scenes, then evaluate over all of them

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


# Polyline segments per `rasterize_curve` call of `score_scenes`: about four
# default scenes or one 64 x 104 scene. This bounds the footprints' memory.
_CHUNK_SEGMENTS = 1300


def score_scenes(scenes: list, cfg: EvalConfig) -> list[SceneRecord]:
    """`score_scene` of each (preds, gts) pair, in order. Consecutive scenes
    share a `rasterize_curve` call of about `_CHUNK_SEGMENTS` segments, which
    changes no bit: a footprint depends only on its own curve."""
    if any(not (0.0 <= c <= 1.0) for preds, _ in scenes for _, c in preds):
        raise ValueError("confidences must lie in [0, 1]")
    curves = [[c for c, _ in preds] + list(gts) for preds, gts in scenes]
    chunks = _bands([sum(len(c.points) - 1 for c in cs) for cs in curves], _CHUNK_SEGMENTS)
    # Lazy: each chunk is rasterized when its first curve is needed (scenes
    # before the first chunk have no curves).
    footprints = (fp for s0, s1 in chunks
                  for fp in rasterize_curve([c for cs in curves[s0:s1] for c in cs], cfg))
    return [_score(preds, gts, list(islice(footprints, len(cs))), cfg)
            for (preds, gts), cs in zip(scenes, curves)]


def score_scene(preds: list, gts: list, cfg: EvalConfig) -> SceneRecord:
    """Match one scene's preds, (Curve, confidence in [0, 1]) pairs, to its
    GT Lane3Ds at every threshold, and sample its operating-point matches."""
    return score_scenes([(preds, gts)], cfg)[0]


def _score(preds: list, gts: list, footprints: list, cfg: EvalConfig) -> SceneRecord:
    """`score_scene` of one scene, given the footprints of its curves."""
    iou, conf, order = _scene_iou(preds, footprints)
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
    order = np.argsort(-conf, kind="stable")
    conf = conf[order]
    tp = np.concatenate([np.zeros((len(thresholds), 0), dtype=bool),
                         *(r.tp for r in records)], axis=1)[:, order]
    ap_per_threshold = {t: _ap_from_flags(flags, n_gt)
                        for t, flags in zip(thresholds, tp) if t in cfg.iou_thresholds}
    op_tp = tp[thresholds.index(OPERATING_IOU)]
    n_matched = int(np.count_nonzero(op_tp))
    lat, mean_dz = range_means([r.samples for r in records], cfg)

    recall75_conf = lat75 = None
    if n_gt:
        reach = np.flatnonzero(np.cumsum(op_tp) / n_gt >= 0.75)
        if len(reach):
            recall75_conf = float(conf[reach[0]])
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
