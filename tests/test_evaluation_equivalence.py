"""`evaluate` over `score_scene` records against the code it replaced.

`evaluate` first took flat prediction and GT lists plus parallel scene-id
lists and grouped them back into scenes; then it took one (preds, gts) pair
per scene, scored every scene itself and sampled the lateral error of all
matches at once, and again for the recall-0.75 cutoff. Now `score_scene`
matches and samples each scene into a record and `evaluate` only pools the
records, sorting the pool by confidence once. The reference copies below are
the former functions verbatim (with the former scene scoring, confidence
order, AP and lateral error, on the unchanged greedy matcher, and on
full-extent masks from the reference rasterizer loop of
`test_vectorized_equivalence` where scoring now takes the IOU of cropped
footprints); every case asserts that the report JSON is identical.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlanes.evaluation import (
    EvalConfig,
    EvalReport,
    _greedy_match,
    evaluate,
    score_scene,
)
from bevlanes.geometry import Curve, resample_polyline
from bevlanes.io import canonical_json
from test_vectorized_equivalence import ref_mask_iou as mask_iou
from test_vectorized_equivalence import ref_rasterize_curve as rasterize_curve

# The "exact" profile (tests/conftest.py) fixes the examples.
EXACT = settings(max_examples=150)

# A small raster keeps each example fast; the cell size is a binary fraction.
CFG = EvalConfig(extent=((-3.0, 3.5), (0.0, 12.0)), raster_resolution=0.125,
                 range_buckets=((0.0, 5.0), (5.0, 12.0)))
# Thresholds without the 0.5 operating point, which is then matched separately.
NO_OPERATING = replace(CFG, iou_thresholds=(0.3, 0.7))


# ---------------------------------------------------------------------------
# Reference copies


def _check_confidences(preds: list) -> None:
    if any(not (0.0 <= c <= 1.0) for _, c in preds):
        raise ValueError("confidences must lie in [0, 1]")


def _score_scene(preds: list, gts: list, cfg: EvalConfig):
    masks_g = [rasterize_curve(g, cfg) for g in gts]
    iou = np.zeros((len(preds), len(gts)))
    for i, (curve, _) in enumerate(preds):
        mask = rasterize_curve(curve, cfg)
        iou[i] = [mask_iou(mask, mg) for mg in masks_g]
    conf = np.array([c for _, c in preds])
    return iou, conf, _confidence_order(conf)


def _confidence_order(confidences) -> list[int]:
    return sorted(range(len(confidences)), key=lambda i: (-confidences[i], i))


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


def _pooled_match(scored: list, threshold: float):
    conf, tp, matches = [], [], []
    for s, (iou, scene_conf, order) in enumerate(scored):
        flags, pairs = _greedy_match(iou, order, threshold)
        conf.extend(scene_conf[order])
        tp.extend(flags)
        matches.extend((s, p, g) for p, g in pairs)
    return np.array(conf), np.array(tp, dtype=bool), matches


def lateral_error(pairs: list, cfg: EvalConfig):
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


def ref_evaluate_pairs(scenes, cfg: EvalConfig) -> EvalReport:
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


def ref_evaluate(preds: list, gts: list, cfg: EvalConfig,
                 pred_scene_ids=None, gt_scene_ids=None) -> EvalReport:
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


# ---------------------------------------------------------------------------
# Inputs: lanes on a 1 m lattice shifted by offsets whose IOU with the
# unshifted lane is about 1, 0.9, 0.6, 0.33 and 0.11, so a pair matches at
# some thresholds only; few confidence levels, so ties are common.


@st.composite
def curves(draw):
    x = draw(st.sampled_from((-2.0, -1.0, 0.0, 1.0, 2.0)))
    x += draw(st.sampled_from((0.0, 0.05, 0.25, 0.5, 0.8)))
    y0 = draw(st.sampled_from((0.5, 3.0, 6.0)))
    y1 = draw(st.sampled_from((9.0, 11.5)))
    z = draw(st.sampled_from((0.0, 0.1)))
    return Curve(points=[[x, y0, 0.0], [x + 0.2, y1, z]])


scenes = st.tuples(
    st.lists(st.tuples(curves(), st.sampled_from((0.0, 0.3, 0.5, 1.0))), max_size=4),
    st.lists(curves(), max_size=3),
)


def assert_same_report(pairs, cfg):
    """evaluate over the scenes' records writes the JSON that both former
    calls wrote: over (preds, gts) pairs, and over the same scenes as flat
    lists with parallel scene ids. Returns the report."""
    preds = [p for ps, _ in pairs for p in ps]
    gts = [g for _, gs in pairs for g in gs]
    pred_ids = [s for s, (ps, _) in enumerate(pairs) for _ in ps]
    gt_ids = [s for s, (_, gs) in enumerate(pairs) for _ in gs]
    report = evaluate([score_scene(ps, gs, cfg) for ps, gs in pairs], cfg)
    got = canonical_json(report.to_dict())
    assert got == canonical_json(ref_evaluate_pairs(pairs, cfg).to_dict())
    assert got == canonical_json(ref_evaluate(preds, gts, cfg, pred_ids, gt_ids).to_dict())
    return report


@EXACT
@given(pairs=st.lists(scenes, max_size=4), cfg=st.sampled_from((CFG, NO_OPERATING)))
def test_evaluate_equals_flat_reference(pairs, cfg):
    assert_same_report(pairs, cfg)


def test_evaluate_equals_flat_reference_on_ties_across_scenes():
    # every confidence 1.0, as in zero-noise runs: AP follows scene order
    gt = Curve(points=[[0.0, 0.5, 0.0], [0.2, 11.5, 0.0]])
    far = Curve(points=[[2.0, 0.5, 0.0], [2.2, 11.5, 0.0]])
    pairs = [([(far, 1.0)], [gt]), ([(gt, 1.0), (far, 1.0)], [gt]), ([], [far])]
    for order in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
        assert_same_report([pairs[k] for k in order], CFG)


def test_evaluate_equals_references_with_empty_scenes():
    gt = Curve(points=[[0.0, 0.5, 0.0], [0.2, 11.5, 0.1]])
    near = Curve(points=[[0.05, 0.5, 0.0], [0.25, 11.5, 0.0]])
    empty = ([], [])
    for pairs in ([], [empty], [empty, ([(near, 0.5)], [gt]), empty],
                  [([], [gt]), empty, ([(near, 0.3)], [])]):
        assert_same_report(pairs, CFG)


def test_evaluate_equals_references_at_recall75_reached_and_missed():
    # three GTs per scene, each matched by a shifted copy, so recall runs
    # 1/6 ... 6/6 down the pooled ranking 1, 1, 0.5, 0.5, 0.3, 0.2: the 5th
    # match reaches 0.75, and the cutoff drops the match at 0.2
    gts = [Curve(points=[[x, 0.5, 0.0], [x + 0.2, 11.5, 0.1]]) for x in (-2.0, 0.0, 2.0)]

    def preds(*conf):
        return [(Curve(points=g.points + [0.05 * c, 0.0, 0.0]), c) for g, c in zip(gts, conf)]

    reached = assert_same_report([(preds(1.0, 0.5, 0.3), gts), (preds(0.2, 0.5, 1.0), gts)], CFG)
    assert reached.recall75_confidence == 0.3
    assert reached.lateral_error_at_recall75 != reached.lateral_error
    missed = assert_same_report([(preds(1.0), gts), (preds(1.0, 0.5), gts)], CFG)
    assert missed.recall75_confidence is None
