"""`evaluate` over per-scene pairs and `match_and_ap` against the code they replaced.

`evaluate` took flat prediction and GT lists plus parallel scene-id lists and
grouped them back into scenes; `match_and_ap` had its own AP path. Both now
run one pooled matcher. The reference copies below are the former functions
verbatim (on the unchanged scoring, matching and AP helpers); every case
asserts that the report JSON, and the `match_and_ap` tuples with their types,
are identical.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bevlanes.clustering import Curve
from bevlanes.evaluation import (
    EvalConfig,
    EvalReport,
    _ap_from_flags,
    _check_confidences,
    _greedy_match,
    _score_scene,
    evaluate,
    lateral_error,
    match_and_ap,
)
from bevlanes.io import canonical_json

# Same examples on every run, no example database on disk.
EXACT = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

# A small raster keeps each example fast; the cell size is a binary fraction.
CFG = EvalConfig(extent=((-3.0, 3.5), (0.0, 12.0)), raster_resolution=0.125,
                 range_buckets=((0.0, 5.0), (5.0, 12.0)))
# Thresholds without the 0.5 operating point, which is then matched separately.
NO_OPERATING = replace(CFG, iou_thresholds=(0.3, 0.7))


# ---------------------------------------------------------------------------
# Reference copies


def ref_match_and_ap(preds: list, gts: list, threshold: float, cfg: EvalConfig):
    _check_confidences(preds)
    iou, conf, order = _score_scene(preds, gts, cfg)
    tp, pairs = _greedy_match(iou, order, threshold)
    ap = _ap_from_flags(conf[order], tp, len(gts))
    recall = (sum(tp) / len(gts)) if gts else 0.0
    matches = [(p, g, float(iou[p, g])) for p, g in pairs]
    return ap, matches, float(recall)


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
    """evaluate(pairs) writes the JSON the former call wrote for the same
    scenes as flat lists with parallel scene ids."""
    preds = [p for ps, _ in pairs for p in ps]
    gts = [g for _, gs in pairs for g in gs]
    pred_ids = [s for s, (ps, _) in enumerate(pairs) for _ in ps]
    gt_ids = [s for s, (_, gs) in enumerate(pairs) for _ in gs]
    want = ref_evaluate(preds, gts, cfg, pred_ids, gt_ids)
    assert canonical_json(evaluate(pairs, cfg).to_dict()) == canonical_json(want.to_dict())


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


@EXACT
@given(scene=scenes)
def test_match_and_ap_equals_reference(scene):
    preds, gts = scene
    for t in CFG.iou_thresholds:
        # repr: equal values of equal types
        assert repr(match_and_ap(preds, gts, t, CFG)) == \
            repr(ref_match_and_ap(preds, gts, t, CFG))
