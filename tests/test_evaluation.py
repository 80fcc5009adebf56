"""Tests for curve rasterization, IOU association, AP/MAP and lateral error."""

import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bevlanes import evaluation
from bevlanes.config import PipelineConfig
from bevlanes.evaluation import (
    DEFAULT_EXTENT,
    EvalConfig,
    EvalReport,
    _greedy_match,
    _scene_iou,
    curve_iou,
    evaluate,
    footprint_iou,
    lateral_error,
    range_means,
    rasterize_curve,
    score_scene,
    score_scenes,
)
from bevlanes.geometry import Curve
from bevlanes.io import section_from_dict, section_to_dict
from bevlanes.pipeline import evaluate_results, process_scene

CFG = EvalConfig()


def _evaluate(pairs, cfg):
    """The report of (preds, gts) pairs, one per scene."""
    return evaluate([score_scene(preds, gts, cfg) for preds, gts in pairs], cfg)


def _lateral(pairs, cfg):
    """(bucket means, mean |dz|) of (pred, gt) pairs."""
    return range_means(lateral_error(pairs, cfg), cfg)

# Tilted so cell quantization dithers out along the length instead of
# aliasing against the column grid; phases chosen off any cell boundary.
TILT = 0.07
_U = np.array([math.sin(TILT), math.cos(TILT), 0.0])
_N = np.array([math.cos(TILT), -math.sin(TILT), 0.0])
_P0 = np.array([-2.0, 5.0, 0.0])


def tilted_line(offset=0.0, length=60.0):
    start = _P0 + offset * _N
    return Curve(points=np.vstack([start, start + length * _U]))


def vertical_line(x, y0=5.0, y1=65.0, z=0.0):
    return Curve(points=[[x, y0, z], [x, y1, z]])


# ---------------------------------------------------------------------------
# EvalConfig


def test_config_defaults():
    npt.assert_allclose(CFG.iou_thresholds, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    assert CFG.lane_width == 1.0
    assert CFG.raster_resolution == 0.1
    assert CFG.range_buckets == ((0.0, 30.0), (30.0, 80.0))
    assert CFG.lateral_sample_step == 1.0
    assert CFG.extent == DEFAULT_EXTENT


@pytest.mark.parametrize("kw", [
    {"iou_thresholds": (0.5, 0.5)},
    {"iou_thresholds": (0.3, 0.2)},
    {"iou_thresholds": (0.0, 0.5)},
    {"iou_thresholds": (0.5, 1.0)},
    {"iou_thresholds": ()},
    {"lane_width": 0.0},
    {"raster_resolution": 0.0},
    {"raster_resolution": 0.26},        # above lane_width / 4
    {"lateral_sample_step": 0.0},
    {"range_buckets": ((30.0, 30.0),)},
    {"extent": ((1.0, 1.0), (0.0, 78.0))},
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        EvalConfig(**kw)


def test_config_quarter_width_resolution_allowed():
    EvalConfig(raster_resolution=0.25)  # exactly lane_width / 4


def test_config_dict_round_trip():
    cfg = EvalConfig(iou_thresholds=(0.25, 0.5, 0.75), lane_width=2.0,
                     raster_resolution=0.2, range_buckets=((0.0, 40.0),),
                     lateral_sample_step=0.5, extent=((-5.0, 5.0), (0.0, 50.0)))
    assert section_from_dict(EvalConfig, section_to_dict(cfg)) == cfg
    assert section_from_dict(EvalConfig, json.loads(json.dumps(section_to_dict(CFG)))) == CFG


# ---------------------------------------------------------------------------
# rasterize_curve


def full_mask(curve, cfg):
    """The curve's footprint pasted into a mask of the whole extent."""
    (x_lo, x_hi), (y_lo, y_hi) = cfg.extent
    mask = np.zeros((round((y_hi - y_lo) / cfg.raster_resolution),
                     round((x_hi - x_lo) / cfg.raster_resolution)), dtype=bool)
    ((r, c, sub),) = rasterize_curve([curve], cfg)
    mask[r:r + sub.shape[0], c:c + sub.shape[1]] = sub
    return mask


def test_rasterize_mask_shape_covers_extent():
    ((r, c, mask),) = rasterize_curve([tilted_line()], CFG)
    (x_lo, x_hi), (y_lo, y_hi) = CFG.extent
    assert 0 <= r and r + mask.shape[0] <= round((y_hi - y_lo) / 0.1)
    assert 0 <= c and c + mask.shape[1] <= round((x_hi - x_lo) / 0.1)
    assert mask.dtype == bool
    assert full_mask(tilted_line(), CFG).sum() == mask.sum()


def test_rasterize_sixty_meter_cell_count():
    # area = L*w + pi*(w/2)^2 end caps = 60.785 m^2 -> about 6079 cells
    count = int(rasterize_curve([tilted_line()], CFG)[0][2].sum())
    assert abs(count - 6000) <= 0.03 * 6000


def test_rasterize_deterministic():
    (a,) = rasterize_curve([tilted_line(0.25)], CFG)
    (b,) = rasterize_curve([tilted_line(0.25)], CFG)
    assert a[:2] == b[:2] and np.array_equal(a[2], b[2])


def test_rasterize_outside_extent_empty():
    far = Curve(points=[[50.0, 5.0, 0.0], [50.0, 65.0, 0.0]])
    assert rasterize_curve([far], CFG)[0][2].sum() == 0


def test_rasterize_matches_brute_force_distance():
    # independent oracle: distance from every cell center to the polyline
    curve = Curve(points=[[-3.17, 8.23, 0.0], [0.57, 30.11, 0.2], [-1.03, 55.77, 0.1]])
    mask = full_mask(curve, CFG)
    (x_lo, _), (y_lo, _) = CFG.extent
    xs = x_lo + (np.arange(mask.shape[1]) + 0.5) * 0.1
    ys = y_lo + (np.arange(mask.shape[0]) + 0.5) * 0.1
    gx, gy = np.meshgrid(xs, ys)
    d2 = np.full(gx.shape, np.inf)
    pts = curve.points[:, :2]
    for p, q in zip(pts[:-1], pts[1:]):
        v = q - p
        t = np.clip(((gx - p[0]) * v[0] + (gy - p[1]) * v[1]) / (v @ v), 0.0, 1.0)
        d2 = np.minimum(d2, (gx - p[0] - t * v[0]) ** 2 + (gy - p[1] - t * v[1]) ** 2)
    assert np.array_equal(mask, d2 <= 0.25)


def test_rasterize_memory_is_bounded_for_a_full_diagonal():
    # One segment whose box is the whole raster (790 x 215 cells): the cells
    # are walked in bounded bands, so the allocation peak stays near the mask.
    (x_lo, x_hi), (y_lo, y_hi) = CFG.extent
    curve = Curve(points=[[x_lo, y_lo, 0.0], [x_hi, y_hi, 0.0]])
    tracemalloc.start()
    try:
        ((_, _, mask),) = rasterize_curve([curve], CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask.nbytes == 790 * 215 and mask.any()
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# curve_iou


def test_iou_identity():
    line = tilted_line()
    assert curve_iou(line, line, CFG) == 1.0


def test_iou_disjoint_beyond_width():
    assert curve_iou(vertical_line(3.0), vertical_line(4.5), CFG) == 0.0


def test_iou_both_outside_extent_is_zero():
    a = Curve(points=[[40.0, 5.0, 0.0], [40.0, 65.0, 0.0]])
    b = Curve(points=[[41.0, 5.0, 0.0], [41.0, 65.0, 0.0]])
    assert curve_iou(a, b, CFG) == 0.0
    assert footprint_iou((0, 0, np.zeros((4, 4), bool)), (2, 1, np.zeros((4, 4), bool))) == 0.0


def test_iou_symmetric():
    a, b = tilted_line(), tilted_line(0.4)
    assert curve_iou(a, b, CFG) == curve_iou(b, a, CFG)


SMALL = EvalConfig(extent=((-3.0, 3.5), (0.0, 12.0)), raster_resolution=0.125,
                   range_buckets=((0.0, 5.0), (5.0, 12.0)))


@st.composite
def small_curves(draw):
    """Curves of 2 to 4 vertices over SMALL's extent and a little past it;
    the heights rise, so no two consecutive points are equal."""
    n = draw(st.integers(2, 4))
    xs = draw(st.lists(st.floats(-4.0, 4.5), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(-1.0, 13.0), min_size=n, max_size=n))
    return Curve(points=np.column_stack([xs, ys, 0.1 * np.arange(n)]))


@settings(max_examples=100)
@given(a=small_curves(), b=small_curves())
def test_iou_symmetric_and_in_unit_interval(a, b):
    fa, fb = rasterize_curve([a, b], SMALL)
    iou = footprint_iou(fa, fb)
    assert iou == footprint_iou(fb, fa) == curve_iou(b, a, SMALL)
    assert 0.0 <= iou <= 1.0
    assert footprint_iou(fa, fa) == (1.0 if fa[2].any() else 0.0)


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.tuples(st.integers(0, 9), st.integers(0, 9)),
       density=st.sampled_from((0.0, 0.1, 0.5, 1.0)))
def test_mask_iou_symmetric_and_in_unit_interval(seed, shape, density):
    # footprints at random offsets, overlapping or not, against the IOU of
    # the same masks pasted into one canvas
    rng = np.random.default_rng(seed)
    fa = (*rng.integers(0, 12, 2), rng.random(shape) < density)
    fb = (*rng.integers(0, 12, 2), rng.random(rng.integers(0, 9, 2)) < rng.random())
    canvas = []
    for r, c, m in (fa, fb):
        full = np.zeros((21, 21), dtype=bool)
        full[r:r + m.shape[0], c:c + m.shape[1]] = m
        canvas.append(full)
    union = np.count_nonzero(canvas[0] | canvas[1])
    want = np.count_nonzero(canvas[0] & canvas[1]) / union if union else 0.0
    iou = footprint_iou(fa, fb)
    assert iou == footprint_iou(fb, fa) == want and 0.0 <= iou <= 1.0


@settings(max_examples=60)
@given(scenes=st.lists(st.tuples(st.lists(small_curves(), max_size=3),
                                 st.lists(small_curves(), max_size=3)), min_size=1, max_size=4),
       order=st.randoms(use_true_random=False))
def test_evaluate_map_does_not_depend_on_scene_order_with_distinct_confidences(scenes, order):
    # distinct confidences: with ties, AP follows scene order (see evaluate)
    n_pred = sum(len(p) for p, _ in scenes)
    conf = iter(np.linspace(1.0, 0.05, n_pred).tolist() if n_pred else [])
    pairs = [([(c, next(conf)) for c in preds], gts) for preds, gts in scenes]
    shuffled = list(pairs)
    order.shuffle(shuffled)
    want, got = _evaluate(pairs, SMALL), _evaluate(shuffled, SMALL)
    assert got.map_score == want.map_score
    assert got.ap_per_threshold == want.ap_per_threshold


@pytest.mark.parametrize("d", [0.1, 0.25, 0.5, 0.75])
def test_iou_parallel_offset_matches_rectangle_overlap(d):
    got = curve_iou(tilted_line(), tilted_line(d), CFG)
    assert abs(got - (1.0 - d) / (1.0 + d)) <= 0.03


def test_iou_axis_aligned_half_meter_offset():
    got = curve_iou(vertical_line(0.03), vertical_line(0.53), CFG)
    assert abs(got - 1.0 / 3.0) <= 0.03


def test_iou_monotone_in_lateral_offset():
    vals = [curve_iou(tilted_line(), tilted_line(d), CFG)
            for d in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))


@pytest.mark.parametrize("d", [0.1, 0.25, 0.5, 0.75])
def test_iou_stable_under_resolution_halving(d):
    fine = EvalConfig(raster_resolution=0.05)
    coarse_v = curve_iou(tilted_line(), tilted_line(d), CFG)
    fine_v = curve_iou(tilted_line(), tilted_line(d), fine)
    assert abs(coarse_v - fine_v) < 0.02


# ---------------------------------------------------------------------------
# Matching and AP of one scene at one threshold


def _match(preds, gts, threshold):
    """(AP, matches as (pred, gt, iou), recall) of one scene at one IOU
    threshold: AP and recall from `score_scene` + `evaluate` with that
    threshold swept, which GT each prediction matches from `_scene_iou` +
    `_greedy_match`."""
    cfg = replace(CFG, iou_thresholds=(threshold,))
    record = score_scene(preds, gts, cfg)
    report = evaluate([record], cfg)
    flags = record.tp[sorted({threshold, 0.5}).index(threshold)]
    recall = int(np.count_nonzero(flags)) / len(gts) if gts else 0.0
    if threshold == 0.5:
        assert recall == report.recall_at_reference
    iou, _, order = _scene_iou(preds, rasterize_curve([c for c, _ in preds] + gts, cfg))
    tp, pairs = _greedy_match(iou, order, threshold)
    assert tp.tolist() == flags.tolist()
    return report.ap_per_threshold[threshold], [(p, g, float(iou[p, g])) for p, g in pairs], recall


def test_greedy_match_counts_an_iou_exactly_at_the_threshold():
    tp, pairs = _greedy_match(np.array([[0.5, 0.25]]), [0], 0.5)
    assert tp.tolist() == [True] and pairs == [(0, 0)]


def test_match_perfect_predictions():
    gts = [vertical_line(-2.03), vertical_line(2.03)]
    preds = [(gts[0], 0.9), (gts[1], 0.8)]
    ap, matches, recall = _match(preds, gts, 0.5)
    assert ap == 1.0
    assert recall == 1.0
    assert sorted((p, g) for p, g, _ in matches) == [(0, 0), (1, 1)]
    assert all(iou == 1.0 for _, _, iou in matches)


def test_match_two_gt_one_pred():
    gts = [vertical_line(-2.03), vertical_line(2.03)]
    ap, matches, recall = _match([(gts[0], 0.9)], gts, 0.5)
    assert recall == 0.5
    assert ap == 0.5
    assert matches == [(0, 0, 1.0)]


def test_match_low_confidence_false_positive_keeps_ap_one():
    # PR points: (precision 1/1, recall 1), then (1/2, 1) -> envelope area 1.0
    gt = vertical_line(0.03)
    preds = [(gt, 0.9), (vertical_line(8.0), 0.2)]
    ap, matches, recall = _match(preds, [gt], 0.5)
    assert ap == 1.0
    assert recall == 1.0
    assert matches == [(0, 0, 1.0)]


def test_match_high_confidence_false_positive_halves_ap():
    # FP ranked first: precision at the TP is 1/2 and the envelope stays there
    gt = vertical_line(0.03)
    preds = [(vertical_line(8.0), 0.9), (gt, 0.2)]
    ap, _, recall = _match(preds, [gt], 0.5)
    assert ap == 0.5
    assert recall == 1.0


def test_match_confidence_ties_keep_insertion_order():
    gt = vertical_line(0.03)
    preds = [(gt, 0.7), (gt, 0.7)]
    _, matches, recall = _match(preds, [gt], 0.5)
    assert matches == [(0, 0, 1.0)]
    assert recall == 1.0


def test_match_prefers_highest_iou_gt():
    gts = [vertical_line(0.03), vertical_line(0.53)]
    pred = vertical_line(0.13)  # 0.1 m from gt 0, 0.4 m from gt 1
    _, matches, _ = _match([(pred, 0.9)], gts, 0.1)
    assert len(matches) == 1
    assert matches[0][1] == 0


def test_match_taken_gt_not_reused():
    gts = [vertical_line(0.03), vertical_line(0.53)]
    preds = [(vertical_line(0.13), 0.9), (vertical_line(0.23), 0.5)]
    ap, matches, recall = _match(preds, gts, 0.3)
    assert sorted((p, g) for p, g, _ in matches) == [(0, 0), (1, 1)]
    assert recall == 1.0
    assert ap == 1.0


def test_match_threshold_gates_association():
    # parallel offset 0.5 m -> IOU about 1/3
    gt = vertical_line(0.03)
    pred = vertical_line(0.53)
    _, matches_lo, _ = _match([(pred, 0.9)], [gt], 0.30)
    _, matches_hi, _ = _match([(pred, 0.9)], [gt], 0.35)
    assert len(matches_lo) == 1
    assert matches_hi == []


def test_match_empty_inputs():
    gt = vertical_line(0.03)
    assert _match([], [gt], 0.5) == (0.0, [], 0.0)
    ap, matches, recall = _match([(gt, 0.9)], [], 0.5)
    assert (ap, matches, recall) == (0.0, [], 0.0)


def test_match_rejects_out_of_range_confidence():
    gt = vertical_line(0.03)
    with pytest.raises(ValueError):
        _match([(gt, 1.2)], [gt], 0.5)
    with pytest.raises(ValueError):
        _match([(gt, -0.1)], [gt], 0.5)


# ---------------------------------------------------------------------------
# lateral_error


def test_lateral_error_zero_for_exact_prediction():
    gt = vertical_line(0.5, 0.0, 78.0)
    means, dz = _lateral([(gt, gt)], CFG)
    assert set(means) == {(0.0, 30.0), (30.0, 80.0)}
    npt.assert_allclose(list(means.values()), 0.0, atol=1e-12)
    npt.assert_allclose(dz, 0.0, atol=1e-12)


def test_lateral_error_constant_shift():
    gt = vertical_line(0.5, 0.0, 78.0)
    pred = vertical_line(0.6, 0.0, 78.0)
    means, dz = _lateral([(pred, gt)], CFG)
    npt.assert_allclose(means[(0.0, 30.0)], 0.1, atol=1e-6)
    npt.assert_allclose(means[(30.0, 80.0)], 0.1, atol=1e-6)
    assert dz == 0.0


def test_lateral_error_half_normal_noise_mean():
    # straight prediction resampled on integer arc lengths against a GT whose
    # vertices carry N(0, 0.05) lateral noise: per-sample distances are
    # half-normal with mean sigma * sqrt(2/pi)
    rng = np.random.default_rng(7)
    n = 10000
    noise = rng.normal(0.0, 0.05, n + 1)
    gt = Curve(points=np.column_stack(
        [noise, np.arange(n + 1, dtype=float), np.zeros(n + 1)]))
    pred = Curve(points=[[0.0, 0.0, 0.0], [0.0, float(n), 0.0]])
    cfg = EvalConfig(range_buckets=((0.0, 1.0e6),))
    means, _ = _lateral([(pred, gt)], cfg)
    expected = 0.05 * math.sqrt(2.0 / math.pi)
    assert abs(means[(0.0, 1.0e6)] - expected) <= 0.05 * expected


def test_lateral_error_empty_bucket_absent():
    gt = vertical_line(0.5, 40.0, 70.0)
    means, _ = _lateral([(gt, gt)], CFG)
    assert (0.0, 30.0) not in means
    assert means[(30.0, 80.0)] == 0.0


def test_lateral_error_reports_height_separately():
    gt = vertical_line(0.5, 0.0, 78.0, z=0.0)
    pred = vertical_line(0.5, 0.0, 78.0, z=0.05)
    means, dz = _lateral([(pred, gt)], CFG)
    npt.assert_allclose(means[(0.0, 30.0)], 0.0, atol=1e-12)
    npt.assert_allclose(dz, 0.05, atol=1e-9)


def test_lateral_error_no_pairs():
    assert _lateral([], CFG) == ({}, None)


@pytest.mark.parametrize("budget", [1, 7, 200])
def test_lateral_error_in_steps_keeps_its_bits(monkeypatch, budget):
    # each sample's column depends on that sample alone, so the steps of
    # about _LATERAL_BUDGET (sample, GT segment) pairs cannot change a bit
    rng = np.random.default_rng(3)
    gt = Curve(points=np.column_stack([rng.normal(0.0, 0.1, 41), np.arange(41.0) * 2.0,
                                       rng.normal(0.0, 0.05, 41)]))
    pred = Curve(points=np.column_stack([rng.normal(0.2, 0.1, 30),
                                         np.sort(rng.uniform(0.0, 80.0, 30)), np.zeros(30)]))
    want = lateral_error([(pred, gt)], CFG)
    monkeypatch.setattr(evaluation, "_LATERAL_BUDGET", budget)
    assert [a.tobytes() for a in lateral_error([(pred, gt)], CFG)] == \
        [a.tobytes() for a in want]


def test_lateral_error_memory_is_bounded_for_long_lanes():
    # 20,000 samples against 500 GT segments: the (samples, segments) arrays
    # used to be 80 MB each; in steps each stays near 8 MB
    gt = Curve(points=np.column_stack([np.zeros(501), np.linspace(0.0, 2e4, 501), np.zeros(501)]))
    pred = Curve(points=[[0.5, 0.0, 0.0], [0.5, 2e4, 0.0]])
    tracemalloc.start()
    try:
        ((dist, _, _),) = lateral_error([(pred, gt)], CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dist) == 20_001 and np.all(np.abs(dist - 0.5) < 1e-9)
    assert peak < 40_000_000


# ---------------------------------------------------------------------------
# evaluate


def _two_scene_setup():
    gts = [vertical_line(-2.03), vertical_line(2.03),
           vertical_line(-1.53), vertical_line(2.53)]
    preds = [(gts[0], 0.95), (gts[1], 0.9), (gts[2], 0.85), (gts[3], 0.8)]
    return [(preds[:2], gts[:2]), (preds[2:], gts[2:])]


def test_evaluate_perfect_predictions():
    report = _evaluate(_two_scene_setup(), CFG)
    assert report.map_score == 1.0
    assert set(report.ap_per_threshold) == set(CFG.iou_thresholds)
    assert all(v == 1.0 for v in report.ap_per_threshold.values())
    assert report.recall_at_reference == 1.0
    assert set(report.lateral_error) == {(0.0, 30.0), (30.0, 80.0)}
    npt.assert_allclose(list(report.lateral_error.values()), 0.0, atol=1e-12)
    npt.assert_allclose(report.mean_abs_dz, 0.0, atol=1e-12)
    assert report.counts == {"n_gt": 4, "n_pred": 4, "n_matched": 4}
    assert report.operating_iou == 0.5


def _first_pred_only(scenes):
    return [(preds[:1], gts) for preds, gts in scenes]


def test_evaluate_half_deleted_recall_half_everywhere():
    report = _evaluate(_first_pred_only(_two_scene_setup()), CFG)
    assert report.recall_at_reference == 0.5
    assert all(v == 0.5 for v in report.ap_per_threshold.values())
    assert report.map_score == 0.5
    assert report.counts == {"n_gt": 4, "n_pred": 2, "n_matched": 2}


def test_evaluate_order_invariant_with_distinct_confidences():
    scenes = _two_scene_setup()
    base = _evaluate(scenes, CFG).to_dict()
    shuffled = _evaluate([(preds[::-1], gts) for preds, gts in scenes[::-1]], CFG).to_dict()
    assert shuffled == base


def test_evaluate_matching_stays_within_scenes():
    gt = vertical_line(0.03)
    report = _evaluate([([], [gt]), ([(gt, 0.9)], [])], CFG)
    assert report.map_score == 0.0
    assert report.counts["n_matched"] == 0
    assert report.lateral_error == {}
    assert report.mean_abs_dz is None


def test_evaluate_reports_recall75_operating_point():
    report = _evaluate(_two_scene_setup(), CFG)
    # confidences 0.95/0.9/0.85/0.8 all true positives: recall crosses 0.75
    # at the third-highest confidence
    assert report.recall75_confidence == 0.85
    assert set(report.lateral_error_at_recall75) == {(0.0, 30.0), (30.0, 80.0)}
    npt.assert_allclose(list(report.lateral_error_at_recall75.values()), 0.0, atol=1e-12)


def test_evaluate_recall75_absent_when_unreachable():
    report = _evaluate(_first_pred_only(_two_scene_setup()), CFG)
    assert report.recall75_confidence is None
    assert report.lateral_error_at_recall75 is None


def test_evaluate_empty_predictions():
    report = _evaluate([([], gts) for _, gts in _two_scene_setup()], CFG)
    assert report.map_score == 0.0
    assert report.recall_at_reference == 0.0
    assert report.lateral_error == {}
    assert report.mean_abs_dz is None
    assert report.counts == {"n_gt": 4, "n_pred": 0, "n_matched": 0}


def test_evaluate_confidence_ties_across_scenes_keep_scene_order():
    # a false positive and a true positive at the same confidence, in two
    # scenes: the pooled ranking lists the earlier scene's first
    gt = vertical_line(0.03)
    miss = ([(vertical_line(8.0), 1.0)], [gt])
    hit = ([(gt, 1.0)], [gt])
    assert _evaluate([miss, hit], CFG).map_score == 0.25   # precision 1/2 at recall 1/2
    assert _evaluate([hit, miss], CFG).map_score == 0.5    # precision 1 at recall 1/2


def test_evaluate_rejects_bad_confidence():
    gt = vertical_line(0.03)
    with pytest.raises(ValueError):
        score_scene([(gt, 1.5)], [gt], CFG)


# ---------------------------------------------------------------------------
# score_scenes: consecutive scenes share a rasterizer call

FAR = Curve(points=[[20.0, 5.0, 0.0], [21.0, 9.0, 0.1]])     # outside SMALL's extent
LONG = Curve(points=[[-2.0, 0.5, 0.0], [1.0, 4.0, 0.1], [-1.0, 8.0, 0.2], [3.0, 11.5, 0.3]])
_scene_curves = st.one_of(small_curves(), st.just(FAR))


@settings(max_examples=80)
@given(scenes=st.lists(st.tuples(st.lists(st.tuples(_scene_curves, st.floats(0.0, 1.0)),
                                          max_size=3),
                                 st.lists(_scene_curves, max_size=3)), max_size=7),
       budget=st.integers(1, 16))
# neither, no GTs, no predictions, a scene over the budget by itself; five
# scenes, so no chunk size divides them
@example(scenes=[([], []), ([(FAR, 0.5)], []), ([], [FAR, LONG]),
                 ([(LONG, 0.7), (LONG, 0.2)], [LONG, FAR]), ([(LONG, 1.0)], [LONG])], budget=4)
def test_score_scenes_equals_score_scene_of_each_scene_alone(scenes, budget):
    want = [score_scene(preds, gts, SMALL) for preds, gts in scenes]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_CHUNK_SEGMENTS", budget)
        got = score_scenes(scenes, SMALL)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert type(x) is type(y), f.name
            x, y = np.asarray(x), np.asarray(y)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
def test_score_scenes_rejects_a_bad_confidence_in_any_scene(monkeypatch, where, bad):
    # every scene is checked before any is rasterized
    gt = vertical_line(0.03)
    scenes = [([(gt, 0.9)], [gt]) for _ in range(3)]
    scenes[where] = ([(gt, 0.5), (gt, bad)], [gt])
    calls = []
    monkeypatch.setattr(evaluation, "rasterize_curve", lambda *args: calls.append(args))
    with pytest.raises(ValueError):
        score_scenes(scenes, CFG)
    assert calls == []


def test_evaluate_results_memory_is_bounded_by_the_chunk():
    # 16 default scenes: about 3 MB at some four scenes per rasterizer call,
    # 9 MB when all 16 share one call, 2 MB at one scene per call
    config = PipelineConfig.from_dict({"n_scenes": 16, "master_seed": 11})
    results = [process_scene(config, i) for i in range(16)]
    tracemalloc.start()
    try:
        evaluate_results(results, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_report_to_dict_json_serializable():
    d = _evaluate(_two_scene_setup(), CFG).to_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["ap_per_threshold"]["0.5"] == 1.0
    assert abs(back["lateral_error"]["0-30"]) <= 1e-12
    assert abs(back["lateral_error"]["30-80"]) <= 1e-12
    assert back["map_score"] == 1.0
    assert isinstance(back["counts"]["n_gt"], int)
