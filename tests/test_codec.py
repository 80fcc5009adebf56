"""Tests for the per-tile lane encode/decode with its angle soft labels."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from bevlanes.codec import (
    AngleBinSpec,
    TilePredictionGrid,
    TileTargetGrid,
    angle_to_soft_labels,
    decode_grid,
    encode_scene,
    logit,
    saturated_prediction,
    soft_labels_to_angle,
    wrap_signed,
)
from bevlanes.geometry import GridSpec, Lane3D, tile_bounds, tile_center

GRID = GridSpec()
BINS = AngleBinSpec(n_bins=8)


def vertical_lane(x, y0=0.0, y1=78.0, z=0.0, lane_id=0, step=1.0):
    ys = np.arange(y0, y1 + 1e-9, step)
    pts = np.column_stack([np.full_like(ys, x), ys, np.full_like(ys, z)])
    return Lane3D(points=pts, lane_id=lane_id)


# ---------------------------------------------------------------------------
# angle soft labels


def test_wrap_signed():
    npt.assert_allclose(wrap_signed(0.3), 0.3)
    npt.assert_allclose(wrap_signed(math.pi), math.pi)
    npt.assert_allclose(wrap_signed(-math.pi), math.pi)
    npt.assert_allclose(wrap_signed(3 * math.pi), math.pi)
    npt.assert_allclose(wrap_signed(2 * math.pi - 0.1), -0.1, atol=1e-12)
    npt.assert_allclose(wrap_signed(np.array([0.0, 7.0])), [0.0, 7.0 - 2 * math.pi])


def test_bin_spec():
    assert BINS.spacing == math.pi / 4
    npt.assert_allclose(BINS.centers, math.pi / 4 * np.arange(1, 9))
    npt.assert_allclose(BINS.centers[-1], 2 * math.pi)
    with pytest.raises(ValueError):
        AngleBinSpec(n_bins=3)


def test_soft_labels_at_bin_center():
    p, d, mask = angle_to_soft_labels(math.pi / 4, BINS)
    expected = np.zeros(8)
    expected[0] = 1.0
    npt.assert_allclose(p, expected, atol=1e-12)
    npt.assert_allclose(d, np.zeros(8), atol=1e-12)
    npt.assert_allclose(mask, expected, atol=0)


def test_soft_labels_every_center_one_hot():
    for i, c in enumerate(BINS.centers[:-1]):  # 2pi itself normalizes to 0
        p, d, mask = angle_to_soft_labels(float(c), BINS)
        assert p[i] == 1.0
        assert mask.sum() == 1.0
        npt.assert_allclose(d, 0.0, atol=1e-12)


def test_soft_labels_at_bin_midpoint():
    p, d, mask = angle_to_soft_labels(3 * math.pi / 8, BINS)
    npt.assert_allclose(p[0], 0.5, atol=1e-12)
    npt.assert_allclose(p[1], 0.5, atol=1e-12)
    npt.assert_allclose(p[2:], 0.0, atol=0)
    npt.assert_allclose(d[0], math.pi / 8, atol=1e-12)
    npt.assert_allclose(d[1], -math.pi / 8, atol=1e-12)
    npt.assert_allclose(mask[:2], 1.0)


def test_soft_labels_wrap_across_zero():
    # phi = 0.01 supervises the 2pi bin (index 7) and the pi/4 bin (index 0)
    p, d, mask = angle_to_soft_labels(0.01, BINS)
    npt.assert_allclose(p[7], 1 - 0.01 / (math.pi / 4), atol=1e-12)
    npt.assert_allclose(p[0], 0.01 / (math.pi / 4), atol=1e-12)
    npt.assert_allclose(p[7], 0.98727, atol=5e-6)
    npt.assert_allclose(p[0], 0.01273, atol=5e-6)
    assert mask.sum() == 2.0
    npt.assert_allclose(d[7], 0.01, atol=1e-12)  # signed residual past 2pi
    npt.assert_allclose(d[0], 0.01 - math.pi / 4, atol=1e-12)


def test_soft_labels_out_of_range_phi_normalized():
    for phi in (-0.1, 2 * math.pi + 0.5, 9.0):
        pa, da, ma = angle_to_soft_labels(phi, BINS)
        pb, db, mb = angle_to_soft_labels(phi % (2 * math.pi), BINS)
        npt.assert_allclose(pa, pb, atol=1e-12)
        npt.assert_allclose(da, db, atol=1e-12)
        npt.assert_allclose(ma, mb, atol=0)


def test_soft_labels_properties():
    rng = np.random.default_rng(3)
    for phi in rng.uniform(0, 2 * math.pi, 1000):
        p, d, mask = angle_to_soft_labels(phi, BINS)
        active = p > 0
        assert active.sum() <= 2
        npt.assert_allclose(p[active].sum(), 1.0, atol=1e-12)
        npt.assert_array_equal(mask, active.astype(float))
        npt.assert_allclose(d[~active.astype(bool)], 0.0, atol=0)
        back = soft_labels_to_angle(p, d, BINS)
        assert abs(wrap_signed(back - phi)) < 1e-12


def test_decode_angle_tie_goes_to_lower_bin():
    p = np.zeros(8)
    d = np.zeros(8)
    p[0] = p[1] = 0.5
    d[0] = math.pi / 8
    d[1] = -math.pi / 8
    npt.assert_allclose(soft_labels_to_angle(p, d, BINS), 3 * math.pi / 8, atol=1e-12)


def test_decode_angle_one_hot():
    p = np.zeros(8)
    p[0] = 1.0
    npt.assert_allclose(soft_labels_to_angle(p, np.zeros(8), BINS), math.pi / 4)


def test_decode_angle_rejects_all_zero():
    with pytest.raises(ValueError):
        soft_labels_to_angle(np.zeros(8), np.zeros(8), BINS)
    with pytest.raises(ValueError):
        soft_labels_to_angle(np.zeros(4), np.zeros(8), BINS)


# ---------------------------------------------------------------------------
# logits


def test_logit_sigmoid_inverse():
    grid = TilePredictionGrid.zeros(GRID, BINS, 2)
    grid.score_logit[:] = 0.0
    npt.assert_allclose(grid.score()[0, 0], 0.5)
    # beyond |z| ~ 20 the float64 representation of p itself limits accuracy
    z = np.linspace(-20, 20, 101)
    p = 1 / (1 + np.exp(-z))
    npt.assert_allclose(logit(p), z, atol=1e-6)
    z = np.linspace(-34, 34, 31)
    npt.assert_allclose(logit(1 / (1 + np.exp(-z))), z, atol=0.05)
    # past ~36.7 the probability rounds to exactly 1.0 and saturates
    assert logit(1 / (1 + np.exp(-45.0))) == 50.0


def test_logit_saturates_at_exact_zero_one():
    assert logit(0.0) == -50.0
    assert logit(1.0) == 50.0
    assert logit(0.5) == 0.0
    assert np.all(np.isfinite(logit(np.array([0.0, 1e-30, 0.5, 1 - 1e-12, 1.0]))))


# ---------------------------------------------------------------------------
# encoding


def test_encode_vertical_lane_through_centers():
    targets = encode_scene([vertical_lane(0.64)], GRID, BINS)
    col = np.zeros((26, 16))
    col[:, 8] = 1.0
    npt.assert_array_equal(targets.occupancy, col)
    npt.assert_allclose(targets.lateral_offset[:, 8], 0.0, atol=1e-12)
    npt.assert_allclose(targets.angle[:, 8], math.pi / 2, atol=1e-12)
    npt.assert_allclose(targets.height_offset[:, 8], 0.0, atol=1e-12)
    npt.assert_array_equal(targets.lane_id[:, 8], 0)
    assert np.all(targets.lane_id[targets.occupancy == 0] == -1)


def test_encode_offset_sign_convention():
    # lane at x = 1.0 sits right of the column-8 centers (x = 0.64); the left
    # normal of the upward direction is (-1, 0), so the offset is negative
    targets = encode_scene([vertical_lane(1.0)], GRID, BINS)
    npt.assert_allclose(targets.lateral_offset[:, 8], -0.36, atol=1e-12)
    npt.assert_allclose(targets.angle[:, 8], math.pi / 2, atol=1e-12)


def test_encode_diagonal_through_center():
    pts = np.array([[0.64 - 1.5, 0.0, 0.0], [0.64 + 1.5, 3.0, 0.0]])
    targets = encode_scene([Lane3D(points=pts)], GRID, BINS)
    assert targets.occupancy[0, 8] == 1.0
    npt.assert_allclose(targets.angle[0, 8], math.pi / 4, atol=1e-12)
    npt.assert_allclose(targets.lateral_offset[0, 8], 0.0, atol=1e-12)


def test_encode_respects_min_segment_length():
    # 0.2 m of lane in row 1 is below the 0.3 m occupancy cutoff
    targets = encode_scene([vertical_lane(0.64, 0.0, 3.2, step=0.2)], GRID, BINS)
    assert targets.occupancy[0, 8] == 1.0
    assert targets.occupancy[1, 8] == 0.0
    targets = encode_scene([vertical_lane(0.64, 0.0, 4.0, step=0.2)], GRID, BINS)
    assert targets.occupancy[1, 8] == 1.0


def test_encode_multi_lane_tie_lower_id_wins():
    lanes = [
        vertical_lane(0.94, y1=3.0, lane_id=3),
        vertical_lane(0.34, y1=3.0, lane_id=7),
    ]
    targets = encode_scene(lanes, GRID, BINS)
    assert targets.lane_id[0, 8] == 3
    npt.assert_allclose(targets.lateral_offset[0, 8], -0.3, atol=1e-12)
    # nearer lane wins when the distances differ
    lanes = [
        vertical_lane(0.94, y1=3.0, lane_id=3),
        vertical_lane(0.54, y1=3.0, lane_id=7),
    ]
    targets = encode_scene(lanes, GRID, BINS)
    assert targets.lane_id[0, 8] == 7
    npt.assert_allclose(targets.lateral_offset[0, 8], 0.1, atol=1e-12)


def test_encode_empty_scene():
    targets = encode_scene([], GRID, BINS)
    npt.assert_array_equal(targets.occupancy, 0.0)
    npt.assert_array_equal(targets.lane_id, -1)


def test_encode_interpolates_height_at_perpendicular_foot():
    targets = encode_scene([vertical_lane(0.64, z=0.0, lane_id=0)], GRID, BINS)
    npt.assert_allclose(targets.height_offset[:, 8], 0.0, atol=1e-12)
    lane = vertical_lane(0.64)
    lane.points[:, 2] = 0.01 * lane.points[:, 1]  # z = 0.01 * y
    targets = encode_scene([lane], GRID, BINS)
    rows = np.arange(26)
    npt.assert_allclose(targets.height_offset[:, 8], 0.01 * (3 * rows + 1.5), atol=1e-12)


def test_encode_outside_grid_ignored():
    targets = encode_scene([vertical_lane(15.0)], GRID, BINS)
    npt.assert_array_equal(targets.occupancy, 0.0)


def test_encode_occupancy_count_matches_incidence():
    # lane covering y in [0, 10]: rows 0-2 fully, row 3 gets 1 m
    targets = encode_scene([vertical_lane(0.64, 0.0, 10.0)], GRID, BINS)
    assert targets.occupancy.sum() == 4.0


# ---------------------------------------------------------------------------
# decoding


def test_decode_axis_aligned_tile():
    targets = TileTargetGrid.zeros(GRID, BINS)
    targets.occupancy[0, 8] = 1.0
    targets.angle[0, 8] = math.pi / 2
    p, d, m = angle_to_soft_labels(math.pi / 2, BINS)
    targets.bin_probs[0, 8] = p
    targets.bin_residuals[0, 8] = d
    targets.bin_mask[0, 8] = m
    segments = decode_grid(saturated_prediction(targets))
    assert len(segments) == 1
    seg = segments[0]
    assert seg.tile == (0, 8)
    npt.assert_allclose(seg.midpoint, [0.64, 1.5, 0.0], atol=1e-12)
    npt.assert_allclose(seg.direction, [0.0, 1.0], atol=1e-12)
    ends = seg.endpoints[np.argsort(seg.endpoints[:, 1])]
    npt.assert_allclose(ends[0], [0.64, 0.0, 0.0], atol=1e-12)
    npt.assert_allclose(ends[1], [0.64, 3.0, 0.0], atol=1e-12)
    assert not seg.degenerate
    assert seg.score > 0.99


def test_decode_threshold():
    targets = TileTargetGrid.zeros(GRID, BINS)
    targets.occupancy[0, 8] = 1.0
    targets.angle[0, 8] = math.pi / 2
    p, d, m = angle_to_soft_labels(math.pi / 2, BINS)
    targets.bin_probs[0, 8] = p
    targets.bin_residuals[0, 8] = d
    pred = saturated_prediction(targets)
    pred.score_logit[0, 8] = logit(0.29)
    assert decode_grid(pred, score_threshold=0.3) == []
    pred.score_logit[0, 8] = logit(0.31)
    assert len(decode_grid(pred, score_threshold=0.3)) == 1
    with pytest.raises(ValueError):
        decode_grid(pred, score_threshold=1.5)


def test_decode_degenerate_line_clamped_to_border():
    targets = TileTargetGrid.zeros(GRID, BINS)
    targets.occupancy[0, 0] = 1.0
    targets.angle[0, 0] = math.pi / 2
    targets.lateral_offset[0, 0] = 5.0  # pushes the line 5 m left of the tile
    p, d, m = angle_to_soft_labels(math.pi / 2, BINS)
    targets.bin_probs[0, 0] = p
    targets.bin_residuals[0, 0] = d
    segments = decode_grid(saturated_prediction(targets))
    assert len(segments) == 1
    seg = segments[0]
    assert seg.degenerate
    x_lo, x_hi, y_lo, y_hi = tile_bounds(0, 0, GRID)
    npt.assert_allclose(seg.midpoint[:2], [x_lo, 1.5], atol=1e-12)


def _point_line_distance(p, a, direction):
    direction = np.asarray(direction) / np.linalg.norm(direction)
    v = np.asarray(p) - np.asarray(a)
    return abs(v[0] * direction[1] - v[1] * direction[0])


def test_straight_lane_round_trip_exact():
    a = np.array([0.5, 0.0])
    b = np.array([3.5, 78.0])
    pts = np.linspace(0, 1, 40)[:, None] * (b - a) + a
    lane = Lane3D(points=np.column_stack([pts, np.zeros(len(pts))]))
    targets = encode_scene([lane], GRID, BINS)
    segments = decode_grid(saturated_prediction(targets))
    assert len(segments) == int(targets.occupancy.sum()) > 20
    phi_true = math.atan2(78.0, 3.0)
    for seg in segments:
        assert _point_line_distance(seg.midpoint[:2], a, b - a) < 1e-9
        assert abs(math.atan2(seg.direction[1], seg.direction[0]) - phi_true) < 1e-12
        # endpoints sit on the tile border
        x_lo, x_hi, y_lo, y_hi = tile_bounds(*seg.tile, GRID)
        for e in seg.endpoints:
            border = min(abs(e[0] - x_lo), abs(e[0] - x_hi),
                         abs(e[1] - y_lo), abs(e[1] - y_hi))
            assert border < 1e-9
            assert x_lo - 1e-9 <= e[0] <= x_hi + 1e-9
            assert y_lo - 1e-9 <= e[1] <= y_hi + 1e-9


def test_piecewise_straight_round_trip_with_border_vertices():
    # direction changes exactly on tile borders keep every in-tile chain straight
    pts = np.array([
        [0.3, 0.0, 0.0],
        [0.3, 9.0, 0.0],
        [1.2, 12.0, 0.0],
        [1.2, 78.0, 0.0],
    ])
    lane = Lane3D(points=pts)
    targets = encode_scene([lane], GRID, BINS)
    segments = decode_grid(saturated_prediction(targets))
    for seg in segments:
        i = seg.tile[0]
        if i < 3:
            assert _point_line_distance(seg.midpoint[:2], pts[0, :2], [0, 1]) < 1e-9
        elif i == 3:
            assert _point_line_distance(seg.midpoint[:2], pts[1, :2], pts[2, :2] - pts[1, :2]) < 1e-9
        else:
            assert _point_line_distance(seg.midpoint[:2], pts[2, :2], [0, 1]) < 1e-9


def test_offset_lane_decodes_to_original_line():
    targets = encode_scene([vertical_lane(1.0)], GRID, BINS)
    segments = decode_grid(saturated_prediction(targets))
    assert len(segments) == 26
    for seg in segments:
        npt.assert_allclose(seg.midpoint[0], 1.0, atol=1e-12)
        npt.assert_allclose(abs(seg.direction[1]), 1.0, atol=1e-12)


def test_curved_lane_chord_deviation_bound():
    # arc of curvature 0.01 (radius 100 m, near-vertical heading): the fitted
    # per-tile chord may deviate from the curve by at most kappa * L^2 / 8
    # (about 0.0113 m for 3 m tiles) plus a small fit tolerance
    radius = 100.0
    center = np.array([0.5 - radius, 0.0])
    s = np.arange(0.0, 20.0 + 1e-9, 0.05)
    theta = s / radius
    pts = np.column_stack([
        center[0] + radius * np.cos(theta),
        center[1] + radius * np.sin(theta),
        np.zeros_like(theta),
    ])
    targets = encode_scene([Lane3D(points=pts)], GRID, BINS)
    segments = decode_grid(saturated_prediction(targets))
    assert segments
    deviations = [
        abs(math.hypot(seg.midpoint[0] - center[0], seg.midpoint[1] - center[1]) - radius)
        for seg in segments
    ]
    assert max(deviations) <= 0.01 * 3.0**2 / 8 + 1.5e-3


def test_saturated_prediction_copies_targets():
    targets = encode_scene([vertical_lane(0.64)], GRID, BINS)
    pred = saturated_prediction(targets, embedding_dim=6)
    assert pred.embedding_dim == 6
    scores = pred.score()
    assert np.all(scores[targets.occupancy == 1] > 1 - 1e-9)
    assert np.all(scores[targets.occupancy == 0] < 1e-9)
    npt.assert_allclose(pred.bin_probs()[0, 8], targets.bin_probs[0, 8], atol=1e-9)
    npt.assert_allclose(pred.lateral_offset, targets.lateral_offset, atol=0)


def test_prediction_grid_shape_validation():
    with pytest.raises(ValueError):
        TilePredictionGrid(
            grid=GRID, bins=BINS,
            score_logit=np.zeros((25, 16)),
            lateral_offset=np.zeros((26, 16)),
            height_offset=np.zeros((26, 16)),
            bin_logits=np.zeros((26, 16, 8)),
            bin_residuals=np.zeros((26, 16, 8)),
            embedding=np.zeros((26, 16, 4)),
        )
    with pytest.raises(ValueError):
        TileTargetGrid(
            grid=GRID, bins=BINS,
            occupancy=np.zeros((26, 16)),
            lateral_offset=np.zeros((26, 16)),
            angle=np.zeros((26, 16)),
            height_offset=np.zeros((26, 16)),
            lane_id=np.zeros((26, 16), dtype=np.int64),
            bin_probs=np.zeros((26, 16, 7)),
            bin_residuals=np.zeros((26, 16, 8)),
            bin_mask=np.zeros((26, 16, 8)),
        )


def test_grid_zeros_fields():
    t = TileTargetGrid.zeros(GRID, BINS)
    for name in ("occupancy", "lateral_offset", "angle", "height_offset"):
        assert getattr(t, name).dtype == np.float64
        npt.assert_array_equal(getattr(t, name), np.zeros((26, 16)))
    assert t.lane_id.dtype == np.int64
    npt.assert_array_equal(t.lane_id, np.full((26, 16), -1))
    for name in ("bin_probs", "bin_residuals", "bin_mask"):
        npt.assert_array_equal(getattr(t, name), np.zeros((26, 16, 8)))
    p = TilePredictionGrid.zeros(GRID, BINS, 3)
    npt.assert_array_equal(p.score_logit, np.full((26, 16), -50.0))
    npt.assert_array_equal(p.bin_logits, np.full((26, 16, 8), -50.0))
    for name, shape in (("lateral_offset", (26, 16)), ("height_offset", (26, 16)),
                        ("bin_residuals", (26, 16, 8)), ("embedding", (26, 16, 3))):
        assert getattr(p, name).dtype == np.float64
        npt.assert_array_equal(getattr(p, name), np.zeros(shape))


@pytest.mark.parametrize("shape", [(26, 16), (25, 16, 4), (26, 16, 4, 1)])
def test_prediction_grid_embedding_shape_validation(shape):
    with pytest.raises(ValueError, match="embedding"):
        replace(TilePredictionGrid.zeros(GRID, BINS, 4), embedding=np.zeros(shape))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("make, name", [
    *[(lambda: TileTargetGrid.zeros(GRID, BINS), name) for name in (
        "occupancy", "lateral_offset", "angle", "height_offset",
        "bin_probs", "bin_residuals", "bin_mask")],
    *[(lambda: TilePredictionGrid.zeros(GRID, BINS, 4), name) for name in (
        "score_logit", "lateral_offset", "height_offset", "bin_logits",
        "bin_residuals", "embedding")],
])
def test_grids_reject_non_finite_arrays(make, name, bad):
    grid = make()
    arr = getattr(grid, name).copy()
    arr[3, 5] = bad
    with pytest.raises(ValueError, match=f"{name} holds a non-finite value"):
        replace(grid, **{name: arr})
