"""Tests for the tile grid, the camera rig record and Lane3D."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from bevlanes.geometry import (CameraRig, GridSpec, Lane3D, resample_polyline, tile_bounds,
                               tile_center, tile_centers)
from bevlanes.io import section_from_dict, section_to_dict


# ---------------------------------------------------------------------------
# tile grid


def test_tile_center_hand_values():
    grid = GridSpec()
    npt.assert_allclose(tile_center(0, 8, grid), [0.64, 1.5], rtol=0, atol=1e-12)
    npt.assert_allclose(tile_center(25, 0, grid), [-9.6, 76.5], rtol=0, atol=1e-12)


def test_tile_center_bounds_checked():
    grid = GridSpec()
    with pytest.raises(IndexError):
        tile_center(26, 0, grid)
    with pytest.raises(IndexError):
        tile_center(0, 16, grid)
    with pytest.raises(IndexError):
        tile_center(-1, 0, grid)
    with pytest.raises(IndexError):
        tile_bounds(0, -1, grid)


def test_default_grid_extent():
    grid = GridSpec()
    assert grid.x_min == -10.24
    assert grid.x_max == 10.24
    assert grid.y_min == 0.0
    assert grid.y_max == 78.0


def test_tile_centers_matches_scalar_version():
    grid = GridSpec(n_cols=5, n_rows=7, tile_width=0.9, tile_length=2.5, y_min=-3.0)
    centers = tile_centers(grid)
    assert centers.shape == (7, 5, 2)
    for i in range(7):
        for j in range(5):
            npt.assert_allclose(centers[i, j], tile_center(i, j, grid), atol=1e-12)


def test_tile_centers_tile_the_plane():
    # nearest center of any in-extent point is within half a tile per axis
    grid = GridSpec()
    rng = np.random.default_rng(7)
    pts = np.column_stack(
        [
            rng.uniform(grid.x_min, grid.x_max, 500),
            rng.uniform(grid.y_min, grid.y_max, 500),
        ]
    )
    centers = tile_centers(grid).reshape(-1, 2)
    for p in pts:
        d = np.abs(centers - p)
        nearest = centers[np.argmin(d[:, 0] ** 2 + d[:, 1] ** 2)]
        assert abs(nearest[0] - p[0]) <= grid.tile_width / 2 + 1e-12
        assert abs(nearest[1] - p[1]) <= grid.tile_length / 2 + 1e-12


def test_tile_bounds_contain_center():
    grid = GridSpec()
    for i, j in [(0, 0), (12, 7), (25, 15)]:
        x_lo, x_hi, y_lo, y_hi = tile_bounds(i, j, grid)
        cx, cy = tile_center(i, j, grid)
        assert x_lo < cx < x_hi
        assert y_lo < cy < y_hi
        npt.assert_allclose(x_hi - x_lo, grid.tile_width, atol=1e-12)
        npt.assert_allclose(y_hi - y_lo, grid.tile_length, atol=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(n_cols=0)
    with pytest.raises(ValueError):
        GridSpec(tile_width=-1.0)
    with pytest.raises(ValueError):
        GridSpec(tile_length=0.0)


def test_grid_serialization_round_trip():
    grid = GridSpec(n_cols=4, n_rows=9, tile_width=1.5, tile_length=2.0, y_min=5.0)
    assert section_from_dict(GridSpec, section_to_dict(grid)) == grid


# ---------------------------------------------------------------------------
# camera rig


def test_rig_validation():
    with pytest.raises(ValueError):
        CameraRig(height=0.0)
    with pytest.raises(ValueError):
        CameraRig(height=-1.0)
    with pytest.raises(ValueError):
        CameraRig(pitch=math.pi / 2)
    with pytest.raises(ValueError):
        CameraRig(focal=(0.0, 1000.0))


def test_rig_serialization_round_trip():
    rig = CameraRig(pitch=0.05, height=1.4, focal=(900.0, 910.0),
                    principal_point=(600.0, 350.0), image_size=(1200, 700))
    assert section_from_dict(CameraRig, section_to_dict(rig)) == rig


# ---------------------------------------------------------------------------
# Lane3D


def test_lane3d_validation():
    with pytest.raises(ValueError):
        Lane3D(points=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        Lane3D(points=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        Lane3D(points=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))  # zero xy length
    with pytest.raises(ValueError):
        Lane3D(points=np.array([[0.0, 0.0, 0.0], [np.inf, 1.0, 0.0]]))
    lane = Lane3D(points=[[0.0, 0.0, 0.0], [0.0, 5.0, 0.0]], lane_id=3)
    assert lane.points.dtype == np.float64
    assert lane.lane_id == 3


# ---------------------------------------------------------------------------
# polyline resampling: the two resamplers it replaced, verbatim


def _ref_scene_resample(xy, step):
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total <= 0:
        return None
    targets = np.arange(0.0, total, step)
    if total - targets[-1] > 1e-9:
        targets = np.append(targets, total)
    x = np.interp(targets, s, xy[:, 0])
    y = np.interp(targets, s, xy[:, 1])
    return np.column_stack([x, y])


def _ref_curve_resample(points, step):
    seg = np.linalg.norm(np.diff(points[:, :2], axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(0.0, s[-1], step)
    if s[-1] - (targets[-1] if len(targets) else 0.0) > 1e-9:
        targets = np.append(targets, s[-1])
    return np.column_stack([np.interp(targets, s, points[:, k]) for k in range(3)])


def _polylines():
    rng = np.random.default_rng(11)
    yield np.zeros((3, 3))                                      # zero xy length
    yield np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 5.0]])          # only z moves
    yield np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 1.0]])          # length 5: endpoint on a step
    yield np.array([[0.0, 0.0, 0.0], [0.0, 5.0 + 1e-10, 1.0]])  # within 1e-9 of a step
    for n in (2, 3, 7, 40):
        pts = np.cumsum(rng.normal(0.0, 1.5, (n, 3)), axis=0)
        pts[n // 2] = pts[n // 2 - 1]                           # a repeated vertex
        yield pts


@pytest.mark.parametrize("step", [1.0, 0.7, 2.5])
def test_resample_polyline_equals_the_resamplers_it_replaced(step):
    for pts in _polylines():
        got = resample_polyline(pts, step)
        npt.assert_array_equal(got, _ref_curve_resample(pts, step))
        scene = _ref_scene_resample(pts[:, :2], step)
        got_xy = resample_polyline(pts[:, :2], step)
        if scene is None:
            assert got_xy.shape == (0, 2)
        else:
            npt.assert_array_equal(got_xy, scene)
