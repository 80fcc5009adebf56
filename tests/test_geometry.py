"""Tests for the tile grid, Lane3D and the finiteness of settings records."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from bevlanes.clustering import ClusterParams
from bevlanes.codec import AngleBinSpec
from bevlanes.evaluation import DEFAULT_EXTENT, EvalConfig
from bevlanes.geometry import MAX_COORDINATE, GridSpec, Lane3D, resample_polyline, tile_centers
from bevlanes.io import section_from_dict, section_to_dict
from bevlanes.losses import EmbeddingParams
from bevlanes.synth import NoiseConfig, SceneConfig, SurfaceParams


# ---------------------------------------------------------------------------
# tile grid


def test_tile_center_hand_values():
    centers = tile_centers(GridSpec())
    npt.assert_allclose(centers[0, 8], [0.64, 1.5], rtol=0, atol=1e-12)
    npt.assert_allclose(centers[25, 0], [-9.6, 76.5], rtol=0, atol=1e-12)


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
            npt.assert_allclose(centers[i, j], [-2.25 + 0.9 * (j + 0.5), -3.0 + 2.5 * (i + 0.5)],
                                atol=1e-12)


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
    # tile (i, j) spans x_min + [j, j + 1] * tile_width, y_min + [i, i + 1] * tile_length
    grid = GridSpec()
    centers = tile_centers(grid)
    for i, j in [(0, 0), (12, 7), (25, 15)]:
        cx, cy = centers[i, j]
        assert grid.x_min + j * grid.tile_width < cx < grid.x_min + (j + 1) * grid.tile_width
        assert grid.y_min + i * grid.tile_length < cy < grid.y_min + (i + 1) * grid.tile_length


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(n_cols=0)
    with pytest.raises(ValueError):
        GridSpec(tile_width=-1.0)
    with pytest.raises(ValueError):
        GridSpec(tile_length=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["tile_width", "tile_length", "y_min"])
def test_grid_rejects_non_finite_values(name, value):
    # `tile_width <= 0` is False for NaN, so NaN used to give x_min = nan
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GridSpec(**{name: value})


NAN, INF = math.nan, math.inf
WEIGHTS = {"parallel": 0.6, "split": 0.1, "merge": 0.1, "short": 0.1, "perpendicular": 0.1}


# Every field of a settings record that took a NaN or an infinity before the
# records checked their numbers, with a value that it took.
@pytest.mark.parametrize("record, name, value", [
    (AngleBinSpec, "n_bins", NAN),
    (EmbeddingParams, "push_margin", INF),
    (EmbeddingParams, "dim", INF),
    (ClusterParams, "max_iters", INF),
    (ClusterParams, "min_cluster_size", NAN),
    (SceneConfig, "n_lanes", INF),
    (SceneConfig, "lane_spacing", INF),
    (SceneConfig, "curvature_max", NAN),
    (SceneConfig, "surface_amplitude", INF),
    (SceneConfig, "surface_wavelength", NAN),
    (SceneConfig, "topology_weights", {**WEIGHTS, "split": NAN}),
    (SceneConfig, "y_range", (0.0, INF)),
    (SceneConfig, "short_y_range", (20.0, INF)),
    (NoiseConfig, "sigma_r", NAN),
    (NoiseConfig, "sigma_phi", INF),
    (NoiseConfig, "sigma_z", NAN),
    (NoiseConfig, "sigma_f", INF),
    (EvalConfig, "lane_width", INF),
    (EvalConfig, "range_buckets", ((0.0, 30.0), (30.0, NAN))),
    (EvalConfig, "lateral_sample_step", NAN),
    (EvalConfig, "extent", (DEFAULT_EXTENT[0], (-0.5, NAN))),
    (SurfaceParams, "amplitude", INF),
    (SurfaceParams, "wavelength_x", NAN),
    (SurfaceParams, "wavelength_y", INF),
    (SurfaceParams, "phase_x", NAN),
    (SurfaceParams, "phase_y", -INF),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_settings_records_reject_non_finite_numbers(record, name, value):
    # SceneConfig(y_range=(0, inf)) made generate_scene loop forever, and a
    # NaN range bucket dropped out of the report
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        record(**{name: value})


def test_grid_rejects_an_extent_that_overflows():
    with pytest.raises(ValueError, match="extent must be finite"):
        GridSpec(tile_width=1e308)
    with pytest.raises(ValueError, match="extent must be finite"):
        GridSpec(tile_length=1e307, y_min=1e308)


@pytest.mark.parametrize("edge, beyond", [
    ({"n_cols": 2, "tile_width": 1e5}, {"n_cols": 2, "tile_width": math.nextafter(1e5, math.inf)}),
    ({"y_min": -1e5}, {"y_min": math.nextafter(-1e5, -math.inf)}),
    ({"y_min": 1e5 - 78.0}, {"y_min": math.nextafter(1e5 - 78.0, math.inf)})],
    ids=["x", "y_min", "y_max"])
def test_grid_extent_lies_within_a_tenth_of_the_coordinate_bound(edge, beyond):
    # a tenth of MAX_COORDINATE leaves a tile's offsets and 14 sigma of noise inside the file bounds
    grid = GridSpec(**edge)
    assert max(grid.x_max, -grid.y_min, grid.y_max) == MAX_COORDINATE / 10
    with pytest.raises(ValueError, match=r"grid extent must lie within \[-100000.0, 100000.0\]"):
        GridSpec(**beyond)


def test_grid_serialization_round_trip():
    grid = GridSpec(n_cols=4, n_rows=9, tile_width=1.5, tile_length=2.0, y_min=5.0)
    assert section_from_dict(GridSpec, section_to_dict(grid)) == grid


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
    with pytest.raises(ValueError, match="duplicate"):
        Lane3D(points=[[0.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 5.0, 0.0]])
    Lane3D(points=[[0.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 5.0, 0.5]])   # a vertical step
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
