"""Tests for the procedural scene generator and the noisy oracle predictor."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlanes.clustering import ClusterParams, cluster_segments
from bevlanes.codec import AngleBinSpec, TileTargetGrid, decode_grid, encode_scene
from bevlanes.geometry import GridSpec, Lane3D, resample_polyline
from bevlanes.io import section_from_dict, section_to_dict
from bevlanes.losses import EmbeddingParams
from bevlanes.synth import (
    TOPOLOGIES,
    NoiseConfig,
    SceneConfig,
    SurfaceParams,
    _center_path,
    _clip_to_grid,
    _polyline_length,
    generate_scene,
    oracle_predict,
    simplex_anchors,
    surface_height,
)

GRID = GridSpec()
BINS = AngleBinSpec()
EMB = EmbeddingParams()


def cfg_with(topology, **kw):
    weights = {name: (1.0 if name == topology else 0.0)
               for name in ("parallel", "split", "merge", "short", "perpendicular")}
    return SceneConfig(topology_weights=weights, **kw)


# ---------------------------------------------------------------------------
# surface


def test_surface_flat_when_amplitude_zero():
    s = SurfaceParams(amplitude=0.0)
    npt.assert_allclose(surface_height(np.linspace(-10, 10, 7), np.linspace(0, 78, 7), s), 0.0)


def test_surface_bounded_by_amplitude():
    s = SurfaceParams(amplitude=0.4, wavelength_x=80.0, wavelength_y=40.0,
                      phase_x=1.0, phase_y=2.0)
    xs, ys = np.meshgrid(np.linspace(-10.24, 10.24, 200), np.linspace(0, 78, 200))
    z = surface_height(xs, ys, s)
    assert np.max(np.abs(z)) <= 0.4 + 1e-12


def test_surface_gradient_bound_by_dense_sampling():
    s = SurfaceParams(amplitude=0.4, wavelength_x=80.0, wavelength_y=40.0,
                      phase_x=0.7, phase_y=2.1)
    bound = 2 * math.pi * s.amplitude * (1 / s.wavelength_x + 1 / s.wavelength_y)
    xs = np.linspace(-10.24, 10.24, 400)
    ys = np.linspace(0.0, 78.0, 400)
    X, Y = np.meshgrid(xs, ys)
    h = 1e-4
    gx = (surface_height(X + h, Y, s) - surface_height(X - h, Y, s)) / (2 * h)
    gy = (surface_height(X, Y + h, s) - surface_height(X, Y - h, s)) / (2 * h)
    assert np.max(np.hypot(gx, gy)) <= bound + 1e-6


def test_surface_params_validated():
    with pytest.raises(ValueError):
        SurfaceParams(amplitude=-0.1)
    with pytest.raises(ValueError):
        SurfaceParams(wavelength_x=0.0)


# ---------------------------------------------------------------------------
# scene generation


def test_generate_deterministic():
    cfg = SceneConfig()
    a = generate_scene(cfg, seed=1234)
    b = generate_scene(cfg, seed=1234)
    assert len(a.lanes) == len(b.lanes)
    for la, lb in zip(a.lanes, b.lanes):
        assert la.lane_id == lb.lane_id
        npt.assert_array_equal(la.points, lb.points)
    assert a.surface == b.surface
    c = generate_scene(cfg, seed=1235)
    assert len(c.lanes) != len(a.lanes) or not np.array_equal(c.lanes[0].points, a.lanes[0].points)


def test_generate_straight_parallel_spacing():
    cfg = cfg_with("parallel", n_lanes=3, curvature_max=0.0, surface_amplitude=0.0)
    scene = generate_scene(cfg, seed=7)
    assert len(scene.lanes) == 3
    dirs = []
    for lane in scene.lanes:
        xy = lane.points[:, :2]
        d = xy[-1] - xy[0]
        d = d / np.linalg.norm(d)
        dirs.append(d)
        # collinearity: every vertex on the start->end line
        v = xy - xy[0]
        cross = np.abs(v[:, 0] * d[1] - v[:, 1] * d[0])
        assert np.max(cross) < 1e-9
    for d in dirs[1:]:
        assert abs(d @ dirs[0]) > 1 - 1e-12
    # perpendicular distance between adjacent lane lines equals the spacing
    for a, b in zip(scene.lanes[:-1], scene.lanes[1:]):
        v = b.points[0, :2] - a.points[0, :2]
        d = dirs[0]
        npt.assert_allclose(abs(v[0] * d[1] - v[1] * d[0]), cfg.lane_spacing, atol=1e-9)


def test_generate_vertices_on_surface():
    cfg = SceneConfig(surface_amplitude=0.35)
    scene = generate_scene(cfg, seed=42)
    assert scene.lanes
    for lane in scene.lanes:
        z = surface_height(lane.points[:, 0], lane.points[:, 1], scene.surface)
        npt.assert_allclose(lane.points[:, 2], z, atol=1e-12)


def test_generate_one_meter_vertex_spacing():
    # exact on straight paths; on curved ones the chord of a 1 m arc is
    # shorter by at most (kappa*1)^2/24, about 4e-5 at kappa = 0.03
    scene = generate_scene(cfg_with("parallel", curvature_max=0.0), seed=5)
    for lane in scene.lanes:
        steps = np.linalg.norm(np.diff(lane.points[:, :2], axis=0), axis=1)
        npt.assert_allclose(steps[:-1], 1.0, atol=1e-9)
        assert 0.0 < steps[-1] <= 1.0 + 1e-9
    scene = generate_scene(SceneConfig(), seed=5)
    for lane in scene.lanes:
        steps = np.linalg.norm(np.diff(lane.points[:, :2], axis=0), axis=1)
        npt.assert_allclose(steps[:-1], 1.0, atol=1e-4)
        assert 0.0 < steps[-1] <= 1.0 + 1e-9


def test_generate_clipped_to_grid():
    for seed in range(12):
        scene = generate_scene(SceneConfig(n_lanes=5), seed=seed)
        for lane in scene.lanes:
            assert np.all(lane.points[:, 0] >= GRID.x_min - 1e-9)
            assert np.all(lane.points[:, 0] <= GRID.x_max + 1e-9)
            assert np.all(lane.points[:, 1] >= GRID.y_min - 1e-9)
            assert np.all(lane.points[:, 1] <= GRID.y_max + 1e-9)


def test_clip_to_grid_keeps_the_first_of_two_equally_long_inside_runs():
    xy = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [50.0, 4.0],
                   [1.0, 5.0], [1.0, 6.0], [1.0, 7.0]])
    npt.assert_array_equal(_clip_to_grid(xy, GRID), xy[:3])


def _clip_by_loop(xy, grid):
    """The longest inside run found vertex by vertex, the first of equal ones."""
    inside = ((xy[:, 0] >= grid.x_min) & (xy[:, 0] <= grid.x_max)
              & (xy[:, 1] >= grid.y_min) & (xy[:, 1] <= grid.y_max))
    best, run_start, best_len = None, None, 0
    for i, ok in enumerate(list(inside) + [False]):
        if ok and run_start is None:
            run_start = i
        elif not ok and run_start is not None:
            if i - run_start > best_len:
                best, best_len = (run_start, i), i - run_start
            run_start = None
    if best is None or best_len < 2:
        return None
    return xy[best[0]:best[1]]


@settings(max_examples=200, deadline=None)
@given(mask=st.lists(st.booleans(), max_size=40))
def test_clip_to_grid_takes_the_run_the_vertex_loop_takes(mask):
    # vertex k lies inside the default grid when mask[k], else beyond its left edge
    xy = np.array([[0.0 if ok else GRID.x_min - 1.0, float(k)] for k, ok in enumerate(mask)],
                  dtype=float).reshape(-1, 2)
    got, expected = _clip_to_grid(xy, GRID), _clip_by_loop(xy, GRID)
    assert (got is None) == (expected is None)
    if expected is not None:
        npt.assert_array_equal(got, expected)


def test_generate_split_shares_stem_and_separates():
    cfg = cfg_with("split", n_lanes=2, curvature_max=0.0, surface_amplitude=0.0)
    scene = generate_scene(cfg, seed=11)
    assert len(scene.lanes) == 3
    branch = scene.lanes[-1].points
    # the branch shares its first vertices exactly with one base lane (the stem)
    base = None
    for lane in scene.lanes[:-1]:
        if np.linalg.norm(lane.points[0] - branch[0]) < 1e-9:
            base = lane.points
    assert base is not None
    n_shared = 0
    for k in range(min(len(base), len(branch))):
        if np.linalg.norm(base[k] - branch[k]) < 1e-9:
            n_shared += 1
        else:
            break
    assert n_shared >= 20  # split happens at y >= 25 with 1 m vertices
    # far-end separation reaches the full lane spacing
    tail = branch[-1, :2]
    dists = np.linalg.norm(base[:, :2] - tail[None, :], axis=1)
    assert dists.min() >= cfg.lane_spacing - 1e-9


def test_generate_merge_shares_tail():
    cfg = cfg_with("merge", n_lanes=2, curvature_max=0.0, surface_amplitude=0.0)
    scene = generate_scene(cfg, seed=3)
    assert len(scene.lanes) == 3
    branch = scene.lanes[-1].points
    base = None
    for lane in scene.lanes[:-1]:
        if np.linalg.norm(lane.points[-1] - branch[-1]) < 1e-9:
            base = lane.points
    assert base is not None
    # separated by the full spacing at the near end
    head = branch[0, :2]
    dists = np.linalg.norm(base[:, :2] - head[None, :], axis=1)
    assert dists.min() >= cfg.lane_spacing - 1e-9


def _diverged_two_ways(base, normal, spacing, y_event, sign, toward_far):
    """The diverging copy of a lane as a split (toward_far) and a merge once
    had a branch each."""
    y = base[:, 1]
    if toward_far:
        t = (y - y_event) / 25.0
    else:
        t = (y_event - y) / 25.0
    t = np.clip(t, 0.0, 1.0)
    delta = spacing * (3.0 * t ** 2 - 2.0 * t ** 3)
    return base + (sign * delta)[:, None] * normal


def _split_or_merge_scene(cfg, grid, seed):
    """`generate_scene` of a split or merge, with the two branches it once had."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CE7E]))
    surface = SurfaceParams(amplitude=cfg.surface_amplitude,
                            wavelength_x=2.0 * cfg.surface_wavelength,
                            wavelength_y=cfg.surface_wavelength,
                            phase_x=float(rng.uniform(0.0, 2.0 * math.pi)),
                            phase_y=float(rng.uniform(0.0, 2.0 * math.pi)))
    center, normal = _center_path(cfg, rng)
    weights = np.array([cfg.topology_weights[n] for n in TOPOLOGIES])
    topology = TOPOLOGIES[int(rng.choice(len(TOPOLOGIES), p=weights / weights.sum()))]
    offsets = (np.arange(cfg.n_lanes) - (cfg.n_lanes - 1) / 2.0) * cfg.lane_spacing
    dense = [center + off * normal for off in offsets]
    if topology == "split":
        k = int(rng.integers(cfg.n_lanes))
        dense.append(_diverged_two_ways(dense[k], normal, cfg.lane_spacing,
                                        float(rng.uniform(25.0, 45.0)),
                                        int(rng.choice([-1, 1])), toward_far=True))
    elif topology == "merge":
        k = int(rng.integers(cfg.n_lanes))
        dense.append(_diverged_two_ways(dense[k], normal, cfg.lane_spacing,
                                        float(rng.uniform(30.0, 50.0)),
                                        int(rng.choice([-1, 1])), toward_far=False))
    lanes = []
    for xy in dense:
        clipped = _clip_to_grid(xy, grid)
        if clipped is None:
            continue
        pts = resample_polyline(clipped, 1.0)
        if _polyline_length(pts) < 8.0:
            continue
        z = surface_height(pts[:, 0], pts[:, 1], surface)
        lanes.append(Lane3D(points=np.column_stack([pts, z]), lane_id=len(lanes)))
    return lanes, surface


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), topology=st.sampled_from(["split", "merge"]),
       grid=st.sampled_from([GRID, GridSpec(n_cols=64, n_rows=104, tile_width=0.32,
                                            tile_length=0.75)]),
       n_lanes=st.integers(1, 4), curvature=st.sampled_from([0.0, 0.03]))
def test_split_and_merge_are_one_recipe_with_the_bits_of_two(seed, topology, grid, n_lanes,
                                                              curvature):
    # a merge is a split mirrored about its event: -(y - y_event) has the
    # bits of y_event - y, so one branch builds both
    cfg = cfg_with(topology, n_lanes=n_lanes, curvature_max=curvature)
    scene = generate_scene(cfg, grid, seed)
    lanes, surface = _split_or_merge_scene(cfg, grid, seed)
    assert scene.surface == surface
    assert [lane.lane_id for lane in scene.lanes] == [lane.lane_id for lane in lanes]
    for got, expected in zip(scene.lanes, lanes):
        assert got.points.tobytes() == expected.points.tobytes()


def test_generate_short_lane_starts_midrange():
    cfg = cfg_with("short", n_lanes=3)
    scene = generate_scene(cfg, seed=19)
    starts = sorted(float(lane.points[:, 1].min()) for lane in scene.lanes)
    assert starts[-1] >= cfg.short_y_range[0] - 1.0
    assert starts[-1] <= cfg.short_y_range[1] + 1.0
    for s in starts[:-1]:
        assert s <= 1.0


def test_generate_perpendicular_crossing():
    cfg = cfg_with("perpendicular", n_lanes=2)
    scene = generate_scene(cfg, seed=23)
    flat = [lane for lane in scene.lanes
            if np.ptp(lane.points[:, 1]) < 1e-6]
    assert len(flat) == 1
    y_cross = float(flat[0].points[0, 1])
    assert 30.0 <= y_cross <= 60.0
    assert np.ptp(flat[0].points[:, 0]) > 15.0  # spans most of the grid width


def test_scene_config_validated():
    with pytest.raises(ValueError):
        SceneConfig(n_lanes=0)
    with pytest.raises(ValueError):
        SceneConfig(lane_spacing=-1.0)
    with pytest.raises(ValueError):
        SceneConfig(topology_weights={"parallel": 0.5})
    with pytest.raises(ValueError):
        SceneConfig(topology_weights={"parallel": 0.5, "spiral": 0.5})
    with pytest.raises(ValueError):
        generate_scene(SceneConfig(surface_wavelength=5.0))


def test_scene_config_round_trip():
    cfg = SceneConfig(n_lanes=4, curvature_max=0.01)
    assert section_from_dict(SceneConfig, section_to_dict(cfg)) == cfg
    noise = NoiseConfig(sigma_r=0.1, drop_rate=0.2)
    assert section_from_dict(NoiseConfig, section_to_dict(noise)) == noise


def test_noise_config_validated():
    with pytest.raises(ValueError):
        NoiseConfig(sigma_r=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(drop_rate=1.5)


# ---------------------------------------------------------------------------
# anchors


def test_simplex_anchor_separation_exact():
    for n in range(1, 6):
        anchors = simplex_anchors(n, 4, 3.0)
        assert anchors.shape == (n, 4)
        for a in range(n):
            for b in range(a + 1, n):
                assert np.linalg.norm(anchors[a] - anchors[b]) >= 3.0


def test_simplex_anchor_dimension_limit():
    with pytest.raises(ValueError):
        simplex_anchors(6, 4, 3.0)
    assert simplex_anchors(5, 4, 3.0).shape == (5, 4)
    assert np.all(simplex_anchors(0, 4, 3.0) == 0.0)


# ---------------------------------------------------------------------------
# oracle predictor


def test_oracle_zero_noise_recovers_membership():
    scene = generate_scene(cfg_with("parallel", curvature_max=0.01), seed=31)
    targets = encode_scene(scene.lanes, GRID, BINS)
    pred = oracle_predict(targets, NoiseConfig(), EMB)
    segments = decode_grid(pred)
    assert len(segments) == int(targets.occupancy.sum())
    instances = cluster_segments(segments, ClusterParams())
    gt_ids = [int(i) for i in np.unique(targets.lane_id[targets.lane_id >= 0])
              if np.sum(targets.lane_id == i) >= 2]
    assert len(instances) == len(gt_ids)
    for inst in instances:
        ids = set(targets.lane_id[tuple(inst.segments.tile.T)].tolist())
        assert len(ids) == 1  # never mixes two ground-truth lanes
        assert len(inst.segments) == int(np.sum(targets.lane_id == ids.pop()))


def test_oracle_deterministic():
    scene = generate_scene(SceneConfig(), seed=2)
    targets = encode_scene(scene.lanes, GRID, BINS)
    noise = NoiseConfig(sigma_r=0.1, sigma_phi=0.05, fp_rate=0.05, sigma_f=0.1)
    a = oracle_predict(targets, noise, EMB, seed=77)
    b = oracle_predict(targets, noise, EMB, seed=77)
    npt.assert_array_equal(a.score_logit, b.score_logit)
    npt.assert_array_equal(a.lateral_offset, b.lateral_offset)
    npt.assert_array_equal(a.embedding, b.embedding)


def test_oracle_lateral_noise_half_normal_mean():
    scene = generate_scene(cfg_with("parallel"), seed=13)
    targets = encode_scene(scene.lanes, GRID, BINS)
    occ = targets.occupancy > 0.5
    assert occ.sum() >= 70
    devs = []
    k = 0
    while len(devs) < 10000:
        pred = oracle_predict(targets, NoiseConfig(sigma_r=0.1), EMB, seed=1000 + k)
        devs.extend(np.abs(pred.lateral_offset - targets.lateral_offset)[occ].tolist())
        k += 1
    mean = float(np.mean(devs))
    expect = 0.1 * math.sqrt(2 / math.pi)  # half-normal mean, about 0.0798
    assert abs(mean - expect) <= 0.05 * expect


def test_oracle_false_positive_rate_binomial():
    empty = TileTargetGrid.zeros(GRID, BINS)
    pred = oracle_predict(empty, NoiseConfig(fp_rate=0.05), EMB, seed=5)
    activated = int(np.sum(pred.score() >= 0.3))
    n = GRID.n_rows * GRID.n_cols
    mean = 0.05 * n
    sigma = math.sqrt(n * 0.05 * 0.95)
    assert mean - 3 * sigma <= activated <= mean + 3 * sigma
    # false positives carry plausible fields
    fp_tiles = np.argwhere(pred.score() >= 0.3)
    i, j = fp_tiles[0]
    assert abs(pred.lateral_offset[i, j]) <= GRID.tile_width / 2


def test_oracle_drop_rate_one_clears_grid():
    scene = generate_scene(SceneConfig(), seed=4)
    targets = encode_scene(scene.lanes, GRID, BINS)
    pred = oracle_predict(targets, NoiseConfig(drop_rate=1.0), EMB)
    assert len(decode_grid(pred)) == 0


def test_oracle_noise_stream_independent_of_occupancy():
    # the same noise seed must flag the same false-positive tiles whether or
    # not other tiles happen to be occupied (whole-grid draws, fixed order)
    scene = generate_scene(SceneConfig(), seed=6)
    targets = encode_scene(scene.lanes, GRID, BINS)
    empty = TileTargetGrid.zeros(GRID, BINS)
    noise = NoiseConfig(fp_rate=0.1)
    occ = targets.occupancy > 0.5
    on_scene = (oracle_predict(targets, noise, EMB, seed=21).score() >= 0.3) & ~occ
    on_empty = oracle_predict(empty, noise, EMB, seed=21).score() >= 0.3
    npt.assert_array_equal(on_scene, on_empty & ~occ)


def test_oracle_rejects_too_many_lanes_for_dimension():
    lanes = generate_scene(cfg_with("parallel", n_lanes=6, lane_spacing=2.0), seed=8).lanes
    assert len(lanes) == 6
    targets = encode_scene(lanes, GRID, BINS)
    with pytest.raises(ValueError):
        oracle_predict(targets, NoiseConfig(), EmbeddingParams(dim=4))
    oracle_predict(targets, NoiseConfig(), EmbeddingParams(dim=5))


def test_oracle_angle_noise_reencoded_consistently():
    scene = generate_scene(cfg_with("parallel"), seed=15)
    targets = encode_scene(scene.lanes, GRID, BINS)
    pred = oracle_predict(targets, NoiseConfig(sigma_phi=0.1), EMB, seed=2)
    probs = pred.bin_probs()
    occ = targets.occupancy > 0.5
    # per-tile soft labels remain a valid (<= 2 bins, sums to 1) encoding
    for i, j in np.argwhere(occ):
        p = probs[i, j]
        active = p > 1e-6
        assert active.sum() <= 2
        npt.assert_allclose(p[active].sum(), 1.0, atol=1e-9)
