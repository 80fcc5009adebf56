"""Tests for embedding mean-shift clustering, curve assembly and the greedy baseline."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlanes.clustering import (
    ClusterParams,
    Curve,
    LaneInstance,
    assemble_curve,
    assign_clusters,
    cluster_segments,
    greedy_baseline,
    mean_shift,
)
from bevlanes.codec import SegmentSet, array_fields

PARAMS = ClusterParams()


def make_seg(mid, direction=(0.0, 1.0), tile=(0, 0), emb=(0.0, 0.0), score=0.9, half=1.5):
    """One segment's fields, a row for `seg_set`."""
    mid = np.asarray(mid, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    step = np.array([d[0], d[1], 0.0]) * half
    return dict(midpoint=mid, direction=d, endpoints=np.stack([mid - step, mid + step]),
                score=score, tile=tile, embedding=np.asarray(emb, dtype=float), degenerate=False)


def seg_set(rows) -> SegmentSet:
    """The SegmentSet of rows made by `make_seg`, in order."""
    if not rows:
        return SegmentSet.empty()
    return SegmentSet(**{f.name: np.array([r[f.name] for r in rows], dtype=f.metadata["dtype"])
                         for f in array_fields(SegmentSet)})


# ---------------------------------------------------------------------------
# mean shift


def test_mean_shift_single_point():
    centers = mean_shift(np.array([[2.0, -1.0]]), PARAMS)
    assert centers.shape == (1, 2)
    npt.assert_allclose(centers[0], [2.0, -1.0], atol=1e-12)


def test_mean_shift_identical_points():
    pts = np.tile([[0.5, 0.5, 0.5]], (7, 1))
    centers = mean_shift(pts, PARAMS)
    assert centers.shape == (1, 3)
    npt.assert_allclose(centers[0], [0.5, 0.5, 0.5], atol=1e-12)


def test_mean_shift_two_groups_against_group_means():
    rng = np.random.default_rng(100)
    g1 = np.array([0.0, 0.0]) + 0.2 * rng.standard_normal((50, 2))
    g2 = np.array([5.0, 0.0]) + 0.2 * rng.standard_normal((50, 2))
    pts = np.vstack([g1, g2])
    centers = mean_shift(pts, PARAMS)
    assert len(centers) == 2
    for group in (g1, g2):
        mean = group.mean(axis=0)
        nearest = centers[np.argmin(np.linalg.norm(centers - mean, axis=1))]
        assert np.linalg.norm(nearest - mean) < 0.15


def test_mean_shift_shift_exactly_at_shift_tol_keeps_iterating():
    # seed 0's first mean is (1, 0), a shift of exactly 1.0; from there the
    # window takes in (3.2, 0) and the seed moves on to (5.2 / 3, 0), which
    # outranks the other modes. Stopping at the tolerance would keep (1, 0).
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [3.2, 0.0]])
    centers = mean_shift(pts, ClusterParams(bandwidth=2.5, shift_tol=1.0))
    npt.assert_allclose(centers, [[5.2 / 3, 0.0]], atol=1e-12)


def test_mean_shift_deterministic_and_permutation_invariant():
    rng = np.random.default_rng(3)
    pts = np.vstack([
        0.1 * rng.standard_normal((20, 2)),
        np.array([4.0, 4.0]) + 0.1 * rng.standard_normal((20, 2)),
    ])
    a = mean_shift(pts, PARAMS)
    b = mean_shift(pts, PARAMS)
    npt.assert_array_equal(a, b)
    perm = rng.permutation(len(pts))
    c = mean_shift(pts[perm], PARAMS)
    assert len(a) == len(c)
    order_a = np.lexsort(a.T)
    order_c = np.lexsort(c.T)
    npt.assert_allclose(a[order_a], c[order_c], atol=1e-6)


def test_mean_shift_rejects_empty():
    with pytest.raises(ValueError):
        mean_shift(np.zeros((0, 2)), PARAMS)


def test_cluster_params_validated():
    with pytest.raises(ValueError):
        ClusterParams(bandwidth=0.0)
    with pytest.raises(ValueError):
        ClusterParams(assign_radius=-1.0)
    with pytest.raises(ValueError):
        ClusterParams(min_cluster_size=0)
    with pytest.raises(ValueError):
        ClusterParams(max_iters=0)


@pytest.mark.parametrize("field, value", [
    ("bandwidth", float("nan")), ("bandwidth", float("inf")),
    ("shift_tol", float("nan")), ("shift_tol", -1e-4), ("shift_tol", float("inf")),
    ("assign_radius", float("nan")), ("assign_radius", float("inf")),
])
def test_cluster_params_reject_non_finite_and_negative(field, value):
    # a NaN bandwidth used to merge points 7 apart into one mode
    with pytest.raises(ValueError, match=field):
        ClusterParams(**{field: value})


# ---------------------------------------------------------------------------
# assignment


def test_assign_inside_radius():
    labels = assign_clusters(np.array([[1.4, 0.0]]), np.array([[0.0, 0.0]]), 1.5)
    npt.assert_array_equal(labels, [0])


def test_assign_outside_radius():
    labels = assign_clusters(np.array([[1.6, 0.0]]), np.array([[0.0, 0.0]]), 1.5)
    npt.assert_array_equal(labels, [-1])


def test_assign_tie_goes_to_lower_center():
    centers = np.array([[-1.0, 0.0], [1.0, 0.0]])
    labels = assign_clusters(np.array([[0.0, 0.0]]), centers, 1.5)
    npt.assert_array_equal(labels, [0])


def test_assign_no_centers():
    labels = assign_clusters(np.ones((3, 2)), np.zeros((0, 2)), 1.5)
    npt.assert_array_equal(labels, [-1, -1, -1])


# ---------------------------------------------------------------------------
# cluster_segments

ANCHORS = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])


def _segments_at_anchors(noise=0.0, seed=0, per_lane=6):
    rng = np.random.default_rng(seed)
    segments, truth = [], []
    for lane, anchor in enumerate(ANCHORS):
        for t in range(per_lane):
            emb = anchor + noise * rng.standard_normal(2)
            segments.append(make_seg([lane * 3.7 - 3.7, 3.0 * t + 1.5, 0.0],
                                     tile=(t, 4 + lane * 3), emb=emb))
            truth.append(lane)
    return segments, np.array(truth)


def _membership(instances, segments):
    """Each segment's instance index, or -1; a segment is known by its tile."""
    assert len({s["tile"] for s in segments}) == len(segments)
    label = {}
    for k, inst in enumerate(instances):
        for tile in map(tuple, inst.segments.tile.tolist()):
            assert tile not in label  # no segment in two instances
            label[tile] = k
    return np.array([label.get(s["tile"], -1) for s in segments])


def test_cluster_segments_separated_anchors():
    segments, truth = _segments_at_anchors(noise=0.0)
    instances = cluster_segments(seg_set(segments), PARAMS)
    assert len(instances) == 3
    got = _membership(instances, segments)
    assert (got >= 0).all()
    # same partition as the ground truth
    for lane in range(3):
        assert len(set(got[truth == lane])) == 1
    assert len({got[truth == lane][0] for lane in range(3)}) == 3


def test_cluster_segments_noise_below_pull_margin():
    clean, truth = _segments_at_anchors(noise=0.0)
    noisy, _ = _segments_at_anchors(noise=0.1, seed=7)
    # brute-force nearest-anchor oracle on the noisy embeddings
    emb = seg_set(noisy).embedding
    oracle = np.argmin(np.linalg.norm(emb[:, None, :] - ANCHORS[None], axis=2), axis=1)
    npt.assert_array_equal(oracle, truth)
    instances = cluster_segments(seg_set(noisy), PARAMS)
    assert len(instances) == 3
    got = _membership(instances, noisy)
    for lane in range(3):
        assert len(set(got[truth == lane])) == 1


def test_cluster_segments_single_shared_embedding():
    segments = [make_seg([0.0, 3.0 * t, 0.0], emb=[1.0, 1.0], tile=(t, 8), score=0.5 + 0.1 * t)
                for t in range(4)]
    instances = cluster_segments(seg_set(segments), PARAMS)
    assert len(instances) == 1
    npt.assert_allclose(instances[0].confidence, np.mean([s["score"] for s in segments]))


def test_cluster_segments_empty():
    assert cluster_segments(SegmentSet.empty(), PARAMS) == []


def test_cluster_segments_drops_small_clusters():
    segments, _ = _segments_at_anchors(noise=0.0)
    lone = make_seg([5.0, 40.0, 0.0], emb=[30.0, 30.0], tile=(13, 12))
    instances = cluster_segments(seg_set(segments + [lone]), PARAMS)
    assert len(instances) == 3
    assert not any((inst.segments.tile == lone["tile"]).all(axis=1).any() for inst in instances)
    keep_all = ClusterParams(min_cluster_size=1)
    assert len(cluster_segments(seg_set(segments + [lone]), keep_all)) == 4


def test_cluster_recovery_over_random_configurations():
    # K well-separated anchors with members inside the pull margin must come
    # back as exactly K instances with exact membership
    rng = np.random.default_rng(55)
    for trial in range(20):
        k = int(rng.integers(1, 7))
        anchors = []
        while len(anchors) < k:
            cand = rng.uniform(-6, 6, 2)
            if all(np.linalg.norm(cand - a) >= 3.0 for a in anchors):
                anchors.append(cand)
        segments, truth = [], []
        for lane, anchor in enumerate(anchors):
            n = int(rng.integers(2, 8))
            for t in range(n):
                emb = anchor + rng.uniform(-0.07, 0.07, 2)
                segments.append(make_seg([lane, 3.0 * t, 0.0], emb=emb, tile=(t, lane)))
                truth.append(lane)
        instances = cluster_segments(seg_set(segments), PARAMS)
        assert len(instances) == k
        got = _membership(instances, segments)
        truth_arr = np.array(truth)
        assert (got >= 0).all()
        for lane in range(k):
            assert len(set(got[truth_arr == lane])) == 1


# ---------------------------------------------------------------------------
# curve assembly


def test_assemble_collinear_midpoints_sorted():
    mids = [[0.0, 4.0, 0.0], [0.0, 1.0, 0.0], [0.0, 7.0, 0.0]]
    inst = LaneInstance(
        segments=seg_set([make_seg(m, tile=(i, 8), emb=[0, 0]) for i, m in enumerate(mids)]),
        confidence=0.9)
    curve = assemble_curve(inst)
    npt.assert_allclose(curve.points[:, 1], [1.0, 4.0, 7.0], atol=1e-12)
    assert len(curve.points) == 3


def test_assemble_longer_collinear_chain():
    rng = np.random.default_rng(6)
    ys = np.arange(10, dtype=float)
    order = rng.permutation(10)
    inst = LaneInstance(
        segments=seg_set([make_seg([2.0, ys[i], 0.1 * ys[i]], tile=(int(ys[i]), 3))
                          for i in order]),
        confidence=0.5)
    curve = assemble_curve(inst)
    npt.assert_allclose(curve.points[:, 1], ys, atol=1e-12)
    npt.assert_allclose(curve.points[:, 2], 0.1 * ys, atol=1e-12)  # z carried along


def test_assemble_quarter_arc_in_arc_length_order():
    theta = np.linspace(0.0, math.pi / 2, 10)
    pts = np.column_stack([10 * np.sin(theta), 10 - 10 * np.cos(theta), np.zeros(10)])
    rng = np.random.default_rng(1)
    order = rng.permutation(10)
    inst = LaneInstance(
        segments=seg_set([make_seg(pts[i], tile=(i, 0)) for i in order]),
        confidence=0.9)
    curve = assemble_curve(inst)
    assert len(curve.points) == 10
    npt.assert_allclose(curve.points, pts, atol=1e-12)


def test_assemble_singleton_uses_endpoints():
    seg = make_seg([0.0, 1.5, 0.0], direction=(0, 1), half=1.5)
    inst = LaneInstance(segments=seg_set([seg]), confidence=1.0)
    curve = assemble_curve(inst)
    npt.assert_allclose(curve.points, [[0.0, 0.0, 0.0], [0.0, 3.0, 0.0]], atol=1e-12)


def test_assemble_without_two_distinct_points_makes_no_lane():
    # one segment clamped to a tile corner, and midpoints that all coincide
    corner = make_seg([-10.24, 78.0, 0.0], direction=(1, 1), half=0.0)
    assert assemble_curve(LaneInstance(segments=seg_set([corner]), confidence=1.0)) is None
    same = [make_seg([0.0, 1.5, 0.0], tile=(0, k)) for k in range(3)]
    assert assemble_curve(LaneInstance(segments=seg_set(same), confidence=1.0)) is None


def test_lane_instance_requires_segments():
    with pytest.raises(ValueError):
        LaneInstance(segments=SegmentSet.empty(), confidence=0.0)


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(points=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        Curve(points=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    Curve(points=np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5]]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("cell", [(0, 0), (1, 1), (1, 2)])
def test_curve_rejects_non_finite_points(bad, cell):
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5]])
    pts[cell] = bad
    with pytest.raises(ValueError, match="finite"):
        Curve(points=pts)


# ---------------------------------------------------------------------------
# greedy baseline


def _column_segments(col, rows, x, tilt=0.0, emb=(0.0, 0.0)):
    segs = []
    for i in rows:
        segs.append(make_seg([x, 3.0 * i + 1.5, 0.0],
                             direction=(math.sin(tilt), math.cos(tilt)),
                             tile=(i, col), emb=emb))
    return segs


def test_greedy_joins_straight_column():
    segs = _column_segments(8, range(8), 0.64)
    instances = greedy_baseline(seg_set(segs))
    assert len(instances) == 1
    assert len(instances[0].segments) == 8


def test_greedy_keeps_parallel_lanes_apart():
    segs = _column_segments(4, range(6), -4.5) + _column_segments(7, range(6), -0.6)
    instances = greedy_baseline(seg_set(segs))
    assert len(instances) == 2


def test_greedy_angle_gate():
    a = make_seg([0.0, 1.5, 0.0], direction=(0.0, 1.0), tile=(0, 8))
    b = make_seg([0.0, 4.5, 0.0], direction=(math.sin(0.6), math.cos(0.6)), tile=(1, 8))
    assert len(greedy_baseline(seg_set([a, b]))) == 2
    c = make_seg([0.0, 4.5, 0.0], direction=(math.sin(0.3), math.cos(0.3)), tile=(1, 8))
    assert len(greedy_baseline(seg_set([a, c]))) == 1


def test_greedy_gap_gate():
    # diagonal-adjacent tiles but the segments hug opposite corners
    a = make_seg([-9.7, 0.3, 0.0], direction=(1.0, 0.0), tile=(0, 0), half=0.4)
    b = make_seg([-7.0, 5.6, 0.0], direction=(1.0, 0.0), tile=(1, 1), half=0.4)
    assert math.hypot(-7.0 + 0.4 - (-9.7 - 0.4), 5.6 - 0.3) > 4.5
    assert len(greedy_baseline(seg_set([a, b]))) == 2


def test_greedy_merges_y_split_where_embeddings_separate():
    # stem plus two diverging branches: the geometric baseline unions all of
    # it through the shared stem, embedding clustering keeps the branches apart
    stem = _column_segments(8, range(3), 0.64, emb=(0.0, 0.0))
    left = []
    right = []
    for k in range(3):
        i = 3 + k
        y = 3.0 * i + 1.5
        left.append(make_seg([0.64 - 0.9 * (k + 1), y, 0.0],
                             direction=(math.sin(-0.28), math.cos(-0.28)),
                             tile=(i, 8 - (k + 1)), emb=(0.0, 0.0)))
        right.append(make_seg([0.64 + 0.9 * (k + 1), y, 0.0],
                              direction=(math.sin(0.28), math.cos(0.28)),
                              tile=(i, 8 + (k + 1)), emb=(4.0, 0.0)))
    segments = seg_set(stem + left + right)
    greedy = greedy_baseline(segments)
    assert len(greedy) == 1  # under-segmentation: stem bridges the branches

    clustered = cluster_segments(segments, PARAMS)
    assert len(clustered) == 2
    sizes = sorted(len(inst.segments) for inst in clustered)
    assert sizes == [3, 6]  # stem travels with the branch sharing its anchor


def test_greedy_empty():
    assert greedy_baseline(SegmentSet.empty()) == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_mean_shift_rejects_non_finite(bad):
    # two clusters and one bad point: the bad point must not become the only mode
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0], [bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        mean_shift(pts, PARAMS)


# ---------------------------------------------------------------------------
# permutation stability: the same partition of segments for any input order


def _partition(instances):
    """Each instance's members; a member is known by its midpoint's bits."""
    return {frozenset(m.tobytes() for m in inst.segments.midpoint) for inst in instances}


@st.composite
def lane_segment_sets(draw):
    """Up to five lanes of segments in neighbouring tiles: embeddings inside
    the pull margin of anchors at least 3 apart, headings that wander, and
    lanes that cross or touch, so both methods see joins and near misses."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    segments = []
    for lane in range(draw(st.integers(1, 5))):
        anchor = 3.0 * np.eye(4)[lane % 4] * (1 + lane // 4)
        col, tilt = int(rng.integers(0, 12)), rng.uniform(-0.5, 0.5)
        for row in range(int(rng.integers(1, 9))):
            c = col + int(round(row * math.tan(tilt)))
            mid = [0.32 * c + rng.uniform(-0.3, 0.3), 3.0 * row + 1.5, 0.0]
            segments.append(make_seg(mid, direction=(math.sin(tilt + rng.normal(0, 0.2)),
                                                     math.cos(tilt)),
                                     tile=(row, c), emb=anchor + rng.uniform(-0.07, 0.07, 4),
                                     score=float(rng.uniform(0.1, 1.0))))
    segments = seg_set(segments)
    assert len({m.tobytes() for m in segments.midpoint}) == len(segments)
    return segments, segments.take(draw(st.permutations(range(len(segments)))))


@settings(max_examples=60)
@given(sets=lane_segment_sets())
def test_clustering_partition_does_not_depend_on_segment_order(sets):
    segments, permuted = sets
    # the modes may move by an ulp (the matmul sums in point order), the
    # partition must not
    assert (_partition(cluster_segments(segments, PARAMS))
            == _partition(cluster_segments(permuted, PARAMS)))
    assert _partition(greedy_baseline(segments)) == _partition(greedy_baseline(permuted))
