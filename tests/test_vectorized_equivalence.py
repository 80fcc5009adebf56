"""The array kernels of evaluation and clustering against the loops they replaced.

`rasterize_curve`, `lateral_error` and `assemble_curve` were per-segment,
per-sample and per-hop Python loops (the rasterizer tested every cell of
each segment's box and returned one mask of the whole extent per curve; it
now tests only the cells at the ends of each row's run and returns cropped
footprints, which are compared here after pasting them into the extent); `mean_shift` held the whole
(centers, points, d) difference tensor at once and computed support and the
merge once per seed; `greedy_baseline` tested every pair of segments in
Python. The reference copies below are those functions verbatim, over a
list of the per-segment records they were written for (`RefSegment`); the
array versions get the same segments as one `SegmentSet`. Every case asserts
exact equality (masks by `np.array_equal`, floats by `==` or their bytes,
point and member order included), so the reports written from them stay
byte-identical.
"""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlanes import clustering, evaluation
from bevlanes.clustering import (ANGLE_TOL, GAP_TOL, ClusterParams, LaneInstance,
                                 assemble_curve, greedy_baseline, mean_shift)
from bevlanes.codec import SegmentSet, array_fields, wrap_signed
from bevlanes.config import PipelineConfig
from bevlanes.evaluation import (EvalConfig, footprint_iou, lateral_error, range_means,
                                 rasterize_curve)
from bevlanes.geometry import Curve, resample_polyline
from bevlanes.pipeline import process_scene

# The "exact" profile (tests/conftest.py) fixes the examples.
EXACT = settings(max_examples=120)

CFG = EvalConfig()
SMALL = EvalConfig(extent=((-3.0, 4.0), (2.0, 11.0)), lane_width=0.8, raster_resolution=0.2,
                   range_buckets=((0.0, 5.0), (3.0, 8.0), (8.0, 20.0)),
                   lateral_sample_step=0.7)
# Cell centres, half-width and eighth-metre vertices are exact binary
# fractions, so cells at exactly lane_width/2 from a segment test the `<=`.
BINARY = EvalConfig(extent=((-4.0, 4.0), (-2.0, 14.0)), lane_width=1.0, raster_resolution=0.25)


# ---------------------------------------------------------------------------
# Reference loops


def ref_rasterize_curve(curve, cfg):
    (x_lo, x_hi), (y_lo, y_hi) = cfg.extent
    res = cfg.raster_resolution
    nx = int(round((x_hi - x_lo) / res))
    ny = int(round((y_hi - y_lo) / res))
    mask = np.zeros((ny, nx), dtype=bool)
    half = cfg.lane_width / 2.0
    pts = curve.points[:, :2]
    for p, q in zip(pts[:-1], pts[1:]):
        ia = max(0, int(math.floor((min(p[0], q[0]) - half - x_lo) / res - 0.5)))
        ib = min(nx - 1, int(math.ceil((max(p[0], q[0]) + half - x_lo) / res)))
        ja = max(0, int(math.floor((min(p[1], q[1]) - half - y_lo) / res - 0.5)))
        jb = min(ny - 1, int(math.ceil((max(p[1], q[1]) + half - y_lo) / res)))
        if ia > ib or ja > jb:
            continue
        cx = x_lo + (np.arange(ia, ib + 1) + 0.5) * res
        cy = y_lo + (np.arange(ja, jb + 1) + 0.5) * res
        gx, gy = np.meshgrid(cx, cy)
        vx, vy = q[0] - p[0], q[1] - p[1]
        den = vx * vx + vy * vy
        if den <= 0:
            d2 = (gx - p[0]) ** 2 + (gy - p[1]) ** 2
        else:
            t = np.clip(((gx - p[0]) * vx + (gy - p[1]) * vy) / den, 0.0, 1.0)
            d2 = (gx - (p[0] + t * vx)) ** 2 + (gy - (p[1] + t * vy)) ** 2
        mask[ja:jb + 1, ia:ib + 1] |= d2 <= half * half
    return mask


def ref_mask_iou(ma, mb):
    union = int(np.count_nonzero(ma | mb))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(ma & mb)) / union


def _ref_nearest_on_polyline(points, q):
    p = points[:-1]
    v = points[1:] - p
    den = np.sum(v[:, :2] ** 2, axis=1)
    den[den == 0] = 1.0
    t = np.clip(((q[0] - p[:, 0]) * v[:, 0] + (q[1] - p[:, 1]) * v[:, 1]) / den, 0.0, 1.0)
    proj = p + t[:, None] * v
    d2 = (proj[:, 0] - q[0]) ** 2 + (proj[:, 1] - q[1]) ** 2
    k = int(np.argmin(d2))
    return math.sqrt(float(d2[k])), float(proj[k, 2])


def ref_lateral_error(pairs, cfg):
    samples = {bucket: [] for bucket in cfg.range_buckets}
    dz_all = []
    for pred, gt in pairs:
        for q in resample_polyline(pred.points, cfg.lateral_sample_step):
            d, z_gt = _ref_nearest_on_polyline(gt.points, q)
            dz_all.append(abs(q[2] - z_gt))
            for lo, hi in cfg.range_buckets:
                if lo <= q[1] < hi:
                    samples[(lo, hi)].append(d)
                    break
    means = {b: float(np.mean(v)) for b, v in samples.items() if v}
    return means, (float(np.mean(dz_all)) if dz_all else None)


def ref_assemble_curve(instance):
    if len(instance.segments) == 1:
        return Curve(points=instance.segments[0].endpoints.copy())
    mids = np.stack([s.midpoint for s in instance.segments])
    xy = mids[:, :2]
    centered = xy - xy.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axis = vt[0]
    if axis[1] < 0 or (axis[1] == 0 and axis[0] < 0):
        axis = -axis
    proj = centered @ axis
    current = int(np.argmin(proj))
    remaining = set(range(len(mids))) - {current}
    order = [current]
    while remaining:
        cands = sorted(remaining)
        d = [float(np.linalg.norm(xy[i] - xy[current])) for i in cands]
        current = cands[int(np.argmin(d))]
        remaining.discard(current)
        order.append(current)
    pts = mids[order]
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-12:
            keep.append(i)
    if len(keep) < 2:       # all midpoints coincide: no lane (the one line that is
        return None         # not the former code, whose rule this changed)
    return Curve(points=pts[keep])


# ---------------------------------------------------------------------------
# Generators


coord_x = st.floats(-14.0, 14.0, allow_nan=False)
coord_y = st.floats(-6.0, 86.0, allow_nan=False)
coord_z = st.floats(-2.0, 2.0, allow_nan=False)


eighth_x = st.integers(-8 * 14, 8 * 14).map(lambda k: k / 8)
eighth_y = st.integers(-8 * 6, 8 * 86).map(lambda k: k / 8)


@st.composite
def curves(draw, max_points=8):
    """Polylines reaching past the default extent, some with vertices on an
    eighth-metre lattice; some vertices repeat the previous xy with a new z,
    which makes a segment with |q - p|_xy = 0."""
    cx, cy = (eighth_x, eighth_y) if draw(st.booleans()) else (coord_x, coord_y)
    pts = [[draw(cx), draw(cy), draw(coord_z)]]
    for _ in range(draw(st.integers(1, max_points - 1))):
        z = draw(coord_z)
        if draw(st.integers(0, 3)) == 0:
            nxt = [pts[-1][0], pts[-1][1], z]
        else:
            nxt = [draw(cx), draw(cy), z]
        step = np.subtract(nxt, pts[-1])
        if np.linalg.norm(step[:2]) + abs(step[2]) > 0.0:   # what Curve accepts
            pts.append(nxt)
    if len(pts) < 2:
        pts.append([pts[0][0] + 1.0, pts[0][1], pts[0][2]])
    return Curve(points=pts)


@dataclass
class RefSegment:
    """A decoded per-tile 3D line segment, as the reference loops take it."""

    midpoint: np.ndarray    # (3,)
    direction: np.ndarray   # (2,)
    endpoints: np.ndarray   # (2, 3)
    score: float
    tile: tuple[int, int]
    embedding: np.ndarray   # (d,)
    degenerate: bool = False


def as_set(segments: list) -> SegmentSet:
    """The RefSegments as one SegmentSet, in order."""
    if not segments:
        return SegmentSet.empty()
    return SegmentSet(**{f.name: np.array([getattr(s, f.name) for s in segments],
                                          dtype=f.metadata["dtype"])
                         for f in array_fields(SegmentSet)})


def _segment(mid):
    mid = np.asarray(mid, dtype=float)
    step = np.array([0.0, 1.5, 0.0])
    return RefSegment(midpoint=mid, direction=np.array([0.0, 1.0]),
                      endpoints=np.stack([mid - step, mid + step]), score=0.9,
                      tile=(0, 0), embedding=np.zeros(2))


# Steps just under, at and just over the duplicate filter's 1e-12.
NEAR_REPEATS = (math.nextafter(1e-12, 0.0), 1e-12, math.nextafter(1e-12, 1.0))


@st.composite
def midpoint_sets(draw):
    """Midpoints with exact and last-bit distance ties: lattices, equally
    spaced collinear runs, mirror-symmetric branches off a stem, repeats,
    and 65-200 midpoints (a zig-zag lane or a dense lattice) that cross a
    block of distance rows. Some midpoints get a twin one step of about
    1e-12 away along one axis, from a coordinate of 0 so that the step is
    exact."""
    kind = draw(st.sampled_from(["lattice", "collinear", "branches", "free", "large"]))
    if kind == "lattice":
        # Offsets such as (1, 7) and (5, 5) have equal lengths; scaled by a
        # step that is not a binary fraction their float lengths differ in
        # the last bits, which is where the distance kernel must not change.
        n = draw(st.integers(1, 14))
        step = draw(st.sampled_from([1.0, 0.1, 0.3]))
        pts = [[step * draw(st.integers(-7, 7)), step * draw(st.integers(0, 9)),
                draw(st.integers(-1, 1))] for _ in range(n)]
    elif kind == "collinear":
        n = draw(st.integers(2, 14))
        step = draw(st.sampled_from([0.5, 1.0, 3.0, 0.1]))
        dx = draw(st.sampled_from([0.0, 1.0, -1.0, 0.3]))
        pts = [[dx * k * step, k * step, 0.1 * k] for k in range(n)]
    elif kind == "branches":
        stem, arm = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        spread = draw(st.sampled_from([0.5, 1.0, 2.0]))
        pts = [[0.0, 3.0 * k, 0.0] for k in range(stem)]
        top = 3.0 * (stem - 1)
        for k in range(1, arm + 1):
            pts += [[-spread * k, top + 3.0 * k, 0.0], [spread * k, top + 3.0 * k, 0.0]]
    elif kind == "free":
        n = draw(st.integers(1, 14))
        pts = [[draw(coord_x), draw(coord_y), draw(coord_z)] for _ in range(n)]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        n = draw(st.integers(65, 200))
        if draw(st.booleans()):     # a dense lattice: exact and last-bit ties
            xyz = np.column_stack([0.3 * rng.integers(-3, 4, n), 0.3 * rng.integers(0, n // 4, n),
                                   rng.integers(-1, 2, n)])
        else:
            y = np.sort(rng.uniform(0.0, 80.0, n))
            xyz = np.column_stack([np.sin(y) + rng.normal(0.0, 0.2, n), y,
                                   rng.normal(0.0, 0.1, n)])
        pts = xyz.tolist()
    for _ in range(draw(st.integers(0, 2))):
        p = list(draw(st.sampled_from(pts)))
        k = draw(st.integers(0, 2))
        p[k] = 0.0
        twin = list(p)
        twin[k] = draw(st.sampled_from(NEAR_REPEATS))
        pts += [p, twin]
    perm = draw(st.permutations(range(len(pts))))
    return [pts[i] for i in perm]


# ---------------------------------------------------------------------------
# Equivalence


def pasted(curves, cfg):
    """The `rasterize_curve` footprints of one call, each pasted into a mask
    of the whole extent, after checking that each lies inside it."""
    (x_lo, x_hi), (y_lo, y_hi) = cfg.extent
    shape = (int(round((y_hi - y_lo) / cfg.raster_resolution)),
             int(round((x_hi - x_lo) / cfg.raster_resolution)))
    out = []
    for r, c, sub in rasterize_curve(curves, cfg):
        assert sub.dtype == bool and 0 <= r and 0 <= c
        assert r + sub.shape[0] <= shape[0] and c + sub.shape[1] <= shape[1]
        mask = np.zeros(shape, dtype=bool)
        mask[r:r + sub.shape[0], c:c + sub.shape[1]] = sub
        out.append(mask)
    return out


def same_as_reference(curves, cfg):
    return all(np.array_equal(got, ref_rasterize_curve(curve, cfg))
               for got, curve in zip(pasted(curves, cfg), curves, strict=True))


@EXACT
@given(curve=curves(), cfg=st.sampled_from([CFG, SMALL, BINARY]))
def test_rasterize_matches_segment_loop(curve, cfg):
    assert same_as_reference([curve], cfg)


def test_rasterize_full_diagonal_is_banded_and_exact():
    (x_lo, x_hi), (y_lo, y_hi) = CFG.extent
    curve = Curve(points=[[x_lo, y_lo, 0.0], [x_hi, y_hi, 1.0]])
    (mask,) = pasted([curve], CFG)
    assert mask.size > 40 * 4096 and mask.any()
    assert np.array_equal(mask, ref_rasterize_curve(curve, CFG))


def test_rasterize_xy_repeat_and_outside_extent():
    cases = [
        [[0.0, 10.0, 0.0], [0.0, 10.0, 1.0], [0.5, 20.0, 1.0]],      # den == 0 first
        [[-30.0, 10.0, 0.0], [30.0, 12.0, 0.0]],                     # crosses, ends outside
        [[-30.0, -30.0, 0.0], [-20.0, -25.0, 0.0]],                  # fully outside
        [[11.2, 40.0, 0.0], [11.2, 40.0, 2.0]],                      # point just outside
    ]
    curves = [Curve(points=pts) for pts in cases]
    assert same_as_reference(curves, CFG)
    assert rasterize_curve(curves[2:3], CFG)[0][2].shape == (0, 0)


def _d2(curve, cfg):
    """The reference predicate's d2 of every cell of the extent to the
    curve's first segment, computed as the reference computes it."""
    (x_lo, x_hi), (y_lo, y_hi) = cfg.extent
    res = cfg.raster_resolution
    gx, gy = np.meshgrid(x_lo + (np.arange(int(round((x_hi - x_lo) / res))) + 0.5) * res,
                         y_lo + (np.arange(int(round((y_hi - y_lo) / res))) + 0.5) * res)
    (px, py), (qx, qy) = curve.points[:2, :2]
    vx, vy = qx - px, qy - py
    t = np.clip(((gx - px) * vx + (gy - py) * vy) / (vx * vx + vy * vy), 0.0, 1.0)
    return (gx - (px + t * vx)) ** 2 + (gy - (py + t * vy)) ** 2


def test_rasterize_run_ends_and_exact_ties():
    # Vertices on BINARY's cell centres and 3-4-5 directions: the ribbon's
    # sides pass through cell centres (|4 dx - 3 dy| / 5 = 1/2 on the
    # quarter-metre lattice) and the caps' tips do (a centre half a metre
    # from a vertex along an axis). Those centres are tested, with d2 at
    # 0.25 or within a few ulps of it, and on a side the centre one cell
    # inside each of them is filled.
    c0 = -3.875
    curves = [Curve(points=[[c0 + 2.0, 1.125, 0.0], [c0 + 2.0 + 3.0, 1.125 + 4.0, 0.0]]),
              Curve(points=[[c0 + 4.0, 6.125, 0.0], [c0 + 0.0, 9.125, 0.0]]),
              Curve(points=[[c0 + 1.0, 0.125, 0.0], [c0 + 4.0, 4.125, 0.0],
                            [c0 + 7.0, 0.125, 0.0]])]
    assert same_as_reference(curves, BINARY)
    ends, unset = 0, 0
    for curve, mask in zip(curves[:2], pasted(curves[:2], BINARY)):
        d2 = _d2(curve, BINARY)
        tie = np.abs(d2 - 0.25) <= 1e-12
        assert np.array_equal(mask[tie], d2[tie] <= 0.25) and (d2[tie] == 0.25).any()
        unset += np.count_nonzero(~mask[tie])          # rounded a few ulps past 0.25
        rows, cols = np.nonzero(tie & mask)
        inside = np.where(d2[rows, cols - 1] < d2[rows, cols + 1], cols - 1, cols + 1)
        run = d2[rows, inside] < 0.25        # not the tip of a cap, a run of one cell
        assert mask[rows[run], inside[run]].all()
        ends += np.count_nonzero(run)
    assert ends >= 4 and unset >= 4


def test_rasterize_joint_where_the_segments_put_the_vertex_apart():
    # The first segment's predicate puts its end at p + (q - p), one ulp off
    # the vertex here; the cell centre C lies past that end and behind the
    # second segment's start, a quarter of an ulp of d2 inside the ribbon by
    # the first segment and outside it by the second.
    c = (1.2100000000000009, 35.15)
    curve = Curve(points=[[4.253294573747697, 38.093890386230534, 0.0],
                          [1.6521415435314808, 35.38347559933235, 0.0],
                          [2.1521415435314808, 38.38347559933235, 0.0]])
    (x_lo, _), (y_lo, _) = CFG.extent
    i, j = round((c[0] - x_lo) / 0.1 - 0.5), round((c[1] - y_lo) / 0.1 - 0.5)
    assert (x_lo + (i + 0.5) * 0.1, y_lo + (j + 0.5) * 0.1) == c
    (mask,) = pasted([curve], CFG)
    assert mask[j, i] and np.array_equal(mask, ref_rasterize_curve(curve, CFG))


def test_rasterize_rows_boxes_and_short_segments():
    one_row = EvalConfig(extent=((-4.0, 4.0), (0.0, 0.25)), lane_width=1.0,
                         raster_resolution=0.25)
    cases = [
        [[-2.0, 5.0, 0.0], [3.0, 5.0, 0.0]],               # along a row: |vy| = 0
        [[-2.0, 5.0, 0.0], [3.0, 5.0005, 0.0]],            # |vy| under a millimetre
        [[-2.0, 5.0, 0.0], [3.0, 5.002, 0.0]],             # |vy| just over
        [[1.0, 2.0, 0.0], [1.0005, 9.0, 0.0]],             # |vx| under a millimetre
        [[1.0, 2.0, 0.0], [1.002, 9.0, 0.0]],              # |vx| just over
        [[0.3, 4.0, 0.0], [0.3003, 4.0002, 1.0]],          # sub-millimetre segment
        [[0.3, 4.0, 0.0], [0.3, 4.0, 1.0], [0.3, 4.0, 2.0]],   # zero-length segments
        [[-1.0, 3.0, 0.0], [-1.0, 3.0, 0.5], [2.0, 7.0, 0.5], [2.0, 7.0, 0.0]],
        [[-9000.0, 5.0, 0.0], [9000.0, 5.002, 0.0]],       # long, near an axis, far out
        [[3.0, -9000.0, 0.0], [3.002, 9000.0, 0.0]],
        [[-20000.0, 5.0, 0.0], [20000.0, 9.0, 0.0]],       # past the reach of the run ends
    ]
    curves = [Curve(points=pts) for pts in cases]
    for cfg in (BINARY, SMALL, CFG):
        assert same_as_reference(curves, cfg)
    crossing = [Curve(points=[[-3.0, -1.0, 0.0], [2.0, 1.5, 0.0]]),
                Curve(points=[[-3.0, 0.6, 0.0], [3.0, 0.55, 0.0]])]
    assert same_as_reference(crossing + curves, one_row)
    assert [f[2].shape[0] for f in rasterize_curve(crossing, one_row)] == [1, 1]
    assert pasted(crossing, one_row)[0].any()


def test_rasterize_bands_do_not_change_the_footprints(monkeypatch):
    # rows and tested cells split into bands of a few entries, pieces and
    # runs of cells straddling every band edge
    curves = [Curve(points=[[-9.0, -0.4, 0.0], [9.5, 77.0, 0.0]]),
              Curve(points=[[-2.0, 5.0, 0.0], [3.0, 5.0, 0.0], [3.0, 5.0, 1.0], [2.5, 40.0, 0.0]]),
              Curve(points=[[-30.0, -30.0, 0.0], [-20.0, -25.0, 0.0]])]
    want = rasterize_curve(curves, CFG)
    monkeypatch.setattr(evaluation, "_ROW_BUDGET", 7)
    monkeypatch.setattr(evaluation, "_CELL_BUDGET", 5)
    got = rasterize_curve(curves, CFG)
    assert [f[:2] for f in got] == [f[:2] for f in want]
    assert all(np.array_equal(g[2], w[2]) for g, w in zip(got, want))
    assert same_as_reference(curves, CFG)


@EXACT
@given(a=curves(), b=curves(), cfg=st.sampled_from([CFG, SMALL, BINARY]))
def test_footprint_iou_matches_full_mask_iou(a, b, cfg):
    # disjoint boxes, empty footprints and curves outside the extent included
    fa, fb = rasterize_curve([a, b], cfg)
    want = ref_mask_iou(ref_rasterize_curve(a, cfg), ref_rasterize_curve(b, cfg))
    assert footprint_iou(fa, fb) == footprint_iou(fb, fa) == want


@EXACT
@given(scene=st.lists(curves(5), min_size=1, max_size=6), cfg=st.sampled_from([CFG, SMALL]),
       order=st.randoms(use_true_random=False))
def test_rasterize_scene_call_equals_per_curve_calls(scene, cfg, order):
    perm = list(range(len(scene)))
    order.shuffle(perm)
    alone = [rasterize_curve([c], cfg)[0] for c in scene]
    shuffled = rasterize_curve([scene[i] for i in perm], cfg)
    for got, i in zip(shuffled, perm):
        r, c, mask = alone[i]
        assert (got[0], got[1]) == (r, c) and np.array_equal(got[2], mask)


@EXACT
@given(pairs=st.lists(st.tuples(curves(6), curves(10)), max_size=3),
       cfg=st.sampled_from([CFG, SMALL]))
def test_lateral_error_matches_sample_loop(pairs, cfg):
    # the samples of every pair, reduced in pair order
    assert range_means(lateral_error(pairs, cfg), cfg) == ref_lateral_error(pairs, cfg)


@EXACT
@given(mids=midpoint_sets())
def test_assemble_matches_hop_loop(mids):
    segs = [_segment(m) for m in mids]
    got = assemble_curve(LaneInstance(segments=as_set(segs), confidence=0.5))
    want = ref_assemble_curve(LaneInstance(segments=segs, confidence=0.5))
    assert (got is None and want is None) or np.array_equal(got.points, want.points)


def test_assemble_near_repeats_on_both_sides_of_the_filter():
    # steps of 1e-12 and under are dropped, and the loop then compares the
    # next midpoint with the last one kept
    base = [[0.0, 3.0 * k, 0.0] for k in range(4)]
    for step in NEAR_REPEATS:
        mids = base + [[0.0, 3.0, step], [0.0, 3.0, 2 * step], [0.0, 6.0, -step]]
        segs = [_segment(m) for m in mids]
        got = assemble_curve(LaneInstance(as_set(segs), 0.5)).points
        assert np.array_equal(got, ref_assemble_curve(LaneInstance(segs, 0.5)).points)
        assert len(got) == (5 if step <= 1e-12 else 7)


def test_assemble_memory_is_bounded():
    # 1,000 midpoints: the (N, N) distances are 8 MB; the (N, N, 2)
    # difference tensor (16 MB) is never made
    rng = np.random.default_rng(0)
    mids = np.column_stack([rng.normal(0.0, 2.0, 1000), rng.uniform(0.0, 80.0, 1000),
                            np.zeros(1000)])
    instance = LaneInstance(as_set([_segment(m) for m in mids]), 0.5)
    tracemalloc.start()
    assemble_curve(instance)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 12e6


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 200])
def test_pair_dist_mirror_matches_per_row_distances(n):
    # assembly converges on the same chain from a slightly wrong matrix more
    # often than not, so the mirrored lower blocks are checked entry by entry
    rng = np.random.default_rng(n)
    xy = np.column_stack([rng.normal(0.0, 2.0, n), rng.uniform(0.0, 80.0, n)])
    xy[n // 2:n // 2 + 3] = xy[:min(3, n - n // 2)]   # repeated midpoints
    want = np.stack([np.sqrt(np.vecdot(xy - xy[k], xy - xy[k])) for k in range(n)])
    assert clustering._pair_dist(xy).tobytes() == want.tobytes()


def test_assemble_last_bit_near_tie():
    # From the first midpoint, offsets (-1, 7) and (-5, 5) times 0.3 have the
    # same length in exact arithmetic; in floats the two candidates differ in
    # the last bit, and norm(axis=1) would rank them the other way.
    # After 64 midpoints far ahead, the chain still starts there, and the
    # tie is read from the second block of distance rows.
    mids = [[0.3 * i, 0.3 * j, 0.0] for i, j in [(7, -2), (6, 5), (2, 3)]]
    for before in ([], [[0.0, 100.0 + 3.0 * k, 0.0] for k in range(64)]):
        segs = [_segment(m) for m in before + mids]
        assert np.array_equal(assemble_curve(LaneInstance(as_set(segs), 0.5)).points,
                              ref_assemble_curve(LaneInstance(segs, 0.5)).points)


# ---------------------------------------------------------------------------
# Mean shift: distances per dimension, support and merge per distinct mode


def ref_mean_shift(points: np.ndarray, params: ClusterParams) -> np.ndarray:
    """Flat-kernel mean shift seeded from every point.

    Each seed iterates to the mean of the points within `bandwidth` until the
    shift drops below `shift_tol` or `max_iters` is hit. Converged modes
    closer than the bandwidth to a better-supported mode are merged into it
    (support = points within the bandwidth of the mode; ties keep the lower
    seed index). Returns the surviving centers ordered by descending support.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("mean_shift needs a non-empty (N, d) array of points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("mean_shift points must be finite")
    bw2 = params.bandwidth ** 2
    modes = pts.copy()
    active = np.ones(len(pts), dtype=bool)
    for _ in range(params.max_iters):
        if not active.any():
            break
        d2 = np.sum((modes[active, None, :] - pts[None, :, :]) ** 2, axis=2)
        within = d2 <= bw2
        counts = within.sum(axis=1)
        counts[counts == 0] = 1  # window drifted empty: freeze in place
        new = (within @ pts) / counts[:, None]
        shift = np.linalg.norm(new - modes[active], axis=1)
        modes[active] = new
        still = shift >= params.shift_tol
        active[np.flatnonzero(active)[~still]] = False

    support = np.sum(
        np.sum((modes[:, None, :] - pts[None, :, :]) ** 2, axis=2) <= bw2, axis=1)
    order = sorted(range(len(pts)), key=lambda i: (-support[i], i))
    kept: list[int] = []
    for i in order:
        if all(np.linalg.norm(modes[i] - modes[k]) >= params.bandwidth for k in kept):
            kept.append(i)
    return modes[kept]


@st.composite
def embeddings(draw):
    """Points in a few clumps, more than one block of rows at times, on a
    lattice (exact ties at the bandwidth) or not, with repeats."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # whole blocks of rows, and one row past them
    n = draw(st.one_of(st.sampled_from((64, 65, 128)), st.integers(1, 150)))
    repeats, d = draw(st.integers(0, min(5, n - 1))), draw(st.sampled_from((2, 4)))
    pts = (rng.integers(0, 4, (n - repeats, 1)) * 3.0
           + rng.normal(0.0, draw(st.sampled_from((0.05, 0.6))), (n - repeats, d)))
    if draw(st.booleans()):
        pts = np.round(pts * 4) / 4
    return np.concatenate([pts, pts[:repeats]])


@EXACT
@given(pts=embeddings(), params=st.sampled_from((ClusterParams(), ClusterParams(bandwidth=0.75),
                                                 ClusterParams(max_iters=2))))
def test_mean_shift_matches_whole_tensor(pts, params):
    got, want = mean_shift(pts, params), ref_mean_shift(pts, params)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@EXACT
@given(pts=embeddings(), bandwidth=st.sampled_from((1.5, 0.75)))
def test_first_sweep_mask_matches_whole_tensor(pts, bandwidth):
    # mean shift converges to the same modes from a slightly wrong first
    # mask, so the mirrored half is checked here, entry by entry
    want = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2) <= bandwidth ** 2
    assert np.array_equal(clustering._within_self(pts, bandwidth ** 2), want)


@EXACT
@given(pts=embeddings(), data=st.data())
def test_mode_mask_matches_whole_tensor(pts, data):
    # one row per distinct mode, copied to its repeats; mean shift converges
    # to the same modes from a slightly wrong mask, so it is checked here
    # entry by entry, on modes that repeat and differ only in a zero's sign
    picks = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=80))
    modes = pts[picks] + data.draw(st.sampled_from((0.0, 0.3)))
    modes[::3] = np.where(modes[::3] == 0.0, -0.0, modes[::3])
    modes = np.concatenate([modes, np.zeros((2, pts.shape[1])), -np.zeros((1, pts.shape[1]))])
    bw2 = data.draw(st.sampled_from((1.5, 0.75))) ** 2
    want = np.sum((modes[:, None, :] - pts[None, :, :]) ** 2, axis=2) <= bw2
    rows, inv = clustering._within(modes, pts, bw2)
    assert np.array_equal(rows[inv], want)


def test_mode_mask_signed_zero_modes():
    # (-0 - p)^2 and (+0 - p)^2 are one value, so the two modes' rows agree
    # whether they are computed once or apart
    pts = np.array([[0.0, -0.0], [-0.0, 1.5], [1.5, 0.0], [-1.5000000000000002, 0.0]])
    modes = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]])
    want = np.sum((modes[:, None, :] - pts[None, :, :]) ** 2, axis=2) <= 2.25
    rows, inv = clustering._within(modes, pts, 2.25)
    assert np.array_equal(rows[inv], want)
    assert want[0].tolist() == [True, True, True, False]


def test_mean_shift_sweeps_after_the_first_compute_one_row_per_distinct_mode(monkeypatch):
    # Counts the work rather than timing it: on one noisy 64x104 scene, the
    # first sweep computes the N points' rows once, and each later sweep (and
    # the support) only the distinct modes', not one row per seed.
    calls = []
    sq_dist = clustering._sq_dist
    monkeypatch.setattr(clustering, "_sq_dist",
                        lambda c, p: calls.append((c.copy(), len(p))) or sq_dist(c, p))
    config = PipelineConfig.from_dict({
        "grid": {"n_cols": 64, "n_rows": 104, "tile_width": 0.32, "tile_length": 0.75},
        "noise": {"sigma_r": 0.1, "sigma_phi": 0.05, "sigma_z": 0.05, "drop_rate": 0.05,
                  "fp_rate": 0.05, "sigma_f": 0.2},
        "n_scenes": 1, "master_seed": 77})
    segments = process_scene(config, 0).segments
    n = len(segments)
    first_sweep = -(-n // clustering._ROWS)
    assert n > 500 and [m for _, m in calls[:first_sweep]] == list(range(n, 0, -clustering._ROWS))
    assert sum(len(c) for c, _ in calls[:first_sweep]) == n
    later = [c for c, _ in calls[first_sweep:]]
    assert len(later) >= 2     # at least one more sweep, then the support
    for rows in later:
        assert len({row.tobytes() for row in rows}) == len(rows)
    assert sum(map(len, later)) < n // 10


def test_mean_shift_memory_is_bounded():
    # 1,000 points in 4-d: the whole difference tensor and its square are
    # 64 MB (49 MB peak with the reference); what is left is dominated by
    # the (points, points) float copy of the mask that `within @ pts` makes
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 4, (1000, 1)) * 5.0 + rng.normal(0.0, 0.3, (1000, 4))
    tracemalloc.start()
    mean_shift(pts, ClusterParams(max_iters=1))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 12e6


def test_mean_shift_exact_cases():
    cases = [
        # signed zeros in the seeds and in the modes
        (np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [5.0, -0.0], [5.0, 0.0],
                   [-0.0, 9.0]]), ClusterParams()),
        (np.array([[-0.0, 0.0], [0.0, -0.0], [5.0, -0.0]]), ClusterParams(max_iters=1)),
        # the mean of -5e-324 and 0 rounds to -0.0, that of 5e-324 and 0 to +0.0
        (np.array([[-5e-324, 1.0], [0.0, 1.0], [5e-324, 5.0], [0.0, 5.0], [-0.0, 5.0]]),
         ClusterParams()),
        # exact duplicate seeds, interleaved
        (np.array([[0.3, 0.1], [4.0, 4.0], [0.3, 0.1], [4.0, 4.0], [0.3, 0.1], [9.0, 0.0],
                   [9.0, 0.0]]), ClusterParams()),
        # two distinct modes with equal support: the lower first seed goes first
        (np.array([[6.0, 0.0], [6.5, 0.0], [0.0, 0.0], [0.5, 0.0]]), ClusterParams()),
        (np.array([[0.0, 0.0], [1.4, 0.0], [2.8, 0.0]]), ClusterParams()),
        # converged modes 2.5 and 1.5, exactly one bandwidth apart: both kept
        (np.column_stack([[1.5, 3.5, 1.5, 0.5, 3.5, 2.5], np.zeros(6)]),
         ClusterParams(bandwidth=1.0)),
        # nine dimensions, which numpy sums pairwise: exactly 1.5 apart that
        # way, a last bit more when summed left to right
        (np.array([np.zeros(9), [0.527, 0.398, 0.088, 0.5, 0.573, 0.547, 0.627, 0.684, 0.26]]),
         ClusterParams()),
    ]
    for pts, params in cases:
        got, want = mean_shift(pts, params), ref_mean_shift(pts, params)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.signbit(mean_shift(*cases[2])[:, 0]).tolist() == [False, True]
    kept = mean_shift(*cases[6])
    assert sorted(kept[:, 0]) == [1.5, 2.5]


# ---------------------------------------------------------------------------
# Greedy baseline: connected components over the 3x3 tile neighbourhood


def ref_greedy_baseline(segments):
    """Geometry-only grouping by union-find over adjacent compatible tiles.

    Two segments join when their tiles are within one step in both grid
    indices, their directions differ (circularly) by at most ANGLE_TOL, and
    their closest endpoints are within GAP_TOL. Embeddings are ignored.
    """
    n = len(segments)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    angles = [math.atan2(s.direction[1], s.direction[0]) for s in segments]
    for i in range(n):
        for j in range(i + 1, n):
            si, sj = segments[i], segments[j]
            if abs(si.tile[0] - sj.tile[0]) > 1 or abs(si.tile[1] - sj.tile[1]) > 1:
                continue
            if abs(wrap_signed(angles[i] - angles[j])) > ANGLE_TOL:
                continue
            gap = min(
                float(np.linalg.norm(si.endpoints[a, :2] - sj.endpoints[b, :2]))
                for a in range(2) for b in range(2))
            if gap > GAP_TOL:
                continue
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    instances = []
    for root in sorted(groups):
        members = [segments[i] for i in groups[root]]
        instances.append(LaneInstance(
            segments=members,
            confidence=float(np.mean([s.score for s in members])),
        ))
    return instances


# Directions at multiples of pi/8 (differences land on ANGLE_TOL up to the
# last bit) and just either side of the -x axis, where
# the angles are near +pi and -pi and the difference must wrap.
_HEADINGS = [k * math.pi / 8 for k in range(-7, 9)] + [math.pi - 1e-9, -math.pi + 1e-9]
_DIRECTIONS = [(math.cos(a), math.sin(a)) for a in _HEADINGS] + [(1.0, 0.0), (0.0, 1.0),
                                                                  (-1.0, 0.0), (-1.0, -0.0)]


@st.composite
def segment_sets(draw):
    """Segments in a few rows and columns of tiles (negative indices too,
    several per tile at times), endpoints on a half-metre lattice that spans
    the tile borders, so gaps such as 4.5 and 2.5 (3-4-5) are exact."""
    r0, c0 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    segs = []
    for _ in range(draw(st.integers(0, 24))):
        tile = (r0 + draw(st.integers(0, 4)), c0 + draw(st.integers(0, 4)))
        d = np.array(draw(st.sampled_from(_DIRECTIONS)))
        a = np.array([draw(st.integers(-8, 24)) / 2, draw(st.integers(-8, 24)) / 2, 0.0])
        b = a + np.array([draw(st.integers(-4, 4)) / 2, draw(st.integers(-4, 4)) / 2, 0.5])
        segs.append(RefSegment(midpoint=(a + b) / 2, direction=d, endpoints=np.stack([a, b]),
                               score=draw(st.sampled_from([0.1, 0.5, 0.7, 1.0])), tile=tile,
                               embedding=np.array([draw(st.integers(-3, 3)) * 0.3, 0.0])))
    return segs


def _same_instances(got, want):
    """The same members in the same order (every field, to the bit), and the
    same confidence."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        members = as_set(w.segments)
        for f in array_fields(SegmentSet):
            a, b = getattr(g.segments, f.name), getattr(members, f.name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        assert g.confidence == w.confidence


@EXACT
@given(segs=segment_sets())
def test_greedy_matches_pair_loop(segs):
    _same_instances(greedy_baseline(as_set(segs)), ref_greedy_baseline(segs))


def test_greedy_exact_ties():
    def seg(a, b, direction, tile):
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        return RefSegment(midpoint=(a + b) / 2, direction=np.array(direction),
                          endpoints=np.stack([a, b]), score=0.5, tile=tile,
                          embedding=np.zeros(2))
    up, right = (0.0, 1.0), (1.0, 0.0)
    # headings exactly ANGLE_TOL and one ulp more away from `right`
    at_tol = (1.0, math.tan(ANGLE_TOL))
    past_tol = (1.0, float(np.nextafter(at_tol[1], 1.0)))
    assert math.atan2(at_tol[1], 1.0) == ANGLE_TOL < math.atan2(past_tol[1], 1.0)
    cases = [
        # closest endpoints exactly GAP_TOL apart, across a tile border
        [seg([0, 0, 0], [0, 1, 0], up, (0, 0)), seg([0, 5.5, 0], [0, 7, 0], up, (1, 0))],
        # directions exactly ANGLE_TOL apart
        [seg([0, 0, 0], [1, 0, 0], right, (0, 0)), seg([1, 0, 0], [2, 0, 0], at_tol, (0, 1))],
        # headings near +pi and -pi: the difference wraps to about 2e-9
        [seg([1, 0, 0], [0, 0, 0], (-1.0, 1e-9), (2, 2)),
         seg([-1, 0, 0], [-2, 0, 0], (-1.0, -1e-9), (3, 1))],
        # two tiles apart: joined only through a segment adjacent to both
        [seg([0, 0, 0], [0, 1, 0], up, (0, 0)), seg([0, 1, 0], [0, 2, 0], up, (2, 0)),
         seg([0, 1, 0], [0, 2, 0], up, (1, 1))],
        # directions one ulp more than ANGLE_TOL apart: not joined
        [seg([0, 0, 0], [1, 0, 0], right, (0, 0)), seg([1, 0, 0], [2, 0, 0], past_tol, (0, 1))],
    ]
    for segs in cases:
        _same_instances(greedy_baseline(as_set(segs)), ref_greedy_baseline(segs))
    assert [len(greedy_baseline(as_set(segs))) for segs in cases] == [1, 1, 1, 1, 2]
