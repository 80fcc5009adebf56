"""The array kernels of evaluation and clustering against the loops they replaced.

`rasterize_curve`, `lateral_error` and `assemble_curve` were per-segment,
per-sample and per-hop Python loops. The reference copies below are those
loops verbatim; every case asserts exact equality with the array versions
(masks by `np.array_equal`, floats by `==`, point order included), so the
reports written from them stay byte-identical.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bevlanes.clustering import Curve, LaneInstance, assemble_curve
from bevlanes.codec import LaneSegment
from bevlanes.evaluation import EvalConfig, lateral_error, rasterize_curve
from bevlanes.geometry import resample_polyline

# Same examples on every run, no example database on disk.
EXACT = settings(derandomize=True, database=None, max_examples=120, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

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
    if len(keep) < 2:
        return Curve(points=instance.segments[0].endpoints.copy())
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


def _segment(mid):
    mid = np.asarray(mid, dtype=float)
    step = np.array([0.0, 1.5, 0.0])
    return LaneSegment(midpoint=mid, direction=np.array([0.0, 1.0]),
                       endpoints=np.stack([mid - step, mid + step]), score=0.9,
                       tile=(0, 0), embedding=np.zeros(2))


@st.composite
def midpoint_sets(draw):
    """Midpoints with exact and last-bit distance ties: lattices, equally
    spaced collinear runs, mirror-symmetric branches off a stem, repeats."""
    kind = draw(st.sampled_from(["lattice", "collinear", "branches", "free"]))
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
    else:
        n = draw(st.integers(1, 14))
        pts = [[draw(coord_x), draw(coord_y), draw(coord_z)] for _ in range(n)]
    perm = draw(st.permutations(range(len(pts))))
    return [pts[i] for i in perm]


# ---------------------------------------------------------------------------
# Equivalence


@EXACT
@given(curve=curves(), cfg=st.sampled_from([CFG, SMALL, BINARY]))
def test_rasterize_matches_segment_loop(curve, cfg):
    assert np.array_equal(rasterize_curve(curve, cfg), ref_rasterize_curve(curve, cfg))


def test_rasterize_full_diagonal_is_banded_and_exact():
    (x_lo, x_hi), (y_lo, y_hi) = CFG.extent
    curve = Curve(points=[[x_lo, y_lo, 0.0], [x_hi, y_hi, 1.0]])
    mask = rasterize_curve(curve, CFG)
    assert mask.size > 40 * 4096 and mask.any()
    assert np.array_equal(mask, ref_rasterize_curve(curve, CFG))


def test_rasterize_xy_repeat_and_outside_extent():
    cases = [
        [[0.0, 10.0, 0.0], [0.0, 10.0, 1.0], [0.5, 20.0, 1.0]],      # den == 0 first
        [[-30.0, 10.0, 0.0], [30.0, 12.0, 0.0]],                     # crosses, ends outside
        [[-30.0, -30.0, 0.0], [-20.0, -25.0, 0.0]],                  # fully outside
        [[11.2, 40.0, 0.0], [11.2, 40.0, 2.0]],                      # point just outside
    ]
    for pts in cases:
        curve = Curve(points=pts)
        assert np.array_equal(rasterize_curve(curve, CFG), ref_rasterize_curve(curve, CFG))


@EXACT
@given(pairs=st.lists(st.tuples(curves(6), curves(10)), max_size=3),
       cfg=st.sampled_from([CFG, SMALL]))
def test_lateral_error_matches_sample_loop(pairs, cfg):
    assert lateral_error(pairs, cfg) == ref_lateral_error(pairs, cfg)


@EXACT
@given(mids=midpoint_sets())
def test_assemble_matches_hop_loop(mids):
    inst = LaneInstance(segments=[_segment(m) for m in mids], center=np.zeros(2),
                        confidence=0.5)
    got, want = assemble_curve(inst), ref_assemble_curve(inst)
    assert np.array_equal(got.points, want.points)


def test_assemble_last_bit_near_tie():
    # From the first midpoint, offsets (-1, 7) and (-5, 5) times 0.3 have the
    # same length in exact arithmetic; in floats the two candidates differ in
    # the last bit, and norm(axis=1) would rank them the other way.
    mids = [[0.3 * i, 0.3 * j, 0.0] for i, j in [(7, -2), (6, 5), (2, 3)]]
    inst = LaneInstance(segments=[_segment(m) for m in mids], center=np.zeros(2),
                        confidence=0.5)
    assert np.array_equal(assemble_curve(inst).points, ref_assemble_curve(inst).points)
