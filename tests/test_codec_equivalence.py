"""The array kernels of encode, oracle predict and decode against the loops
they replaced.

`encode_scene` clipped each lane segment by segment against every grid line
and fit each tile in a Python loop; `oracle_predict` and `decode_grid` looped
over tiles. The reference copies below are those functions verbatim, with a
`ref_` prefix (plus the former scalar `angle_to_soft_labels`,
`soft_labels_to_angle` and `saturated_prediction` they call, and the
per-segment record `RefSegment` the decode loop built); the only edit is that
`ref_oracle_predict` takes its seed as an argument, as `oracle_predict` now
does, where it read `noise.seed`, and that the minimum chain length, score
threshold and logit saturation are codec's constants, where they were
parameters. Every case asserts
identical arrays, bit for bit (signed zeros included), and identical segment
fields row by row, so the target, prediction and segment files written from
them stay byte-identical.
"""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlanes.codec import (
    MIN_SEG_LEN,
    SATURATION,
    SCORE_THRESHOLD,
    TWO_PI,
    _P_EPS,
    AngleBinSpec,
    SegmentSet,
    TilePredictionGrid,
    TileTargetGrid,
    angle_to_soft_labels,
    array_fields,
    decode_grid,
    encode_scene,
    logit,
    saturated_prediction,
    soft_labels_to_angle,
    wrap_signed,
)
from bevlanes.geometry import GridSpec, Lane3D, repeated_vertices
from bevlanes.losses import EmbeddingParams
from bevlanes.synth import NoiseConfig, SceneConfig, generate_scene, oracle_predict, simplex_anchors

# The "exact" profile (tests/conftest.py) fixes the examples.
EXACT = settings(max_examples=120)

BINS = AngleBinSpec()
DEFAULT = GridSpec()
DENSE = GridSpec(n_cols=64, n_rows=104, tile_width=0.32, tile_length=0.75)
# Grid lines at exact binary fractions, so lattice vertices sit exactly on them.
BINARY = GridSpec(n_cols=6, n_rows=5, tile_width=1.0, tile_length=2.0, y_min=-4.0)
GRIDS = (DEFAULT, DENSE, BINARY)
NOISES = (
    NoiseConfig(),
    NoiseConfig(sigma_r=0.1, sigma_phi=0.05, sigma_z=0.05, drop_rate=0.05, fp_rate=0.05,
                sigma_f=0.2),                                      # loop_dense
    NoiseConfig(sigma_r=0.1, fp_rate=0.02, sigma_f=0.05),          # artifacts_jobs2
    NoiseConfig(sigma_r=0.5, sigma_phi=1.0, sigma_z=0.3, drop_rate=0.5, fp_rate=0.5,
                sigma_f=1.0),
)


# ---------------------------------------------------------------------------
# Reference copies


# The single-tile helpers the loop code below was written against.
def tile_center(row: int, col: int, grid: GridSpec) -> np.ndarray:
    """Plane-frame (x, y) center of tile (row, col)."""
    x = grid.x_min + (col + 0.5) * grid.tile_width
    y = grid.y_min + (row + 0.5) * grid.tile_length
    return np.array([x, y])


def tile_bounds(row: int, col: int, grid: GridSpec) -> tuple[float, float, float, float]:
    """(x_lo, x_hi, y_lo, y_hi) of tile (row, col)."""
    x_lo = grid.x_min + col * grid.tile_width
    y_lo = grid.y_min + row * grid.tile_length
    return (x_lo, x_lo + grid.tile_width, y_lo, y_lo + grid.tile_length)


def ref_angle_to_soft_labels(phi: float, bins: AngleBinSpec):
    """Soft bin probabilities, masked residuals and bin mask for an angle.

    p_i = max(0, 1 - wrap(|alpha_i - phi|) / spacing) with circular wrapping,
    so angles near 0/2pi still supervise the wrap-around bins. Residuals are
    the wrapped signed differences (phi - alpha_i), kept only on active bins.
    """
    phi = float(phi) % TWO_PI
    d = wrap_signed(phi - bins.centers)
    p = np.maximum(0.0, 1.0 - np.abs(d) / bins.spacing)
    p[p < _P_EPS] = 0.0
    mask = (p > 0.0).astype(float)
    residuals = d * mask
    return p, residuals, mask

def ref_soft_labels_to_angle(p_bins: np.ndarray, d_bins: np.ndarray, bins: AngleBinSpec) -> float:
    """Decode an angle as argmax bin center plus that bin's residual.

    Ties go to the lower bin index. Raises ValueError when no bin is active.
    """
    p = np.asarray(p_bins, dtype=float)
    if p.shape != (bins.n_bins,):
        raise ValueError(f"expected {bins.n_bins} bin probabilities, got shape {p.shape}")
    if not np.any(p > 0.0):
        raise ValueError("no active angle bin to decode from")
    i = int(np.argmax(p))
    return float((bins.centers[i] + float(d_bins[i])) % TWO_PI)

def ref_saturated_prediction(targets: TileTargetGrid, embedding_dim: int = 4) -> TilePredictionGrid:
    """Prediction grid that copies the targets exactly (saturated logits)."""
    pred = TilePredictionGrid.zeros(targets.grid, targets.bins, embedding_dim)
    pred.score_logit = np.where(targets.occupancy > 0.5, SATURATION, -SATURATION)
    pred.lateral_offset = targets.lateral_offset.copy()
    pred.height_offset = targets.height_offset.copy()
    pred.bin_logits = logit(targets.bin_probs)
    pred.bin_residuals = targets.bin_residuals.copy()
    return pred

def ref_encode_scene(lanes: list[Lane3D], grid: GridSpec, bins: AngleBinSpec) -> TileTargetGrid:
    """Build the per-tile target grid for a set of ground-truth lanes.

    Each lane polyline is clipped exactly (segment by segment) to every tile
    it crosses. A tile is occupied when some lane leaves at least MIN_SEG_LEN
    of clipped length in it; if several qualify, the lane whose clipped-chain
    midpoint lies nearest the tile center wins (ties to the lower lane id)
    and the rest are dropped from that tile. The winning chain is fit with a
    total-least-squares line oriented along traversal order; the offset is
    the signed distance from the tile center along the left normal, and the
    height offset is interpolated at the foot of that perpendicular.
    """
    targets = TileTargetGrid.zeros(grid, bins)
    if not lanes:
        return targets
    order = sorted(range(len(lanes)), key=lambda k: lanes[k].lane_id)

    # (i, j) -> lane order index -> list of clipped pieces in traversal order
    clipped: dict[tuple[int, int], dict[int, list]] = {}
    for rank in order:
        lane = lanes[rank]
        for piece in _ref_clip_lane_to_tiles(lane.points, grid):
            tile_key, pa, pb, za, zb = piece
            clipped.setdefault(tile_key, {}).setdefault(rank, []).append((pa, pb, za, zb))

    for (i, j), by_lane in clipped.items():
        best = None  # (distance to center, lane rank, pieces)
        center = tile_center(i, j, grid)
        for rank in sorted(by_lane):
            pieces = by_lane[rank]
            length = sum(math.hypot(pb[0] - pa[0], pb[1] - pa[1]) for pa, pb, _, _ in pieces)
            if length < MIN_SEG_LEN:
                continue
            mid = _ref_chain_midpoint(pieces, length)
            dist = math.hypot(mid[0] - center[0], mid[1] - center[1])
            if best is None or dist < best[0] - 1e-12:
                best = (dist, rank, pieces)
        if best is None:
            continue
        _, rank, pieces = best
        phi, offset, dz = _ref_fit_tile_line(pieces, center)
        targets.occupancy[i, j] = 1.0
        targets.lateral_offset[i, j] = offset
        targets.angle[i, j] = phi
        targets.height_offset[i, j] = dz
        targets.lane_id[i, j] = lanes[rank].lane_id
        p, res, mask = ref_angle_to_soft_labels(phi, bins)
        targets.bin_probs[i, j] = p
        targets.bin_residuals[i, j] = res
        targets.bin_mask[i, j] = mask
    return targets


def _ref_clip_lane_to_tiles(points: np.ndarray, grid: GridSpec):
    """Yield (tile, pa, pb, za, zb) pieces of a polyline, split at tile borders.

    Splitting is exact: crossing parameters with the grid lines are solved per
    segment, so piece endpoints include the original vertices and the exact
    border intersections, in traversal order.
    """
    eps = 1e-12
    xy = points[:, :2]
    z = points[:, 2]
    for k in range(len(points) - 1):
        p0, p1 = xy[k], xy[k + 1]
        dx, dy = p1[0] - p0[0], p1[1] - p0[1]
        t_in, t_out = _ref_liang_barsky(p0, (dx, dy), grid.x_min, grid.x_max, grid.y_min,
                                    grid.y_max, 0.0, 1.0)
        if t_in is None or t_out - t_in < eps:
            continue
        ts = [t_in, t_out]
        if abs(dx) > eps:
            ts.extend(_ref_line_crossings(p0[0], dx, grid.x_min, grid.tile_width,
                                      grid.n_cols, t_in, t_out))
        if abs(dy) > eps:
            ts.extend(_ref_line_crossings(p0[1], dy, grid.y_min, grid.tile_length,
                                      grid.n_rows, t_in, t_out))
        ts.sort()
        for a, b in zip(ts[:-1], ts[1:]):
            if b - a < eps:
                continue
            tm = 0.5 * (a + b)
            col = min(grid.n_cols - 1, max(0, int((p0[0] + tm * dx - grid.x_min) // grid.tile_width)))
            row = min(grid.n_rows - 1, max(0, int((p0[1] + tm * dy - grid.y_min) // grid.tile_length)))
            pa = (p0[0] + a * dx, p0[1] + a * dy)
            pb = (p0[0] + b * dx, p0[1] + b * dy)
            za = z[k] + a * (z[k + 1] - z[k])
            zb = z[k] + b * (z[k + 1] - z[k])
            yield (row, col), pa, pb, za, zb


def _ref_line_crossings(p: float, d: float, lo: float, step: float, count: int,
                    t_in: float, t_out: float):
    """Parameters where p + t*d crosses interior grid lines, strictly inside (t_in, t_out)."""
    eps = 1e-12
    out = []
    for m in range(1, count):
        t = (lo + m * step - p) / d
        if t_in + eps < t < t_out - eps:
            out.append(t)
    return out


def _ref_liang_barsky(p, d, x_lo, x_hi, y_lo, y_hi, t_min, t_max):
    """Clip the parametric segment p + t*d, t in [t_min, t_max], to a rectangle."""
    t0, t1 = t_min, t_max
    for coord, delta, lo, hi in ((p[0], d[0], x_lo, x_hi), (p[1], d[1], y_lo, y_hi)):
        if abs(delta) < 1e-15:
            if coord < lo or coord > hi:
                return None, None
            continue
        ta, tb = (lo - coord) / delta, (hi - coord) / delta
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return None, None
    return t0, t1


def _ref_chain_midpoint(pieces, total_length: float):
    half = 0.5 * total_length
    acc = 0.0
    for pa, pb, _, _ in pieces:
        seg = math.hypot(pb[0] - pa[0], pb[1] - pa[1])
        if acc + seg >= half and seg > 0:
            t = (half - acc) / seg
            return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))
        acc += seg
    pa, pb, _, _ = pieces[-1]
    return pb


def _ref_fit_tile_line(pieces, center):
    """Total-least-squares line through the clipped chain; returns (phi, offset, dz)."""
    pts = [pieces[0][0]]
    for pa, pb, _, _ in pieces:
        if math.hypot(pa[0] - pts[-1][0], pa[1] - pts[-1][1]) > 1e-12:
            pts.append(pa)
        pts.append(pb)
    P = np.asarray(pts)
    centroid = P.mean(axis=0)
    _, _, vt = np.linalg.svd(P - centroid, full_matrices=False)
    d = vt[0]
    chain = (P[-1][0] - P[0][0], P[-1][1] - P[0][1])
    if d[0] * chain[0] + d[1] * chain[1] < 0:
        d = -d
    phi = math.atan2(d[1], d[0]) % TWO_PI
    normal = (-math.sin(phi), math.cos(phi))
    offset = normal[0] * (centroid[0] - center[0]) + normal[1] * (centroid[1] - center[1])

    # Height at the foot of the perpendicular from the tile center.
    foot = (center[0] + offset * normal[0], center[1] + offset * normal[1])
    dz, best_d2 = 0.0, math.inf
    for pa, pb, za, zb in pieces:
        vx, vy = pb[0] - pa[0], pb[1] - pa[1]
        den = vx * vx + vy * vy
        t = 0.0 if den <= 0 else min(1.0, max(0.0, ((foot[0] - pa[0]) * vx + (foot[1] - pa[1]) * vy) / den))
        qx, qy = pa[0] + t * vx, pa[1] + t * vy
        d2 = (foot[0] - qx) ** 2 + (foot[1] - qy) ** 2
        if d2 < best_d2:
            best_d2 = d2
            dz = za + t * (zb - za)
    return phi, offset, dz

@dataclass
class RefSegment:
    """A decoded per-tile 3D line segment."""

    midpoint: np.ndarray    # (3,) foot of the perpendicular from the tile center
    direction: np.ndarray   # (2,) unit vector (cos phi, sin phi)
    endpoints: np.ndarray   # (2, 3) on the tile border, ordered along direction
    score: float
    tile: tuple[int, int]
    embedding: np.ndarray   # (d,)
    degenerate: bool = False

def ref_decode_grid(preds: TilePredictionGrid) -> list[RefSegment]:
    """Turn per-tile predictions into 3D lane segments.

    Tiles scoring below the threshold are skipped. Each kept tile contributes
    one segment: midpoint at tile_center + offset * left_normal (z = height
    offset), endpoints where the infinite line meets the tile border. A line
    whose offset pushes it clear of the tile is clamped to the nearest border
    point and flagged degenerate.
    """
    grid, bins = preds.grid, preds.bins
    scores = preds.score()
    probs = preds.bin_probs()
    segments: list[RefSegment] = []
    for i in range(grid.n_rows):
        for j in range(grid.n_cols):
            if scores[i, j] < SCORE_THRESHOLD:
                continue
            phi = ref_soft_labels_to_angle(probs[i, j], preds.bin_residuals[i, j], bins)
            direction = np.array([math.cos(phi), math.sin(phi)])
            normal = np.array([-direction[1], direction[0]])
            center = tile_center(i, j, grid)
            mid_xy = center + preds.lateral_offset[i, j] * normal
            dz = float(preds.height_offset[i, j])
            rect = tile_bounds(i, j, grid)
            degenerate = False
            t0, t1 = _ref_liang_barsky(mid_xy, direction, *rect, -math.inf, math.inf)
            if t0 is None:
                mid_xy = np.array([
                    min(max(mid_xy[0], rect[0]), rect[1]),
                    min(max(mid_xy[1], rect[2]), rect[3]),
                ])
                degenerate = True
                t0, t1 = _ref_liang_barsky(mid_xy, direction, *rect, -math.inf, math.inf)
                if t0 is None:  # tangent at a corner
                    t0 = t1 = 0.0
            e0 = np.array([mid_xy[0] + t0 * direction[0], mid_xy[1] + t0 * direction[1], dz])
            e1 = np.array([mid_xy[0] + t1 * direction[0], mid_xy[1] + t1 * direction[1], dz])
            segments.append(RefSegment(
                midpoint=np.array([mid_xy[0], mid_xy[1], dz]),
                direction=direction,
                endpoints=np.stack([e0, e1]),
                score=float(scores[i, j]),
                tile=(i, j),
                embedding=preds.embedding[i, j].copy(),
                degenerate=degenerate,
            ))
    return segments

def ref_oracle_predict(targets: TileTargetGrid, noise: NoiseConfig,
                   params: EmbeddingParams, seed: int) -> TilePredictionGrid:
    """Produce a prediction grid from targets plus configured corruption.

    Occupied tiles get saturated scores (dropped to the floor with
    drop_rate), Gaussian-perturbed offsets/angle/height, and their lane's
    anchor embedding plus Gaussian noise. The perturbed angle is re-encoded
    through the soft-label transform. Empty tiles activate with fp_rate,
    carrying uniform-random parameters and a random anchor. Raises if the
    embedding dimension cannot hold one anchor per lane.
    """
    grid, bins = targets.grid, targets.bins
    h, w = grid.n_rows, grid.n_cols
    lane_ids = np.unique(targets.lane_id[targets.lane_id >= 0])
    anchors = simplex_anchors(len(lane_ids), params.dim, params.push_margin)
    anchor_of = {int(c): anchors[k] for k, c in enumerate(lane_ids)}
    fp_anchors = anchors if len(anchors) else np.zeros((1, params.dim))

    rng = np.random.default_rng(np.random.SeedSequence([seed & (2 ** 64 - 1), 0x0AC1E]))
    # Fixed draw order (whole-grid arrays) keeps the stream independent of
    # the occupancy pattern.
    noise_r = rng.normal(0.0, 1.0, (h, w)) * noise.sigma_r
    noise_phi = rng.normal(0.0, 1.0, (h, w)) * noise.sigma_phi
    noise_z = rng.normal(0.0, 1.0, (h, w)) * noise.sigma_z
    noise_f = rng.normal(0.0, 1.0, (h, w, params.dim)) * noise.sigma_f
    drop = rng.random((h, w)) < noise.drop_rate
    fp = rng.random((h, w)) < noise.fp_rate
    fp_r = rng.uniform(-grid.tile_width / 2, grid.tile_width / 2, (h, w))
    fp_phi = rng.uniform(0.0, 2.0 * math.pi, (h, w))
    fp_z = rng.uniform(-0.5, 0.5, (h, w))
    fp_score = rng.uniform(0.5, 1.0, (h, w))
    fp_pick = rng.integers(0, len(fp_anchors), (h, w))

    pred = ref_saturated_prediction(targets, params.dim)
    occ = targets.occupancy > 0.5
    for i in range(h):
        for j in range(w):
            if occ[i, j]:
                if drop[i, j]:
                    pred.score_logit[i, j] = -SATURATION
                pred.lateral_offset[i, j] += noise_r[i, j]
                pred.height_offset[i, j] += noise_z[i, j]
                phi = (targets.angle[i, j] + noise_phi[i, j]) % (2.0 * math.pi)
                _ref_set_tile_angle(pred, i, j, phi, bins)
                pred.embedding[i, j] = anchor_of[int(targets.lane_id[i, j])] + noise_f[i, j]
            elif fp[i, j]:
                pred.score_logit[i, j] = logit(fp_score[i, j])
                pred.lateral_offset[i, j] = fp_r[i, j]
                pred.height_offset[i, j] = fp_z[i, j]
                _ref_set_tile_angle(pred, i, j, fp_phi[i, j], bins)
                pred.embedding[i, j] = fp_anchors[fp_pick[i, j]] + noise_f[i, j]
    return pred


def _ref_set_tile_angle(pred: TilePredictionGrid, i: int, j: int, phi: float, bins: AngleBinSpec):
    p, res, _ = ref_angle_to_soft_labels(phi, bins)
    pred.bin_logits[i, j] = logit(p)
    pred.bin_residuals[i, j] = res


# ---------------------------------------------------------------------------
# Comparison


def assert_same_grid(got, want):
    assert type(got) is type(want)
    assert (got.grid, got.bins) == (want.grid, want.bins)
    for f in array_fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), f.name


def assert_same_segments(got, want):
    """Row k of the SegmentSet equals the k-th reference segment, to the bit."""
    assert type(got) is SegmentSet and len(got) == len(want)
    for k, w in enumerate(want):
        for name in ("midpoint", "direction", "endpoints", "embedding"):
            a, b = getattr(got, name)[k], getattr(w, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
        # repr: equal values of equal types
        row = (got.score[k].item(), tuple(got.tile[k].tolist()), got.degenerate[k].item())
        assert repr(row) == repr((w.score, w.tile, w.degenerate))


# ---------------------------------------------------------------------------
# Inputs


@st.composite
def polylines(draw, grid):
    """(N, 3) lane points: free vertices reaching past the grid (the lane
    leaves it and comes back), a quarter-tile lattice (vertices on grid lines,
    runs along a line) or a 1 m walk like a generated lane; some vertices
    repeat their xy with another height, and none repeats the one before it
    whole, which `Lane3D` rejects."""
    n = draw(st.integers(2, 9))
    mode = draw(st.sampled_from(("free", "lattice", "walk")))
    if mode == "free":
        xs = st.floats(grid.x_min - 3.0, grid.x_max + 3.0)
        ys = st.floats(grid.y_min - 3.0, grid.y_max + 3.0)
        x = draw(st.lists(xs, min_size=n, max_size=n))
        y = draw(st.lists(ys, min_size=n, max_size=n))
    elif mode == "lattice":
        i = draw(st.integers(-2, 4 * grid.n_cols + 2)) + np.cumsum(
            draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        j = draw(st.integers(-2, 4 * grid.n_rows + 2)) + np.cumsum(
            draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        # jitter of about 1e-13 leaves a segment nearly, not exactly, on a line
        jitter = draw(st.lists(st.sampled_from((0.0, 0.0, 1e-13, -1e-14)), min_size=n,
                               max_size=n))
        x = [grid.x_min + int(k) * (grid.tile_width / 4) + e for k, e in zip(i, jitter)]
        y = [grid.y_min + int(k) * (grid.tile_length / 4) for k in j]
    else:
        x0 = draw(st.floats(grid.x_min, grid.x_max))
        y0 = draw(st.floats(grid.y_min, grid.y_max))
        heading = np.cumsum(draw(st.lists(st.floats(-0.3, 0.3), min_size=n - 1, max_size=n - 1)))
        heading += draw(st.floats(0.0, TWO_PI))
        x = np.r_[x0, x0 + np.cumsum(np.cos(heading))].tolist()
        y = np.r_[y0, y0 + np.cumsum(np.sin(heading))].tolist()
    z = (draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
         if draw(st.booleans()) else [0.0] * n)
    pts = np.column_stack([x, y, z])
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        pts = np.insert(pts, k + 1, pts[k] + [0.0, 0.0, 0.25], axis=0)
    pts = pts[np.r_[True, ~repeated_vertices(pts)]]     # Lane3D rejects a repeat
    if len(pts) == 1:
        pts = np.vstack([pts, pts])
    if not np.any(np.diff(pts[:, :2], axis=0)):
        pts[-1, 0] += 1.0
    return pts


@st.composite
def scenes(draw, grids=GRIDS):
    grid = draw(st.sampled_from(grids))
    polys = draw(st.lists(polylines(grid), min_size=1, max_size=4))
    # A copy of a lane, forward or reversed, ties with it in every tile.
    for k, reverse in draw(st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=2)):
        p = polys[k % len(polys)]
        polys.append(p[::-1].copy() if reverse else p.copy())
    ids = draw(st.permutations(range(len(polys))))
    return grid, [Lane3D(points=p, lane_id=i) for p, i in zip(polys, ids)]


@st.composite
def target_grids(draw):
    """Target grids as a file may hold them: any angle (0, 2pi and just below
    0 included), probabilities 0 and 1, lane ids on empty tiles."""
    grid = draw(st.sampled_from(GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h, w, n = grid.n_rows, grid.n_cols, BINS.n_bins
    occ = rng.random((h, w)) < draw(st.sampled_from((0.0, 0.1, 0.5)))
    ids = rng.integers(0, draw(st.integers(1, 5)), (h, w))
    stray = rng.random((h, w)) < draw(st.sampled_from((0.0, 0.1)))
    angle = np.where(rng.random((h, w)) < 0.3,
                     rng.choice([0.0, -1e-17, np.nextafter(TWO_PI, 0.0), TWO_PI, math.pi], (h, w)),
                     rng.uniform(0.0, TWO_PI, (h, w)))
    probs = np.where(rng.random((h, w, n)) < 0.3, rng.choice([0.0, 1.0, 1e-300, 0.5], (h, w, n)),
                     rng.random((h, w, n)))
    return TileTargetGrid(
        grid=grid, bins=BINS, occupancy=occ.astype(float),
        lateral_offset=np.where(occ, rng.normal(0.0, 0.5, (h, w)), 0.0), angle=angle,
        height_offset=rng.normal(0.0, 0.3, (h, w)), lane_id=np.where(occ | stray, ids, -1),
        bin_probs=probs, bin_residuals=rng.uniform(-0.5, 0.5, (h, w, n)),
        bin_mask=(probs > 0).astype(float))


@st.composite
def prediction_grids(draw):
    """Prediction grids with bin-center angles (axis-parallel and diagonal
    lines), tied bin logits, and offsets on an eighth-tile lattice or beyond
    the tile (degenerate lines, some then touching only a corner)."""
    grid = draw(st.sampled_from(GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h, w, n = grid.n_rows, grid.n_cols, BINS.n_bins
    lit = rng.random((h, w)) < (0.05 if grid is DENSE else draw(st.sampled_from((0.2, 1.0))))
    score = np.where(lit, rng.choice([50.0, 0.0, float(logit(0.3)), 2.0], (h, w)),
                     rng.choice([-50.0, -0.9], (h, w)))
    # residuals of 1e-13 put a direction component between the parallel
    # threshold (1e-15) and 1e-12
    phi = BINS.centers[rng.integers(0, n, (h, w))] + np.where(
        rng.random((h, w)) < 0.5, rng.choice([0.0, 1e-13, -1e-13, 1e-16], (h, w)),
        rng.uniform(-BINS.spacing / 2, BINS.spacing / 2, (h, w)))
    p, res, _ = angle_to_soft_labels(phi, BINS)
    tied = rng.random((h, w, 1)) < 0.3
    size = max(grid.tile_width, grid.tile_length)
    lateral = np.where(rng.random((h, w)) < 0.5,
                       rng.integers(-16, 17, (h, w)) * (grid.tile_width / 8),
                       rng.uniform(-2.0 * size, 2.0 * size, (h, w)))
    return TilePredictionGrid(
        grid=grid, bins=BINS, score_logit=score, lateral_offset=lateral,
        height_offset=rng.normal(0.0, 0.3, (h, w)),
        bin_logits=np.where(tied, rng.choice([-3.0, 0.0, 2.0], (h, w, n)), logit(p)),
        bin_residuals=np.where(tied, rng.uniform(-1.0, 1.0, (h, w, n)), res),
        embedding=rng.normal(0.0, 1.0, (h, w, 3)))


def ref_soft_label_grid(phi):
    """The scalar soft labels of every angle of an (H, W) array."""
    out = [ref_angle_to_soft_labels(v, BINS)[:2] for v in phi.ravel().tolist()]
    shape = phi.shape + (BINS.n_bins,)
    return (np.array([p for p, _ in out]).reshape(shape),
            np.array([r for _, r in out]).reshape(shape))


def chain_lengths(lanes, grid):
    """The clipped length of every (tile, lane) chain, summed as encode sums it."""
    pieces = {}
    for rank, lane in enumerate(lanes):
        for tile, pa, pb, _, _ in _ref_clip_lane_to_tiles(lane.points, grid):
            pieces.setdefault((tile, rank), []).append((pa, pb))
    return sorted({sum(math.hypot(pb[0] - pa[0], pb[1] - pa[1]) for pa, pb in v)
                   for v in pieces.values()})


# ---------------------------------------------------------------------------
# Encode


@settings(max_examples=200)
@given(scene=scenes())
def test_encode_scene_equals_reference(scene):
    grid, lanes = scene
    assert_same_grid(encode_scene(lanes, grid, BINS), ref_encode_scene(lanes, grid, BINS))


def test_encode_scene_equals_reference_at_the_min_seg_len_boundary():
    # one lane per tile column: a chain exactly MIN_SEG_LEN long, one ulp
    # shorter and one ulp longer; only the shorter one leaves its tile empty
    ends = (MIN_SEG_LEN, np.nextafter(MIN_SEG_LEN, 0.0), np.nextafter(MIN_SEG_LEN, 1.0))
    lanes = [Lane3D(points=np.array([[x, 0.0, 0.0], [x, y, 0.0]]), lane_id=k)
             for k, (x, y) in enumerate(zip((0.64, 1.92, 3.2), ends))]
    assert [chain_lengths([lane], DEFAULT) for lane in lanes] == [[y] for y in ends]
    targets = encode_scene(lanes, DEFAULT, BINS)
    assert_same_grid(targets, ref_encode_scene(lanes, DEFAULT, BINS))
    assert targets.occupancy[0, 8:11].tolist() == [1.0, 0.0, 1.0]


def test_encode_scene_equals_reference_on_fixed_cases():
    cases = [
        # along a grid line, vertices on it, leaving the grid and coming back
        [[[0.0, -2.0, 0.0], [0.0, 3.0, 0.1], [0.0, 3.0, 0.3], [0.0, 90.0, 0.0]]],
        [[[-12.0, 10.0, 0.0], [1.28, 10.0, 0.0], [1.28, 30.0, 0.0], [-12.0, 30.0, 0.0],
          [3.0, 50.0, 1.0]]],
        # three identical lanes tie in every tile: the first in the list wins
        [[[0.3, 0.0, 0.0], [0.9, 78.0, 0.0]]] * 3,
        # through tile corners only
        [[[-10.24, 0.0, 0.0], [10.24, 78.0, 0.0]], [[-5.12, 6.0, 0.0], [-2.56, 12.0, 0.0]]],
        # every chain shorter than MIN_SEG_LEN
        [[[0.1, 2.9, 0.0], [0.2, 3.1, 0.0]]],
    ]
    for polys in cases:
        lanes = [Lane3D(points=np.array(p, dtype=float), lane_id=9 - k)
                 for k, p in enumerate(polys)]
        assert_same_grid(encode_scene(lanes, DEFAULT, BINS), ref_encode_scene(lanes, DEFAULT, BINS))
    assert_same_grid(encode_scene([], DENSE, BINS), ref_encode_scene([], DENSE, BINS))


@EXACT
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       kind=st.sampled_from(("spread", "lattice", "near_line")))
def test_batched_tls_fit_equals_one_chain_at_a_time(seed, n, kind):
    # encode stacks chains with the same point count into one SVD call
    rng = np.random.default_rng(seed)
    P = rng.uniform(-40.0, 40.0, (1, 1, 2)) + rng.normal(0.0, 2.0, (16, n, 2))
    if kind == "lattice":      # repeats, collinear runs, exact zeros
        P = np.round(P * 4) / 4
    elif kind == "near_line":
        P = (P[:, :1] + np.linspace(0.0, 3.0, n)[:, None] * rng.normal(size=(16, 1, 2))
             + rng.normal(0.0, 1e-9, (16, n, 2)))
    centroid = P.mean(axis=1)
    vt = np.linalg.svd(P - centroid[:, None, :], full_matrices=False)[2]
    for g in range(len(P)):
        c = P[g].mean(axis=0)
        assert c.tobytes() == centroid[g].tobytes()
        assert np.linalg.svd(P[g] - c, full_matrices=False)[2][0].tobytes() == vt[g, 0].tobytes()


def test_numpy_cos_and_sin_round_as_math_does():
    # encode and decode take cos/sin of whole angle arrays
    rng = np.random.default_rng(0)
    phi = np.concatenate([rng.uniform(0.0, TWO_PI, 100_000), BINS.centers,
                          np.arange(64) * (TWO_PI / 64), [np.nextafter(TWO_PI, 0.0)]])
    assert np.cos(phi).tolist() == [math.cos(v) for v in phi.tolist()]
    assert np.sin(phi).tolist() == [math.sin(v) for v in phi.tolist()]


@EXACT
@given(phi=st.lists(st.one_of(st.floats(-20.0, 20.0),
                              st.sampled_from([0.0, -1e-17, TWO_PI, np.nextafter(TWO_PI, 0.0),
                                               *BINS.centers.tolist()])), max_size=12))
def test_soft_labels_over_arrays_equal_the_scalar_reference(phi):
    phi = np.array(phi, dtype=float)
    p, res, mask = angle_to_soft_labels(phi, BINS)
    for k, v in enumerate(phi.tolist()):
        for got, want in zip((p[k], res[k], mask[k]), ref_angle_to_soft_labels(v, BINS)):
            assert got.tobytes() == want.tobytes()
        back = soft_labels_to_angle(p[k], res[k], BINS)
        assert repr(back) == repr(ref_soft_labels_to_angle(p[k], res[k], BINS))
    if len(phi):
        many = soft_labels_to_angle(p, res, BINS)
        assert many.tolist() == [ref_soft_labels_to_angle(a, b, BINS) for a, b in zip(p, res)]


# ---------------------------------------------------------------------------
# Oracle predict and decode


EMB = EmbeddingParams()


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 63), grid=st.sampled_from((DEFAULT, DENSE)),
       noise=st.sampled_from(NOISES), noise_seed=st.integers(0, 2 ** 32 - 1))
def test_generated_scene_stages_equal_reference(seed, grid, noise, noise_seed):
    weights = {"parallel": 0.2, "split": 0.2, "merge": 0.2, "short": 0.2, "perpendicular": 0.2}
    scene = generate_scene(SceneConfig(topology_weights=weights), grid, seed)
    targets = encode_scene(scene.lanes, grid, BINS)
    assert_same_grid(targets, ref_encode_scene(scene.lanes, grid, BINS))
    preds = oracle_predict(targets, noise, EMB, noise_seed)
    assert_same_grid(preds, ref_oracle_predict(targets, noise, EMB, noise_seed))
    assert_same_segments(decode_grid(preds), ref_decode_grid(preds))


@settings(max_examples=80)
@given(targets=target_grids(), noise=st.sampled_from(NOISES),
       noise_seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from((4, 6)))
def test_oracle_predict_equals_reference(targets, noise, noise_seed, dim):
    params = EmbeddingParams(dim=dim)
    assert_same_grid(oracle_predict(targets, noise, params, noise_seed),
                     ref_oracle_predict(targets, noise, params, noise_seed))


def test_saturated_prediction_equals_reference():
    targets = encode_scene(generate_scene(SceneConfig(), seed=4).lanes, DEFAULT, BINS)
    for dim in (1, 4):
        assert_same_grid(saturated_prediction(targets, dim), ref_saturated_prediction(targets, dim))


def test_oracle_predict_rejects_occupied_tile_without_lane_id():
    targets = TileTargetGrid.zeros(BINARY, BINS)
    targets.occupancy[1, 2] = 1.0
    try:
        oracle_predict(targets, NoiseConfig(), EMB)
    except ValueError as e:
        assert "no lane id" in str(e)
    else:
        raise AssertionError("accepted an occupied tile without a lane id")


@EXACT
@given(preds=prediction_grids())
def test_decode_grid_equals_reference(preds):
    assert_same_segments(decode_grid(preds), ref_decode_grid(preds))


def test_decode_grid_equals_reference_on_degenerate_and_corner_tangent_lines():
    # Square tiles, one bin-center angle per row (axis-parallel and diagonal
    # lines), offsets from -2 to 2 tiles in eighths: most lines miss their
    # tile and are clamped to its border; diagonals clamped to a corner then
    # touch only that corner.
    # touch only that corner. Grid lines at x = 0 and y = 0 give clip
    # parameters of both signs of zero.
    for y_min in (0.0, -4.0):
        grid = GridSpec(n_cols=32, n_rows=BINS.n_bins, tile_width=1.0, tile_length=1.0,
                        y_min=y_min)
        h, w = grid.n_rows, grid.n_cols
        p, res = ref_soft_label_grid(np.repeat(BINS.centers[:, None], w, axis=1))
        preds = TilePredictionGrid(
            grid=grid, bins=BINS, score_logit=np.full((h, w), 50.0),
            lateral_offset=np.tile(np.arange(-16, 16) / 8.0, (h, 1)),
            height_offset=np.zeros((h, w)), bin_logits=logit(p), bin_residuals=res,
            embedding=np.zeros((h, w, 2)))
        want = ref_decode_grid(preds)
        assert_same_segments(decode_grid(preds), want)
        degenerate = [s for s in want if s.degenerate]
        assert 0 < len(degenerate) < len(want)
        assert any(np.array_equal(*s.endpoints) for s in degenerate)


def test_decode_grid_raises_as_the_reference_on_no_active_bin():
    preds = TilePredictionGrid.zeros(BINARY, BINS, 2)
    preds.score_logit[2, 3] = 50.0
    preds.bin_logits[2, 3] = -1000.0
    for decode in (decode_grid, ref_decode_grid):
        try:
            decode(preds)
        except ValueError as e:
            assert str(e) == "no active angle bin to decode from"
        else:
            raise AssertionError(f"{decode.__name__} accepted a tile with no active bin")
