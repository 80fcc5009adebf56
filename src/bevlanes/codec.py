"""Per-tile lane segment encoding and decoding.

Ground-truth 3D lane polylines are turned into per-tile training targets
(occupancy, lateral offset from the tile center, direction angle as soft
bin labels plus residuals, height offset, lane identity), and per-tile
predictions are turned back into 3D line segments clipped to their tiles.

Sign conventions:
  - a tile's line is parameterized by its direction angle phi (measured
    from +x, in [0, 2pi)) and the signed perpendicular offset of the line
    from the tile center, positive along the left normal
    (-sin(phi), cos(phi)) of the directed line. Encode and decode share
    this convention, which makes decode the exact inverse for straight
    lanes.
  - predictions store pre-activation (logit) values for the occupancy
    score and the bin probabilities so losses can be computed stably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import GridSpec, Lane3D, tile_bounds, tile_center

TWO_PI = 2.0 * math.pi

# Rounding guard for soft labels: a probability below this is an artifact of
# angle wrapping arithmetic, not a real second/third active bin.
_P_EPS = 1e-9

DEFAULT_MIN_SEG_LEN = 0.3
DEFAULT_SCORE_THRESHOLD = 0.3
DEFAULT_SATURATION = 50.0


@dataclass(frozen=True)
class AngleBinSpec:
    """Circularly spaced direction bins with centers (2pi/N)*i, i = 1..N."""

    n_bins: int = 8

    def __post_init__(self):
        if self.n_bins < 4:
            raise ValueError(f"need at least 4 angle bins, got {self.n_bins}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_bins

    @property
    def centers(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.n_bins + 1)


def wrap_signed(angle):
    """Wrap angle(s) to (-pi, pi]."""
    a = np.asarray(angle, dtype=float)
    out = a - TWO_PI * np.round(a / TWO_PI)
    out = np.where(out <= -math.pi, out + TWO_PI, out)
    return float(out) if np.isscalar(angle) or out.ndim == 0 else out


def angle_to_soft_labels(phi: float, bins: AngleBinSpec):
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


def soft_labels_to_angle(p_bins: np.ndarray, d_bins: np.ndarray, bins: AngleBinSpec) -> float:
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


def _array(*shape: str, fill: float = 0.0, dtype=float):
    """A tile-grid array field: its shape over "H", "W" (grid rows, columns),
    "N" (angle bins) and "d" (any size), and its fill in `zeros`."""
    return field(metadata={"shape": shape, "fill": fill, "dtype": dtype})


def array_fields(grid) -> list:
    """The array fields of a tile grid class or instance, in order."""
    return [f for f in fields(grid) if "shape" in f.metadata]


def _axis_sizes(grid: GridSpec, bins: AngleBinSpec, d="d") -> dict:
    return {"H": grid.n_rows, "W": grid.n_cols, "N": bins.n_bins, "d": d}


def _check_arrays(obj) -> None:
    """Each array has its declared shape and only finite values."""
    sizes = _axis_sizes(obj.grid, obj.bins)
    for f in array_fields(obj):
        arr, expect = getattr(obj, f.name), tuple(sizes[a] for a in f.metadata["shape"])
        if arr.ndim != len(expect) or any(e not in ("d", n) for n, e in zip(arr.shape, expect)):
            raise ValueError(f"{f.name} has shape {arr.shape}, expected {expect}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{f.name} holds a non-finite value")


def _zeros(cls, grid: GridSpec, bins: AngleBinSpec, d=None):
    sizes = _axis_sizes(grid, bins, d)
    return cls(grid=grid, bins=bins, **{
        f.name: np.full([sizes[a] for a in f.metadata["shape"]], f.metadata["fill"],
                        dtype=f.metadata["dtype"])
        for f in array_fields(cls)})


@dataclass
class TileTargetGrid:
    """Struct-of-arrays target grid; all arrays are row-major (H, W, ...)."""

    grid: GridSpec
    bins: AngleBinSpec
    occupancy: np.ndarray = _array("H", "W")                # in {0, 1}
    lateral_offset: np.ndarray = _array("H", "W")           # meters
    angle: np.ndarray = _array("H", "W")                    # radians in [0, 2pi)
    height_offset: np.ndarray = _array("H", "W")            # meters
    lane_id: np.ndarray = _array("H", "W", fill=-1, dtype=np.int64)   # -1 where unoccupied
    bin_probs: np.ndarray = _array("H", "W", "N")
    bin_residuals: np.ndarray = _array("H", "W", "N")       # radians
    bin_mask: np.ndarray = _array("H", "W", "N")            # in {0, 1}

    def __post_init__(self):
        _check_arrays(self)

    @classmethod
    def zeros(cls, grid: GridSpec, bins: AngleBinSpec) -> "TileTargetGrid":
        return _zeros(cls, grid, bins)


@dataclass
class TilePredictionGrid:
    """Predicted per-tile fields; score and bins are stored as logits."""

    grid: GridSpec
    bins: AngleBinSpec
    score_logit: np.ndarray = _array("H", "W", fill=-DEFAULT_SATURATION)
    lateral_offset: np.ndarray = _array("H", "W")           # meters
    height_offset: np.ndarray = _array("H", "W")            # meters
    bin_logits: np.ndarray = _array("H", "W", "N", fill=-DEFAULT_SATURATION)
    bin_residuals: np.ndarray = _array("H", "W", "N")       # radians
    embedding: np.ndarray = _array("H", "W", "d")

    def __post_init__(self):
        _check_arrays(self)

    @property
    def embedding_dim(self) -> int:
        return self.embedding.shape[2]

    def score(self) -> np.ndarray:
        """Occupancy probability per tile."""
        return _sigmoid(self.score_logit)

    def bin_probs(self) -> np.ndarray:
        return _sigmoid(self.bin_logits)

    @classmethod
    def zeros(cls, grid: GridSpec, bins: AngleBinSpec, embedding_dim: int) -> "TilePredictionGrid":
        return _zeros(cls, grid, bins, embedding_dim)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logit(p, saturation: float = DEFAULT_SATURATION):
    """Inverse sigmoid, clamped to +-saturation; exact 0/1 map to the clamps."""
    p = np.asarray(p, dtype=float)
    q = np.clip(p, 1e-300, 1.0 - 1e-16)
    z = np.log(q) - np.log1p(-q)
    z = np.where(p >= 1.0, saturation, z)
    z = np.where(p <= 0.0, -saturation, z)
    return np.clip(z, -saturation, saturation)


def saturated_prediction(targets: TileTargetGrid, embedding_dim: int = 4,
                         saturation: float = DEFAULT_SATURATION) -> TilePredictionGrid:
    """Prediction grid that copies the targets exactly (saturated logits)."""
    pred = TilePredictionGrid.zeros(targets.grid, targets.bins, embedding_dim)
    pred.score_logit = np.where(targets.occupancy > 0.5, saturation, -saturation)
    pred.lateral_offset = targets.lateral_offset.copy()
    pred.height_offset = targets.height_offset.copy()
    pred.bin_logits = logit(targets.bin_probs, saturation)
    pred.bin_residuals = targets.bin_residuals.copy()
    return pred


@dataclass
class LaneSegment:
    """A decoded per-tile 3D line segment."""

    midpoint: np.ndarray    # (3,) foot of the perpendicular from the tile center
    direction: np.ndarray   # (2,) unit vector (cos phi, sin phi)
    endpoints: np.ndarray   # (2, 3) on the tile border, ordered along direction
    score: float
    tile: tuple[int, int]
    embedding: np.ndarray   # (d,)
    degenerate: bool = False


# ---------------------------------------------------------------------------
# Encoding


def encode_scene(lanes: list[Lane3D], grid: GridSpec, bins: AngleBinSpec,
                 min_seg_len: float = DEFAULT_MIN_SEG_LEN) -> TileTargetGrid:
    """Build the per-tile target grid for a set of ground-truth lanes.

    Each lane polyline is clipped exactly (segment by segment) to every tile
    it crosses. A tile is occupied when some lane leaves at least min_seg_len
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
        for piece in _clip_lane_to_tiles(lane.points, grid):
            tile_key, pa, pb, za, zb = piece
            clipped.setdefault(tile_key, {}).setdefault(rank, []).append((pa, pb, za, zb))

    for (i, j), by_lane in clipped.items():
        best = None  # (distance to center, lane rank, pieces)
        center = tile_center(i, j, grid)
        for rank in sorted(by_lane):
            pieces = by_lane[rank]
            length = sum(math.hypot(pb[0] - pa[0], pb[1] - pa[1]) for pa, pb, _, _ in pieces)
            if length < min_seg_len:
                continue
            mid = _chain_midpoint(pieces, length)
            dist = math.hypot(mid[0] - center[0], mid[1] - center[1])
            if best is None or dist < best[0] - 1e-12:
                best = (dist, rank, pieces)
        if best is None:
            continue
        _, rank, pieces = best
        phi, offset, dz = _fit_tile_line(pieces, center)
        targets.occupancy[i, j] = 1.0
        targets.lateral_offset[i, j] = offset
        targets.angle[i, j] = phi
        targets.height_offset[i, j] = dz
        targets.lane_id[i, j] = lanes[rank].lane_id
        p, res, mask = angle_to_soft_labels(phi, bins)
        targets.bin_probs[i, j] = p
        targets.bin_residuals[i, j] = res
        targets.bin_mask[i, j] = mask
    return targets


def _clip_lane_to_tiles(points: np.ndarray, grid: GridSpec):
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
        t_in, t_out = _liang_barsky(p0, (dx, dy), grid.x_min, grid.x_max, grid.y_min,
                                    grid.y_max, 0.0, 1.0)
        if t_in is None or t_out - t_in < eps:
            continue
        ts = [t_in, t_out]
        if abs(dx) > eps:
            ts.extend(_line_crossings(p0[0], dx, grid.x_min, grid.tile_width,
                                      grid.n_cols, t_in, t_out))
        if abs(dy) > eps:
            ts.extend(_line_crossings(p0[1], dy, grid.y_min, grid.tile_length,
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


def _line_crossings(p: float, d: float, lo: float, step: float, count: int,
                    t_in: float, t_out: float):
    """Parameters where p + t*d crosses interior grid lines, strictly inside (t_in, t_out)."""
    eps = 1e-12
    out = []
    for m in range(1, count):
        t = (lo + m * step - p) / d
        if t_in + eps < t < t_out - eps:
            out.append(t)
    return out


def _liang_barsky(p, d, x_lo, x_hi, y_lo, y_hi, t_min, t_max):
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


def _chain_midpoint(pieces, total_length: float):
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


def _fit_tile_line(pieces, center):
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


# ---------------------------------------------------------------------------
# Decoding


def decode_grid(preds: TilePredictionGrid,
                score_threshold: float = DEFAULT_SCORE_THRESHOLD) -> list[LaneSegment]:
    """Turn per-tile predictions into 3D lane segments.

    Tiles scoring below the threshold are skipped. Each kept tile contributes
    one segment: midpoint at tile_center + offset * left_normal (z = height
    offset), endpoints where the infinite line meets the tile border. A line
    whose offset pushes it clear of the tile is clamped to the nearest border
    point and flagged degenerate.
    """
    if not (0.0 <= score_threshold <= 1.0):
        raise ValueError(f"score threshold must be in [0, 1], got {score_threshold}")
    grid, bins = preds.grid, preds.bins
    scores = preds.score()
    probs = preds.bin_probs()
    segments: list[LaneSegment] = []
    for i in range(grid.n_rows):
        for j in range(grid.n_cols):
            if scores[i, j] < score_threshold:
                continue
            phi = soft_labels_to_angle(probs[i, j], preds.bin_residuals[i, j], bins)
            direction = np.array([math.cos(phi), math.sin(phi)])
            normal = np.array([-direction[1], direction[0]])
            center = tile_center(i, j, grid)
            mid_xy = center + preds.lateral_offset[i, j] * normal
            dz = float(preds.height_offset[i, j])
            rect = tile_bounds(i, j, grid)
            degenerate = False
            t0, t1 = _liang_barsky(mid_xy, direction, *rect, -math.inf, math.inf)
            if t0 is None:
                mid_xy = np.array([
                    min(max(mid_xy[0], rect[0]), rect[1]),
                    min(max(mid_xy[1], rect[2]), rect[3]),
                ])
                degenerate = True
                t0, t1 = _liang_barsky(mid_xy, direction, *rect, -math.inf, math.inf)
                if t0 is None:  # tangent at a corner
                    t0 = t1 = 0.0
            e0 = np.array([mid_xy[0] + t0 * direction[0], mid_xy[1] + t0 * direction[1], dz])
            e1 = np.array([mid_xy[0] + t1 * direction[0], mid_xy[1] + t1 * direction[1], dz])
            segments.append(LaneSegment(
                midpoint=np.array([mid_xy[0], mid_xy[1], dz]),
                direction=direction,
                endpoints=np.stack([e0, e1]),
                score=float(scores[i, j]),
                tile=(i, j),
                embedding=preds.embedding[i, j].copy(),
                degenerate=degenerate,
            ))
    return segments
