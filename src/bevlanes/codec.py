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

from .geometry import GridSpec, Lane3D, check_settings, tile_centers

TWO_PI = 2.0 * math.pi

# Rounding guard for soft labels: a probability below this is an artifact of
# angle wrapping arithmetic, not a real second/third active bin.
_P_EPS = 1e-9

# Encode's shortest occupying length (m), decode's score cut, the logit clamp.
MIN_SEG_LEN = 0.3
SCORE_THRESHOLD = 0.3
SATURATION = 50.0

# Value bounds, {op: bound}; MAX_COORDINATE (m) keeps sums of squares and eval's work finite.
MAX_COORDINATE = 1e6
COORDINATE = {">=": -MAX_COORDINATE, "<=": MAX_COORDINATE}
BINARY, PROBABILITY = {"one of": (0.0, 1.0)}, {">=": 0.0, "<=": 1.0}
LOGIT, RESIDUAL = {">=": -SATURATION, "<=": SATURATION}, {">=": -math.pi, "<=": math.pi}


@dataclass(frozen=True)
class AngleBinSpec:
    """Circularly spaced direction bins with centers (2pi/N)*i, i = 1..N."""

    n_bins: int = field(default=8, metadata={">=": 4})

    def __post_init__(self):
        check_settings(self)

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


def angle_to_soft_labels(phi, bins: AngleBinSpec):
    """Soft bin probabilities, masked residuals and bin mask for an angle, or
    for an array of angles (the bins become a new last axis).

    p_i = max(0, 1 - wrap(|alpha_i - phi|) / spacing) with circular wrapping,
    so angles near 0/2pi still supervise the wrap-around bins. Residuals are
    the wrapped signed differences (phi - alpha_i), kept only on active bins.
    """
    phi = np.remainder(phi, TWO_PI)
    d = wrap_signed(np.expand_dims(phi, -1) - bins.centers)
    p = np.maximum(0.0, 1.0 - np.abs(d) / bins.spacing)
    p[p < _P_EPS] = 0.0
    mask = (p > 0.0).astype(float)
    residuals = d * mask
    return p, residuals, mask


def soft_labels_to_angle(p_bins: np.ndarray, d_bins: np.ndarray, bins: AngleBinSpec):
    """Decode an angle as argmax bin center plus that bin's residual; over the
    last axis, so (..., N) inputs give (...) angles and (N,) inputs a float.

    Ties go to the lower bin index. Raises ValueError when no bin is active.
    """
    p = np.asarray(p_bins, dtype=float)
    if p.shape[-1:] != (bins.n_bins,):
        raise ValueError(f"expected {bins.n_bins} bin probabilities, got shape {p.shape}")
    if not np.all(np.any(p > 0.0, axis=-1)):
        raise ValueError("no active angle bin to decode from")
    i = np.argmax(p, axis=-1)[..., None]
    d = np.take_along_axis(np.asarray(d_bins, dtype=float), i, axis=-1)[..., 0]
    phi = np.remainder(bins.centers[i[..., 0]] + d, TWO_PI)
    return float(phi) if phi.ndim == 0 else phi


def _array(*shape, fill: float = 0.0, dtype=float, bounds=None):
    """An array field: its shape over named axes (grid rows "H", columns "W",
    angle bins "N", segments "n", any size "d") or sizes, its fill, dtype and bounds."""
    return field(metadata={"shape": shape, "fill": fill, "dtype": dtype, "bounds": bounds or {}})


def array_fields(obj) -> list:
    """The array fields of a struct-of-arrays class or instance, in order."""
    return [f for f in fields(obj) if "shape" in f.metadata]


def _grid_sizes(grid: GridSpec, bins: AngleBinSpec, d=None) -> dict:
    return {"H": grid.n_rows, "W": grid.n_cols, "N": bins.n_bins, "d": d}


def _check_arrays(obj, sizes: dict) -> None:
    """Each array field has its declared shape (an axis sized None may have
    any size) and dtype, and only finite values."""
    for f in array_fields(obj):
        arr, expect = getattr(obj, f.name), tuple(sizes.get(a, a) for a in f.metadata["shape"])
        if arr.ndim != len(expect) or any(e not in (None, n) for n, e in zip(arr.shape, expect)):
            raise ValueError(f"{f.name} has shape {arr.shape}, expected {expect}")
        if arr.dtype != f.metadata["dtype"]:
            raise ValueError(f"{f.name} has dtype {arr.dtype}, expected "
                             f"{np.dtype(f.metadata['dtype'])}")
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ValueError(f"{f.name} holds a non-finite value")


def _filled(cls, sizes: dict) -> dict:
    """Each array field of a class at its declared shape, fill and dtype."""
    return {f.name: np.full([sizes.get(a, a) for a in f.metadata["shape"]], f.metadata["fill"],
                            dtype=f.metadata["dtype"])
            for f in array_fields(cls)}


@dataclass
class TileTargetGrid:
    """Struct-of-arrays target grid; all arrays are row-major (H, W, ...)."""

    grid: GridSpec
    bins: AngleBinSpec
    occupancy: np.ndarray = _array("H", "W", bounds=BINARY)
    lateral_offset: np.ndarray = _array("H", "W", bounds=COORDINATE)      # meters
    angle: np.ndarray = _array("H", "W", bounds={">=": 0.0, "<=": TWO_PI})  # x % 2pi can be 2pi
    height_offset: np.ndarray = _array("H", "W", bounds=COORDINATE)       # meters
    lane_id: np.ndarray = _array("H", "W", fill=-1, dtype=np.int64, bounds={">=": -1})  # -1: none
    bin_probs: np.ndarray = _array("H", "W", "N", bounds=PROBABILITY)
    bin_residuals: np.ndarray = _array("H", "W", "N", bounds=RESIDUAL)    # radians
    bin_mask: np.ndarray = _array("H", "W", "N", bounds=BINARY)

    def __post_init__(self):
        _check_arrays(self, _grid_sizes(self.grid, self.bins))

    @classmethod
    def zeros(cls, grid: GridSpec, bins: AngleBinSpec) -> "TileTargetGrid":
        return cls(grid=grid, bins=bins, **_filled(cls, _grid_sizes(grid, bins)))


@dataclass
class TilePredictionGrid:
    """Predicted per-tile fields; score and bins are stored as logits."""

    grid: GridSpec
    bins: AngleBinSpec
    score_logit: np.ndarray = _array("H", "W", fill=-SATURATION, bounds=LOGIT)
    lateral_offset: np.ndarray = _array("H", "W", bounds=COORDINATE)      # meters
    height_offset: np.ndarray = _array("H", "W", bounds=COORDINATE)       # meters
    bin_logits: np.ndarray = _array("H", "W", "N", fill=-SATURATION, bounds=LOGIT)
    bin_residuals: np.ndarray = _array("H", "W", "N", bounds=RESIDUAL)    # radians
    embedding: np.ndarray = _array("H", "W", "d", bounds=COORDINATE)

    def __post_init__(self):
        _check_arrays(self, _grid_sizes(self.grid, self.bins))

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
        return cls(grid=grid, bins=bins, **_filled(cls, _grid_sizes(grid, bins, embedding_dim)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logit(p):
    """Inverse sigmoid, clamped to +-SATURATION; exact 0/1 map to the clamps."""
    p = np.asarray(p, dtype=float)
    q = np.clip(p, 1e-300, 1.0 - 1e-16)
    z = np.log(q) - np.log1p(-q)
    z = np.where(p >= 1.0, SATURATION, z)
    z = np.where(p <= 0.0, -SATURATION, z)
    return np.clip(z, -SATURATION, SATURATION)


def saturated_prediction(targets: TileTargetGrid, embedding_dim: int = 4) -> TilePredictionGrid:
    """Prediction grid that copies the targets exactly (saturated logits)."""
    return TilePredictionGrid(grid=targets.grid, bins=targets.bins,
                              **saturated_arrays(targets, embedding_dim))


def saturated_arrays(targets: TileTargetGrid, embedding_dim: int = 4) -> dict:
    """The array fields of `saturated_prediction`, for a caller that changes
    some tiles before it builds the grid."""
    grid, p = targets.grid, targets.bin_probs
    bin_logits = np.full(p.shape, -SATURATION)      # logit of every p <= 0
    bin_logits[p > 0] = logit(p[p > 0])
    return dict(score_logit=np.where(targets.occupancy > 0.5, SATURATION, -SATURATION),
                lateral_offset=targets.lateral_offset.copy(),
                height_offset=targets.height_offset.copy(),
                bin_logits=bin_logits,
                bin_residuals=targets.bin_residuals.copy(),
                embedding=np.zeros((grid.n_rows, grid.n_cols, embedding_dim)))


@dataclass
class SegmentSet:
    """Decoded per-tile 3D line segments, one row per segment."""

    midpoint: np.ndarray = _array("n", 3, bounds=COORDINATE)     # tile center's foot on the line
    direction: np.ndarray = _array("n", 2)     # unit vector (cos phi, sin phi)
    endpoints: np.ndarray = _array("n", 2, 3, bounds=COORDINATE)  # on the tile border, in order
    score: np.ndarray = _array("n", bounds=PROBABILITY)         # occupancy probability
    tile: np.ndarray = _array("n", 2, dtype=np.int64, bounds={">=": 0, "<": 2 ** 31})  # (row, col)
    embedding: np.ndarray = _array("n", "d", bounds=COORDINATE)
    degenerate: np.ndarray = _array("n", dtype=bool)    # line clear of its tile, clamped

    def __post_init__(self):
        _check_arrays(self, {"n": len(self.score), "d": None})

    def __len__(self) -> int:
        return len(self.score)

    def take(self, rows) -> "SegmentSet":
        """The segments at the given row indices, in that order."""
        return SegmentSet(**{f.name: getattr(self, f.name)[rows] for f in array_fields(self)})

    @classmethod
    def empty(cls) -> "SegmentSet":
        return cls(**_filled(cls, {"n": 0, "d": 0}))


# ---------------------------------------------------------------------------
# Encoding

# Lengths and clip parameters closer than this count as equal.
_EPS = 1e-12


def encode_scene(lanes: list[Lane3D], grid: GridSpec, bins: AngleBinSpec) -> TileTargetGrid:
    """Build the per-tile target grid for a set of ground-truth lanes.

    Each lane polyline is clipped exactly (segment by segment) to every tile
    it crosses. A tile is occupied when some lane leaves at least MIN_SEG_LEN
    of clipped length in it; if several qualify, the lane whose clipped-chain
    midpoint lies nearest the tile center wins (ties to the lower lane id)
    and the rest are dropped from that tile. The winning chain is fit with a
    total-least-squares line oriented along traversal order; the offset is
    the signed distance from the tile center along the left normal, and the
    height offset is interpolated at the foot of that perpendicular.

    All tiles are worked at once in arrays. The scalar `math.hypot` and
    `math.atan2` and the left-to-right chain sums stay, because their numpy
    counterparts round differently on some inputs and targets are compared
    bit for bit.
    """
    arrays = _filled(TileTargetGrid, _grid_sizes(grid, bins))
    pieces = _clip_lanes_to_tiles(lanes, grid) if lanes else None
    if pieces is not None and len(pieces[0]):
        tile, rank, phi, offset, dz = _fit_tiles(pieces, len(lanes), grid)
        at = np.unravel_index(tile, (grid.n_rows, grid.n_cols))
        arrays["occupancy"][at] = 1.0
        arrays["lateral_offset"][at] = offset
        arrays["angle"][at] = phi
        arrays["height_offset"][at] = dz
        arrays["lane_id"][at] = np.array([lane.lane_id for lane in lanes])[rank]
        for name, value in zip(("bin_probs", "bin_residuals", "bin_mask"),
                               angle_to_soft_labels(phi, bins)):
            arrays[name][at] = value
    return TileTargetGrid(grid=grid, bins=bins, **arrays)


def _hypot(v: np.ndarray) -> np.ndarray:
    """`math.hypot` of each (x, y) row."""
    return np.fromiter(map(math.hypot, v[:, 0].tolist(), v[:, 1].tolist()), float, len(v))


def _clip_lanes_to_tiles(lanes: list[Lane3D], grid: GridSpec):
    """Split every lane polyline at the tile borders, all segments at once.

    Returns (tile, rank, pa, pb, za, zb) per piece, in traversal order of the
    lanes taken by lane id: tile is the flat index row * n_cols + col, rank
    the lane's index in `lanes`, pa/pb the (x, y) ends and za/zb their
    heights. The crossing parameters of all segments with the interior grid
    lines they span are solved in one step (Amanatides & Woo's traversal, in
    arrays), so piece ends are the original vertices and the exact border
    intersections.
    """
    order = sorted(range(len(lanes)), key=lambda k: lanes[k].lane_id)
    p0 = np.concatenate([lanes[k].points[:-1] for k in order])
    p1 = np.concatenate([lanes[k].points[1:] for k in order])
    delta = p1 - p0
    seg_rank = np.repeat(order, [len(lanes[k].points) - 1 for k in order])
    t_in, t_out, kept = _liang_barsky(p0[:, 0], p0[:, 1], delta[:, 0], delta[:, 1],
                                      (grid.x_min, grid.x_max, grid.y_min, grid.y_max), 0.0, 1.0)
    kept &= t_out - t_in >= _EPS
    # Every parameter that ends a piece: both clip ends and each crossing.
    seg, ts = [np.flatnonzero(kept)] * 2, [t_in[kept], t_out[kept]]
    for axis, lo, step, count in ((0, grid.x_min, grid.tile_width, grid.n_cols),
                                  (1, grid.y_min, grid.tile_length, grid.n_rows)):
        p, d = p0[:, axis], delta[:, axis]
        moving = kept & (np.abs(d) > _EPS)
        # Line m sits at lo + m * step. Candidates: the lines between the
        # segment's ends, plus one each side against rounding.
        first = np.clip(np.floor((np.minimum(p, p1[:, axis]) - lo) / step) - 1, 1, count)
        last = np.clip(np.floor((np.maximum(p, p1[:, axis]) - lo) / step) + 1, 0, count - 1)
        n = np.where(moving, last - first + 1, 0).clip(0).astype(np.int64)
        m = first[:, None] + np.arange(n.max(initial=0))
        t = ((lo + m * step) - p[:, None]) / np.where(moving, d, 1.0)[:, None]
        k, j = np.nonzero((np.arange(m.shape[1]) < n[:, None]) & (t_in[:, None] + _EPS < t)
                          & (t < t_out[:, None] - _EPS))
        seg.append(k)
        ts.append(t[k, j])
    seg, ts = np.concatenate(seg), np.concatenate(ts)
    by = np.lexsort((ts, seg))
    seg, ts = seg[by], ts[by]
    piece = (seg[1:] == seg[:-1]) & (ts[1:] - ts[:-1] >= _EPS)
    k, a, b = seg[:-1][piece], ts[:-1][piece], ts[1:][piece]
    x0, y0, z0 = p0[k].T
    dx, dy, dz = delta[k].T
    tm = 0.5 * (a + b)
    col = np.clip(np.floor_divide(x0 + tm * dx - grid.x_min, grid.tile_width), 0, grid.n_cols - 1)
    row = np.clip(np.floor_divide(y0 + tm * dy - grid.y_min, grid.tile_length), 0, grid.n_rows - 1)
    pa = np.column_stack([x0 + a * dx, y0 + a * dy])
    pb = np.column_stack([x0 + b * dx, y0 + b * dy])
    tile = row.astype(np.int64) * grid.n_cols + col.astype(np.int64)
    return tile, seg_rank[k], pa, pb, z0 + a * dz, z0 + b * dz


def _runs(key: np.ndarray):
    """For a sorted key: the start of each run of equal values, and each
    element's run index and position in its run."""
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    run = np.repeat(np.arange(len(start)), np.diff(np.r_[start, len(key)]))
    return start, run, np.arange(len(key)) - start[run]


def _padded(values, run, pos, n_runs: int, fill):
    """(n_runs, longest run) matrix of per-element values, `fill` elsewhere."""
    out = np.full((n_runs, pos.max() + 1), fill, dtype=np.asarray(values).dtype)
    out[run, pos] = values
    return out


def _fit_tiles(pieces, n_lanes: int, grid: GridSpec):
    """Pick each tile's winning chain and fit its line.

    Returns (tile, rank, phi, offset, dz) for every occupied tile.
    """
    tile, rank, pa, pb, za, zb = pieces
    # One chain per (tile, lane): pieces in traversal order, lanes by rank.
    by = np.argsort(tile * n_lanes + rank, kind="stable")
    tile, rank, pa, pb, za, zb = (v[by] for v in (tile, rank, pa, pb, za, zb))
    start, chain, pos = _runs(tile * n_lanes + rank)
    n_chains = len(start)
    seg_len = _hypot(pb - pa)
    # A row's cumsum adds left to right, as `sum` over the chain does.
    acc = np.cumsum(_padded(seg_len, chain, pos, n_chains, 0.0), axis=1)
    length = acc[:, -1]

    # Arc-length midpoint: in the first piece of nonzero length whose running
    # sum reaches half the chain, else at the chain's last point.
    half = 0.5 * length
    reach = _padded(seg_len > 0, chain, pos, n_chains, False) & (acc >= half[:, None])
    first = np.argmax(reach, axis=1)
    found = reach[np.arange(n_chains), first]
    at = np.where(found, start + first, np.r_[start[1:], len(tile)] - 1)
    before = np.where(first > 0, acc[np.arange(n_chains), first - 1], 0.0)
    t = (half - before) / np.where(found, seg_len[at], 1.0)
    mid = np.where(found[:, None], pa[at] + t[:, None] * (pb[at] - pa[at]), pb[at])
    chain_tile = tile[start]
    center = tile_centers(grid).reshape(-1, 2)[chain_tile]
    dist = np.where(length >= MIN_SEG_LEN, _hypot(mid - center), np.inf)

    # Winner per tile: scan its chains by lane rank; a later chain wins only
    # if nearer by more than 1e-12.
    tile_start, tile_run, tile_pos = _runs(chain_tile)
    cand = _padded(dist, tile_run, tile_pos, len(tile_start), np.inf)
    best = np.full(len(tile_start), np.inf)
    pick = np.full(len(tile_start), -1)
    for p in range(cand.shape[1]):
        take = cand[:, p] < best - 1e-12
        best, pick = np.where(take, cand[:, p], best), np.where(take, p, pick)
    won = tile_start[pick >= 0] + pick[pick >= 0]
    fit = (_fit_chains(won, start, chain, pos, pa, pb, za, zb, center) if len(won)
           else (np.empty(0),) * 3)
    return (chain_tile[won], rank[start[won]], *fit)


def _fit_chains(won, start, chain, pos, pa, pb, za, zb, center):
    """Total-least-squares line of each winning chain; returns (phi, offset, dz)."""
    n_chains = len(start)
    is_won = np.zeros(n_chains, dtype=bool)
    is_won[won] = True
    q = np.flatnonzero(is_won[chain])          # pieces of won chains, chain by chain
    qchain = np.searchsorted(won, chain[q])    # index into won
    # Chain points: the first piece's start, then each piece's end, with a
    # piece's start in between where it does not meet the previous end.
    joins = pos[q] > 0
    gap = np.zeros(len(q))
    gap[joins] = _hypot(pa[q[joins]] - pb[q[joins] - 1])
    keep = np.column_stack([~joins | (gap > _EPS), np.ones(len(q), dtype=bool)])
    pts = np.stack([pa[q], pb[q]], axis=1)[keep]
    n_pts = np.bincount(np.repeat(qchain, keep.sum(axis=1)), minlength=len(won))
    first_pt = np.r_[0, np.cumsum(n_pts)[:-1]]

    # Batched SVD over the chains with the same point count (each stacked
    # matrix gets the same LAPACK call as it would alone).
    centroid = np.empty((len(won), 2))
    direction = np.empty((len(won), 2))
    for n in np.unique(n_pts):
        which = np.flatnonzero(n_pts == n)
        P = pts[first_pt[which, None] + np.arange(n)]
        centroid[which] = P.mean(axis=1)
        d = np.linalg.svd(P - centroid[which, None, :], full_matrices=False)[2][:, 0]
        chord = P[:, -1] - P[:, 0]
        direction[which] = np.where((d[:, 0] * chord[:, 0] + d[:, 1] * chord[:, 1] < 0)[:, None],
                                    -d, d)
    phi = np.array([math.atan2(y, x) % TWO_PI for x, y in direction.tolist()])
    normal = np.column_stack([-np.sin(phi), np.cos(phi)])
    c = center[won]
    offset = (normal[:, 0] * (centroid[:, 0] - c[:, 0])
              + normal[:, 1] * (centroid[:, 1] - c[:, 1]))

    # Height at the foot of the perpendicular from the tile center, from the
    # first piece nearest to it.
    foot = c + offset[:, None] * normal
    f, a, v = foot[qchain], pa[q], pb[q] - pa[q]
    den = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
    s = (((f[:, 0] - a[:, 0]) * v[:, 0] + (f[:, 1] - a[:, 1]) * v[:, 1])
         / np.where(den > 0, den, 1.0))
    s = np.where(s > 0.0, s, 0.0)
    s = np.where(den <= 0, 0.0, np.where(s < 1.0, s, 1.0))
    e = f - (a + s[:, None] * v)
    # `**` is libm pow, which is not always e * e.
    d2 = np.fromiter((x ** 2 + y ** 2 for x, y in e.tolist()), float, len(e))
    qpos = np.arange(len(q)) - np.searchsorted(qchain, qchain)
    nearest = np.searchsorted(qchain, np.arange(len(won))) + np.argmin(
        _padded(d2, qchain, qpos, len(won), np.inf), axis=1)
    dz = za[q][nearest] + s[nearest] * (zb[q][nearest] - za[q][nearest])
    return phi, offset, dz


def _liang_barsky(px, py, dx, dy, rect, t_min: float, t_max: float):
    """Clip the lines p + t*d, t in [t_min, t_max], to the rectangle
    rect = (x_lo, x_hi, y_lo, y_hi), elementwise over arrays.

    Returns (t0, t1, hit); t0 and t1 mean nothing where hit is False. A
    direction component below 1e-15 counts as parallel to that axis.
    """
    shape = np.shape(px)
    t0, t1 = np.full(shape, t_min), np.full(shape, t_max)
    hit = np.ones(shape, dtype=bool)
    for p, d, lo, hi in ((px, dx, rect[0], rect[1]), (py, dy, rect[2], rect[3])):
        flat = np.abs(d) < 1e-15
        hit &= ~flat | ((p >= lo) & (p <= hi))
        step = np.where(flat, 1.0, d)
        ta, tb = (lo - p) / step, (hi - p) / step
        swap = ta > tb
        ta, tb = np.where(swap, tb, ta), np.where(swap, ta, tb)
        # As builtin max/min: a bound that only ties stays (signed zeros too).
        t0 = np.where(~flat & (ta > t0), ta, t0)
        t1 = np.where(~flat & (tb < t1), tb, t1)
        hit &= t0 <= t1
    return t0, t1, hit


# ---------------------------------------------------------------------------
# Decoding


def decode_grid(preds: TilePredictionGrid) -> SegmentSet:
    """Turn per-tile predictions into 3D lane segments.

    Tiles scoring below SCORE_THRESHOLD are skipped. Each kept tile contributes
    one segment: midpoint at the tile center + offset * left_normal (z =
    height offset), endpoints where the infinite line meets the tile border.
    A line whose offset pushes it clear of the tile is clamped to the nearest
    border point and flagged degenerate. All kept tiles are clipped at once,
    and the segments come in row-major tile order.
    """
    grid, bins = preds.grid, preds.bins
    scores = preds.score()
    rows, cols = np.nonzero(~(scores < SCORE_THRESHOLD))
    phi = soft_labels_to_angle(_sigmoid(preds.bin_logits[rows, cols]),
                               preds.bin_residuals[rows, cols], bins)
    direction = np.column_stack([np.cos(phi), np.sin(phi)])
    normal = np.column_stack([-direction[:, 1], direction[:, 0]])
    mid = tile_centers(grid)[rows, cols] + preds.lateral_offset[rows, cols, None] * normal
    x_lo = grid.x_min + cols * grid.tile_width
    y_lo = grid.y_min + rows * grid.tile_length
    rect = (x_lo, x_lo + grid.tile_width, y_lo, y_lo + grid.tile_length)
    hit = _liang_barsky(mid[:, 0], mid[:, 1], direction[:, 0], direction[:, 1], rect,
                        -math.inf, math.inf)[2]
    # A line clear of its tile moves to the nearest border point, as
    # min(max(x, lo), hi). A point of the tile always clips to t0 <= 0 <= t1.
    for axis, lo, hi in ((0, rect[0], rect[1]), (1, rect[2], rect[3])):
        m = np.where(lo > mid[:, axis], lo, mid[:, axis])
        mid[:, axis] = np.where(hit, mid[:, axis], np.where(hi < m, hi, m))
    t0, t1, _ = _liang_barsky(mid[:, 0], mid[:, 1], direction[:, 0], direction[:, 1], rect,
                              -math.inf, math.inf)
    dz = preds.height_offset[rows, cols]
    ends = np.stack([np.column_stack([mid + t[:, None] * direction, dz]) for t in (t0, t1)], axis=1)
    return SegmentSet(midpoint=np.column_stack([mid, dz]), direction=direction, endpoints=ends,
                      score=scores[rows, cols], tile=np.column_stack([rows, cols]),
                      embedding=preds.embedding[rows, cols], degenerate=~hit)
