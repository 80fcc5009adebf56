"""Grouping decoded tile segments into lane instances.

Clustering happens in embedding space: flat-kernel mean shift finds the
modes, points are assigned to the nearest mode within a fixed radius, and
each surviving cluster's segment midpoints are chained into an ordered 3D
polyline. A geometry-only greedy baseline (no embeddings) is provided for
comparison; its characteristic failure is merging both branches of a split.

All tie-breaking is by lowest index, so every routine here is deterministic
and permutation-stable. Mean shift returns the bits of the plain
whole-tensor loop with each distance computed once (summed dimension by
dimension, one mask row per distinct mode, symmetric matrices mirrored).
The greedy baseline labels connected components over candidate pairs from
each tile's 3x3 neighbourhood instead of testing every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import SegmentSet, wrap_signed
from .geometry import Curve, check_settings, repeated_vertices

# The greedy baseline's join tolerances: direction (rad) and endpoint gap (m).
ANGLE_TOL = math.pi / 8
GAP_TOL = 4.5  # 1.5 tile lengths


@dataclass(frozen=True)
class ClusterParams:
    """Mean-shift and assignment settings, in embedding units."""

    bandwidth: float = field(default=1.5, metadata={">": 0.0})
    max_iters: int = field(default=100, metadata={">=": 1})
    shift_tol: float = field(default=1e-4, metadata={">=": 0.0})
    assign_radius: float = field(default=1.5, metadata={">": 0.0})
    min_cluster_size: int = field(default=2, metadata={">=": 1})

    def __post_init__(self):
        check_settings(self)


@dataclass
class LaneInstance:
    """A clustered group of tile segments forming one lane."""

    segments: SegmentSet
    confidence: float       # mean member segment score

    def __post_init__(self):
        if not len(self.segments):
            raise ValueError("a lane instance needs at least one segment")


def mean_shift(points: np.ndarray, params: ClusterParams) -> np.ndarray:
    """Flat-kernel mean shift seeded from every point.

    Each seed iterates to the mean of the points within `bandwidth` until the
    shift drops below `shift_tol` or `max_iters` is hit. Converged modes
    closer than the bandwidth to a better-supported mode are merged into it
    (support = points within the bandwidth of the mode; ties keep the lower
    seed index). Returns the surviving centers ordered by descending support.

    The bits are those of the whole-tensor form: `_within` sums the squared
    distances dimension by dimension in numpy's order, one row per distinct
    mode (the first sweep, seeded from the points themselves, fills half the
    mask and mirrors it). Counts are the distinct rows' sums, and
    `rows[inv] @ pts` stays one product over every active seed (a BLAS
    row's result depends on its position in the product). Support and
    merge run once per distinct mode, visited by (-support, first seed
    index). That is exact because a repeated seed can never be kept: its
    first copy was either kept or rejected by a kept mode at the same
    distance.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("mean_shift needs a non-empty (N, d) array of points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("mean_shift points must be finite")
    bw2 = params.bandwidth ** 2
    modes = pts.copy()
    active = np.ones(len(pts), dtype=bool)
    for it in range(params.max_iters):
        if not active.any():
            break
        rows, inv = ((_within_self(pts, bw2), slice(None)) if it == 0 else
                     _within(modes[active], pts, bw2))
        counts = rows.sum(axis=1)[inv]
        counts[counts == 0] = 1  # window drifted empty: freeze in place
        new = (rows[inv] @ pts) / counts[:, None]
        shift = np.linalg.norm(new - modes[active], axis=1)
        modes[active] = new
        still = shift >= params.shift_tol
        active[np.flatnonzero(active)[~still]] = False

    # A row that repeats another up to the sign of a zero has the same
    # distances to everything, so it is never kept after its first copy.
    first, _ = _unique_rows(modes)
    distinct = modes[first]
    rows, inv = _within(distinct, pts, bw2)
    support = rows.sum(axis=1)[inv]
    kept: list[int] = []
    for i in np.lexsort((first, -support)):
        # vecdot sums like the 1-D norm, so ties at the bandwidth keep their bits
        diff = distinct[kept] - distinct[i]
        if not np.any(np.sqrt(np.vecdot(diff, diff)) < params.bandwidth):
            kept.append(i)
    return distinct[kept]


# Rows whose (rows, N) distances `_within` and `_pair_dist` hold at once.
_ROWS = 64


def _within(centers: np.ndarray, pts: np.ndarray, bw2: float) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inv), `rows[inv]` the (len(centers), N) mask: point within the
    bandwidth of the center. One row is computed per distinct center (a row
    depends only on its center), `_ROWS` rows at a time to bound the memory."""
    first, inv = _unique_rows(centers)
    out = np.empty((len(first), len(pts)), dtype=bool)
    for i in range(0, len(first), _ROWS):
        out[i:i + _ROWS] = _sq_dist(centers[first[i:i + _ROWS]], pts) <= bw2
    return out, inv


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`first`, the lowest index of each distinct row, and `inv`, with
    `a[first][inv]` equal to `a`. Rows are compared by their bytes (a 1-D sort)."""
    rows = np.ascontiguousarray(a).view(np.dtype((np.void, a.itemsize * a.shape[1])))
    return np.unique(rows.ravel(), return_index=True, return_inverse=True)[1:]


def _within_self(pts: np.ndarray, bw2: float) -> np.ndarray:
    """`_within(pts, pts, bw2)`, mirrored."""
    return _mirrored(pts, lambda a, b: _sq_dist(a, b) <= bw2, bool)


def _mirrored(x: np.ndarray, block, dtype) -> np.ndarray:
    """(N, N) `block(x, x)` from the upper part of each `_ROWS`-row block,
    mirrored: exact when (i, j) has the bits of (j, i), as (a - b)^2 has those of (b - a)^2."""
    out = np.empty((len(x), len(x)), dtype=dtype)
    for i in range(0, len(x), _ROWS):
        out[i:i + _ROWS, i:] = block(x[i:i + _ROWS], x[i:])
        out[i + _ROWS:, i:i + _ROWS] = out[i:i + _ROWS, i + _ROWS:].T
    return out


def _sq_dist(c: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(len(c), N) squared distances with the bits of
    `np.sum((c[:, None] - pts[None]) ** 2, axis=2)`. numpy adds fewer than
    eight terms left to right, so those are summed one dimension at a time
    without the (len(c), N, d) tensor; more terms it adds pairwise."""
    if c.shape[1] >= 8:
        return np.sum((c[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    d2 = (c[:, 0, None] - pts[:, 0]) ** 2
    for k in range(1, c.shape[1]):
        d2 += (c[:, k, None] - pts[:, k]) ** 2
    return d2


def assign_clusters(embeddings: np.ndarray, centers: np.ndarray,
                    assign_radius: float) -> np.ndarray:
    """Label each point with its nearest center within the radius, else -1.

    Equidistant points go to the lower center index.
    """
    emb = np.asarray(embeddings, dtype=float)
    ctr = np.asarray(centers, dtype=float)
    if len(ctr) == 0:
        return np.full(len(emb), -1, dtype=np.int64)
    dist = np.linalg.norm(emb[:, None, :] - ctr[None, :, :], axis=2)
    labels = np.argmin(dist, axis=1).astype(np.int64)
    labels[dist[np.arange(len(emb)), labels] > assign_radius] = -1
    return labels


def cluster_segments(segments: SegmentSet, params: ClusterParams) -> list[LaneInstance]:
    """Group segments into lane instances by their embeddings.

    Runs mean shift over the segment embeddings, assigns each segment to the
    nearest mode within `assign_radius`, and drops clusters smaller than
    `min_cluster_size`. Instance confidence is the mean member score.
    """
    if not len(segments):
        return []
    centers = mean_shift(segments.embedding, params)
    labels = assign_clusters(segments.embedding, centers, params.assign_radius)
    groups = [np.flatnonzero(labels == k) for k in range(len(centers))]
    return [LaneInstance(segments=segments.take(m), confidence=float(np.mean(segments.score[m])))
            for m in groups if len(m) >= params.min_cluster_size]


def assemble_curve(instance: LaneInstance) -> Curve | None:
    """Order an instance's segment midpoints into a polyline.

    The chain starts at the midpoint with the smallest projection onto the
    first principal axis of the midpoints (the axis is oriented toward +y,
    then +x, so collinear instances come out sorted along the line) and
    greedily hops to the nearest unvisited midpoint (ties to the lowest
    index). The xy distances are computed once per instance; each hop then
    masks the visited column and takes the argmin of one row. A
    single-segment instance falls back to that segment's two endpoints.
    An instance without two distinct points (one segment clamped to a tile
    corner, or midpoints that all coincide) makes no lane and gives None.
    """
    segments = instance.segments
    if len(segments) == 1:
        ends = segments.endpoints[0]
        return None if repeated_vertices(ends)[0] else Curve(points=ends.copy())
    mids = segments.midpoint
    xy = mids[:, :2]
    centered = xy - xy.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axis = vt[0]
    if axis[1] < 0 or (axis[1] == 0 and axis[0] < 0):
        axis = -axis
    current = int(np.argmin(centered @ axis))
    dist = _pair_dist(xy)
    order = [current]
    for _ in range(len(mids) - 1):
        dist[:, current] = np.inf       # visited
        current = int(dist[current].argmin())
        order.append(current)
    pts = mids[order]
    # A midpoint that repeats the one before it is dropped; consecutive steps
    # are what the loop compares until it drops one, so it runs only then.
    steps = np.diff(pts, axis=0)
    if np.all(np.sqrt(np.vecdot(steps, steps)) > 1e-12):
        return Curve(points=pts)
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-12:
            keep.append(i)
    return Curve(points=pts[keep]) if len(keep) >= 2 else None


def _pair_dist(xy: np.ndarray) -> np.ndarray:
    """(N, N) distances, row k from `xy[k]`, with the bits of the per-row
    `sqrt(vecdot(xy - xy[k], xy - xy[k]))`: vecdot, like the 1-D norm, sums
    through the dot kernel, where norm(axis=1) can differ in the last bit and
    so flip a near-tie hop. `_mirrored` computes the upper blocks, so the
    (N, N, 2) difference tensor never exists."""
    def block(a, b):
        diff = b[None, :, :] - a[:, None, :]
        return np.sqrt(np.vecdot(diff, diff))
    return _mirrored(xy, block, float)


def greedy_baseline(segments: SegmentSet) -> list[LaneInstance]:
    """Geometry-only grouping: the connected components of the join relation.

    Two segments join when their tiles are within one step in both grid
    indices, their directions differ (circularly) by at most ANGLE_TOL, and
    their closest endpoints are within GAP_TOL. Components are ordered by
    their lowest segment index, members by index. Embeddings are ignored.
    """
    n = len(segments)
    if n == 0:
        return []
    i, j = _neighbour_pairs(segments.tile)
    angles = np.array([math.atan2(y, x) for x, y in segments.direction.tolist()])
    ends = segments.endpoints[:, :, :2]
    # endpoint pairs (a, b) in the order (0, 0), (0, 1), (1, 0), (1, 1): vecdot
    # sums like the 1-D norm, and the running `<` is Python's `min`, NaN included
    diff = ends[i][:, :, None, :] - ends[j][:, None, :, :]
    gaps = np.sqrt(np.vecdot(diff, diff)).reshape(-1, 4)
    gap = gaps[:, 0]
    for k in range(1, 4):
        gap = np.where(gaps[:, k] < gap, gaps[:, k], gap)
    join = ~(np.abs(wrap_signed(angles[i] - angles[j])) > ANGLE_TOL) & ~(gap > GAP_TOL)

    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(i[join].tolist(), j[join].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)  # the root is the lowest index

    groups: dict[int, list[int]] = {}
    for k in range(n):
        groups.setdefault(find(k), []).append(k)
    # np.mean's sum and division, without its per-call overhead
    return [LaneInstance(segments.take(m), float(np.add.reduce(segments.score[m]) / len(m)))
            for _, m in sorted(groups.items())]


def _neighbour_pairs(tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j whose (row, col) tiles differ by at most one in both."""
    rc = tiles - tiles.min(axis=0) + 1
    width = int(rc[:, 1].max()) + 2        # a column step never wraps a row
    key = rc[:, 0] * width + rc[:, 1]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    pairs_i, pairs_j = [], []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            lo = np.searchsorted(sorted_key, key + dr * width + dc, "left")
            count = np.searchsorted(sorted_key, key + dr * width + dc, "right") - lo
            start = np.repeat(lo - np.cumsum(count) + count, count)
            pairs_i.append(np.repeat(np.arange(len(key)), count))
            pairs_j.append(order[start + np.arange(count.sum())])
    i, j = np.concatenate(pairs_i), np.concatenate(pairs_j)
    return i[i < j], j[i < j]
