"""Grouping decoded tile segments into lane instances.

Clustering happens in embedding space: flat-kernel mean shift finds the
modes, points are assigned to the nearest mode within a fixed radius, and
each surviving cluster's segment midpoints are chained into an ordered 3D
polyline. A geometry-only greedy baseline (no embeddings) is provided for
comparison; its characteristic failure is merging both branches of a split.

All tie-breaking is by lowest index, so every routine here is deterministic
and permutation-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import LaneSegment, wrap_signed

DEFAULT_ANGLE_TOL = math.pi / 8
DEFAULT_GAP_TOL = 4.5  # 1.5 tile lengths


@dataclass(frozen=True)
class ClusterParams:
    """Mean-shift and assignment settings, in embedding units."""

    bandwidth: float = 1.5
    max_iters: int = 100
    shift_tol: float = 1e-4
    assign_radius: float = 1.5
    min_cluster_size: int = 2

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.assign_radius <= 0:
            raise ValueError(f"assign_radius must be positive, got {self.assign_radius}")
        if self.min_cluster_size < 1:
            raise ValueError(f"min_cluster_size must be >= 1, got {self.min_cluster_size}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class LaneInstance:
    """A clustered group of tile segments forming one lane."""

    segments: list[LaneSegment]
    center: np.ndarray      # embedding-space cluster center
    confidence: float       # mean member segment score

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a lane instance needs at least one segment")


@dataclass
class Curve:
    """An ordered 3D polyline, optionally tagged with a ground-truth lane id."""

    points: np.ndarray            # (M, 3)
    lane_id: int | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] < 2 or self.points.shape[1] != 3:
            raise ValueError(f"curve needs at least two 3D points, got shape {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("curve points must be finite")
        steps = np.linalg.norm(np.diff(self.points[:, :2], axis=0), axis=1)
        if np.any(steps + np.abs(np.diff(self.points[:, 2])) == 0.0):
            raise ValueError("curve has consecutive duplicate points")


def mean_shift(points: np.ndarray, params: ClusterParams) -> np.ndarray:
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
        within = _within(modes[active], pts, bw2)
        counts = within.sum(axis=1)
        counts[counts == 0] = 1  # window drifted empty: freeze in place
        new = (within @ pts) / counts[:, None]
        shift = np.linalg.norm(new - modes[active], axis=1)
        modes[active] = new
        still = shift >= params.shift_tol
        active[np.flatnonzero(active)[~still]] = False

    support = np.sum(_within(modes, pts, bw2), axis=1)
    order = sorted(range(len(pts)), key=lambda i: (-support[i], i))
    kept: list[int] = []
    for i in order:
        if all(np.linalg.norm(modes[i] - modes[k]) >= params.bandwidth for k in kept):
            kept.append(i)
    return modes[kept]


# Centers whose (centers, N, d) difference tensor `_within` holds at once.
_ROWS = 64


def _within(centers: np.ndarray, pts: np.ndarray, bw2: float) -> np.ndarray:
    """(len(centers), N) mask: point within the bandwidth of the center. Rows
    are worked `_ROWS` at a time, which bounds the memory without changing
    any row's values."""
    out = np.empty((len(centers), len(pts)), dtype=bool)
    for i in range(0, len(centers), _ROWS):
        c = centers[i:i + _ROWS]
        out[i:i + _ROWS] = np.sum((c[:, None, :] - pts[None, :, :]) ** 2, axis=2) <= bw2
    return out


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


def cluster_segments(segments: list[LaneSegment], params: ClusterParams) -> list[LaneInstance]:
    """Group segments into lane instances by their embeddings.

    Runs mean shift over the segment embeddings, assigns each segment to the
    nearest mode within `assign_radius`, and drops clusters smaller than
    `min_cluster_size`. Instance confidence is the mean member score.
    """
    if not segments:
        return []
    emb = np.stack([s.embedding for s in segments])
    centers = mean_shift(emb, params)
    labels = assign_clusters(emb, centers, params.assign_radius)
    instances = []
    for k in range(len(centers)):
        members = [segments[i] for i in np.flatnonzero(labels == k)]
        if len(members) < params.min_cluster_size:
            continue
        instances.append(LaneInstance(
            segments=members,
            center=centers[k].copy(),
            confidence=float(np.mean([s.score for s in members])),
        ))
    return instances


def assemble_curve(instance: LaneInstance) -> Curve:
    """Order an instance's segment midpoints into a polyline.

    The chain starts at the midpoint with the smallest projection onto the
    first principal axis of the midpoints (the axis is oriented toward +y,
    then +x, so collinear instances come out sorted along the line) and
    greedily hops to the nearest unvisited midpoint. A single-segment
    instance falls back to that segment's two endpoints.
    """
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
    visited = np.zeros(len(mids), dtype=bool)
    order = [current]
    for _ in range(len(mids) - 1):
        visited[current] = True
        # vecdot, like the 1-D norm, sums through the dot kernel; norm(axis=1)
        # can differ in the last bit and so flip a near-tie hop.
        diff = xy - xy[current]
        d = np.sqrt(np.vecdot(diff, diff))
        d[visited] = np.inf
        current = int(np.argmin(d))
        order.append(current)
    pts = mids[order]
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-12:
            keep.append(i)
    if len(keep) < 2:
        return Curve(points=instance.segments[0].endpoints.copy())
    return Curve(points=pts[keep])


def greedy_baseline(segments: list[LaneSegment], angle_tol: float = DEFAULT_ANGLE_TOL,
                    gap_tol: float = DEFAULT_GAP_TOL) -> list[LaneInstance]:
    """Geometry-only grouping by union-find over adjacent compatible tiles.

    Two segments join when their tiles are within one step in both grid
    indices, their directions differ (circularly) by at most angle_tol, and
    their closest endpoints are within gap_tol. Embeddings are ignored; the
    instance center is the mean member embedding for reporting only.
    """
    if angle_tol <= 0 or gap_tol <= 0:
        raise ValueError("angle_tol and gap_tol must be positive")
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
            if abs(wrap_signed(angles[i] - angles[j])) > angle_tol:
                continue
            gap = min(
                float(np.linalg.norm(si.endpoints[a, :2] - sj.endpoints[b, :2]))
                for a in range(2) for b in range(2))
            if gap > gap_tol:
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
        emb = np.stack([s.embedding for s in members])
        instances.append(LaneInstance(
            segments=members,
            center=emb.mean(axis=0),
            confidence=float(np.mean([s.score for s in members])),
        ))
    return instances
