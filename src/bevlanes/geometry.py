"""Coordinate frames and the BEV tile grid.

Plane frame (where all lane geometry lives):
  - origin on the road projection plane directly below the camera center
  - x right (meters), y forward (meters), z up (meters)

The tile grid is laid out on the projection plane, laterally centered on
the camera: x in [-W*tile_width/2, +W*tile_width/2], y in
[y_min, y_min + H*tile_length]. Row index i runs along y (forward), column
index j along x (right).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CameraRig:
    """Camera mounting and intrinsics, carried on every scene as a config record.

    pitch: mounting pitch in radians, positive = camera tilted downward.
    height: camera center height above the projection plane, meters.
    focal: (fx, fy) in pixels.
    principal_point: (cx, cy) in pixels.
    image_size: (width, height) in pixels.
    """

    pitch: float = 0.02
    height: float = 1.6
    focal: tuple[float, float] = (1000.0, 1000.0)
    principal_point: tuple[float, float] = (640.0, 360.0)
    image_size: tuple[int, int] = (1280, 720)

    def __post_init__(self):
        if not (self.height > 0):
            raise ValueError(f"camera height must be > 0, got {self.height}")
        if not (-math.pi / 2 < self.pitch < math.pi / 2):
            raise ValueError(f"pitch must be in (-pi/2, pi/2), got {self.pitch}")
        if not (self.focal[0] > 0 and self.focal[1] > 0):
            raise ValueError(f"focal components must be > 0, got {self.focal}")


@dataclass(frozen=True)
class GridSpec:
    """Layout of the W x H tile grid on the projection plane.

    n_cols tiles laterally (x), n_rows tiles longitudinally (y). The default
    16 x 26 grid of 1.28 m x 3 m tiles covers 20.48 m x 78 m starting at y=0.
    """

    n_cols: int = 16
    n_rows: int = 26
    tile_width: float = 1.28
    tile_length: float = 3.0
    y_min: float = 0.0

    def __post_init__(self):
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError("grid must have at least one tile per axis")
        if self.tile_width <= 0 or self.tile_length <= 0:
            raise ValueError("tile dimensions must be positive")

    @property
    def x_extent(self) -> float:
        return self.n_cols * self.tile_width

    @property
    def y_extent(self) -> float:
        return self.n_rows * self.tile_length

    @property
    def x_min(self) -> float:
        return -self.x_extent / 2.0

    @property
    def x_max(self) -> float:
        return self.x_extent / 2.0

    @property
    def y_max(self) -> float:
        return self.y_min + self.y_extent


@dataclass
class Lane3D:
    """Ordered 3D polyline in the plane frame with a lane identity."""

    points: np.ndarray  # (N, 3) float64
    lane_id: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"lane points must be (N, 3), got {self.points.shape}")
        if self.points.shape[0] < 2:
            raise ValueError("lane polyline needs at least 2 vertices")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("lane points must be finite")
        seg = np.diff(self.points[:, :2], axis=0)
        if float(np.sum(np.hypot(seg[:, 0], seg[:, 1]))) <= 0.0:
            raise ValueError("lane polyline has zero length")


def resample_polyline(points: np.ndarray, step: float) -> np.ndarray:
    """Resample an (N, k>=2) polyline at fixed xy arc-length steps, keeping the
    endpoint; every column is interpolated along the xy arc length. A
    polyline with zero xy length gives no points."""
    seg = np.linalg.norm(np.diff(points[:, :2], axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(0.0, s[-1], step)
    if len(targets) and s[-1] - targets[-1] > 1e-9:
        targets = np.append(targets, s[-1])
    return np.column_stack([np.interp(targets, s, col) for col in points.T])


def tile_center(row: int, col: int, grid: GridSpec) -> np.ndarray:
    """Plane-frame (x, y) center of tile (row, col)."""
    if not (0 <= row < grid.n_rows):
        raise IndexError(f"row {row} outside [0, {grid.n_rows})")
    if not (0 <= col < grid.n_cols):
        raise IndexError(f"col {col} outside [0, {grid.n_cols})")
    x = grid.x_min + (col + 0.5) * grid.tile_width
    y = grid.y_min + (row + 0.5) * grid.tile_length
    return np.array([x, y])


def tile_centers(grid: GridSpec) -> np.ndarray:
    """(H, W, 2) array of all tile centers."""
    xs = grid.x_min + (np.arange(grid.n_cols) + 0.5) * grid.tile_width
    ys = grid.y_min + (np.arange(grid.n_rows) + 0.5) * grid.tile_length
    out = np.empty((grid.n_rows, grid.n_cols, 2))
    out[:, :, 0] = xs[None, :]
    out[:, :, 1] = ys[:, None]
    return out


def tile_bounds(row: int, col: int, grid: GridSpec) -> tuple[float, float, float, float]:
    """(x_lo, x_hi, y_lo, y_hi) of tile (row, col)."""
    if not (0 <= row < grid.n_rows):
        raise IndexError(f"row {row} outside [0, {grid.n_rows})")
    if not (0 <= col < grid.n_cols):
        raise IndexError(f"col {col} outside [0, {grid.n_cols})")
    x_lo = grid.x_min + col * grid.tile_width
    y_lo = grid.y_min + row * grid.tile_length
    return (x_lo, x_lo + grid.tile_width, y_lo, y_lo + grid.tile_length)
