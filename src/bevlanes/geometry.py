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
import operator
from dataclasses import dataclass, field, fields

import numpy as np

# The coordinate bound (m) of every stage file: it keeps sums of squares and eval's work finite.
MAX_COORDINATE = 1e6


@dataclass(frozen=True)
class GridSpec:
    """Layout of the W x H tile grid on the projection plane.

    n_cols tiles laterally (x), n_rows tiles longitudinally (y). The default
    16 x 26 grid of 1.28 m x 3 m tiles covers 20.48 m x 78 m starting at y=0.
    """

    n_cols: int = field(default=16, metadata={">=": 1})
    n_rows: int = field(default=26, metadata={">=": 1})
    tile_width: float = field(default=1.28, metadata={">": 0.0})
    tile_length: float = field(default=3.0, metadata={">": 0.0})
    y_min: float = 0.0

    def __post_init__(self):
        check_settings(self)
        if not (math.isfinite(self.x_extent) and math.isfinite(self.y_max)):
            raise ValueError("grid extent must be finite")
        reach = MAX_COORDINATE / 10    # room for a tile's offsets plus 14 sigma of noise
        if max(self.x_max, -self.y_min, self.y_max) > reach:
            raise ValueError(f"grid extent must lie within [{-reach}, {reach}], got "
                             f"x [{self.x_min}, {self.x_max}], y [{self.y_min}, {self.y_max}]")

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


# The bounds a settings or array field may declare in its metadata, {op: bound}.
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
           "one of": np.isin}


def check_settings(record, error=ValueError) -> None:
    """Reject a settings record that holds a NaN or infinite float in any field,
    itself or nested in tuples, lists and dict values, or a value that breaks a
    bound its field declares (`metadata={">=": 0.0}`), raising `error` naming
    the field. Rules no single bound states stay in the record's __post_init__."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not _finite(value):
            raise error(f"{f.name} must be finite, got {value}")
        if "one of" in f.metadata and np.ndim(value):     # np.isin tests element by element
            raise error(f"{f.name} must be one of {f.metadata['one of']}, got {value!r}")
        bad = first_out_of_range(value, f.metadata)
        if bad:
            raise error(f"{f.name} {bad[1]}")


def first_out_of_range(value, bounds: dict):
    """None, or the index of the first element of value (an array or a number)
    that breaks a bound of `bounds` and the message `must be <op> <bound>, got <it>`.
    A sequence of bounds for an order holds one per index of value's last axis."""
    for op, bound in bounds.items():
        ok = _BOUNDS[op](value, bound)
        if not np.all(ok):
            at = tuple(map(int, np.unravel_index(np.argmin(ok), np.shape(ok))))
            bound = bound[at[-1]] if op != "one of" and np.ndim(bound) else bound
            return at, f"must be {op} {bound}, got {np.asarray(value).astype(object)[at]!r}"


def distinct(values) -> np.ndarray:
    """np.unique(values) for values without NaN: its sorted distinct elements,
    flattened, of its dtype; numpy's hash path would import numpy.ma."""
    a = np.sort(values, axis=None)
    return a[np.r_[a.size > 0, a[1:] != a[:-1]][:a.size]]


def _finite(value) -> bool:
    if isinstance(value, (tuple, list, dict)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    return not isinstance(value, (float, np.floating)) or math.isfinite(value)


@dataclass
class Curve:
    """An ordered 3D polyline in the plane frame: at least two finite
    vertices, none repeating the one before it."""

    points: np.ndarray            # (N, 3) float64

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] < 2 or self.points.shape[1] != 3:
            raise ValueError(f"polyline needs at least two 3D points, got shape "
                             f"{self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("polyline points must be finite")
        if np.any(repeated_vertices(self.points)):
            raise ValueError("polyline has consecutive duplicate vertices")


@dataclass
class Lane3D(Curve):
    """A ground-truth lane: a `Curve` with a lane identity and nonzero xy length."""

    lane_id: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not np.diff(self.points[:, :2], axis=0).any():      # every vertex at one xy
            raise ValueError("lane polyline has zero length")


def repeated_vertices(points: np.ndarray) -> np.ndarray:
    """(N - 1,) bool: vertex k + 1 of an (N, 3) polyline repeats vertex k, that
    is its xy step plus its |dz| is 0. A `Curve` rejects a repeat."""
    steps = np.linalg.norm(np.diff(points[:, :2], axis=0), axis=1)
    return steps + np.abs(np.diff(points[:, 2])) == 0.0


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


def tile_centers(grid: GridSpec) -> np.ndarray:
    """(H, W, 2) array of all tile centers."""
    xs = grid.x_min + (np.arange(grid.n_cols) + 0.5) * grid.tile_width
    ys = grid.y_min + (np.arange(grid.n_rows) + 0.5) * grid.tile_length
    out = np.empty((grid.n_rows, grid.n_cols, 2))
    out[:, :, 0] = xs[None, :]
    out[:, :, 1] = ys[:, None]
    return out
