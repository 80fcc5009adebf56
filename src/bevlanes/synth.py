"""Procedural 3D lane scenes and a noisy oracle predictor.

Scenes are built around an arc-spline center path (piecewise-constant
curvature with a clamped heading so the path stays inside the grid), offset
laterally to make lanes, resampled at 1 m, and lifted onto a smooth sinusoid
height field. Topologies: parallel lanes, Y-splits (two lanes sharing a stem
exactly), merges (the mirror case), short lanes starting mid-range, and a
straight perpendicular crossing.

The oracle predictor stands in for a trained network head: it converts a
target grid into a prediction grid, placing each lane's embeddings at anchor
vectors separated by at least the push margin (a scaled regular simplex),
then corrupts fields with configurable Gaussian noise, dropouts and false
positives. Everything is deterministic given the seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import (MAX_COORDINATE, SATURATION, TilePredictionGrid, TileTargetGrid,
                    angle_to_soft_labels, logit, saturated_arrays)
from .geometry import GridSpec, Lane3D, check_settings, distinct, resample_polyline
from .losses import EmbeddingParams

TOPOLOGIES = ("parallel", "split", "merge", "short", "perpendicular")

# Heading may wander at most this far from straight ahead (+y), so lateral
# drift over an 80 m path stays well inside the grid.
_MAX_HEADING = 0.08
_PATH_STEP = 0.25
_DIVERGE_LEN = 25.0
# Lanes shorter than this after clipping are dropped: they would occupy
# fewer tiles than the clustering size filter keeps.
_MIN_LANE_LEN = 8.0
# A normal draw beyond 14 has a chance below 1e-44, so noise of at most MAX_SIGMA on
# values held to a tenth of MAX_COORDINATE (the surface amplitude, the push margin
# of the embedding anchors) keeps the offsets, heights and embeddings in bounds.
MAX_SIGMA = MAX_COORDINATE / 100


@dataclass(frozen=True)
class SurfaceParams:
    """Separable sinusoid height field z = A sin(2pi y/ly + py) cos(2pi x/lx + px)."""

    amplitude: float = field(default=0.0, metadata={">=": 0.0})
    wavelength_x: float = field(default=40.0, metadata={">": 0.0})
    wavelength_y: float = field(default=40.0, metadata={">": 0.0})
    phase_x: float = 0.0
    phase_y: float = 0.0

    def __post_init__(self):
        check_settings(self)


def surface_height(x, y, surface: SurfaceParams):
    """Height of the road surface; smooth and bounded by the amplitude."""
    return (surface.amplitude
            * np.sin(2.0 * math.pi * np.asarray(y) / surface.wavelength_y + surface.phase_y)
            * np.cos(2.0 * math.pi * np.asarray(x) / surface.wavelength_x + surface.phase_x))


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for the procedural scene generator."""

    n_lanes: int = field(default=3, metadata={">=": 1})
    lane_spacing: float = field(default=3.7, metadata={">": 0.0})
    curvature_max: float = field(default=0.03, metadata={">=": 0.0})
    surface_amplitude: float = field(default=0.3, metadata={">=": 0.0, "<=": MAX_COORDINATE / 10})
    surface_wavelength: float = 40.0
    topology_weights: dict = field(default_factory=lambda: {
        "parallel": 0.6, "split": 0.1, "merge": 0.1, "short": 0.1, "perpendicular": 0.1})
    y_range: tuple[float, float] = (0.0, 78.0)
    short_y_range: tuple[float, float] = (20.0, 50.0)

    def __post_init__(self):
        check_settings(self)
        if set(self.topology_weights) - set(TOPOLOGIES):
            raise ValueError(f"unknown topology in {sorted(self.topology_weights)}")
        total = sum(self.topology_weights.values())
        if abs(total - 1.0) > 1e-9 or any(w < 0 for w in self.topology_weights.values()):
            raise ValueError("topology weights must be non-negative and sum to 1")
        for name in ("y_range", "short_y_range"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} must be a pair [lo, hi], got {list(getattr(self, name))}")
        if not self.y_range[0] < self.y_range[1]:
            raise ValueError(f"empty y_range {self.y_range}")
        if not self.short_y_range[0] <= self.short_y_range[1]:
            raise ValueError(f"empty short_y_range {self.short_y_range}")


@dataclass(frozen=True)
class NoiseConfig:
    """Corruption levels for the oracle predictor."""

    sigma_r: float = field(default=0.0, metadata={">=": 0.0, "<=": MAX_SIGMA})
    sigma_phi: float = field(default=0.0, metadata={">=": 0.0})
    sigma_z: float = field(default=0.0, metadata={">=": 0.0, "<=": MAX_SIGMA})
    drop_rate: float = field(default=0.0, metadata={">=": 0.0, "<=": 1.0})
    fp_rate: float = field(default=0.0, metadata={">=": 0.0, "<=": 1.0})
    sigma_f: float = field(default=0.0, metadata={">=": 0.0, "<=": MAX_SIGMA})

    def __post_init__(self):
        check_settings(self)


@dataclass
class Scene:
    """Ground truth: 3D lane polylines on a height field."""

    lanes: list[Lane3D]
    surface: SurfaceParams


# ---------------------------------------------------------------------------
# Scene generation


def check_surface_wavelength(cfg: SceneConfig, grid: GridSpec) -> None:
    """Reject a height field whose wavelength is not above twice the tile length."""
    if cfg.surface_wavelength <= 2.0 * grid.tile_length:
        raise ValueError(f"surface_wavelength {cfg.surface_wavelength} must exceed 2 * tile_length")


def generate_scene(cfg: SceneConfig, grid: GridSpec | None = None, seed: int = 0) -> Scene:
    """Generate one deterministic scene from the seed.

    The center path is an arc-spline (piecewise-constant random curvature,
    heading clamped toward +y). Lanes are lateral offsets of it at multiples
    of lane_spacing; one topology is drawn from the configured weights. All
    lanes are clipped to the grid extent, resampled at 1 m steps, and lifted
    onto the surface height field.
    """
    grid = grid or GridSpec()
    check_surface_wavelength(cfg, grid)
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2 ** 64 - 1), 0x5CE7E]))
    surface = SurfaceParams(
        amplitude=cfg.surface_amplitude,
        wavelength_x=2.0 * cfg.surface_wavelength,
        wavelength_y=cfg.surface_wavelength,
        phase_x=float(rng.uniform(0.0, 2.0 * math.pi)),
        phase_y=float(rng.uniform(0.0, 2.0 * math.pi)),
    )
    center, normal = _center_path(cfg, rng)
    names = list(TOPOLOGIES)
    weights = np.array([cfg.topology_weights.get(n, 0.0) for n in names])
    topology = names[int(rng.choice(len(names), p=weights / weights.sum()))]

    offsets = (np.arange(cfg.n_lanes) - (cfg.n_lanes - 1) / 2.0) * cfg.lane_spacing
    dense = [center + off * normal for off in offsets]

    if topology in ("split", "merge"):
        k = int(rng.integers(cfg.n_lanes))
        away, y_lo = (1.0, 25.0) if topology == "split" else (-1.0, 30.0)
        dense.append(_diverged(dense[k], normal, cfg.lane_spacing, float(rng.uniform(
            y_lo, y_lo + 20.0)), int(rng.choice([-1, 1])), away))
    elif topology == "short":
        k = int(rng.integers(cfg.n_lanes))
        y_start = float(rng.uniform(*cfg.short_y_range))
        keep = dense[k][:, 1] >= y_start
        if keep.sum() >= 2:
            dense[k] = dense[k][keep]
    elif topology == "perpendicular":
        y_cross = float(rng.uniform(30.0, 60.0))
        xs = np.arange(grid.x_min, grid.x_max + _PATH_STEP, _PATH_STEP)
        dense.append(np.column_stack([xs, np.full(len(xs), y_cross)]))

    lanes = []
    for xy in dense:
        clipped = _clip_to_grid(xy, grid)
        if clipped is None:
            continue
        pts = resample_polyline(clipped, 1.0)
        if _polyline_length(pts) < _MIN_LANE_LEN:
            continue
        z = surface_height(pts[:, 0], pts[:, 1], surface)
        lanes.append(Lane3D(points=np.column_stack([pts, z]), lane_id=len(lanes)))
    return Scene(lanes=lanes, surface=surface)


def _center_path(cfg: SceneConfig, rng):
    """Arc-spline path near the +y axis; returns (points, unit left normals)."""
    y0, y1 = cfg.y_range
    need = (y1 - y0) / math.cos(_MAX_HEADING) + 2.0
    x = float(rng.uniform(-1.0, 1.0))
    y = y0
    theta = math.pi / 2 + float(rng.uniform(-0.5, 0.5)) * _MAX_HEADING
    pts = [(x, y)]
    s = 0.0
    while s < need:
        kappa = float(rng.uniform(-1.0, 1.0)) * cfg.curvature_max
        piece = float(rng.uniform(10.0, 20.0))
        end = min(need, s + piece)
        while s < end:
            theta += kappa * _PATH_STEP
            if abs(theta - math.pi / 2) > _MAX_HEADING:
                theta = math.pi / 2 + math.copysign(_MAX_HEADING, theta - math.pi / 2)
                kappa = -kappa
            x += _PATH_STEP * math.cos(theta)
            y += _PATH_STEP * math.sin(theta)
            pts.append((x, y))
            s += _PATH_STEP
    path = np.asarray(pts)
    tangents = np.gradient(path, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    normals = np.column_stack([-tangents[:, 1], tangents[:, 0]])
    return path, normals


def _diverged(base: np.ndarray, normal: np.ndarray, spacing: float, y_event: float,
              sign: int, away: float) -> np.ndarray:
    """Copy of a dense lane that diverges laterally by one lane spacing.

    away=1.0 is a Y-split: vertices before y_event stay exactly shared with
    the base lane and the copy drifts apart beyond it. away=-1.0 is its
    mirror, a merge: the copy starts one spacing apart and joins at y_event.
    """
    t = np.clip(away * (base[:, 1] - y_event) / _DIVERGE_LEN, 0.0, 1.0)
    delta = spacing * (3.0 * t ** 2 - 2.0 * t ** 3)
    return base + (sign * delta)[:, None] * normal


def _clip_to_grid(xy: np.ndarray, grid: GridSpec):
    """Longest contiguous run of vertices inside the grid rectangle, or None if
    it holds fewer than two."""
    inside = ((xy[:, 0] >= grid.x_min) & (xy[:, 0] <= grid.x_max)
              & (xy[:, 1] >= grid.y_min) & (xy[:, 1] <= grid.y_max))
    runs = np.flatnonzero(np.diff(np.r_[False, inside, False])).reshape(-1, 2)  # [start, stop)
    length = runs[:, 1] - runs[:, 0]
    if not len(runs) or length.max() < 2:
        return None
    start, stop = runs[np.argmax(length)]     # the first of equally long runs
    return xy[start:stop]


def _polyline_length(pts: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


# ---------------------------------------------------------------------------
# Oracle predictor


def simplex_anchors(n: int, dim: int, separation: float) -> np.ndarray:
    """n anchor vectors in R^dim with min pairwise distance >= separation.

    Vertices of a regular simplex (Helmert coordinates of the standard basis),
    scaled with a hair of slack so the distance bound survives rounding.
    Requires n <= dim + 1.
    """
    if n > dim + 1:
        raise ValueError(
            f"cannot place {n} anchors at mutual distance {separation} in "
            f"{dim} dimensions; need embedding dimension >= {n - 1}")
    out = np.zeros((n, dim))
    if n <= 1:
        return out
    helmert = np.zeros((n - 1, n))
    for k in range(1, n):
        helmert[k - 1, :k] = 1.0
        helmert[k - 1, k] = -k
        helmert[k - 1] /= math.sqrt(k * (k + 1))
    scale = separation / math.sqrt(2.0) * (1.0 + 1e-9)
    out[:, : n - 1] = scale * helmert.T
    return out


def oracle_predict(targets: TileTargetGrid, noise: NoiseConfig, params: EmbeddingParams,
                   seed: int = 0) -> TilePredictionGrid:
    """Produce a prediction grid from targets plus configured corruption,
    drawn from the seed.

    Occupied tiles get saturated scores (dropped to the floor with
    drop_rate), Gaussian-perturbed offsets/angle/height, and their lane's
    anchor embedding plus Gaussian noise. The perturbed angle is re-encoded
    through the soft-label transform. Empty tiles activate with fp_rate,
    carrying uniform-random parameters and a random anchor. Raises if the
    embedding dimension cannot hold one anchor per lane.
    """
    grid, bins = targets.grid, targets.bins
    h, w = grid.n_rows, grid.n_cols
    lane_ids = distinct(targets.lane_id[targets.lane_id >= 0])
    anchors = simplex_anchors(len(lane_ids), params.dim, params.push_margin)
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

    occ = targets.occupancy > 0.5
    fp &= ~occ
    lit = occ | fp
    if np.any(targets.lane_id[occ] < 0):
        raise ValueError("an occupied target tile has no lane id")
    # Occupied tiles get noise and re-encode their perturbed angle; false
    # positives get random values; every other tile keeps the saturated copy.
    out = saturated_arrays(targets, params.dim)
    out["score_logit"][occ & drop] = -SATURATION
    out["score_logit"][fp] = logit(fp_score[fp])
    out["lateral_offset"][occ] += noise_r[occ]
    out["lateral_offset"][fp] = fp_r[fp]
    out["height_offset"][occ] += noise_z[occ]
    out["height_offset"][fp] = fp_z[fp]
    p, res, _ = angle_to_soft_labels(np.where(occ, targets.angle + noise_phi, fp_phi)[lit], bins)
    out["bin_logits"][lit] = logit(p)
    out["bin_residuals"][lit] = res
    out["embedding"][occ] = anchors[np.searchsorted(lane_ids, targets.lane_id[occ])] + noise_f[occ]
    out["embedding"][fp] = fp_anchors[fp_pick[fp]] + noise_f[fp]
    return TilePredictionGrid(grid=grid, bins=bins, **out)
