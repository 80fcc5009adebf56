"""Pipeline configuration: one object tying every module's settings together.

It is read and written by `io`'s section codec, as a file's grid is: every
section and field is optional (missing ones take the library defaults) but
unknown keys are rejected, so typos fail loudly instead of silently running
defaults. Invariant violations surface as ConfigError naming the section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .clustering import ClusterParams
from .codec import AngleBinSpec
from .evaluation import EvalConfig
from .geometry import GridSpec, check_settings
from .io import _coerce, section_from_dict, section_to_dict
from .losses import EmbeddingParams
from .synth import NoiseConfig, SceneConfig, check_surface_wavelength


class ConfigError(ValueError):
    """Invalid configuration (bad value, unknown key, inconsistent sections)."""


def _reach(grid: GridSpec, lane_width: float) -> float:
    """How far beyond the grid eval.extent must reach: half a lane's width, or
    (hypot(a, b) - min(a, b)) / 2 for tiles of half-sizes a and b, the most a
    decoded midpoint (the tile centre's foot on its line) can leave its tile."""
    a, b = grid.tile_width / 2.0, grid.tile_length / 2.0
    return max(lane_width / 2.0, (math.hypot(a, b) - min(a, b)) / 2.0)


@dataclass
class PipelineConfig:
    grid: GridSpec = field(default_factory=GridSpec)
    bins: AngleBinSpec = field(default_factory=AngleBinSpec)
    embedding: EmbeddingParams = field(default_factory=EmbeddingParams)
    cluster: ClusterParams = field(default_factory=ClusterParams)
    scene: SceneConfig = field(default_factory=SceneConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    output_dir: str = "bevlanes_out"
    n_scenes: int = field(default=10, metadata={">=": 1})
    master_seed: int = field(default=0, metadata={">=": 0, "<": 2 ** 64})

    def __post_init__(self):
        check_settings(self, ConfigError)
        (x_lo, x_hi), (y_lo, y_hi) = self.eval.extent
        pad = _reach(self.grid, self.eval.lane_width)
        if (x_lo > self.grid.x_min - pad or x_hi < self.grid.x_max + pad
                or y_lo > self.grid.y_min - pad or y_hi < self.grid.y_max + pad):
            raise ConfigError(
                f"eval.extent must cover the grid padded by {pad} (lane_width/2, or the reach of "
                f"a decoded midpoint beyond its tile); got {self.eval.extent} for grid "
                f"x [{self.grid.x_min}, {self.grid.x_max}], y [{self.grid.y_min}, {self.grid.y_max}]")
        check_surface_wavelength(self.scene, self.grid)
        # a split, merge or perpendicular scene adds one lane; the oracle
        # places one embedding anchor per lane, which needs dim >= lanes - 1
        lanes = self.scene.n_lanes + any(self.scene.topology_weights.get(t, 0.0) > 0
                                         for t in ("split", "merge", "perpendicular"))
        if lanes > self.embedding.dim + 1:
            raise ConfigError(f"embedding.dim {self.embedding.dim} is too small for scenes of "
                              f"up to {lanes} lanes; need embedding.dim >= {lanes - 1}")

    def to_dict(self) -> dict:
        return section_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        try:
            section = d.get("eval", {})
            grid = _coerce(GridSpec(), d.get("grid", {}), "grid")
            base = _coerce(EvalConfig(), section, "eval")
            if "extent" not in section:
                # Derive the raster window from the (possibly non-default) grid.
                pad = _reach(grid, base.lane_width)
                d = {**d, "eval": {**section, "extent": (
                    (grid.x_min - pad, grid.x_max + pad), (grid.y_min - pad, grid.y_max + pad))}}
            return section_from_dict(cls, {**section_to_dict(cls()), **d})
        except (ValueError, TypeError, KeyError) as e:
            raise ConfigError(str(e))
