"""Pipeline configuration: one object tying every module's settings together.

Configs load from a JSON file where every section is optional (missing
sections take the library defaults) but unknown keys are rejected, so typos
fail loudly instead of silently running defaults. Invariant violations from
component constructors surface as ConfigError with the offending section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .clustering import ClusterParams
from .codec import AngleBinSpec
from .evaluation import EvalConfig
from .geometry import GridSpec
from .io import _coerce, section_from_dict, section_to_dict
from .losses import EmbeddingParams
from .synth import NoiseConfig, SceneConfig, check_surface_wavelength


class ConfigError(ValueError):
    """Invalid configuration (bad value, unknown key, inconsistent sections)."""


_SECTIONS = {
    "grid": GridSpec,
    "bins": AngleBinSpec,
    "embedding": EmbeddingParams,
    "cluster": ClusterParams,
    "scene": SceneConfig,
    "noise": NoiseConfig,
    "eval": EvalConfig,
}
_SCALARS = ("output_dir", "n_scenes", "master_seed")


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
    n_scenes: int = 10
    master_seed: int = 0

    def __post_init__(self):
        if self.n_scenes < 1:
            raise ConfigError(f"n_scenes must be >= 1, got {self.n_scenes}")
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
        out = {name: section_to_dict(getattr(self, name)) for name in _SECTIONS}
        out.update(output_dir=self.output_dir, n_scenes=self.n_scenes,
                   master_seed=self.master_seed)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(_SECTIONS) - set(_SCALARS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for name, typ in _SECTIONS.items():
            if name not in d:
                continue
            section = d[name]
            if not isinstance(section, dict):
                raise ConfigError(f"section '{name}' must be an object")
            try:
                kwargs[name] = section_from_dict(typ, {**section_to_dict(typ()), **section})
            except (ValueError, TypeError, KeyError) as e:
                raise ConfigError(f"section '{name}': {e}")
        if "extent" not in d.get("eval", {}):
            # Derive the raster window from the (possibly non-default) grid.
            grid, base = kwargs.get("grid", GridSpec()), kwargs.get("eval", EvalConfig())
            pad = _reach(grid, base.lane_width)
            kwargs["eval"] = replace(base, extent=(
                (grid.x_min - pad, grid.x_max + pad), (grid.y_min - pad, grid.y_max + pad)))
        try:
            kwargs.update((name, _coerce(getattr(cls, name), d[name], name))
                          for name in _SCALARS if name in d)
            return cls(**kwargs)
        except ValueError as e:
            raise ConfigError(str(e))
