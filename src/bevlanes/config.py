"""Pipeline configuration: one object tying every module's settings together.

Configs load from a JSON file where every section is optional (missing
sections take the library defaults) but unknown keys are rejected, so typos
fail loudly instead of silently running defaults. Invariant violations from
component constructors surface as ConfigError with the offending section.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .clustering import ClusterParams
from .codec import AngleBinSpec
from .evaluation import EvalConfig
from .geometry import CameraRig, GridSpec
from .io import section_from_dict, section_to_dict
from .losses import EmbeddingParams
from .synth import NoiseConfig, SceneConfig


class ConfigError(ValueError):
    """Invalid configuration (bad value, unknown key, inconsistent sections)."""


_SECTIONS = {
    "grid": GridSpec,
    "bins": AngleBinSpec,
    "rig": CameraRig,
    "embedding": EmbeddingParams,
    "cluster": ClusterParams,
    "scene": SceneConfig,
    "noise": NoiseConfig,
    "eval": EvalConfig,
}
_SCALARS = ("output_dir", "n_scenes", "master_seed")


@dataclass
class PipelineConfig:
    grid: GridSpec = field(default_factory=GridSpec)
    bins: AngleBinSpec = field(default_factory=AngleBinSpec)
    rig: CameraRig = field(default_factory=CameraRig)
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
        pad = self.eval.lane_width / 2.0
        if (x_lo > self.grid.x_min - pad or x_hi < self.grid.x_max + pad
                or y_lo > self.grid.y_min - pad or y_hi < self.grid.y_max + pad):
            raise ConfigError(
                "eval.extent must cover the grid padded by lane_width/2; "
                f"got {self.eval.extent} for grid x [{self.grid.x_min}, {self.grid.x_max}], "
                f"y [{self.grid.y_min}, {self.grid.y_max}]")

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
            defaults = section_to_dict(typ())
            extra = set(section) - set(defaults)
            if extra:
                raise ConfigError(f"unknown keys in section '{name}': {sorted(extra)}")
            merged = {**defaults, **section}
            try:
                kwargs[name] = section_from_dict(typ, merged)
            except (ValueError, TypeError, KeyError) as e:
                raise ConfigError(f"section '{name}': {e}")
        if "eval" not in kwargs:
            # Derive the raster window from the (possibly non-default) grid.
            grid = kwargs.get("grid", GridSpec())
            base = EvalConfig()
            pad = base.lane_width / 2.0
            kwargs["eval"] = replace(base, extent=(
                (grid.x_min - pad, grid.x_max + pad), (grid.y_min - pad, grid.y_max + pad)))
        if "output_dir" in d:
            kwargs["output_dir"] = str(d["output_dir"])
        for name in ("n_scenes", "master_seed"):
            if name in d:
                try:
                    kwargs[name] = int(d[name])
                except (TypeError, ValueError):
                    raise ConfigError(f"'{name}' must be an integer, got {d[name]!r}")
        try:
            return cls(**kwargs)
        except ValueError as e:
            raise ConfigError(str(e))
