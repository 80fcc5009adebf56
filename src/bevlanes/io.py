"""File formats: canonical JSON for scenes/grids/segments/lanes, CSV reports.

All JSON is written canonically (sorted keys, minimal separators, trailing
newline) so that write -> read -> write round trips are byte-identical and
outputs are diffable; non-finite numbers cannot be written. Readers validate
structure and finiteness and report the offending file and field in a
SchemaError rather than raising bare KeyErrors or ValueErrors. Config
sections round-trip through one field-driven codec (`section_to_dict`,
`section_from_dict`), and both tile grids through one grid writer and
reader driven by the array fields `codec` declares.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .clustering import Curve
from .codec import AngleBinSpec, LaneSegment, TilePredictionGrid, TileTargetGrid, array_fields
from .evaluation import EvalReport
from .geometry import CameraRig, GridSpec, Lane3D
from .synth import Scene, SurfaceParams


class SchemaError(Exception):
    """A file does not match its declared format."""

    def __init__(self, path: str, field: str, message: str):
        self.path = str(path)
        self.field = field
        super().__init__(f"{path}: field '{field}': {message}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def save_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SchemaError(path, "<file>", "file not found")
    except json.JSONDecodeError as e:
        raise SchemaError(path, "<file>", f"invalid JSON: {e}")


def _require(d: dict, key: str, path: str):
    if not isinstance(d, dict) or key not in d:
        raise SchemaError(path, key, "missing required field")
    return d[key]


def _build(cls, d: dict, path: str, field: str):
    try:
        return section_from_dict(cls, d)
    except (KeyError, TypeError, ValueError) as e:
        key = e.args[0] if isinstance(e, KeyError) else str(e)
        raise SchemaError(path, f"{field}.{key}" if isinstance(e, KeyError) else field, str(e))


def _finite_array(value, path: str, field: str, dtype=float) -> np.ndarray:
    """The value as an array, or a SchemaError naming the field when it is
    malformed or holds a non-finite number."""
    try:
        arr = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as e:
        raise SchemaError(path, field, str(e))
    if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):
        raise SchemaError(path, field, "non-finite value")
    return arr


# ---------------------------------------------------------------------------
# Config sections: frozen dataclasses whose every field has a default


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def section_to_dict(section) -> dict:
    """Fields by name; tuples, nested too, become lists."""
    return {f.name: _plain(getattr(section, f.name)) for f in fields(section)}


def _coerce(default, value, name: str):
    """The value converted to the type of the field's default: ints, floats,
    tuples (elementwise, like the default's first element) and dicts (values
    like the default's first value). A float that is not finite raises
    ValueError naming the field."""
    if isinstance(default, tuple):
        return tuple(_coerce(default[0], v, name) for v in value)
    if isinstance(default, dict):
        template = next(iter(default.values()))
        return {k: _coerce(template, v, name) for k, v in value.items()}
    if isinstance(default, float):
        out = float(value)
        if not math.isfinite(out):
            raise ValueError(f"{name} must be finite, got {out}")
        return out
    if isinstance(default, int):
        return type(default)(value)
    return value


def section_from_dict(cls, d: dict):
    """Build a section from a dict holding every field; other keys are
    ignored. A missing field raises KeyError with its name."""
    defaults = cls()
    return cls(**{f.name: _coerce(getattr(defaults, f.name), d[f.name], f.name)
                  for f in fields(cls)})


# ---------------------------------------------------------------------------
# Scenes


def scene_to_dict(scene: Scene) -> dict:
    return {
        "kind": "scene",
        "lanes": [{"lane_id": lane.lane_id, "points": lane.points.tolist()}
                  for lane in scene.lanes],
        "surface": section_to_dict(scene.surface),
        "rig": section_to_dict(scene.rig),
    }


def scene_from_dict(d: dict, path: str = "<scene>") -> Scene:
    if d.get("kind") != "scene":
        raise SchemaError(path, "kind", f"expected 'scene', got {d.get('kind')!r}")
    lanes = []
    for k, entry in enumerate(_require(d, "lanes", path)):
        field = f"lanes[{k}].points"
        pts = _finite_array(_require(entry, "points", path), path, field)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise SchemaError(path, field, f"expected (N>=2, 3), got {pts.shape}")
        try:
            lanes.append(Lane3D(points=pts, lane_id=int(_require(entry, "lane_id", path))))
        except (TypeError, ValueError) as e:
            raise SchemaError(path, f"lanes[{k}]", str(e))
    surface = _build(SurfaceParams, _require(d, "surface", path), path, "surface")
    rig = _build(CameraRig, _require(d, "rig", path), path, "rig")
    return Scene(lanes=lanes, surface=surface, rig=rig)


# ---------------------------------------------------------------------------
# Grids: JSON header (grid, bins) + one {dtype, shape, row-major data} entry per
# array field that codec declares


def _grid_to_dict(kind: str, g) -> dict:
    arrays = {f.name: getattr(g, f.name) for f in array_fields(g)}
    return {"kind": kind, "grid": section_to_dict(g.grid), "bins": section_to_dict(g.bins),
            "fields": {name: {"dtype": arr.dtype.str.lstrip("<>=|"), "shape": list(arr.shape),
                              "data": arr.reshape(-1).tolist()}
                       for name, arr in arrays.items()}}


def _unpack_field(fields: dict, name: str, path: str) -> np.ndarray:
    entry = _require(fields, name, path)
    shape = tuple(_require(entry, "shape", path))
    data = _require(entry, "data", path)
    try:
        dtype = np.dtype(_require(entry, "dtype", path))
    except TypeError as e:
        raise SchemaError(path, f"fields.{name}.dtype", str(e))
    arr = _finite_array(data, path, f"fields.{name}.data", dtype)
    if arr.size != int(np.prod(shape)):
        raise SchemaError(path, f"fields.{name}.data",
                          f"payload length {arr.size} does not match shape {shape}")
    return arr.reshape(shape)


def _grid_from_dict(cls, kind: str, d: dict, path: str) -> dict:
    """The constructor arguments of a tile grid, read from its dict."""
    if d.get("kind") != kind:
        raise SchemaError(path, "kind", f"expected {kind!r}, got {d.get('kind')!r}")
    grid = _build(GridSpec, _require(d, "grid", path), path, "grid")
    bins = _build(AngleBinSpec, _require(d, "bins", path), path, "bins")
    fields = _require(d, "fields", path)
    return {"grid": grid, "bins": bins,
            **{f.name: _unpack_field(fields, f.name, path) for f in array_fields(cls)}}


def _make_grid(cls, args: dict, path: str):
    try:
        return cls(**args)
    except ValueError as e:
        raise SchemaError(path, "fields", str(e))


def targets_to_dict(targets: TileTargetGrid) -> dict:
    return _grid_to_dict("target_grid", targets)


def targets_from_dict(d: dict, path: str = "<targets>") -> TileTargetGrid:
    args = _grid_from_dict(TileTargetGrid, "target_grid", d, path)
    occ = args["occupancy"]
    if not np.all((occ == 0.0) | (occ == 1.0)):
        raise SchemaError(path, "fields.occupancy.data", "occupancy must be 0 or 1")
    return _make_grid(TileTargetGrid, args, path)


def preds_to_dict(preds: TilePredictionGrid) -> dict:
    return {**_grid_to_dict("prediction_grid", preds), "embedding_dim": preds.embedding_dim}


def preds_from_dict(d: dict, path: str = "<preds>") -> TilePredictionGrid:
    args = _grid_from_dict(TilePredictionGrid, "prediction_grid", d, path)
    dim = int(_require(d, "embedding_dim", path))
    if args["embedding"].shape[-1] != dim:
        raise SchemaError(path, "embedding_dim",
                          f"declared {dim}, payload has {args['embedding'].shape[-1]}")
    return _make_grid(TilePredictionGrid, args, path)


# ---------------------------------------------------------------------------
# Segments and clustered lanes


def segments_to_dict(segments: list[LaneSegment]) -> dict:
    return {"kind": "segments", "segments": [{
        "midpoint": s.midpoint.tolist(),
        "direction": s.direction.tolist(),
        "endpoints": s.endpoints.tolist(),
        "score": s.score,
        "tile": list(s.tile),
        "embedding": s.embedding.tolist(),
        "degenerate": s.degenerate,
    } for s in segments]}


def segments_from_dict(d: dict, path: str = "<segments>") -> list[LaneSegment]:
    if d.get("kind") != "segments":
        raise SchemaError(path, "kind", f"expected 'segments', got {d.get('kind')!r}")
    out = []
    for k, entry in enumerate(_require(d, "segments", path)):
        try:
            seg = LaneSegment(
                midpoint=np.asarray(entry["midpoint"], dtype=float),
                direction=np.asarray(entry["direction"], dtype=float),
                endpoints=np.asarray(entry["endpoints"], dtype=float),
                score=float(entry["score"]),
                tile=tuple(int(v) for v in entry["tile"]),
                embedding=np.asarray(entry["embedding"], dtype=float),
                degenerate=bool(entry["degenerate"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(path, f"segments[{k}]", str(e))
        if seg.midpoint.shape != (3,) or seg.endpoints.shape != (2, 3):
            raise SchemaError(path, f"segments[{k}]", "midpoint must be (3,), endpoints (2, 3)")
        if not all(np.all(np.isfinite(v)) for v in (
                seg.midpoint, seg.direction, seg.endpoints, seg.score, seg.embedding)):
            raise SchemaError(path, f"segments[{k}]", "non-finite value")
        out.append(seg)
    return out


def lanes_to_dict(lanes: list) -> dict:
    """Serialize clustered lanes given as (Curve, confidence) pairs."""
    return {"kind": "lanes", "lanes": [{
        "points": curve.points.tolist(),
        "confidence": float(conf),
    } for curve, conf in lanes]}


def lanes_from_dict(d: dict, path: str = "<lanes>") -> list:
    if d.get("kind") != "lanes":
        raise SchemaError(path, "kind", f"expected 'lanes', got {d.get('kind')!r}")
    out = []
    for k, entry in enumerate(_require(d, "lanes", path)):
        pts = _finite_array(_require(entry, "points", path), path, f"lanes[{k}].points")
        try:
            conf = float(_require(entry, "confidence", path))
        except (TypeError, ValueError) as e:
            raise SchemaError(path, f"lanes[{k}].confidence", str(e))
        if not 0.0 <= conf <= 1.0:
            raise SchemaError(path, f"lanes[{k}].confidence", f"{conf} outside [0, 1]")
        try:
            curve = Curve(points=pts)
        except ValueError as e:
            raise SchemaError(path, f"lanes[{k}].points", str(e))
        out.append((curve, conf))
    return out


# ---------------------------------------------------------------------------
# Reports


def report_to_csv(report: EvalReport) -> str:
    """Fixed-column CSV: one row per threshold, then summary rows."""
    lines = ["metric,key,value"]
    for t in sorted(report.ap_per_threshold):
        lines.append(f"ap,{t:g},{report.ap_per_threshold[t]!r}")
    lines.append(f"map,,{report.map_score!r}")
    lines.append(f"recall_at_iou,{report.operating_iou:g},{report.recall_at_reference!r}")
    for (lo, hi) in sorted(report.lateral_error):
        lines.append(f"lateral_error,{lo:g}-{hi:g},{report.lateral_error[(lo, hi)]!r}")
    if report.mean_abs_dz is not None:
        lines.append(f"mean_abs_dz,,{report.mean_abs_dz!r}")
    for key in ("n_gt", "n_pred", "n_matched"):
        lines.append(f"count,{key},{report.counts[key]}")
    if report.recall75_confidence is not None:
        lines.append(f"recall75_confidence,,{report.recall75_confidence!r}")
        for (lo, hi) in sorted(report.lateral_error_at_recall75 or {}):
            lines.append(
                f"lateral_error_at_recall75,{lo:g}-{hi:g},"
                f"{report.lateral_error_at_recall75[(lo, hi)]!r}")
    return "\n".join(lines) + "\n"
