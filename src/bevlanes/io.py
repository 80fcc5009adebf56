"""File formats: canonical JSON for scenes/grids/segments/lanes, CSV reports.

All JSON is written canonically (sorted keys, minimal separators, trailing
newline), so write -> read -> write round trips are byte-identical and
outputs are diffable; non-finite numbers cannot be written. Readers check
every object of a stage file with `_object`: it holds exactly the keys its
writer writes, and a fault is a SchemaError naming the file and the field by
its full dotted path (`fields.occupancy.shape`, `lanes[2].points`). Config
sections, and a file's grid, bins and surface records, go through one
field-driven codec (`section_to_dict`, `section_from_dict`). No JSON boolean
or string reads as a number, nor a fraction as an int, and every value keeps
its declared bounds; `pipeline.Stage.read` adds the rules that need the config.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .codec import (COORDINATE, MAX_COORDINATE, PROBABILITY, AngleBinSpec,  # noqa: F401
                    SegmentSet, TilePredictionGrid, TileTargetGrid, array_fields)
from .evaluation import EvalReport
from .geometry import Curve, GridSpec, Lane3D, first_out_of_range
from .synth import Scene, SurfaceParams


class SchemaError(Exception):
    """A file does not match its declared format."""

    def __init__(self, path: str, field: str, message: str):
        self.path, self.field, self.message = str(path), field, message
        super().__init__(f"{path}: field '{field}': {message}")

    def __reduce__(self):     # so that one raised in a pool worker unpickles
        return type(self), (self.path, self.field, self.message)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _json(obj) -> str:
    """As `_ENCODER.encode(obj)`, but an array as a dict value is written as
    its flat list in C order, each run of bitwise-equal neighbours formatted
    once (so -0.0 and 0.0 are two runs)."""
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        return "{" + ",".join(_ENCODER.encode(k) + ":" + _json(obj[k]) for k in sorted(obj)) + "}"
    if not isinstance(obj, np.ndarray):
        return _ENCODER.encode(obj)
    flat = np.ascontiguousarray(obj).reshape(-1)
    if flat.dtype.kind not in "biuf":
        raise TypeError(f"Object of dtype {flat.dtype} is not JSON serializable")
    if not np.isfinite(flat).all():
        raise ValueError("Out of range float values are not JSON compliant")
    # runs start at 0 (unless empty) and where the bits change; the last ends at the size
    bits = flat.view(f"u{flat.itemsize}")
    ends = np.flatnonzero(np.concatenate(([flat.size > 0], bits[1:] != bits[:-1], [True])))
    fmt = ("false", "true").__getitem__ if flat.dtype.kind == "b" else repr
    runs = zip(flat[ends[:-1]].tolist(), np.diff(ends).tolist())
    return "[" + "".join([(fmt(v) + ",") * n for v, n in runs])[:-1] + "]"


def canonical_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)`
    and a newline, where obj may hold numpy arrays as dict values."""
    return _json(obj) + "\n"


def save_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SchemaError(path, "<file>", "file not found")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise SchemaError(path, "<file>", f"invalid JSON: {e}")


def _object(d, keys, path: str, at: str = "") -> list:
    """The values of `keys` in d, a JSON object holding exactly these keys. A
    fault names `at` + key, an unknown key before a missing one; d that is not
    an object names `at` without its trailing dot, or '<file>'."""
    if not isinstance(d, dict):
        raise SchemaError(path, at[:-1] or "<file>",
                          f"expected a JSON object, got {type(d).__name__}")
    if d.keys() != set(keys):
        unknown = sorted(set(d) - set(keys))
        if unknown:
            raise SchemaError(path, at + unknown[0], f"unknown key; expected only {sorted(keys)}")
        raise SchemaError(path, at + next(k for k in keys if k not in d), "missing required field")
    return [d[k] for k in keys]


def _file(d, kind: str, keys, path: str) -> list:
    """The values of `keys` in a stage file's object, after checking its kind."""
    if isinstance(d, dict) and d.get("kind") != kind:
        raise SchemaError(path, "kind", f"expected {kind!r}, got {d.get('kind')!r}")
    return _object(d, ("kind", *keys), path)[1:]


def _build(cls, d: dict, path: str, field: str):
    try:
        return section_from_dict(cls, d)
    except (KeyError, TypeError, ValueError) as e:
        key = e.args[0] if isinstance(e, KeyError) else str(e)
        raise SchemaError(path, f"{field}.{key}" if isinstance(e, KeyError) else field, str(e))


def _checked(path: str, field: str, fn, *args, **kw):
    """fn(*args, **kw); its TypeError, ValueError or OverflowError is a SchemaError on field."""
    try:
        return fn(*args, **kw)
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(path, field, str(e))


def _records(entries, key: str, path: str, parse: dict, bounds: dict) -> list:
    """The objects of the list `entries`, found under key, each as the list of
    its values read by `parse`, which maps every key an object holds to the
    parser of its value, and each keeping the bounds ({op: bound}) that
    `bounds` gives for its key. Any fault in entry k names `key[k].<name>`."""
    if not isinstance(entries, list):
        raise SchemaError(path, key, f"expected a list, got {type(entries).__name__}")
    rows = []
    for k, entry in enumerate(entries):
        values, row = _object(entry, parse, path, f"{key}[{k}]."), []
        try:
            for (name, fn), value in zip(parse.items(), values):
                row.append(fn(value))
                bad = first_out_of_range(row[-1], bounds.get(name, {}))
                if bad:
                    raise ValueError(bad[1])
        except (TypeError, ValueError, OverflowError) as e:
            raise SchemaError(path, f"{key}[{k}].{name}", str(e))
        rows.append(row)
    return rows


def _numbers(value, dtype=float) -> np.ndarray:
    """The value, a JSON number or a list of them nested at most once, as an
    array. TypeError or ValueError if it holds anything else (a bool too, read
    as 1 or 0 by `np.asarray`), a non-finite value or, for ints, a fraction."""
    nested = isinstance(value, list) and bool(value) and isinstance(value[0], list)
    items = itertools.chain.from_iterable(value) if nested else value
    types = set(map(type, items)) if isinstance(value, list) else {type(value)}
    if not types <= {int, float}:
        raise TypeError(f"expected JSON numbers, got "
                        f"{sorted(t.__name__ for t in types - {int, float})}")
    if float in types and np.dtype(dtype).kind == "i":   # each must be whole
        value = _coerce([[0]] if nested else [0], value, "value")
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):
        raise ValueError("non-finite value")
    return arr


def _has_shape(value, shape: tuple) -> bool:
    """Whether a value read by `_coerce`, a number or nested tuples of them, has shape."""
    return not shape or (len(value) == shape[0] and all(_has_shape(v, shape[1:]) for v in value))


def _in_range(obj, path: str, at):
    """obj, if each array field keeps the bounds it declares; else a
    SchemaError on at(name, index of the first bad element)."""
    for f in array_fields(obj):
        bad = first_out_of_range(getattr(obj, f.name), f.metadata["bounds"])
        if bad:
            raise SchemaError(path, at(f.name, bad[0]), f"{f.name}{list(bad[0])} {bad[1]}")
    return obj


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
    """The value converted to the type of the field's default: bools, ints,
    floats, tuples or lists (to a tuple, elementwise like the default's first
    element) and dicts (values like the default's first value). A value of the
    wrong JSON type, an int that is not whole or a float that is not finite
    raises ValueError naming the field."""
    if isinstance(default, (tuple, list)):
        return tuple(_coerce(default[0], v, name) for v in value)
    if isinstance(default, dict):
        template = next(iter(default.values()))
        return {k: _coerce(template, v, name) for k, v in value.items()}
    if isinstance(default, (int, float)) and (not isinstance(value, (int, float)) or
                                              isinstance(value, bool) != isinstance(default, bool)):
        raise ValueError(f"{name} must be of type {type(default).__name__}, got {value!r}")
    if isinstance(default, float):
        out = float(value)
        if not math.isfinite(out):
            raise ValueError(f"{name} must be finite, got {out}")
        return out
    if isinstance(default, int):
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{name} must be a whole number, got {value!r}")
        return type(default)(value)
    if isinstance(default, str) and not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def section_from_dict(cls, d: dict):
    """Build a section from a dict holding every field and no other key. A
    missing field raises KeyError with its name, another key ValueError."""
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    defaults = cls()
    return cls(**{f.name: _coerce(getattr(defaults, f.name), d[f.name], f.name)
                  for f in fields(cls)})


# ---------------------------------------------------------------------------
# Scenes

# The camera record every scene file carries, in canonical JSON; no stage reads it.
_RIG_JSON = ('{"focal":[1000.0,1000.0],"height":1.6,"image_size":[1280,720],"pitch":0.02,'
             '"principal_point":[640.0,360.0]}')


def scene_to_dict(scene: Scene) -> dict:
    lanes = [{"lane_id": lane.lane_id, "points": lane.points.tolist()} for lane in scene.lanes]
    return {"kind": "scene", "lanes": lanes, "surface": section_to_dict(scene.surface),
            "rig": json.loads(_RIG_JSON)}


def scene_from_dict(d: dict, path: str = "<scene>") -> Scene:
    entries, surface, rig = _file(d, "scene", ("lanes", "surface", "rig"), path)
    lanes = []
    for k, (pts, i) in enumerate(_records(entries, "lanes", path, {
            "points": _numbers, "lane_id": functools.partial(_coerce, 0, name="lane_id")},
            {"points": COORDINATE, "lane_id": {">=": 0, "<": 2 ** 63}})):   # a target's int64
        if i in {lane.lane_id for lane in lanes}:
            raise SchemaError(path, f"lanes[{k}].lane_id", f"{i} is not unique")
        lanes.append(_checked(path, f"lanes[{k}].points", Lane3D, points=pts, lane_id=i))
    surface = _build(SurfaceParams, surface, path, "surface")
    if json.dumps(rig, sort_keys=True, separators=(",", ":")) != _RIG_JSON:
        raise SchemaError(path, "rig", f"expected {_RIG_JSON}, got {rig!r}")
    return Scene(lanes=lanes, surface=surface)


# ---------------------------------------------------------------------------
# Grids: JSON header (grid, bins) + one {dtype, shape, row-major data} entry per
# array field that codec declares


def _grid_to_dict(kind: str, g) -> dict:
    arrays = {f.name: getattr(g, f.name) for f in array_fields(g)}
    return {"kind": kind, "grid": section_to_dict(g.grid), "bins": section_to_dict(g.bins),
            "fields": {name: {"dtype": arr.dtype.str.lstrip("<>=|"), "shape": list(arr.shape),
                              "data": arr.reshape(-1)}
                       for name, arr in arrays.items()}}


def _unpack_field(entry, f, path: str) -> np.ndarray:
    """One array field of a grid, of the dtype `codec` declares."""
    at, want = f"fields.{f.name}", np.dtype(f.metadata["dtype"]).str[1:]
    dtype, shape, data = _object(entry, ("dtype", "shape", "data"), path, at + ".")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise SchemaError(path, f"{at}.shape", f"expected a list of integers >= 0, got {shape!r}")
    if dtype != want:
        raise SchemaError(path, f"{at}.dtype", f"expected {want!r}, got {dtype!r}")
    arr = _checked(path, f"{at}.data", _numbers, data, want)
    if arr.size != math.prod(shape):
        raise SchemaError(path, f"{at}.data",
                          f"payload length {arr.size} does not match shape {tuple(shape)}")
    return arr.reshape(shape)


def _grid_from_dict(cls, kind: str, d: dict, path: str, keys=()):
    """A tile grid read from its dict, which may hold `keys` besides the grid's."""
    grid, bins, fields = _file(d, kind, ("grid", "bins", "fields", *keys), path)[:3]
    grid, bins = _build(GridSpec, grid, path, "grid"), _build(AngleBinSpec, bins, path, "bins")
    arrays = {f.name: _unpack_field(entry, f, path) for f, entry in zip(
        array_fields(cls), _object(fields, [f.name for f in array_fields(cls)], path, "fields."))}
    return _in_range(_checked(path, "fields", cls, grid=grid, bins=bins, **arrays), path,
                     lambda name, at: f"fields.{name}.data")


def targets_to_dict(targets: TileTargetGrid) -> dict:
    return _grid_to_dict("target_grid", targets)


def targets_from_dict(d: dict, path: str = "<targets>") -> TileTargetGrid:
    targets = _grid_from_dict(TileTargetGrid, "target_grid", d, path)
    if np.any(targets.lane_id[targets.occupancy == 1.0] < 0):
        raise SchemaError(path, "fields.lane_id.data", "an occupied tile has a negative lane id")
    return targets


def preds_to_dict(preds: TilePredictionGrid) -> dict:
    return {**_grid_to_dict("prediction_grid", preds), "embedding_dim": preds.embedding_dim}


def preds_from_dict(d: dict, path: str = "<preds>") -> TilePredictionGrid:
    preds = _grid_from_dict(TilePredictionGrid, "prediction_grid", d, path, ("embedding_dim",))
    dim = d["embedding_dim"]   # present: the reader checked the file's keys
    if isinstance(dim, bool) or dim != preds.embedding_dim:
        raise SchemaError(path, "embedding_dim",
                          f"declared {dim!r}, payload has {preds.embedding_dim}")
    return preds


# ---------------------------------------------------------------------------
# Segments and clustered lanes


def segments_to_dict(segments: SegmentSet) -> dict:
    """One object per segment, with a key per array field of `SegmentSet`."""
    columns = {f.name: getattr(segments, f.name).tolist() for f in array_fields(segments)}
    return {"kind": "segments",
            "segments": [dict(zip(columns, row)) for row in zip(*columns.values())]}


def _tile(value, seen: set) -> tuple:
    """Grid indices as int64 (the reader checks there are two), not among
    `seen`, the tiles read before it (decode writes one per tile), to which it is added."""
    tile = tuple(map(np.int64, _coerce((0,), value, "tile")))
    if tile in seen:
        raise ValueError(f"tile {list(map(int, tile))} holds an earlier segment")
    seen.add(tile)
    return tile


# Each value of a segment is read by `_coerce` against a zero of its field's
# dtype, nested once per axis after the segment axis; a tile by `_tile`.
_SEGMENT_PARSE = {f.name: functools.partial(
    _coerce, np.zeros([1] * (len(f.metadata["shape"]) - 1), f.metadata["dtype"]).tolist(),
    name=f.name) for f in array_fields(SegmentSet)}


def segments_from_dict(d: dict, path: str = "<segments>") -> SegmentSet:
    """A repeated tile ends the read at its row, so a file of copies of a
    scene's segments is rejected before the rest of it is parsed."""
    [entries] = _file(d, "segments", ("segments",), path)
    rows = _records(entries, "segments", path,
                    {**_SEGMENT_PARSE, "tile": functools.partial(_tile, seen=set())}, {})
    if not rows:
        return SegmentSet.empty()
    columns = dict(zip(_SEGMENT_PARSE, zip(*rows)))
    sizes = {"d": len(columns["embedding"][0])}    # every embedding has the first one's length
    for f in array_fields(SegmentSet):
        want = tuple(sizes.get(a, a) for a in f.metadata["shape"][1:])
        bad = [k for k, value in enumerate(columns[f.name]) if not _has_shape(value, want)]
        if bad:
            raise SchemaError(path, f"segments[{bad[0]}].{f.name}", f"expected shape {want}")
        columns[f.name] = np.array(columns[f.name], dtype=f.metadata["dtype"])
    segments = _in_range(_checked(path, "segments", SegmentSet, **columns), path,
                         lambda name, at: f"segments[{at[0]}].{name}")
    # decode writes (cos phi, sin phi); clustering and the greedy baseline take it as one
    bad = np.flatnonzero(np.abs(np.hypot(*segments.direction.T) - 1.0) > 1e-9)
    if len(bad):
        raise SchemaError(path, f"segments[{bad[0]}].direction", "not a unit vector")
    return segments


def lanes_to_dict(lanes: list) -> dict:
    """Serialize clustered lanes given as (Curve, confidence) pairs."""
    return {"kind": "lanes", "lanes": [{"points": curve.points.tolist(), "confidence": float(conf)}
                                       for curve, conf in lanes]}


def lanes_from_dict(d: dict, path: str = "<lanes>") -> list:
    """A lane's confidence is the mean score of its segments, so it keeps their bounds."""
    [entries] = _file(d, "lanes", ("lanes",), path)
    rows = _records(entries, "lanes", path, {
        "points": _numbers, "confidence": functools.partial(_coerce, 0.0, name="confidence")},
        {"points": COORDINATE, "confidence": PROBABILITY})
    return [(_checked(path, f"lanes[{k}].points", Curve, points=pts), conf)
            for k, (pts, conf) in enumerate(rows)]


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
