"""Every bound a settings or array field declares, tested at its edge.

The cases are read from the field metadata that `check_settings` and the
`io` readers enforce, so a bound declared on a field is tested here without
a case of its own: the bound's edge value is accepted, the nearest value
beyond it is rejected with a message naming the field, and in a stage file's
`surface`, `grid` or `bins` section, or in the values of an array field, it
is a data error (exit 3) naming the file and the field.
"""

import json
import math
import shutil
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlanes import io
from bevlanes.cli import main
from bevlanes.clustering import ClusterParams
from bevlanes.codec import (SATURATION, AngleBinSpec, SegmentSet, TilePredictionGrid,
                            TileTargetGrid, array_fields)
from bevlanes.config import PipelineConfig
from bevlanes.evaluation import EvalConfig
from bevlanes.geometry import GridSpec, check_settings
from bevlanes.losses import EmbeddingParams
from bevlanes.pipeline import STAGES, _check_config, process_scene
from bevlanes.synth import NoiseConfig, SceneConfig, SurfaceParams

RECORDS = (GridSpec, AngleBinSpec, EmbeddingParams, ClusterParams, SceneConfig, NoiseConfig,
           SurfaceParams, EvalConfig)
BOUNDS = [(record, f.name, op, bound) for record in RECORDS for f in fields(record)
          for op, bound in f.metadata.items()]


def _id(case) -> str:
    record, name, op, bound = case
    return f"{record.__name__}.{name}{op}{bound}"


def _next(value, up: bool):
    """The nearest int or float above (up) or below the value."""
    if isinstance(value, int):
        return value + (1 if up else -1)
    return math.nextafter(value, math.inf if up else -math.inf)


def inside(op: str, bound):
    """The value nearest the bound that the bound accepts."""
    return {">": _next(bound, up=True), "<": _next(bound, up=False)}.get(op, bound)


def beyond(op: str, bound):
    """The value nearest the bound that the bound rejects."""
    return {">": bound, ">=": _next(bound, up=False), "<": bound,
            "<=": _next(bound, up=True)}[op]


def test_every_bounded_field_declares_its_bounds():
    # 28 fields; drop_rate, fp_rate, the three noise sigmas and the surface
    # amplitude bounded on both sides
    assert len(BOUNDS) == 34
    assert len({(record, name) for record, name, _, _ in BOUNDS}) == 28


@pytest.mark.parametrize("record, name, op, bound", BOUNDS, ids=map(_id, BOUNDS))
def test_a_bound_accepts_its_edge(record, name, op, bound):
    value = inside(op, bound)
    if (record, name) == (EvalConfig, "lane_width"):
        # raster_resolution <= lane_width / 4 holds for no positive raster
        # resolution at the smallest positive lane width (its quarter rounds
        # to 0), so this bound is checked on its own
        cfg = EvalConfig()
        object.__setattr__(cfg, name, value)
        check_settings(cfg)
    else:
        assert getattr(record(**{name: value}), name) == value


@pytest.mark.parametrize("record, name, op, bound", BOUNDS, ids=map(_id, BOUNDS))
def test_a_bound_rejects_the_nearest_value_beyond(record, name, op, bound):
    value = beyond(op, bound)
    with pytest.raises(ValueError) as exc:
        record(**{name: value})
    assert str(exc.value) == f"{name} must be {op} {bound}, got {value}"


# Each settings record a stage file carries: its section, and the files that
# carry it with the command that reads them.
_FILES = {
    "surface": (SurfaceParams, [("scenes/scene_00000.json", "encode")]),
    "grid": (GridSpec, [("targets/target_00000.json", "predict"),
                        ("preds/pred_00000.json", "decode")]),
    "bins": (AngleBinSpec, [("targets/target_00000.json", "predict"),
                            ("preds/pred_00000.json", "decode")]),
}
FILE_CASES = [(path, command, section, name, op, bound)
              for section, (record, files) in _FILES.items() for path, command in files
              for rec, name, op, bound in BOUNDS if rec is record]


@pytest.fixture(scope="module")
def predicted_tree(tmp_path_factory):
    """The output tree of generate, encode, predict and decode on one scene."""
    out = tmp_path_factory.mktemp("tree") / "out"
    cfg = out.parent / "config.json"
    cfg.write_text(json.dumps({"n_scenes": 1, "master_seed": 3, "output_dir": str(out)}))
    for command in ("generate", "encode", "predict", "decode"):
        assert main([command, "--config", str(cfg)]) == 0
    return out


@pytest.mark.parametrize("path, command, section, name, op, bound", FILE_CASES,
                         ids=[f"{p.split('/')[0]}-{s}.{n}{o}{b}"
                              for p, _, s, n, o, b in FILE_CASES])
def test_a_stage_file_value_beyond_a_bound_is_data_error(tmp_path, capsys, predicted_tree, path,
                                                          command, section, name, op, bound):
    out = tmp_path / "out"
    shutil.copytree(predicted_tree, out)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_scenes": 1, "master_seed": 3, "output_dir": str(out)}))
    d = json.loads((out / path).read_text())
    d[section][name] = beyond(op, bound)
    (out / path).write_text(json.dumps(d))
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and path.split("/")[1] in err
    assert f"field '{section}': {name} must be {op} {bound}" in err


# Each array record a stage file holds: the file and the command that reads it.
_ARRAY_FILES = {TileTargetGrid: ("targets/target_00000.json", "predict"),
                TilePredictionGrid: ("preds/pred_00000.json", "decode"),
                SegmentSet: ("segments/segments_00000.json", "cluster")}
ARRAY_BOUNDS = [(record, f.name, op, bound) for record in _ARRAY_FILES
                for f in array_fields(record) for op, bound in f.metadata["bounds"].items()]


def test_every_bounded_array_field_declares_its_bounds():
    # every array field but a segment's direction (a unit vector, a rule of
    # the segments reader) and its degenerate flag; two-sided but for
    # occupancy, bin_mask (each one set) and a target's lane_id (>= -1)
    assert len({(record, name) for record, name, _, _ in ARRAY_BOUNDS}) == 19
    assert len(ARRAY_BOUNDS) == 35


def _edge_values(op: str, bound) -> list:
    """(value, accepted) at a bound: the edge or the nearest value inside,
    and the nearest beyond; for a set, each member and the float above it."""
    if op == "one of":
        return [(v, True) for v in bound] + [(math.nextafter(v, math.inf), False) for v in bound]
    return [(inside(op, bound), True), (beyond(op, bound), False)]


def _place(d: dict, record, name: str, value) -> str:
    """Set one value of field `name` in a stage file's dict d, and return the
    field a fault names. A grid's value is the last of an occupied or kept
    tile (a target's lane_id: of a tile without a lane); a segment's is the
    last of a row whose tile (row, 0) is free, so that a point's is its z,
    which the eval extent does not bound, and a tile's its column."""
    if record is SegmentSet:
        tiles = {tuple(seg["tile"]) for seg in d["segments"]}
        k = next(k for k, seg in enumerate(d["segments"]) if (seg["tile"][0], 0) not in tiles)
        leaf, key = d["segments"][k], name
        while isinstance(leaf[key], list):
            leaf, key = leaf[key], -1
        leaf[key] = value
        return f"segments[{k}].{name}"
    per_tile = d["fields"]["score_logit" if "score_logit" in d["fields"] else "occupancy"]["data"]
    tile = per_tile.index(SATURATION if record is TilePredictionGrid else
                          0.0 if name == "lane_id" else 1.0)
    data = d["fields"][name]["data"]
    data[(tile + 1) * (len(data) // len(per_tile)) - 1] = value
    return f"fields.{name}.data"


@pytest.mark.parametrize("record, name, op, bound", ARRAY_BOUNDS,
                         ids=[f"{r.__name__}.{n}{o}{b}" for r, n, o, b in ARRAY_BOUNDS])
def test_an_array_bound_through_its_stage_file(tmp_path, capsys, predicted_tree, record, name,
                                               op, bound):
    out = tmp_path / "out"
    shutil.copytree(predicted_tree, out)
    path, command = _ARRAY_FILES[record]
    clean = (out / path).read_text()
    cfg = tmp_path / "config.json"
    config = {"n_scenes": 1, "master_seed": 3, "output_dir": str(out)}
    if (name, op) == ("tile", "<"):     # a grid that holds the column, so that only the bound binds
        config["grid"] = {"n_cols": bound, "tile_width": 5e-5}    # and lies within +-1e5 m
    cfg.write_text(json.dumps(config))
    for value, accepted in _edge_values(op, bound):
        d = json.loads(clean)
        field = _place(d, record, name, value)
        (out / path).write_text(json.dumps(d))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == (0 if accepted else 3), (value, accepted)
        if not accepted:
            err = capsys.readouterr().err
            assert "data error" in err and path.split("/")[1] in err
            assert f"field '{field}': {name}[" in err and f"must be {op} {bound}, got" in err


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sigma=st.floats(0.0, 1.0), rate=st.floats(0.0, 0.3))
def test_every_written_file_keeps_the_declared_bounds(seed, sigma, rate):
    # what generate, encode, predict, decode and cluster write reads back at
    # every stage, config rules included
    config = PipelineConfig.from_dict({"n_scenes": 1, "master_seed": seed, "noise": {
        "sigma_r": sigma, "sigma_phi": sigma, "sigma_z": sigma, "sigma_f": sigma,
        "drop_rate": rate, "fp_rate": rate}})
    r = process_scene(config, 0)
    for stage, artifact in zip(STAGES.values(), (r.scene, r.targets, r.preds, r.segments,
                                                  r.lanes)):
        d = json.loads(io.canonical_json(getattr(io, stage.writer)(artifact)))
        _check_config(config, "<file>", getattr(io, stage.reader)(d, "<file>"))
