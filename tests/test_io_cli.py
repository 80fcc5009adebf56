"""Tests for file formats, pipeline configuration and the command-line tool."""

import csv
import io as std_io
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_settings_bounds import inside

import bevlanes
from bevlanes import io, pipeline
from bevlanes.cli import main
from bevlanes.clustering import ClusterParams
from bevlanes.codec import (AngleBinSpec, SegmentSet, TilePredictionGrid, TileTargetGrid,
                            angle_to_soft_labels, array_fields, decode_grid, encode_scene)
from bevlanes.config import ConfigError, PipelineConfig, _reach
from bevlanes.evaluation import DEFAULT_EXTENT, EvalConfig, evaluate, score_scene
from bevlanes.geometry import Curve, GridSpec, first_out_of_range
from bevlanes.losses import EmbeddingParams
from bevlanes.pipeline import cmd_pipeline, evaluate_results, process_scene, run_pipeline
from bevlanes.synth import NoiseConfig, SceneConfig, generate_scene, oracle_predict

GRID = GridSpec()
BINS = AngleBinSpec()


def small_scene(seed=42):
    cfg = SceneConfig(topology_weights={
        "parallel": 1.0, "split": 0.0, "merge": 0.0, "short": 0.0, "perpendicular": 0.0})
    return generate_scene(cfg, seed=seed)


def tiny_config_dict(tmp_path, **overrides):
    d = {
        "n_scenes": 2,
        "master_seed": 11,
        "output_dir": str(tmp_path / "out"),
        "scene": {"n_lanes": 2, "curvature_max": 0.01,
                  "topology_weights": {"parallel": 1.0, "split": 0.0, "merge": 0.0,
                                       "short": 0.0, "perpendicular": 0.0}},
    }
    d.update(overrides)
    return d


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict(tmp_path, **overrides)))
    return str(path)


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_sorted_minimal_newline():
    text = io.canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}\n'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_rejects_non_finite(value):
    with pytest.raises(ValueError):
        io.canonical_json({"a": [1.0, value]})


# Floats the array writer must keep apart (both zeros) or format as `repr`
# does where it changes form: subnormals, 1e16, 1e-05, 0.1 and the largest.
_FLOAT_EDGES = (0.0, -0.0, 1.0, -1.0, 0.1, 1e16, 9999999999999998.0, 1e-05, 0.0001, 5e-324,
                -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, -50.0)
_FLOATS = st.sampled_from(_FLOAT_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
_ELEMENTS = {"f8": _FLOATS, "i8": st.integers(-2 ** 63, 2 ** 63 - 1), "b": st.booleans()}
_ALWAYS = {"f8": [0.0, -0.0], "i8": [0, -1], "b": [False, True]}


@st.composite
def _run_arrays(draw, kinds=tuple(_ELEMENTS)):
    """An array of any shape, empty ones too, cut into up to 12 runs of equal
    values that cycle through a few (0.0 then -0.0 first for floats), so
    runs are 1 to 700 long; sometimes transposed (so not C-contiguous)."""
    kind = draw(st.sampled_from(kinds))
    values = np.array(_ALWAYS[kind] + draw(st.lists(_ELEMENTS[kind], max_size=3)), dtype=kind)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9)
                 | hnp.array_shapes(min_dims=2, max_dims=3, min_side=2, max_side=9)
                 | st.tuples(st.integers(0, 700)))
    size = math.prod(shape)
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=12))) if size > 1 else []
    lengths = np.diff([0, *cuts, size])
    picks = (np.arange(len(lengths)) + draw(st.integers(0, 4))) % len(values)
    arr = np.repeat(values[picks], lengths).reshape(shape)
    return arr.T if draw(st.booleans()) else arr


_LEAVES = (st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=4)
           | st.lists(_FLOATS | st.integers(), max_size=3))
_DOCUMENTS = st.recursive(   # arrays listed twice, to draw them more often
    st.dictionaries(st.text(max_size=4), _run_arrays() | _run_arrays() | _LEAVES, max_size=4),
    lambda inner: st.dictionaries(st.text(max_size=4), inner | _run_arrays() | _LEAVES,
                                  max_size=4),
    max_leaves=10)


def _listed(obj):
    """obj with each array replaced by its flat list."""
    if isinstance(obj, np.ndarray):
        return obj.reshape(-1).tolist()
    return {k: _listed(v) for k, v in obj.items()} if isinstance(obj, dict) else obj


def test_canonical_json_array_cases():
    doc = {"z": {"data": np.array([[0.0, 0.0], [-0.0, 5e-324]]).T},
           "i": np.arange(6).reshape(2, 3)[:, ::2], "b": np.array([True, True, False]),
           "e": np.zeros((2, 0)), "s": np.array(1e16)}
    assert io.canonical_json(doc) == ('{"b":[true,true,false],"e":[],"i":[0,2,3,5],"s":[1e+16],'
                                      '"z":{"data":[0.0,-0.0,0.0,5e-324]}}\n')


@settings(max_examples=150)
@given(_DOCUMENTS)
def test_canonical_json_writes_arrays_as_json_dumps_writes_their_lists(doc):
    expected = json.dumps(_listed(doc), sort_keys=True, separators=(",", ":"), allow_nan=False)
    assert io.canonical_json(doc) == expected + "\n"


@settings(max_examples=60)
@given(_run_arrays(kinds=("f8",)), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
       st.data())
def test_canonical_json_rejects_a_non_finite_array_value(arr, value, data):
    assume(arr.size > 0)
    arr = arr.copy()
    arr.flat[data.draw(st.integers(0, arr.size - 1))] = value
    with pytest.raises(ValueError):
        io.canonical_json({"fields": {"x": {"data": arr}}})


@st.composite
def _grids(draw):
    """A target or prediction grid of a few tiles whose fields hold runs of
    one fill broken by edge floats, within the bounds each field declares;
    occupied target tiles carry a lane id."""
    grid = GridSpec(n_cols=draw(st.integers(1, 4)), n_rows=draw(st.integers(1, 4)))
    bins = AngleBinSpec(n_bins=draw(st.integers(4, 6)))
    cls = draw(st.sampled_from((TileTargetGrid, TilePredictionGrid)))
    sizes = {"H": grid.n_rows, "W": grid.n_cols, "N": bins.n_bins, "d": draw(st.integers(1, 3))}
    arrays = {}
    for f in array_fields(cls):
        dtype, bounds = np.dtype(f.metadata["dtype"]), f.metadata["bounds"]
        edges = [v for v in _FLOAT_EDGES if first_out_of_range(v, bounds) is None]
        elements = (st.sampled_from(bounds["one of"]) if "one of" in bounds else
                    st.integers(bounds[">="], 2 ** 40) if dtype.kind == "i" else
                    st.sampled_from(edges) | st.floats(bounds[">="], bounds["<="]))
        fill = st.just(f.metadata["fill"]) | st.sampled_from((0.0, -0.0, 1.0))
        arrays[f.name] = draw(hnp.arrays(dtype, [sizes.get(a, a) for a in f.metadata["shape"]],
                                         elements=elements, fill=fill))
    if cls is TileTargetGrid:
        occupied = arrays["occupancy"] == 1.0
        arrays["lane_id"][occupied] = np.abs(arrays["lane_id"][occupied])
    return cls(grid=grid, bins=bins, **arrays)


@settings(max_examples=80)
@given(_grids())
def test_grid_file_round_trip_is_bit_exact(g):
    reader = io.targets_from_dict if isinstance(g, TileTargetGrid) else io.preds_from_dict
    writer = io.targets_to_dict if isinstance(g, TileTargetGrid) else io.preds_to_dict
    back = reader(json.loads(io.canonical_json(writer(g))))
    assert (back.grid, back.bins) == (g.grid, g.bins)
    for f in array_fields(g):
        a, b = getattr(g, f.name), getattr(back, f.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "x.json"
    io.save_json(path, {"k": [1.5, 2.0]})
    assert io.load_json(path) == {"k": [1.5, 2.0]}


def test_load_json_missing_file_raises_schema_error(tmp_path):
    with pytest.raises(io.SchemaError) as exc:
        io.load_json(tmp_path / "absent.json")
    assert exc.value.field == "<file>"
    assert "absent.json" in str(exc.value)


def test_schema_error_round_trips_through_pickle():
    err = io.SchemaError(Path("out") / "lanes_00001.json", "lanes[0].confidence", "bad value")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is io.SchemaError
    assert (back.path, back.field, back.message, str(back)) == \
        (err.path, err.field, err.message, str(err))


def test_load_json_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(io.SchemaError) as exc:
        io.load_json(path)
    assert exc.value.path == str(path)


# ---------------------------------------------------------------------------
# scene format


def test_scene_round_trip_byte_identical():
    scene = small_scene()
    first = io.canonical_json(io.scene_to_dict(scene))
    back = io.scene_from_dict(json.loads(first))
    second = io.canonical_json(io.scene_to_dict(back))
    assert second == first
    assert len(back.lanes) == len(scene.lanes)
    for a, b in zip(back.lanes, scene.lanes):
        assert a.lane_id == b.lane_id
        npt.assert_array_equal(a.points, b.points)


def test_scene_wrong_kind_rejected():
    d = io.scene_to_dict(small_scene())
    d["kind"] = "shrubbery"
    with pytest.raises(io.SchemaError) as exc:
        io.scene_from_dict(d, path="scene_00000.json")
    assert exc.value.path == "scene_00000.json"
    assert exc.value.field == "kind"


def test_scene_missing_field_names_it():
    d = io.scene_to_dict(small_scene())
    del d["rig"]
    with pytest.raises(io.SchemaError) as exc:
        io.scene_from_dict(d)
    assert exc.value.field == "rig"


def test_scene_file_carries_the_fixed_rig_record():
    assert io.canonical_json(io.scene_to_dict(small_scene())["rig"]) == (
        '{"focal":[1000.0,1000.0],"height":1.6,"image_size":[1280,720],"pitch":0.02,'
        '"principal_point":[640.0,360.0]}\n')


@pytest.mark.parametrize("change", [{"height": 1.5}, {"focal": [1000, 1000]},
                                    {"image_size": [1280.0, 720.0]}, {"roll": 0.0}])
def test_scene_rig_record_other_than_the_fixed_one_rejected(change):
    d = io.scene_to_dict(small_scene())
    d["rig"].update(change)
    with pytest.raises(io.SchemaError) as exc:
        io.scene_from_dict(d)
    assert exc.value.field == "rig"


def test_scene_bad_points_shape():
    d = io.scene_to_dict(small_scene())
    d["lanes"][0]["points"] = [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(io.SchemaError) as exc:
        io.scene_from_dict(d)
    assert "lanes[0].points" in exc.value.field


# ---------------------------------------------------------------------------
# grid formats


def _targets():
    return encode_scene(small_scene().lanes, GRID, BINS)


def _as_read(d: dict) -> dict:
    """A writer's dict as its file holds it: each array field's data a list."""
    return json.loads(io.canonical_json(d))


def test_targets_round_trip_byte_identical():
    targets = _targets()
    first = io.canonical_json(io.targets_to_dict(targets))
    back = io.targets_from_dict(json.loads(first))
    assert io.canonical_json(io.targets_to_dict(back)) == first
    npt.assert_array_equal(back.occupancy, targets.occupancy)
    npt.assert_array_equal(back.lateral_offset, targets.lateral_offset)
    npt.assert_array_equal(back.bin_probs, targets.bin_probs)
    assert back.grid == targets.grid
    assert back.bins == targets.bins


def test_targets_non_binary_occupancy_rejected():
    d = _as_read(io.targets_to_dict(_targets()))
    d["fields"]["occupancy"]["data"][0] = 0.5
    with pytest.raises(io.SchemaError) as exc:
        io.targets_from_dict(d, path="t.json")
    assert exc.value.field == "fields.occupancy.data"


@pytest.mark.parametrize("name, value", [
    ("bin_probs", 1e308), ("bin_probs", -0.25), ("bin_probs", 1.5), ("bin_mask", 0.5),
    ("bin_mask", 2.0)])
def test_targets_bin_value_outside_its_range_rejected(name, value):
    d = _as_read(io.targets_to_dict(_targets()))
    d["fields"][name]["data"][0] = value
    with pytest.raises(io.SchemaError) as exc:
        io.targets_from_dict(d, path="t.json")
    assert exc.value.field == f"fields.{name}.data"


def test_targets_bin_probs_bounds_are_inclusive():
    d = _as_read(io.targets_to_dict(_targets()))
    d["fields"]["bin_probs"]["data"][:2] = [0.0, 1.0]
    assert io.targets_from_dict(d).bin_probs.reshape(-1)[:2].tolist() == [0.0, 1.0]


def test_targets_payload_length_mismatch_rejected():
    d = _as_read(io.targets_to_dict(_targets()))
    d["fields"]["lateral_offset"]["data"].append(0.0)
    with pytest.raises(io.SchemaError) as exc:
        io.targets_from_dict(d)
    assert "lateral_offset" in exc.value.field


@pytest.mark.parametrize("value", [3.7, True, "3", 2 ** 70])
def test_targets_lane_id_must_be_whole_numbers(value):
    # 3.7 used to read as lane 3, and 2**70 ended in an OverflowError
    d = _as_read(io.targets_to_dict(_targets()))
    k = d["fields"]["occupancy"]["data"].index(1.0)
    d["fields"]["lane_id"]["data"][k] = value
    with pytest.raises(io.SchemaError) as exc:
        io.targets_from_dict(d)
    assert exc.value.field == "fields.lane_id.data"


def test_preds_round_trip_byte_identical():
    preds = oracle_predict(_targets(), NoiseConfig(sigma_r=0.05, fp_rate=0.02),
                           EmbeddingParams(), seed=3)
    first = io.canonical_json(io.preds_to_dict(preds))
    back = io.preds_from_dict(json.loads(first))
    assert io.canonical_json(io.preds_to_dict(back)) == first
    npt.assert_array_equal(back.score_logit, preds.score_logit)
    npt.assert_array_equal(back.embedding, preds.embedding)
    segs_a = decode_grid(preds)
    segs_b = decode_grid(back)
    npt.assert_array_equal(segs_a.midpoint, segs_b.midpoint)
    npt.assert_array_equal(segs_a.tile, segs_b.tile)


def test_preds_embedding_dim_mismatch_rejected():
    d = _as_read(io.preds_to_dict(
        oracle_predict(_targets(), NoiseConfig(), EmbeddingParams(), seed=3)))
    d["embedding_dim"] = 7
    with pytest.raises(io.SchemaError) as exc:
        io.preds_from_dict(d)
    assert exc.value.field == "embedding_dim"


# ---------------------------------------------------------------------------
# segment and lane formats


def test_segments_round_trip_byte_identical():
    preds = oracle_predict(_targets(), NoiseConfig(), EmbeddingParams(), seed=5)
    segments = decode_grid(preds)
    assert len(segments)
    first = io.canonical_json(io.segments_to_dict(segments))
    back = io.segments_from_dict(json.loads(first))
    assert io.canonical_json(io.segments_to_dict(back)) == first
    for f in array_fields(SegmentSet):
        a, b = getattr(back, f.name), getattr(segments, f.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


def test_segments_missing_key_rejected():
    d = io.segments_to_dict(decode_grid(oracle_predict(_targets(), NoiseConfig(), EmbeddingParams(), 5)))
    del d["segments"][1]["score"]
    with pytest.raises(io.SchemaError) as exc:
        io.segments_from_dict(d)
    assert "segments[1]" in exc.value.field


@pytest.mark.parametrize("tile", [[3], [3, 4, 5], [-1, 4], [3, 2 ** 31], [10 ** 30, 0]])
def test_segments_tile_must_be_two_grid_indices(tile):
    d = io.segments_to_dict(decode_grid(oracle_predict(_targets(), NoiseConfig(), EmbeddingParams(), 5)))
    d["segments"][1]["tile"] = tile
    with pytest.raises(io.SchemaError) as exc:
        io.segments_from_dict(d)
    assert exc.value.field == "segments[1].tile"


@pytest.mark.parametrize("key, value", [
    ("tile", [3.7, 4]), ("tile", [True, 4]), ("tile", ["3", 4]), ("degenerate", "no"),
    ("degenerate", 0), ("score", True), ("midpoint", [0.0, True, 1.0]),
    ("embedding", [0.1, None, 0.0, 0.0]),
])
def test_segments_value_of_the_wrong_json_type_rejected(key, value):
    # each used to be truncated or cast: tile [3.7, 4] read as (3, 4),
    # degenerate "no" as True, score true as 1.0
    d = io.segments_to_dict(decode_grid(oracle_predict(_targets(), NoiseConfig(), EmbeddingParams(), 5)))
    d["segments"][1][key] = value
    with pytest.raises(io.SchemaError) as exc:
        io.segments_from_dict(d)
    assert exc.value.field == f"segments[1].{key}"


def test_segments_whole_float_tile_reads_as_int():
    d = io.segments_to_dict(decode_grid(oracle_predict(_targets(), NoiseConfig(), EmbeddingParams(), 5)))
    want = d["segments"][1]["tile"]
    d["segments"][1]["tile"] = [float(v) for v in want]
    assert io.segments_from_dict(d).tile[1].tolist() == want


@pytest.mark.parametrize("name", ["midpoint", "score", "embedding"])
def test_segments_non_finite_value_rejected(name):
    d = io.segments_to_dict(decode_grid(oracle_predict(_targets(), NoiseConfig(), EmbeddingParams(), 5)))
    value = d["segments"][2][name]
    d["segments"][2][name] = [float("nan")] + value[1:] if isinstance(value, list) else float("inf")
    with pytest.raises(io.SchemaError, match="finite") as exc:
        io.segments_from_dict(d)
    assert exc.value.field == f"segments[2].{name}"


def test_lanes_round_trip_byte_identical():
    lanes = [(Curve(points=[[0.0, 0.0, 0.0], [0.5, 30.0, 0.1], [0.5, 60.0, 0.0]]), 0.75),
             (Curve(points=[[3.0, 5.0, 0.0], [3.0, 70.0, 0.2]]), 1.0)]
    first = io.canonical_json(io.lanes_to_dict(lanes))
    back = io.lanes_from_dict(json.loads(first))
    assert io.canonical_json(io.lanes_to_dict(back)) == first
    assert [c for _, c in back] == [0.75, 1.0]


def test_lanes_bad_confidence_rejected():
    d = io.lanes_to_dict([(Curve(points=[[0.0, 0.0, 0.0], [0.0, 9.0, 0.0]]), 0.5)])
    d["lanes"][0]["confidence"] = 1.5
    with pytest.raises(io.SchemaError) as exc:
        io.lanes_from_dict(d, path="lanes_00000.json")
    assert exc.value.field == "lanes[0].confidence"


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
def test_lanes_confidence_must_be_a_json_number(value):
    d = io.lanes_to_dict([(Curve(points=[[0.0, 0.0, 0.0], [0.0, 9.0, 0.0]]), 0.5)])
    d["lanes"][0]["confidence"] = value
    with pytest.raises(io.SchemaError) as exc:
        io.lanes_from_dict(d, path="lanes_00000.json")
    assert exc.value.field == "lanes[0].confidence"


def test_lanes_confidence_bounds_are_inclusive():
    lanes = [(Curve(points=[[0.0, 0.0, 0.0], [0.0, 9.0, 0.0]]), c) for c in (0.0, 1.0)]
    assert [c for _, c in io.lanes_from_dict(io.lanes_to_dict(lanes))] == [0.0, 1.0]


def test_lanes_whole_number_confidence_reads_as_float():
    d = io.lanes_to_dict([(Curve(points=[[0.0, 0.0, 0.0], [0.0, 9.0, 0.0]]), 0.5)])
    d["lanes"][0]["confidence"] = 1
    [(_, conf)] = io.lanes_from_dict(d)
    assert type(conf) is float and conf == 1.0


def _artifact_dicts():
    """kind -> (reader, a valid dict of that kind, its list field)."""
    lanes = [(Curve(points=[[0.0, 0.0, 0.0], [0.0, 9.0, 0.0]]), 0.5)]
    segments = decode_grid(oracle_predict(_targets(), NoiseConfig(), EmbeddingParams(), seed=5))
    return {"scene": (io.scene_from_dict, io.scene_to_dict(small_scene()), "lanes"),
            "lanes": (io.lanes_from_dict, io.lanes_to_dict(lanes), "lanes"),
            "segments": (io.segments_from_dict, io.segments_to_dict(segments), "segments")}


@pytest.mark.parametrize("kind", ["scene", "lanes", "segments"])
@pytest.mark.parametrize("value, field", [
    (5, "{key}"), ({"a": 1}, "{key}"), ("ab", "{key}"), (None, "{key}"),
    ([5], "{key}[0]"), ([[1.0, 2.0]], "{key}[0]")])
def test_list_field_must_be_a_list_of_objects(kind, value, field):
    reader, d, key = _artifact_dicts()[kind]
    d[key] = value
    with pytest.raises(io.SchemaError) as exc:
        reader(d, path=f"{kind}.json")
    assert exc.value.field == field.format(key=key)


@pytest.mark.parametrize("kind", ["scene", "lanes", "segments"])
@pytest.mark.parametrize("value", [[], [1], "scene", 5, None])
def test_artifact_that_is_not_a_json_object_rejected(kind, value):
    reader, _, _ = _artifact_dicts()[kind]
    with pytest.raises(io.SchemaError) as exc:
        reader(value, path=f"{kind}.json")
    assert exc.value.field == "<file>"


def test_lanes_degenerate_curve_rejected():
    d = {"kind": "lanes", "lanes": [{"points": [[0.0, 0.0, 0.0]], "confidence": 0.5}]}
    with pytest.raises(io.SchemaError) as exc:
        io.lanes_from_dict(d)
    assert "points" in exc.value.field


@pytest.mark.parametrize("kind, field", [
    ("target", "fields.lateral_offset.data"), ("pred", "fields.score_logit.data"),
    ("scene", "lanes[0].points"), ("lanes", "lanes[0].points")])
@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_float_payload_takes_only_json_numbers(kind, field, value):
    # true used to read as 1.0, false as 0.0 and "0.5" as 0.5
    reader, d = {
        "target": (io.targets_from_dict, _as_read(io.targets_to_dict(_targets()))),
        "pred": (io.preds_from_dict, _as_read(io.preds_to_dict(
            oracle_predict(_targets(), NoiseConfig(), EmbeddingParams(), seed=5)))),
        "scene": (io.scene_from_dict, io.scene_to_dict(small_scene())),
        "lanes": (io.lanes_from_dict, io.lanes_to_dict(
            [(Curve(points=[[0.0, 0.0, 0.0], [0.0, 9.0, 0.0]]), 0.5)])),
    }[kind]
    if field.startswith("fields."):
        d["fields"][field.split(".")[1]]["data"][3] = value
    else:
        d["lanes"][0]["points"][1][2] = value
    with pytest.raises(io.SchemaError) as exc:
        reader(d, path=f"{kind}.json")
    assert exc.value.field == field


def test_targets_whole_float_lane_id_reads_as_int():
    d = _as_read(io.targets_to_dict(_targets()))
    data = d["fields"]["lane_id"]["data"]
    data[:] = [float(v) for v in data]
    targets = io.targets_from_dict(d)
    assert targets.lane_id.dtype == np.int64
    npt.assert_array_equal(targets.lane_id, _targets().lane_id)


# ---------------------------------------------------------------------------
# report CSV


def _perfect_report():
    gts = [Curve(points=[[-2.03, 5.0, 0.0], [-2.03, 65.0, 0.0]]),
           Curve(points=[[2.03, 5.0, 0.0], [2.03, 65.0, 0.0]])]
    preds = [(gts[0], 0.9), (gts[1], 0.8)]
    return evaluate([score_scene(preds, gts, EvalConfig())], EvalConfig())


def test_report_csv_structure():
    text = io.report_to_csv(_perfect_report())
    rows = list(csv.reader(std_io.StringIO(text)))
    assert rows[0] == ["metric", "key", "value"]
    ap_rows = [r for r in rows if r[0] == "ap"]
    assert [r[1] for r in ap_rows] == [f"{0.1 * k:g}" for k in range(1, 10)]
    assert all(float(r[2]) == 1.0 for r in ap_rows)
    by_metric = {(r[0], r[1]): r[2] for r in rows[1:]}
    assert float(by_metric[("map", "")]) == 1.0
    assert float(by_metric[("recall_at_iou", "0.5")]) == 1.0
    assert ("lateral_error", "0-30") in by_metric
    assert by_metric[("count", "n_gt")] == "2"
    assert by_metric[("count", "n_matched")] == "2"
    assert ("recall75_confidence", "") in by_metric


def test_report_csv_deterministic():
    assert io.report_to_csv(_perfect_report()) == io.report_to_csv(_perfect_report())


def test_report_csv_values_round_trip_exactly():
    # repr-formatted floats parse back bit-identically
    report = _perfect_report()
    rows = list(csv.reader(std_io.StringIO(io.report_to_csv(report))))
    by_metric = {(r[0], r[1]): r[2] for r in rows[1:]}
    assert float(by_metric[("map", "")]) == report.map_score


# ---------------------------------------------------------------------------
# PipelineConfig


def test_config_defaults_from_empty_dict():
    cfg = PipelineConfig.from_dict({})
    assert cfg == PipelineConfig()
    assert cfg.eval.extent == DEFAULT_EXTENT


def test_config_unknown_top_level_key():
    with pytest.raises(ConfigError, match="typo_key"):
        PipelineConfig.from_dict({"typo_key": 1})


def test_config_unknown_section_key():
    with pytest.raises(ConfigError, match="grid"):
        PipelineConfig.from_dict({"grid": {"n_colums": 8}})


def test_section_from_dict_rejects_a_key_that_is_not_a_field():
    with pytest.raises(ValueError, match="n_colums"):
        io.section_from_dict(GridSpec, {**io.section_to_dict(GRID), "n_colums": 8})


def test_config_partial_section_keeps_defaults():
    cfg = PipelineConfig.from_dict({"scene": {"n_lanes": 2}})
    assert cfg.scene.n_lanes == 2
    assert cfg.scene.lane_spacing == SceneConfig().lane_spacing


def test_config_invalid_section_value():
    with pytest.raises(ConfigError, match="grid"):
        PipelineConfig.from_dict({"grid": {"n_cols": 0}})


def test_config_eval_extent_follows_custom_grid():
    cfg = PipelineConfig.from_dict({"grid": {"n_rows": 13}})
    (x_lo, x_hi), (y_lo, y_hi) = cfg.eval.extent
    assert (y_lo, y_hi) == (-0.5, 39.5)
    assert (x_lo, x_hi) == (GRID.x_min - 0.5, GRID.x_max + 0.5)


def test_config_explicit_eval_extent_must_cover_grid():
    with pytest.raises(ConfigError, match="extent"):
        PipelineConfig.from_dict({"eval": {"extent": [[-5.0, 5.0], [0.0, 78.5]]}})


def test_config_eval_section_without_extent_derives_it():
    # the grid is padded by the section's own lane_width / 2
    cfg = PipelineConfig.from_dict({"grid": {"n_rows": 30}, "eval": {"lateral_sample_step": 0.5}})
    assert cfg.eval.lateral_sample_step == 0.5
    assert cfg.eval.extent == ((GRID.x_min - 0.5, GRID.x_max + 0.5), (-0.5, 90.5))
    cfg = PipelineConfig.from_dict({"eval": {"lane_width": 2.0}})
    assert cfg.eval.extent == ((GRID.x_min - 1.0, GRID.x_max + 1.0), (-1.0, 79.0))


@pytest.mark.parametrize("section, name, value, bound", [
    ("noise", "sigma_r", 1e6, 1e4), ("noise", "sigma_z", 1e6, 1e4), ("noise", "sigma_f", 1e6, 1e4),
    ("scene", "surface_amplitude", 1e7, 1e5), ("embedding", "push_margin", 1e7, 1e5)],
    ids=["sigma_r", "sigma_z", "sigma_f", "surface_amplitude", "push_margin"])
def test_config_setting_that_makes_a_stage_write_a_value_beyond_its_bounds_is_config_error(
        tmp_path, capsys, section, name, value, bound):
    # each config ran: predict (generate for the amplitude) exited 0 and the
    # next stage exited 3 on the file it wrote (a prediction offset, height or
    # embedding, or a scene vertex beyond 1e6 m), while run_pipeline returned
    cfg = write_config(tmp_path, n_scenes=1, master_seed=3, **{section: {name: value}})
    assert main(["pipeline", "--config", cfg]) == 2
    assert f"{name} must be <= {bound}, got {value}" in capsys.readouterr().err


def test_config_at_the_edge_of_every_write_bound_runs_every_stage(tmp_path):
    cfg = write_config(tmp_path, n_scenes=1, master_seed=3,
                       noise={"sigma_r": 1e4, "sigma_z": 1e4, "sigma_f": 1e4},
                       scene={"surface_amplitude": 1e5}, embedding={"push_margin": 1e5})
    for command in ("generate", "encode", "predict", "decode", "cluster", "eval", "loss"):
        assert main([command, "--config", cfg]) == 0, command


def test_config_grid_of_tiles_so_wide_that_predict_rejects_the_targets_is_config_error(
        tmp_path, capsys):
    # encode exited 0, then predict exited 3 on fields.lateral_offset.data: a
    # lane near x = 0 lay 1.5e6 m from the centre of its 3e6 m wide tile
    cfg = write_config(tmp_path, n_scenes=1, master_seed=3, scene={},
                       grid={"n_cols": 2, "tile_width": 3e6})
    for command in ("generate", "encode"):
        assert main([command, "--config", cfg]) == 2, command
        assert "grid extent must lie within [-100000.0, 100000.0], got x [-3000000.0, " \
               "3000000.0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_grid_so_wide_that_a_perpendicular_lane_leaves_the_file_bounds_is_config_error(
        tmp_path, capsys):
    # with 40 tiles 1e5 m wide, generate exited 0 after 16 s, writing a vertex
    # at x = -2e6, and encode exited 3 on lanes[3].points; tiles of the same
    # size on 2 columns run (below), so a bound on the tile size alone misses it
    cfg = write_config(tmp_path, n_scenes=1, master_seed=3,
                       grid={"n_cols": 40, "tile_width": 1e5},
                       scene={"topology_weights": {"perpendicular": 1.0}})
    assert main(["generate", "--config", cfg]) == 2
    assert "got x [-2000000.0, 2000000.0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_grid_at_the_edge_of_the_extent_bound_runs_every_stage(tmp_path):
    cfg = write_config(tmp_path, n_scenes=1, master_seed=3, scene={},
                       grid={"n_cols": 2, "tile_width": 1e5})
    for command in ("generate", "encode", "predict", "decode", "cluster", "eval", "loss"):
        assert main([command, "--config", cfg]) == 0, command


def test_long_thin_tiles_widen_the_derived_eval_extent_to_every_decoded_midpoint(tmp_path):
    # with tiles 200 m wide, cluster exited 3 on segments[1].midpoint at y = -2.32,
    # outside the extent's -0.5: a midpoint can leave its tile by up to
    # (hypot(a, b) - min(a, b)) / 2 for half-sizes a and b, here 49.26 m
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_scenes": 3, "master_seed": 3, "output_dir": str(tmp_path / "out"),
                               "grid": {"tile_width": 200}}))
    reach = (math.hypot(100.0, 1.5) - 1.5) / 2
    x, y = PipelineConfig.from_dict(json.loads(cfg.read_text())).eval.extent
    assert (x, y) == ((-1600.0 - reach, 1600.0 + reach), (-reach, 78.0 + reach))
    for command in ("generate", "encode", "predict", "decode", "cluster", "eval"):
        assert main([command, "--config", str(cfg)]) == 0, command
    with pytest.raises(ConfigError, match="extent must cover the grid padded by 49.2"):
        PipelineConfig.from_dict({"grid": {"tile_width": 200},
                                  "eval": {"extent": [[-1600.5, 1600.5], [-0.5, 78.5]]}})


def test_config_scalar_validation():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"n_scenes": 0})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"master_seed": "not a number"})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(["not", "an", "object"])


def test_config_dict_round_trip():
    cfg = PipelineConfig.from_dict({"n_scenes": 3, "scene": {"n_lanes": 4}})
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


SECTIONS = {"grid": GRID, "bins": BINS, "embedding": EmbeddingParams(), "cluster": ClusterParams(),
            "scene": SceneConfig(), "noise": NoiseConfig(), "eval": EvalConfig()}


def _some_fields(section):
    """Any subset of a section's fields, each at its default or at the value
    nearest a bound it declares that the bound accepts."""
    return st.fixed_dictionaries({}, optional={f.name: st.sampled_from(
        [getattr(section, f.name)] + [type(getattr(section, f.name))(inside(op, bound))
                                      for op, bound in f.metadata.items()])
        for f in fields(section)})


@settings(max_examples=150, deadline=None)
@given(drawn=st.fixed_dictionaries({}, optional={
    **{name: _some_fields(section) for name, section in SECTIONS.items()},
    "n_scenes": st.sampled_from([10, 1]), "master_seed": st.sampled_from([0, 2 ** 64 - 1]),
    "output_dir": st.sampled_from(["bevlanes_out", "elsewhere"])}))
def test_config_codec_matches_the_config_built_section_by_section(drawn):
    # the reference: each default section replaced field by field, and the
    # eval extent, unless given, the grid padded by its reach
    try:
        sections = {name: replace(section, **drawn.get(name, {}))
                    for name, section in SECTIONS.items()}
        if "extent" not in drawn.get("eval", {}):
            grid, pad = sections["grid"], _reach(sections["grid"], sections["eval"].lane_width)
            sections["eval"] = replace(sections["eval"], extent=(
                (grid.x_min - pad, grid.x_max + pad), (grid.y_min - pad, grid.y_max + pad)))
        expected = PipelineConfig(**sections, **{k: v for k, v in drawn.items()
                                                 if k not in SECTIONS})
    except ValueError:      # a rule across fields, or across sections
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(json.loads(json.dumps(drawn)))
        return
    assert PipelineConfig.from_dict(json.loads(json.dumps(drawn))) == expected
    assert PipelineConfig.from_dict(expected.to_dict()) == expected


def test_config_values_take_the_type_of_the_field_default():
    cfg = PipelineConfig.from_dict({"grid": {"tile_width": 1, "n_cols": 8.0},
                                    "scene": {"y_range": [0, 78]}})
    d = cfg.to_dict()
    assert io.canonical_json(d["grid"]) == \
        '{"n_cols":8,"n_rows":26,"tile_length":3.0,"tile_width":1.0,"y_min":0.0}\n'
    assert d["scene"]["y_range"] == [0.0, 78.0]
    assert d["eval"]["range_buckets"] == [[0.0, 30.0], [30.0, 80.0]]
    assert cfg.eval.range_buckets == ((0.0, 30.0), (30.0, 80.0))


# ---------------------------------------------------------------------------
# CLI


def test_cli_stage_chain(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict", "decode", "cluster", "eval"):
        assert main([command, "--config", cfg]) == 0, command
    out_dir = tmp_path / "out"
    for stage, stem in [("scenes", "scene"), ("targets", "target"), ("preds", "pred"),
                        ("segments", "segments"), ("lanes", "lanes")]:
        files = sorted((out_dir / stage).glob("*.json"))
        assert [f.name for f in files] == [f"{stem}_00000.json", f"{stem}_00001.json"]
    assert (out_dir / "report.csv").is_file()
    assert (out_dir / "report.json").is_file()
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert "map=1.0" in last
    # the stage chain and `pipeline` write the same bytes for every file
    piped = tmp_path / "piped"
    assert main(["pipeline", "--config", cfg, "--out", str(piped)]) == 0
    chain_files = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file())
    assert len(chain_files) == 12
    for name in chain_files:
        assert (out_dir / name).read_bytes() == (piped / name).read_bytes(), name


def test_cli_pipeline_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg]) == 0
    out_dir = tmp_path / "out"
    assert "map=1.0" in capsys.readouterr().out
    svgs = sorted((out_dir / "plots").glob("*.svg"))
    assert [p.name for p in svgs] == ["scene_00000.svg", "scene_00001.svg",
                                      "scores_00000.svg", "scores_00001.svg"]
    scene_svg_text = svgs[0].read_text()
    assert "#cc2222" in scene_svg_text    # ground truth in red
    assert "#2244cc" in scene_svg_text    # predictions in blue
    report = json.loads((out_dir / "report.json").read_text())
    assert report["map_score"] == 1.0


def test_cli_pipeline_deterministic_reports(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", cfg, "--out", str(a)]) == 0
    assert main(["pipeline", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert ((a / "scenes" / "scene_00000.json").read_bytes()
            == (b / "scenes" / "scene_00000.json").read_bytes())


def test_cli_seed_flag_changes_scenes(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
    assert main(["generate", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
    assert ((a / "scenes" / "scene_00000.json").read_bytes()
            != (b / "scenes" / "scene_00000.json").read_bytes())


def test_cli_env_output_dir_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("BEVLANES_OUTPUT_DIR", str(env_dir))
    assert main(["generate", "--config", cfg]) == 0
    assert (env_dir / "scenes" / "scene_00000.json").is_file()

    flag_dir = tmp_path / "from_flag"
    assert main(["generate", "--config", cfg, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "scenes" / "scene_00000.json").is_file()


def test_cli_missing_stage_inputs_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", cfg]) == 3
    assert "data error" in capsys.readouterr().err


def test_cli_stage_on_an_empty_output_dir_names_the_missing_stage_directory(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["encode", "--config", write_config(tmp_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{out / 'scenes'}: field '<dir>': stage directory not found" in err


def test_cli_corrupt_stage_file_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00000.json"
    scene_path.write_text("{broken")
    assert main(["encode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "scene_00000.json" in err


def test_cli_wrong_kind_stage_file_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00001.json"
    d = json.loads(scene_path.read_text())
    d["kind"] = "lanes"
    scene_path.write_text(json.dumps(d))
    assert main(["encode", "--config", cfg]) == 3
    assert "kind" in capsys.readouterr().err


@pytest.mark.parametrize("path, key, value, command", [
    ("scenes/scene_00001.json", "lanes", 5, "encode"),
    ("scenes/scene_00001.json", "lanes", [5], "encode"),
    ("segments/segments_00000.json", "segments", 5, "cluster"),
    ("segments/segments_00000.json", "segments", {"a": 1}, "cluster"),
    ("lanes/lanes_00001.json", "lanes", 5, "eval"),
    ("lanes/lanes_00001.json", "lanes", [5], "eval"),
])
def test_cli_list_field_that_is_not_a_list_of_objects_is_data_error(
        tmp_path, capsys, path, key, value, command):
    # a bare int used to end in "'int' object is not iterable", a list of
    # numbers in a misleading "points: missing required field"
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg]) == 0
    file = tmp_path / "out" / path
    d = json.loads(file.read_text())
    d[key] = value
    file.write_text(json.dumps(d))
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and file.name in err and f"field '{key}" in err


@pytest.mark.parametrize("value", [True, "0.5"])
def test_cli_lane_confidence_that_is_not_a_number_is_data_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg]) == 0
    file = tmp_path / "out" / "lanes" / "lanes_00000.json"
    d = json.loads(file.read_text())
    d["lanes"][0]["confidence"] = value
    file.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["eval", "--config", cfg]) == 3
    assert "lanes[0].confidence" in capsys.readouterr().err


def test_cli_stage_file_that_is_not_an_object_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    (tmp_path / "out" / "scenes" / "scene_00000.json").write_text("[1, 2]")
    assert main(["encode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "scene_00000.json" in err


def test_cli_stage_file_that_is_not_utf8_is_data_error(tmp_path, capsys):
    # the UnicodeDecodeError, a ValueError, used to read as a config error
    # that named no file
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg]) == 0
    (tmp_path / "out" / "lanes" / "lanes_00001.json").write_bytes(b'{"kind": "lanes\xff"}')
    capsys.readouterr()
    assert main(["eval", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "lanes_00001.json" in err and "<file>" in err


def test_cli_stage_file_nested_too_deep_is_data_error(tmp_path, capsys):
    # 200,000 nested lists used to end in a RecursionError traceback
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg]) == 0
    (tmp_path / "out" / "scenes" / "scene_00000.json").write_text(
        "[" * 200_000 + "]" * 200_000)
    capsys.readouterr()
    assert main(["eval", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "scene_00000.json" in err and "<file>" in err


def test_cli_bad_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"definitely_not_a_key": 1}))
    assert main(["generate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ({"scene": {"topology_weights": {"parallel": True}}}, "topology_weights must be of type float"),
    ({"scene": {"topology_weights": {"parallel": "0.5"}}}, "topology_weights must be of type float"),
    (5, "config must be a JSON object"), (None, "config must be a JSON object"),
    ({"grid": 3}, "section 'grid' must be an object"), ({"eval": 5}, "section 'eval' must be an object"),
    ({"eval": None}, "section 'eval' must be an object"),
    # these three ended in an AttributeError or IndexError traceback
    pytest.param({"scene": {"topology_weights": 5}}, "topology_weights must be an object, got 5",
                 id="dict-field-not-an-object"),
    pytest.param({"scene": {"y_range": [1]}}, "y_range must be a pair [lo, hi], got [1.0]",
                 id="y_range-of-one"),
    pytest.param({"scene": {"short_y_range": [3]}},
                 "short_y_range must be a pair [lo, hi], got [3.0]", id="short_y_range-of-one"),
    pytest.param({"eval": {"extent": [[-20, 20]]}},
                 "extent must be a pair [[x_lo, x_hi], [y_lo, y_hi]]", id="extent-of-one"),
    # these two named no field ("'int' object is not iterable")
    pytest.param({"scene": {"y_range": 5}}, "y_range must be a list, got 5", id="pair-not-a-list"),
    pytest.param({"eval": {"extent": [1, 2]}}, "extent must be a list, got 1",
                 id="extent-of-numbers")])
def test_cli_config_value_of_the_wrong_json_type_names_it(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_file_is_data_error(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 3
    assert "data error" in capsys.readouterr().err


def test_cli_nan_prediction_field_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", cfg]) == 0
    pred_path = tmp_path / "out" / "preds" / "pred_00000.json"
    d = json.loads(pred_path.read_text())
    d["fields"]["bin_logits"]["data"] = [float("nan")] * len(d["fields"]["bin_logits"]["data"])
    pred_path.write_text(json.dumps(d))
    assert main(["decode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "pred_00000.json" in err and "fields.bin_logits.data" in err


def test_cli_occupied_tile_without_lane_id_is_data_error(tmp_path, capsys):
    # the oracle needs a lane id on every occupied tile (it used to die with
    # a bare KeyError traceback)
    cfg = write_config(tmp_path)
    for command in ("generate", "encode"):
        assert main([command, "--config", cfg]) == 0
    target_path = tmp_path / "out" / "targets" / "target_00000.json"
    d = json.loads(target_path.read_text())
    k = d["fields"]["occupancy"]["data"].index(1.0)
    d["fields"]["lane_id"]["data"][k] = -1
    target_path.write_text(json.dumps(d))
    assert main(["predict", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "target_00000.json" in err and "fields.lane_id.data" in err


def test_cli_target_bin_probs_outside_unit_interval_is_data_error(tmp_path, capsys):
    # one bin_probs value of 1e308 used to make loss exit 0 and print nan as
    # scene 0's angle and total
    cfg, _ = _predicted(tmp_path)
    target_path = tmp_path / "out" / "targets" / "target_00000.json"
    d = json.loads(target_path.read_text())
    d["fields"]["bin_probs"]["data"][0] = 1e308
    target_path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["loss", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "target_00000.json" in err and "'fields.bin_probs.data'" in err


def test_cli_more_lanes_than_embedding_anchors_is_data_error(tmp_path, capsys):
    # a 12-lane scene file passed encode, and predict ended in the ValueError
    # traceback of simplex_anchors (the config allows embedding.dim + 1 = 5)
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00000.json"
    d = json.loads(scene_path.read_text())
    d["lanes"] = [{"lane_id": k, "points": [[x, 0.0, 0.0], [x, 78.0, 0.0]]}
                  for k, x in enumerate(np.linspace(-9.0, 9.0, 12).tolist())]
    scene_path.write_text(json.dumps(d))
    assert main(["encode", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["predict", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "target_00000.json" in err and "'fields.lane_id'" in err


def _segments_file(tmp_path):
    """A config run through `pipeline`, and scene 0's segments file with its dict."""
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg]) == 0
    path = tmp_path / "out" / "segments" / "segments_00000.json"
    return cfg, path, json.loads(path.read_text())


@pytest.mark.parametrize("tile", [[999, 999], [26, 0], [0, 16]])
def test_cli_segment_tile_outside_the_grid_is_data_error(tmp_path, capsys, tile):
    # any tile below 2**31 used to cluster with exit 0; the grid is 26 x 16
    cfg, path, d = _segments_file(tmp_path)
    d["segments"][1]["tile"] = tile
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["cluster", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "segments_00000.json" in err and "'segments[1].tile'" in err


def test_cli_repeated_segment_tile_is_data_error(tmp_path, capsys):
    cfg, path, d = _segments_file(tmp_path)
    d["segments"][2] = d["segments"][0]
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["cluster", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "segments_00000.json" in err and "'segments[2].tile'" in err


def test_cli_segments_file_of_20000_copies_is_data_error_at_once(tmp_path, capsys):
    # 20,000 copies of one scene's segments used to end in an uncaught
    # 2.98 GiB allocation error in mean shift, after seconds
    cfg, path, d = _segments_file(tmp_path)
    n = len(d["segments"])
    d["segments"] = (d["segments"] * (20000 // n + 1))[:20000]
    path.write_text(json.dumps(d))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["cluster", "--config", cfg]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"'segments[{n}].tile'" in capsys.readouterr().err


def test_cli_segments_file_of_20000_tiles_outside_the_grid_is_data_error_at_once(tmp_path, capsys):
    # distinct tiles, so that no repeat stops the read: 0.84-1.05 s when each
    # row was parsed value by value (about 30 us a row), before the config's
    # grid rejects row 0
    cfg, path, d = _segments_file(tmp_path)
    rows = (d["segments"] * (20000 // len(d["segments"]) + 1))[:20000]
    d["segments"] = [{**row, "tile": [30 + k // 16, k % 16]} for k, row in enumerate(rows)]
    path.write_text(json.dumps(d))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["cluster", "--config", cfg]) == 3
    assert time.perf_counter() - start < 1.0
    assert "'segments[0].tile': tile[0, 0] must be < 26, got 30" in capsys.readouterr().err


@pytest.mark.parametrize("name, value, message", [
    ("tile", [30, 0], "tile[1, 0] must be < 26, got 30"),
    ("tile", [0, 16], "tile[1, 1] must be < 16, got 16"),
    ("midpoint", [0.0, -2.5, 0.0], "midpoint[1, 1] must be >= -0.5, got -2.5"),
    ("endpoints", [[0.0, 1.0, 0.0], [11.0, 1.0, 0.0]],
     "endpoints[1, 1, 0] must be <= 10.74, got 11.0")])
def test_cli_config_rule_names_the_bound_of_the_axis_that_failed(tmp_path, capsys, name, value,
                                                                  message):
    # the message printed the bounds of both axes: "must be < (26, 16), got 30"
    cfg, path, d = _segments_file(tmp_path)
    d["segments"][1][name] = value
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["cluster", "--config", cfg]) == 3
    assert f"'segments[1].{name}': {message}, the config's grid" in capsys.readouterr().err


@pytest.mark.parametrize("name, value, code", [
    ("midpoint", 1e308, 3), ("midpoint", -io.MAX_COORDINATE, 0),
    ("endpoints", -1e308, 3), ("endpoints", io.MAX_COORDINATE, 0),
    ("embedding", 1e308, 3), ("embedding", -math.nextafter(io.MAX_COORDINATE, math.inf), 3),
    ("score", 7, 3), ("score", -0.25, 3), ("score", 1.0, 0)])
def test_cli_segment_value_out_of_range_is_data_error(tmp_path, capsys, name, value, code):
    # a coordinate or embedding of 1e308 used to cluster with exit 0 after an
    # overflow warning, and a score of 7 was clamped to a confidence of 1; the
    # last value of a point is its z, as x and y also keep to the eval extent
    cfg, path, d = _segments_file(tmp_path)
    entry = d["segments"][1]
    if name == "score":
        entry[name] = value
    else:
        (entry[name][0] if name == "endpoints" else entry[name])[-1] = value
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["cluster", "--config", cfg]) == code
    if code:
        assert f"'segments[1].{name}'" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [
    ("midpoint", [1.0, 2.0]), ("embedding", [0.1]), ("endpoints", [[0, 0, 0]]),
    ("direction", [1.0])])
def test_cli_segment_value_of_the_wrong_shape_is_data_error(tmp_path, capsys, name, value):
    # each ended in numpy's uncaught "inhomogeneous shape" ValueError when
    # the reader stacked the rows into columns
    cfg, path, d = _segments_file(tmp_path)
    d["segments"][1][name] = value
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["cluster", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "segments_00000.json" in err and f"'segments[1].{name}'" in err


@pytest.mark.parametrize("method", pipeline.CLUSTER_METHODS)
@pytest.mark.parametrize("value", [7.0, 1e308])
def test_cli_segment_direction_that_is_not_a_unit_vector_is_data_error(tmp_path, capsys,
                                                                       value, method):
    # both methods used to cluster it with exit 0; decode writes (cos phi, sin phi)
    cfg, path, d = _segments_file(tmp_path)
    d["segments"][1]["direction"][0] = value
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["cluster", "--config", cfg, "--method", method]) == 3
    assert "'segments[1].direction'" in capsys.readouterr().err


def test_cli_nan_lane_point_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00001.json"
    d = json.loads(scene_path.read_text())
    d["lanes"][0]["points"][3][2] = float("nan")
    scene_path.write_text(json.dumps(d))
    assert main(["encode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "scene_00001.json" in err and "lanes[0].points" in err


def test_cli_nan_config_value_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, noise={"sigma_r": float("nan")})   # JSON token NaN
    assert main(["pipeline", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "noise" in err and "sigma_r" in err
    assert not (tmp_path / "out").exists()


def test_cli_nan_scene_surface_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00000.json"
    d = json.loads(scene_path.read_text())
    d["surface"]["amplitude"] = float("nan")
    scene_path.write_text(json.dumps(d))
    assert main(["encode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "scene_00000.json" in err and "surface" in err and "amplitude" in err


@pytest.mark.parametrize("k, lane_id", [(0, -1), (1, 0)])
def test_cli_negative_or_repeated_lane_id_is_data_error(tmp_path, capsys, k, lane_id):
    # a negative id used to fail only at predict, blaming the target file; a
    # repeated one ran through and merged the two lanes' embedding anchors
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00001.json"
    d = json.loads(scene_path.read_text())
    assert [lane["lane_id"] for lane in d["lanes"]] == [0, 1]
    d["lanes"][k]["lane_id"] = lane_id
    scene_path.write_text(json.dumps(d))
    assert main(["encode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "scene_00001.json" in err and f"lanes[{k}].lane_id" in err


@pytest.mark.parametrize("k, lane_id", [(0, 0.9), (1, 1.2), (1, True), (0, "0")])
def test_cli_lane_id_that_is_not_a_whole_number_is_data_error(tmp_path, capsys, k, lane_id):
    # 0.9 and 1.2 used to read as lane ids 0 and 1
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00001.json"
    d = json.loads(scene_path.read_text())
    d["lanes"][k]["lane_id"] = lane_id
    scene_path.write_text(json.dumps(d))
    assert main(["encode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "scene_00001.json" in err and f"lanes[{k}].lane_id" in err


def _predicted(tmp_path):
    """A config with scenes encoded and predicted, and the path of scene 0's
    prediction file."""
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", cfg]) == 0
    return cfg, tmp_path / "out" / "preds" / "pred_00000.json"


@pytest.mark.parametrize("dim", [4.6, "4", 5])
def test_cli_embedding_dim_unlike_the_payload_is_data_error(tmp_path, capsys, dim):
    # 4.6 and "4" used to read as 4, and decode ran
    cfg, pred_path = _predicted(tmp_path)
    d = json.loads(pred_path.read_text())
    d["embedding_dim"] = dim
    pred_path.write_text(json.dumps(d))
    assert main(["decode", "--config", cfg]) == 3
    assert "embedding_dim" in capsys.readouterr().err
    d["embedding_dim"] = 4.0
    pred_path.write_text(json.dumps(d))
    assert main(["decode", "--config", cfg]) == 0


@pytest.mark.parametrize("key, value", [
    ("shape", [26.0, 16]), ("shape", [26, -16]), ("shape", "26x16"), ("shape", [26, True]),
    ("dtype", "O"), ("dtype", "i8"), ("dtype", None),
])
def test_cli_malformed_grid_header_is_data_error(tmp_path, capsys, key, value):
    # a float in the shape or dtype "O" used to end decode in a TypeError
    # traceback; dtype "i8" truncated the logits
    cfg, pred_path = _predicted(tmp_path)
    d = json.loads(pred_path.read_text())
    d["fields"]["score_logit"][key] = value
    pred_path.write_text(json.dumps(d))
    assert main(["decode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "pred_00000.json" in err and f"fields.score_logit.{key}" in err


@pytest.mark.parametrize("overrides", [
    {"n_scenes": 2.5}, {"master_seed": 1.5}, {"n_scenes": True}, {"grid": {"n_cols": 16.9}},
    {"grid": {"n_cols": True}}, {"noise": {"sigma_r": True}}, {"cluster": {"max_iters": "100"}},
])
def test_cli_config_value_of_the_wrong_type_is_config_error(tmp_path, capsys, overrides):
    # each used to be truncated or cast: n_scenes 2.5 ran 2 scenes, n_cols
    # 16.9 a 16-column grid
    cfg = write_config(tmp_path, **overrides)
    assert main(["generate", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, named", [
    ({"rig": {}}, "'rig'"), ({"rig": {"pitch": 0.02}}, "'rig'"),
    ({"scene": {"seed": 3}}, "'seed'"), ({"noise": {"seed": 3}}, "'seed'")])
def test_cli_config_with_a_camera_rig_or_a_section_seed_is_config_error(
        tmp_path, capsys, overrides, named):
    # scene and noise seeds come only from master_seed, and no stage reads a rig
    cfg = write_config(tmp_path, **overrides)
    assert main(["pipeline", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [None, 5, ["out"], True])
def test_cli_output_dir_that_is_not_a_string_is_config_error(tmp_path, capsys, monkeypatch,
                                                              value):
    # null used to run into a directory named "None", 5 into one named "5"
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BEVLANES_OUTPUT_DIR", raising=False)
    cfg = write_config(tmp_path, output_dir=value)
    assert main(["generate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "output_dir" in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("path, record", [
    ("scenes/scene_00000.json", "surface"), ("scenes/scene_00000.json", "rig"),
    ("targets/target_00000.json", "grid"), ("targets/target_00000.json", "bins"),
    ("preds/pred_00000.json", "grid")])
def test_cli_record_with_a_key_that_is_not_a_field_is_data_error(tmp_path, capsys, path,
                                                                 record):
    # the key used to be ignored, as a config section never did (the rig
    # record was then read as a camera rig, which no stage used)
    cfg, _ = _predicted(tmp_path)
    stage_path = tmp_path / "out" / path
    d = json.loads(stage_path.read_text())
    d[record]["typo_key"] = 1
    stage_path.write_text(json.dumps(d))
    reader = {"scenes": "encode", "targets": "predict", "preds": "decode"}[path.split("/")[0]]
    assert main([reader, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert Path(path).name in err and f"'{record}'" in err and "typo_key" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_jobs_below_one_is_config_error(tmp_path, capsys, jobs):
    # both used to run serially without a word
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg, "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "jobs" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match="jobs"):
        run_pipeline(PipelineConfig.from_dict(tiny_config_dict(tmp_path)), jobs=int(jobs))


def test_run_pipeline_with_an_unknown_cluster_method_is_config_error(tmp_path):
    # the CLI's --method choices keep it from the command line, not from the library
    with pytest.raises(ConfigError, match="unknown cluster method 'nope'"):
        run_pipeline(PipelineConfig.from_dict(tiny_config_dict(tmp_path)), method="nope")


@pytest.mark.parametrize("scene, dim, code", [
    ({"n_lanes": 6, "topology_weights": {"parallel": 1.0}}, 4, 2),
    ({"n_lanes": 5, "topology_weights": {"parallel": 1.0}}, 4, 0),
    ({"n_lanes": 5, "topology_weights": {"parallel": 0.5, "merge": 0.5}}, 4, 2),
    ({"n_lanes": 5, "topology_weights": {"parallel": 0.5, "merge": 0.5}}, 5, 0),
    ({"n_lanes": 2, "topology_weights": {"perpendicular": 1.0}}, 1, 2),
    ({"n_lanes": 2, "topology_weights": {"short": 1.0}}, 1, 0)])
def test_cli_embedding_too_small_for_the_scene_lanes_is_config_error(tmp_path, capsys, scene,
                                                                     dim, code):
    # a scene of n_lanes, plus one for a split, merge or perpendicular, needs
    # one embedding anchor per lane; such a config used to run generate and
    # encode and fail only at predict
    cfg = write_config(tmp_path, scene=scene, embedding={"dim": dim})
    assert main(["generate", "--config", cfg]) == code
    if code:
        err = capsys.readouterr().err
        assert "config error" in err and "embedding.dim" in err
        assert not (tmp_path / "out").exists()


def test_pool_has_no_more_workers_than_scenes(tmp_path, monkeypatch):
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    cfg = PipelineConfig.from_dict(tiny_config_dict(tmp_path))       # two scenes
    assert run_pipeline(cfg, jobs=3)[0].to_dict() == run_pipeline(cfg)[0].to_dict()
    assert len(forks) == 1      # the calling process runs one of the two shares itself
    cmd_pipeline(replace(cfg, n_scenes=1), jobs=2)
    assert len(forks) == 1


@pytest.mark.parametrize("dz, code", [(0.0, 3), (0.25, 0)])
def test_cli_lane_with_a_repeated_vertex_is_data_error(tmp_path, capsys, dz, code):
    # a lane, like a curve, rejects a vertex that repeats the one before it
    # (the tile fits would weight the repeat and encode another target); the
    # same xy at another height is a vertical step, which a lane may take
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00000.json"
    d = json.loads(scene_path.read_text())
    x, y, z = d["lanes"][0]["points"][3]
    d["lanes"][0]["points"].insert(4, [x, y, z + dz])
    scene_path.write_text(json.dumps(d))
    assert main(["encode", "--config", cfg]) == code
    err = capsys.readouterr().err
    if code:
        assert "scene_00000.json" in err and "lanes[0]" in err and "duplicate" in err


def test_cli_grid_mismatch_between_stages(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", cfg]) == 0
    other = write_config(tmp_path, grid={"n_rows": 13})
    assert main(["decode", "--config", other]) == 3
    assert "grid" in capsys.readouterr().err


def test_cli_stage_files_pair_by_the_index_in_their_names(tmp_path, capsys):
    # three scenes; renaming lanes_00001 to lanes_00099 used to pair scene 1
    # with the lanes of scene 2 and scene 2 with those of the renamed file
    cfg = write_config(tmp_path, n_scenes=3)
    assert main(["pipeline", "--config", cfg]) == 0
    lanes = tmp_path / "out" / "lanes"
    (lanes / "lanes_00001.json").rename(lanes / "lanes_00099.json")
    capsys.readouterr()
    assert main(["eval", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "scene index 1" in err
    # stage commands: a gap in the input, an index set that disagrees, a stray name
    segments = tmp_path / "out" / "segments"
    (segments / "segments_00000.json").rename(segments / "segments_00003.json")
    assert main(["cluster", "--config", cfg]) == 3
    assert "scene index 0" in capsys.readouterr().err
    (lanes / "lanes_00099.json").unlink()
    (lanes / "lanes_00002.json").rename(lanes / "lanes_00001.json")
    assert main(["eval", "--config", cfg]) == 3
    assert "lanes: field '<dir>': no file for scene index 2" in capsys.readouterr().err
    (tmp_path / "out" / "preds" / "pred_2.json").write_text("{}")
    assert main(["loss", "--config", cfg]) == 3
    assert "pred_2.json" in capsys.readouterr().err


def test_cli_loss_reports_the_first_fault_in_scene_order(tmp_path, capsys):
    # loss used to read every target before any prediction, and so named
    # target_00001.json here
    cfg = write_config(tmp_path, n_scenes=4)
    assert main(["pipeline", "--config", cfg]) == 0
    out = tmp_path / "out"
    (out / "targets" / "target_00001.json").write_text("{broken")
    (out / "preds" / "pred_00000.json").write_text("{broken")
    capsys.readouterr()
    assert main(["loss", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "pred_00000.json" in err and "target_00001.json" not in err
    # every listing is checked before any file is parsed
    (out / "targets" / "target_00000.json").write_text("{broken")
    (out / "preds" / "pred_00003.json").unlink()
    assert main(["loss", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "preds: field '<dir>': no file for scene index 3" in err
    assert "target_00000.json" not in err


def test_cli_stage_command_keeps_the_outputs_before_a_bad_input(tmp_path, capsys):
    cfg = write_config(tmp_path, n_scenes=4)
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", cfg]) == 0
    preds = tmp_path / "out" / "preds"
    clean = {p.name: p.read_bytes() for p in preds.iterdir()}
    for p in preds.iterdir():
        p.unlink()
    (tmp_path / "out" / "targets" / "target_00002.json").write_text("{broken")
    capsys.readouterr()
    assert main(["predict", "--config", cfg]) == 3
    assert "target_00002.json" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in preds.iterdir()} == {
        name: clean[name] for name in ("pred_00000.json", "pred_00001.json")}


def test_cli_file_commands_reject_the_files_of_an_earlier_larger_run(tmp_path, capsys):
    # eval used to read the 4 scenes of this tree as one run and exit 0 with
    # mAP 0.95238 over n_gt 14, where the 2-scene pipeline run reported
    # 0.93651, overwriting report.json; loss printed 4 rows
    out = tmp_path / "out"
    for n, seed in ((4, 1), (2, 2)):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_scenes": n, "master_seed": seed, "output_dir": str(out)}))
        assert main(["pipeline", "--config", str(cfg)]) == 0
    report = (out / "report.json").read_bytes()
    capsys.readouterr()
    for command, stray in (("eval", "lanes/lanes_00002.json"), ("loss", "targets/target_00002.json"),
                           ("encode", "scenes/scene_00002.json")):
        assert main([command, "--config", str(cfg)]) == 3, command
        assert f"{out / stray}: field '<file>': scene index not below n_scenes = 2" in \
            capsys.readouterr().err
    assert (out / "report.json").read_bytes() == report and not (out / "loss.csv").exists()


def test_stage_commands_memory_does_not_grow_with_scene_count(tmp_path):
    # loss and the stage commands used to parse every input file of the run
    # first: from 2 to 8 scenes, the peak of cmd_loss grew 2.6x, of predict
    # 2x; eval, which held every scene's lanes and scene at once, 1.34x
    runs = {"loss": pipeline.cmd_loss, "predict": lambda c: pipeline.run_stage(c, "predict"),
            "eval": pipeline.cmd_eval}
    peaks = {}
    for n in (2, 8):
        config = PipelineConfig.from_dict({"n_scenes": n, "output_dir": str(tmp_path / str(n))})
        cmd_pipeline(config)
        for name, run in runs.items():
            tracemalloc.start()
            try:
                run(config)
                peaks[name, n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for name in runs:
        assert peaks[name, 8] <= 1.25 * peaks[name, 2], peaks


def test_cli_cluster_greedy_method(tmp_path):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict", "decode"):
        assert main([command, "--config", cfg]) == 0
    assert main(["cluster", "--config", cfg, "--method", "greedy"]) == 0
    lanes = json.loads((tmp_path / "out" / "lanes" / "lanes_00000.json").read_text())
    assert lanes["kind"] == "lanes" and len(lanes["lanes"]) == 2


def _default_predicted(tmp_path):
    """One scene of the default config at seed 1, predicted: (config path,
    prediction file path, the parsed prediction file)."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_scenes": 1, "master_seed": 1,
                               "output_dir": str(tmp_path / "out")}))
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", str(cfg)]) == 0
    pred_path = tmp_path / "out" / "preds" / "pred_00000.json"
    return str(cfg), pred_path, json.loads(pred_path.read_text())


def test_cli_cluster_drops_an_instance_without_two_distinct_points(tmp_path, capsys):
    # a line 3 m left of the corner tile (25, 0) at pi/4 touches the tile
    # only at its corner; its one-segment instance used to end cluster with
    # a config error
    cfg, pred_path, d = _default_predicted(tmp_path)
    p, res, _ = angle_to_soft_labels(np.pi / 4, BINS)
    k = 25 * GRID.n_cols
    fields = d["fields"]
    fields["score_logit"]["data"][k] = 50.0
    fields["lateral_offset"]["data"][k] = 3.0
    fields["bin_logits"]["data"][k * BINS.n_bins:(k + 1) * BINS.n_bins] = p.tolist()
    fields["bin_residuals"]["data"][k * BINS.n_bins:(k + 1) * BINS.n_bins] = res.tolist()
    pred_path.write_text(json.dumps(d))
    assert main(["decode", "--config", cfg]) == 0
    segments = json.loads((tmp_path / "out" / "segments" / "segments_00000.json").read_text())
    (corner,) = [s for s in segments["segments"] if s["tile"] == [25, 0]]
    assert corner["endpoints"] == [[-10.24, 78.0, 0.0]] * 2
    for method in ("greedy", "embedding"):
        assert main(["cluster", "--config", cfg, "--method", method]) == 0, \
            capsys.readouterr().err
        lanes = json.loads((tmp_path / "out" / "lanes" / "lanes_00000.json").read_text())
        assert lanes["lanes"] and all(lane["points"] != corner["endpoints"]
                                      for lane in lanes["lanes"])
    assert main(["eval", "--config", cfg]) == 0


def test_cli_underflowed_bin_logits_are_a_data_error(tmp_path, capsys):
    # every bin of an occupied tile at probability 0 leaves no angle to
    # decode; this was reported as a config error
    cfg, pred_path, d = _default_predicted(tmp_path)
    k = d["fields"]["score_logit"]["data"].index(max(d["fields"]["score_logit"]["data"]))
    d["fields"]["bin_logits"]["data"][k * BINS.n_bins:(k + 1) * BINS.n_bins] = \
        [-800.0] * BINS.n_bins
    pred_path.write_text(json.dumps(d))
    assert main(["decode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "pred_00000.json" in err and "fields.bin_logits" in err


def _seed3_tree(tmp_path, commands):
    """One default scene at seed 3 run through the given stage commands; the config path."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_scenes": 1, "master_seed": 3,
                               "output_dir": str(tmp_path / "out")}))
    for command in commands:
        assert main([command, "--config", str(cfg)]) == 0
    return str(cfg)


@pytest.mark.parametrize("fault, path, name, command", [
    ("a", "preds/pred_00000.json", "embedding", "decode"),
    ("b", "preds/pred_00000.json", "height_offset", "decode"),
    ("c", "targets/target_00000.json", "height_offset", "predict"),
    ("d", "targets/target_00000.json", "angle", "predict")])
def test_cli_grid_value_beyond_its_bound_is_data_error_where_it_enters(tmp_path, capsys, fault,
                                                                       path, name, command):
    # each used to pass the stage that reads the file: (a) and (b) failed at
    # cluster on the segments file, (c) likewise after predict and decode,
    # and with (d) every stage exited 0 and loss.csv read angle 79.66
    cfg = _seed3_tree(tmp_path, ("generate", "encode", "predict"))
    d = json.loads((tmp_path / "out" / path).read_text())
    lit = (d["fields"]["occupancy"]["data"] if "occupancy" in d["fields"] else
           [v > 0 for v in d["fields"]["score_logit"]["data"]])
    per_tile = len(d["fields"][name]["data"]) // len(lit)
    d["fields"][name]["data"][lit.index(1) * per_tile] = 1e7      # an occupied or kept tile
    (tmp_path / "out" / path).write_text(json.dumps(d))
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and Path(path).name in err and f"'fields.{name}.data'" in err


def test_cli_scene_vertex_outside_the_eval_extent_is_data_error_at_encode(tmp_path, capsys):
    # fault (e): encode, predict, decode and cluster used to exit 0, and only
    # eval exited 3 on the scene file
    cfg = _seed3_tree(tmp_path, ("generate",))
    scene_path = tmp_path / "out" / "scenes" / "scene_00000.json"
    d = json.loads(scene_path.read_text())
    d["lanes"][0]["points"][1][0] = 1e5
    scene_path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["encode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "scene_00000.json" in err and "'lanes[0].points'" in err


@pytest.mark.parametrize("name, value, code", [
    ("midpoint", 1e5, 3), ("endpoints", -1e5, 3), ("midpoint", 0.0, 0)])
def test_cli_segment_point_outside_the_eval_extent_is_data_error_at_cluster(
        tmp_path, capsys, name, value, code):
    # a midpoint at x = 1e5 used to cluster into a lane that only eval rejected
    cfg, path, d = _segments_file(tmp_path)
    entry = d["segments"][1]
    (entry[name][0] if name == "endpoints" else entry[name])[0] = value
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["cluster", "--config", cfg]) == code
    if code:
        assert f"'segments[1].{name}'" in capsys.readouterr().err


def test_grid_reader_takes_a_whole_float_among_ints_and_rejects_a_fraction():
    # a payload of ints with one float goes through the whole-number check
    d = _as_read(io.targets_to_dict(_targets()))
    data = d["fields"]["lane_id"]["data"]
    k = d["fields"]["occupancy"]["data"].index(1.0)
    assert all(type(v) is int for v in data)
    data[k] = float(data[k])
    assert io.targets_from_dict(d).lane_id.reshape(-1)[k] == data[k]
    data[k] = 2.5
    with pytest.raises(io.SchemaError) as exc:
        io.targets_from_dict(d)
    assert exc.value.field == "fields.lane_id.data" and "whole number" in exc.value.message


def test_cli_surface_wavelength_too_short_for_the_grid_is_config_error(tmp_path, capsys):
    # generate used to make an empty scenes/ and fail inside generate_scene
    cfg = write_config(tmp_path, n_scenes=1, scene={"surface_wavelength": 5.0})
    assert main(["generate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "surface_wavelength" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="surface_wavelength"):
        PipelineConfig(scene=SceneConfig(surface_wavelength=6.0))


def test_cli_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--config", write_config(tmp_path), "--method", "psychic"])
    assert exc.value.code == 2


def test_cli_loss_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["loss", "--config", cfg]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(std_io.StringIO(out)))
    assert rows[0] == ["scene", "score", "angle", "offsets", "pull", "push", "total"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    # zero-noise predictions sit at the loss floor: every term vanishes except
    # the per-bin cross entropy, whose minimum is the binary entropy of the
    # soft labels summed over bins of occupied tiles
    for r in rows[1:]:
        target_path = tmp_path / "out" / "targets" / f"target_{int(r[0]):05d}.json"
        t = io.targets_from_dict(io.load_json(target_path))
        p = t.bin_probs[t.occupancy > 0.5]
        floor = float(np.sum(
            np.where(p > 0, -p * np.log(p, where=p > 0, out=np.zeros_like(p)), 0.0)
            + np.where(p < 1, -(1 - p) * np.log1p(-p, where=p < 1, out=np.zeros_like(p)), 0.0)))
        score, angle, offsets, pull, push, total = (float(v) for v in r[1:])
        assert abs(score) < 1e-12 and offsets == 0.0 and pull == 0.0 and push == 0.0
        npt.assert_allclose(angle, floor, rtol=1e-9)
        npt.assert_allclose(total, score + angle + offsets + pull + push, rtol=1e-12)
    assert (tmp_path / "out" / "loss.csv").read_text() == out


def test_cli_loss_gradient_check(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["loss", "--config", cfg, "--check-grads"]) == 0
    out = capsys.readouterr().out
    grad_rows = [line for line in out.splitlines() if line.startswith("grad_check")]
    assert len(grad_rows) == 2
    for line in grad_rows:
        assert float(line.split(",")[-1]) <= 1e-6


def test_run_pipeline_parallel_equals_serial(tmp_path):
    cfg = PipelineConfig.from_dict(tiny_config_dict(tmp_path))
    report_serial, results_serial = run_pipeline(cfg, jobs=1)
    report_parallel, results_parallel = run_pipeline(cfg, jobs=2)
    assert report_parallel.to_dict() == report_serial.to_dict()
    for a, b in zip(results_serial, results_parallel):
        assert io.canonical_json(io.lanes_to_dict(a.lanes)) == \
            io.canonical_json(io.lanes_to_dict(b.lanes))
        assert io.canonical_json(io.preds_to_dict(a.preds)) == \
            io.canonical_json(io.preds_to_dict(b.preds))


@settings(max_examples=6)
@given(n_scenes=st.integers(1, 5), jobs=st.integers(2, 4),
       master_seed=st.integers(0, 2 ** 64 - 1),
       sigmas=st.lists(st.floats(0.0, 0.3), min_size=4, max_size=4),
       rates=st.lists(st.floats(0.0, 0.2), min_size=2, max_size=2))
def test_cmd_pipeline_jobs2_tree_equals_serial(n_scenes, jobs, master_seed, sigmas, rates):
    # uneven shares, and more jobs than scenes, write the serial tree too
    sigma_r, sigma_phi, sigma_z, sigma_f = sigmas
    noise = {"sigma_r": sigma_r, "sigma_phi": sigma_phi, "sigma_z": sigma_z, "sigma_f": sigma_f,
             "drop_rate": rates[0], "fp_rate": rates[1]}
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for run_jobs in (1, jobs):
            out = Path(tmp) / f"jobs{run_jobs}"
            cmd_pipeline(PipelineConfig.from_dict({
                "n_scenes": n_scenes, "master_seed": master_seed, "noise": noise,
                "output_dir": str(out)}), jobs=run_jobs)
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] == trees[1]


# Runs `bevlanes pipeline` with a clustering step that raises a SchemaError
# in the forked pool workers only (argv[1] "worker") or in the calling
# process only ("caller").
_WORKER_RAISES = """
import os, sys
from bevlanes import cli, io, pipeline

CALLER, real = os.getpid(), pipeline.cluster_segments

def cluster_segments(segments, params):
    if (os.getpid() == CALLER) == (sys.argv[1] == "caller"):
        raise io.SchemaError("segments/segments_00000.json", "segments[0].score", "planted")
    return real(segments, params)

pipeline.cluster_segments = cluster_segments
sys.exit(cli.main(sys.argv[2:]))
"""


def _run_script(script: str, *argv: str) -> tuple[int, str]:
    """(exit code, stderr) of `python -c script *argv` in a session of its own,
    which must leave no process of that session behind; a run that outlives
    the timeout is killed with every process of its session, and fails the test."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(bevlanes.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)     # the forked children too
        proc.communicate()
        pytest.fail(f"{argv} hung")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return proc.returncode, err


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_cli_pipeline_schema_error_in_a_pool_worker_is_data_error(tmp_path, where):
    # The error used to fail to unpickle in the parent, which then waited for
    # the lost result forever; a timeout turns such a hang into a failure.
    code, err = _run_script(_WORKER_RAISES, where, "pipeline", "--jobs", "2",
                            "--config", write_config(tmp_path))
    assert code == 3, err
    assert "data error" in err and "segments[0].score" in err and "planted" in err


def test_fan_out_raises_the_first_fault_in_scene_order_after_every_share():
    def work(i):
        if i in faults:
            raise KeyError(f"scene {i}")
        return i

    faults = set()
    assert pipeline._fan_out(work, 5, 3) == list(range(5))     # shares 0-1, 2-3 and 4
    for faults, first in [({2, 4}, 2), ({4, 0}, 0)]:
        with pytest.raises(KeyError, match=f"scene {first}") as caught:
            pipeline._fan_out(work, 5, 3)
        # a child's fault carries its traceback, a fault of this process its own
        cause = str(caught.value.__cause__)
        assert ("raised in the process of scenes 2 to 3" in cause and "in work" in cause) == \
            (first == 2)


# Runs `bevlanes <command> --jobs 2` with the per-scene function named by
# argv[1] killing its own process with SIGKILL in the forked child only.
_CHILD_KILLED = """
import os, signal, sys
from bevlanes import cli, pipeline

CALLER, name = os.getpid(), sys.argv[1]
real = getattr(pipeline, name)

def killed(*args):
    if os.getpid() != CALLER:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args)

setattr(pipeline, name, killed)
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("command, step", [("pipeline", "process_scene"), ("loss", "_loss_row")])
def test_cli_child_killed_by_a_signal_fails_the_run_and_leaves_no_process(tmp_path, command,
                                                                          step):
    # multiprocessing.Pool replaced a worker killed by a signal and waited for
    # its lost result forever (CPython bpo-22393)
    cfg = write_config(tmp_path)        # two scenes: the child runs scene 1
    if command == "loss":
        assert main(["pipeline", "--config", cfg]) == 0
    code, err = _run_script(_CHILD_KILLED, step, command, "--jobs", "2", "--config", cfg)
    assert code != 0, err
    assert f"process of scenes 1 to 1 ended without a result, killed by signal {signal.SIGKILL:d}" \
        in err


# One scene through every entry point in a fresh interpreter; prints which
# of the two slow imports the run pulled in.
_IMPORTS_OF_A_RUN = """
import sys
from bevlanes import pipeline
from bevlanes.config import PipelineConfig

config = PipelineConfig.from_dict({"n_scenes": 1, "output_dir": sys.argv[1]})
pipeline.run_pipeline(config)
pipeline.cmd_pipeline(config)
pipeline.cmd_loss(config)
for name in pipeline.STAGES:
    pipeline.run_stage(config, name)
pipeline.cmd_eval(config)
sys.stderr.write(repr(sorted({"multiprocessing", "numpy.ma"} & set(sys.modules))))
"""


def test_a_run_imports_neither_multiprocessing_nor_numpy_ma(tmp_path):
    # set-up time of every fresh process: multiprocessing took 5-10 ms, and
    # numpy.ma, which numpy 2.4's plain np.unique imports, 10-16 ms
    assert _run_script(_IMPORTS_OF_A_RUN, str(tmp_path / "out")) == (0, "[]")


@settings(max_examples=6)
@given(n_scenes=st.integers(1, 5), jobs=st.integers(2, 4),
       master_seed=st.integers(0, 2 ** 64 - 1),
       sigmas=st.lists(st.floats(0.0, 0.3), min_size=4, max_size=4),
       rates=st.lists(st.floats(0.0, 0.2), min_size=2, max_size=2))
def test_file_commands_under_jobs_write_the_serial_tree(n_scenes, jobs, master_seed, sigmas,
                                                        rates):
    # each stage command, eval and loss share the scenes out as pipeline does
    sigma_r, sigma_phi, sigma_z, sigma_f = sigmas
    noise = {"sigma_r": sigma_r, "sigma_phi": sigma_phi, "sigma_z": sigma_z, "sigma_f": sigma_f,
             "drop_rate": rates[0], "fp_rate": rates[1]}
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for run_jobs in (1, jobs):
            out = Path(tmp) / f"jobs{run_jobs}"
            config = PipelineConfig.from_dict({"n_scenes": n_scenes, "master_seed": master_seed,
                                               "noise": noise, "output_dir": str(out)})
            paths = [pipeline.run_stage(config, name, jobs=run_jobs) for name in pipeline.STAGES]
            report = pipeline.cmd_eval(config, jobs=run_jobs).to_dict()
            csv = pipeline.cmd_loss(config, jobs=run_jobs)
            runs.append(([[p.relative_to(out) for p in ps] for ps in paths], report, csv,
                         {p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()}))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["generate", "encode", "predict", "decode", "cluster", "eval",
                                     "loss", "pipeline"])
def test_cli_every_command_takes_jobs(tmp_path, capsys, command, monkeypatch):
    cfg = write_config(tmp_path)
    assert main([command, "--jobs", "0", "--config", cfg]) == 2
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err
    monkeypatch.delattr(os, "fork")
    assert main([command, "--jobs", "2", "--config", cfg]) == 2
    assert "needs os.fork" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_score_records_of_an_artifact_batch_pickle_small(tmp_path):
    # what a cmd_pipeline worker returns, on 16 scenes with the noise of
    # acceptance criterion 10 (the artifacts_jobs2 benchmark workload)
    cfg = PipelineConfig.from_dict({
        "n_scenes": 16, "output_dir": str(tmp_path),
        "noise": {"sigma_r": 0.1, "fp_rate": 0.02, "sigma_f": 0.05}})
    for d in [stage.dir for stage in pipeline.STAGES.values()] + ["plots"]:
        (tmp_path / d).mkdir()
    sizes = [len(pickle.dumps(pipeline._write_scene(cfg, i, "embedding"),
                              pickle.HIGHEST_PROTOCOL)) for i in range(cfg.n_scenes)]
    assert max(sizes) <= 16 * 1024, sizes


def test_cmd_pipeline_report_is_the_report_of_run_pipeline(tmp_path):
    cfg = PipelineConfig.from_dict({**tiny_config_dict(tmp_path),
                                    "noise": {"sigma_r": 0.1, "fp_rate": 0.02}})
    want = run_pipeline(cfg)[0].to_dict()
    for jobs in (1, 2):
        assert cmd_pipeline(cfg, jobs=jobs).to_dict() == want
        assert json.loads((tmp_path / "out" / "report.json").read_text()) == \
            json.loads(json.dumps(want))


def test_evaluate_results_follows_scene_index_not_list_order():
    # zero noise: every lane has confidence 1.0, so ties across scenes rank
    # by scene order and a reordered list must not reorder them
    cfg = PipelineConfig(n_scenes=10)
    report, results = run_pipeline(cfg)
    assert evaluate_results(results[::-1], cfg).to_dict() == report.to_dict()


def _set(d: dict, where: tuple, key: str):
    """d with `key` added to the object at the path `where`."""
    for step in where:
        d = d[step]
    d[key] = 1


@pytest.mark.parametrize("path, where, key, field", [
    ("scenes/scene_00000.json", (), "extra", "extra"),
    ("scenes/scene_00000.json", ("lanes", 0), "colour", "lanes[0].colour"),
    ("targets/target_00000.json", (), "extra", "extra"),
    ("targets/target_00000.json", ("fields", "angle"), "units", "fields.angle.units"),
    ("targets/target_00000.json", ("fields",), "extra", "fields.extra"),
    ("preds/pred_00000.json", (), "extra", "extra"),
    ("preds/pred_00000.json", ("fields", "score_logit"), "units", "fields.score_logit.units"),
    ("preds/pred_00000.json", ("fields",), "extra", "fields.extra"),
    ("segments/segments_00000.json", (), "extra", "extra"),
    ("segments/segments_00000.json", ("segments", 0), "colour", "segments[0].colour"),
    ("lanes/lanes_00000.json", (), "extra", "extra"),
    ("lanes/lanes_00000.json", ("lanes", 0), "colour", "lanes[0].colour"),
])
def test_cli_unknown_key_in_any_file_object_is_data_error(tmp_path, capsys, path, where, key,
                                                           field):
    # each of these used to read without a word, and the key was dropped
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg]) == 0
    stage_path = tmp_path / "out" / path
    d = json.loads(stage_path.read_text())
    _set(d, where, key)
    stage_path.write_text(json.dumps(d))
    reader = {"scenes": "eval", "targets": "loss", "preds": "loss", "segments": "cluster",
              "lanes": "eval"}[path.split("/")[0]]
    assert main([reader, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and Path(path).name in err and f"'{field}'" in err


@pytest.mark.parametrize("path, where, key, field", [
    ("targets/target_00000.json", (), "kind", "kind"),
    ("targets/target_00000.json", (), "grid", "grid"),
    ("targets/target_00000.json", (), "fields", "fields"),
    ("targets/target_00000.json", ("fields",), "occupancy", "fields.occupancy"),
    ("targets/target_00000.json", ("fields", "occupancy"), "shape", "fields.occupancy.shape"),
    ("targets/target_00000.json", ("fields", "occupancy"), "dtype", "fields.occupancy.dtype"),
    ("targets/target_00000.json", ("fields", "occupancy"), "data", "fields.occupancy.data"),
    ("preds/pred_00000.json", (), "bins", "bins"),
    ("preds/pred_00000.json", (), "embedding_dim", "embedding_dim"),
    ("preds/pred_00000.json", ("fields",), "embedding", "fields.embedding"),
    ("preds/pred_00000.json", ("fields", "score_logit"), "shape", "fields.score_logit.shape"),
    ("preds/pred_00000.json", ("fields", "score_logit"), "dtype", "fields.score_logit.dtype"),
    ("preds/pred_00000.json", ("fields", "score_logit"), "data", "fields.score_logit.data"),
])
def test_cli_missing_key_in_any_grid_file_object_is_data_error(tmp_path, capsys, path, where,
                                                               key, field):
    # a missing key inside `fields` used to be named bare, as if the file
    # itself lacked it: 'occupancy' or 'shape', not the full dotted name
    cfg, _ = _predicted(tmp_path)
    stage_path = tmp_path / "out" / path
    d = json.loads(stage_path.read_text())
    obj = d
    for step in where:
        obj = obj[step]
    del obj[key]
    stage_path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["loss", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and Path(path).name in err and f"'{field}'" in err


@pytest.mark.parametrize("path, list_key, key, command", [
    ("scenes/scene_00000.json", "lanes", "points", "eval"),
    ("scenes/scene_00000.json", "lanes", "lane_id", "eval"),
    ("lanes/lanes_00000.json", "lanes", "points", "eval"),
    ("lanes/lanes_00000.json", "lanes", "confidence", "eval"),
    ("segments/segments_00000.json", "segments", "score", "cluster")])
def test_cli_missing_key_in_a_list_entry_names_the_entry(tmp_path, capsys, path, list_key, key,
                                                         command):
    # a missing key of a scene or lanes file's lane used to be named bare, as
    # if the file itself lacked it
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg]) == 0
    stage_path = tmp_path / "out" / path
    d = json.loads(stage_path.read_text())
    del d[list_key][0][key]
    stage_path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and Path(path).name in err and f"'{list_key}[0].{key}'" in err


@pytest.mark.parametrize("path", ["scenes/scene_00000.json", "lanes/lanes_00000.json"])
@pytest.mark.parametrize("axis, value", [
    (0, 1e308), (0, -1e308), (0, 2 ** 70), (0, -2 ** 70), (1, 1e12)])
def test_cli_lane_coordinate_beyond_the_bound_is_data_error(tmp_path, capsys, path, axis,
                                                            value):
    # on ±1e308 and ±2**70 eval used to exit 2 ("config error": an overflow to
    # inf, or numpy's "Maximum allowed size exceeded") or 0, or to stop on an
    # overflow warning; a lanes vertex at y = 1e12 asked for 14.6 TiB and
    # ended in an uncaught MemoryError
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg]) == 0
    stage_path = tmp_path / "out" / path
    d = json.loads(stage_path.read_text())
    d["lanes"][0]["points"][1][axis] = value
    stage_path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["eval", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and Path(path).name in err and "'lanes[0].points'" in err


@pytest.mark.parametrize("kind", ["scene", "lanes"])
def test_lane_coordinate_bound_is_inclusive(kind):
    reader, d, _ = _artifact_dicts()[kind]
    d["lanes"][0]["points"][0][0] = io.MAX_COORDINATE
    reader(d)
    d["lanes"][0]["points"][0][0] = -math.nextafter(io.MAX_COORDINATE, math.inf)
    with pytest.raises(io.SchemaError) as exc:
        reader(d)
    assert exc.value.field == "lanes[0].points"


def test_cli_lane_vertex_far_outside_the_eval_extent_is_data_error_at_once(tmp_path, capsys):
    # eval resampled the 2e6 m lane at 1 m steps and exited 0 after about 5 s
    cfg = write_config(tmp_path, n_scenes=1, master_seed=3)
    assert main(["pipeline", "--config", cfg]) == 0
    lanes_path = tmp_path / "out" / "lanes" / "lanes_00000.json"
    d = json.loads(lanes_path.read_text())
    d["lanes"][0]["points"][1][1] = 1e6
    lanes_path.write_text(json.dumps(d))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["eval", "--config", cfg]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert "data error" in err and "lanes_00000.json" in err and "'lanes[0].points'" in err


@pytest.mark.parametrize("path", ["scenes/scene_00000.json", "lanes/lanes_00000.json"])
@pytest.mark.parametrize("axis, side", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_cli_eval_extent_edge_is_inside(tmp_path, capsys, path, axis, side):
    # a vertex on the edge of the extent evaluates; the next float beyond it does not
    cfg = write_config(tmp_path, n_scenes=1)
    assert main(["pipeline", "--config", cfg]) == 0
    edge = PipelineConfig.from_dict(json.loads(Path(cfg).read_text())).eval.extent[axis][side]
    stage_path = tmp_path / "out" / path
    d = json.loads(stage_path.read_text())
    for value, code in [(edge, 0), (math.nextafter(edge, math.inf if side else -math.inf), 3)]:
        d["lanes"][0]["points"][1][axis] = value
        stage_path.write_text(json.dumps(d))
        capsys.readouterr()
        assert main(["eval", "--config", cfg]) == code
    assert Path(path).name in capsys.readouterr().err


def test_cli_plain_value_error_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    # main used to report every ValueError as "config error" with exit 2,
    # a numpy one raised on the data of a stage file too
    def fail(*args):
        raise ValueError("not a config fault")
    monkeypatch.setattr(bevlanes.cli, "run_stage", fail)
    with pytest.raises(ValueError, match="not a config fault"):
        main(["generate", "--config", write_config(tmp_path)])
    assert "config error" not in capsys.readouterr().err
