"""The segments reader, by generated cases.

A decoded segment set is written by `segments_to_dict` and `canonical_json`
and read back by `segments_from_dict` bit for bit. One bad value planted in
row k of field f, of any kind the reader rejects, is a SchemaError named
`segments[k].f`, whichever row and field it is planted in.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlanes import io
from bevlanes.codec import AngleBinSpec, SegmentSet, array_fields, decode_grid, encode_scene
from bevlanes.geometry import GridSpec
from bevlanes.losses import EmbeddingParams
from bevlanes.synth import NoiseConfig, SceneConfig, generate_scene, oracle_predict

GRID, BINS = GridSpec(), AngleBinSpec()
NAMES = [f.name for f in array_fields(SegmentSet)]


def _decoded(seed: int, sigma_r: float, fp_rate: float, dim: int) -> SegmentSet:
    """One noisy generated scene decoded, with embeddings of `dim` values."""
    scene = generate_scene(SceneConfig(), GRID, seed)
    noise = NoiseConfig(sigma_r=sigma_r, sigma_phi=0.1, sigma_z=0.1, fp_rate=fp_rate, sigma_f=0.5)
    preds = oracle_predict(encode_scene(scene.lanes, GRID, BINS), noise, EmbeddingParams(dim=8),
                           seed)
    segments = decode_grid(preds)
    return SegmentSet(**{f.name: getattr(segments, f.name) for f in array_fields(segments)
                         if f.name != "embedding"}, embedding=segments.embedding[:, :dim].copy())


@st.composite
def segment_sets(draw):
    if draw(st.integers(0, 9)) == 0:
        return SegmentSet.empty()
    segments = _decoded(draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from((0.0, 0.3, 3.0))),
                        draw(st.sampled_from((0.0, 0.05))), draw(st.integers(1, 8)))
    if len(segments) and draw(st.booleans()):
        segments.midpoint[draw(st.integers(0, len(segments) - 1)), 2] = -0.0
    return segments


@settings(max_examples=40, deadline=None)
@given(segment_sets())
def test_decoded_segments_round_trip_bit_for_bit(segments):
    text = io.canonical_json(io.segments_to_dict(segments))
    back = io.segments_from_dict(json.loads(text))
    assert io.canonical_json(io.segments_to_dict(back)) == text
    for f in array_fields(SegmentSet):
        a, b = getattr(back, f.name), getattr(segments, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_the_round_trip_cases_hold_degenerate_rows_and_a_negative_zero():
    # the strategy reaches both: a sigma_r of 3 m moves many lines clear of their tiles
    segments = _decoded(3, 3.0, 0.0, 5)
    assert segments.degenerate.any() and not segments.degenerate.all()
    segments.midpoint[0, 2] = -0.0
    back = io.segments_from_dict(json.loads(io.canonical_json(io.segments_to_dict(segments))))
    assert np.signbit(back.midpoint[0, 2])
    assert back.degenerate.tobytes() == segments.degenerate.tobytes()


def _leaf(row: dict, name: str) -> tuple:
    """The list holding the last leaf of row[name], and its index there."""
    parent, key = row, name
    while isinstance(parent[key], list):
        parent, key = parent[key], len(parent[key]) - 1
    return parent, key


def _plant(row: dict, name: str, kind: str, rows: list, k: int, value="x") -> None:
    """Make row k's value of `name` bad in the given way (for "type", by the
    value of a wrong JSON type put in place of its last leaf)."""
    parent, key = _leaf(row, name)
    if kind == "type":
        parent[key] = value
    elif kind == "shape":       # a scalar in a list, or a list one level deeper
        row[name] = [row[name]]
    elif kind == "bounds":
        parent[key] = {"score": 1.5, "tile": -1, "direction": 2.0}.get(name, 2e6)
    else:                       # a tile an earlier row holds
        row["tile"] = list(rows[k - 1]["tile"])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 8), data=st.data())
def test_one_planted_fault_names_its_row_and_field(seed, dim, data):
    d = json.loads(io.canonical_json(io.segments_to_dict(_decoded(seed, 0.3, 0.05, dim))))
    rows = d["segments"]
    kind = data.draw(st.sampled_from(("type", "shape", "bounds", "repeat")))
    name = "tile" if kind == "repeat" else data.draw(st.sampled_from(
        [n for n in NAMES if kind != "bounds" or n != "degenerate"]))
    k = data.draw(st.integers(1 if kind == "repeat" else 0, len(rows) - 1))
    value = data.draw(st.sampled_from((0, 1, 0.0, "x", None, [], {}) if name == "degenerate"
                                      else ("x", None, True, False, [], {})))
    _plant(rows[k], name, kind, rows, k, value)
    with pytest.raises(io.SchemaError) as exc:
        io.segments_from_dict(d, path="segments.json")
    assert exc.value.field == f"segments[{k}].{name}", exc.value


@pytest.mark.parametrize("faults, field", [
    # JSON type and per-row shape first: the first bad row, and in it the first field
    ([(3, "tile", "type"), (1, "midpoint", "shape")], "segments[1].midpoint"),
    ([(2, "degenerate", "type"), (2, "embedding", "type")], "segments[2].embedding"),
    ([(0, "score", "bounds"), (5, "tile", "type")], "segments[5].tile"),
    # then the bounds, repeated tiles and unit directions, likewise
    ([(4, "score", "bounds"), (2, "tile", "repeat")], "segments[2].tile"),
    ([(2, "direction", "bounds"), (2, "midpoint", "bounds")], "segments[2].midpoint"),
    ([(3, "tile", "repeat"), (3, "endpoints", "bounds")], "segments[3].endpoints"),
    ([(3, "tile", "repeat"), (3, "embedding", "bounds")], "segments[3].tile"),
    ([(1, "score", "bounds"), (1, "direction", "bounds")], "segments[1].direction"),
    ([(4, "tile", "repeat"), (2, "tile", "repeat")], "segments[2].tile"),
])
def test_of_several_faults_the_first_row_and_field_is_named(faults, field):
    d = json.loads(io.canonical_json(io.segments_to_dict(_decoded(3, 0.0, 0.0, 4))))
    rows = d["segments"]
    for k, name, kind in faults:
        _plant(rows[k], name, kind, rows, k, 0 if name == "degenerate" else "x")
    with pytest.raises(io.SchemaError) as exc:
        io.segments_from_dict(d)
    assert exc.value.field == field


@pytest.mark.parametrize("k, bad", [(0, 1), (1, 1), (-1, -1)])
def test_every_embedding_has_the_length_of_the_first(k, bad):
    d = json.loads(io.canonical_json(io.segments_to_dict(_decoded(3, 0.0, 0.0, 4))))
    rows = d["segments"]
    rows[k]["embedding"].pop()
    with pytest.raises(io.SchemaError) as exc:
        io.segments_from_dict(d)
    assert exc.value.field == f"segments[{bad % len(rows)}].embedding"
    assert exc.value.message == f"expected shape ({4 if k else 3},), got ({3 if k else 4},)"
