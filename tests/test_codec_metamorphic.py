"""Metamorphic relations of encode, the oracle and clustering.

The tiles are anchor-free and semi-local, so moving a scene by a symmetry of
the grid moves its targets with it:

- mirroring x -> -x (the grid is centred on x = 0) maps column c to
  n_cols - 1 - c, negates the lateral offset and maps the angle phi to
  pi - phi (mod 2 pi), and keeps the height offset;
- translating a scene by whole tile lengths in y shifts the rows.

Occupancy and lane ids must match exactly. Offsets and angles are compared
within TOL: both encodings clip the lanes at grid lines that are the same
only up to rounding, which moves a fitted line by a few ulps (3.1e-15 at
most over 200 generated scenes).

Two relations hold bit for bit, over every topology and the dense noise:

- an order-preserving relabelling of the lanes (id -> a * id + b, a >= 1)
  maps the targets' lane ids through that map and changes nothing else, and
  the oracle, which places one anchor per lane in id order, predicts the
  same bytes from both grids for one seed. A general permutation is left
  out: a tile on a stem that two lanes share (split, merge) is a tie between
  them, and a tie goes to the lower id, so a map that swaps the order of
  two ids can move the tile to the other lane (and the oracle's anchors);
- translating every segment embedding by one vector keeps the partition of
  `cluster_segments` (mean shift sees only differences of embeddings),
  compared as sets of tiles.
"""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from bevlanes import io
from bevlanes.clustering import ClusterParams, cluster_segments
from bevlanes.codec import AngleBinSpec, array_fields, decode_grid, encode_scene, wrap_signed
from bevlanes.geometry import GridSpec, Lane3D
from bevlanes.losses import EmbeddingParams
from bevlanes.synth import TOPOLOGIES, NoiseConfig, SceneConfig, generate_scene, oracle_predict

GRID = GridSpec()
BINS = AngleBinSpec()
TOL = 1e-9
DENSE_NOISE = NoiseConfig(sigma_r=0.1, sigma_phi=0.05, sigma_z=0.05, drop_rate=0.05,
                          fp_rate=0.05, sigma_f=0.2)


def _moved(lanes, scale=(1.0, 1.0, 1.0), shift=(0.0, 0.0, 0.0)):
    return [Lane3D(points=lane.points * scale + shift, lane_id=lane.lane_id) for lane in lanes]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_mirroring_x_mirrors_the_columns(seed):
    lanes = generate_scene(SceneConfig(), GRID, seed).lanes
    t = encode_scene(lanes, GRID, BINS)
    m = encode_scene(_moved(lanes, (-1.0, 1.0, 1.0)), GRID, BINS)
    npt.assert_array_equal(m.occupancy, t.occupancy[:, ::-1])
    npt.assert_array_equal(m.lane_id, t.lane_id[:, ::-1])
    occ = m.occupancy == 1.0
    npt.assert_allclose(m.lateral_offset[occ], -t.lateral_offset[:, ::-1][occ], rtol=0, atol=TOL)
    npt.assert_allclose(m.height_offset[occ], t.height_offset[:, ::-1][occ], rtol=0, atol=TOL)
    turn = wrap_signed(m.angle[occ] - (np.pi - t.angle[:, ::-1][occ]))
    npt.assert_allclose(turn, 0.0, rtol=0, atol=TOL)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3))
def test_translating_by_whole_tile_lengths_in_y_shifts_the_rows(seed, k):
    lanes = generate_scene(SceneConfig(), GRID, seed).lanes
    t = encode_scene(lanes, GRID, BINS)
    s = encode_scene(_moved(lanes, shift=(0.0, k * GRID.tile_length, 0.0)), GRID, BINS)
    # the scene starts at y >= 0, so its first k rows move up and leave none behind
    npt.assert_array_equal(s.occupancy[:k], 0.0)
    npt.assert_array_equal(s.occupancy[k:], t.occupancy[:-k])
    npt.assert_array_equal(s.lane_id[k:], t.lane_id[:-k])
    occ = s.occupancy[k:] == 1.0
    for name in ("lateral_offset", "height_offset"):
        npt.assert_allclose(getattr(s, name)[k:][occ], getattr(t, name)[:-k][occ],
                            rtol=0, atol=TOL, err_msg=name)
    npt.assert_allclose(wrap_signed(s.angle[k:][occ] - t.angle[:-k][occ]), 0.0, rtol=0, atol=TOL)


def _lanes(seed, topology):
    return generate_scene(SceneConfig(topology_weights={topology: 1.0}), GRID, seed).lanes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), topology=st.sampled_from(TOPOLOGIES),
       a=st.integers(1, 7), b=st.integers(0, 6))
def test_an_order_preserving_relabelling_maps_only_the_lane_ids(seed, topology, a, b):
    lanes = _lanes(seed, topology)
    t = encode_scene(lanes, GRID, BINS)
    r = encode_scene([Lane3D(points=lane.points, lane_id=a * lane.lane_id + b) for lane in lanes],
                     GRID, BINS)
    npt.assert_array_equal(r.lane_id, np.where(t.lane_id >= 0, a * t.lane_id + b, -1))
    for f in array_fields(t):
        if f.name != "lane_id":
            assert getattr(r, f.name).tobytes() == getattr(t, f.name).tobytes(), f.name
    predicted = [io.canonical_json(io.preds_to_dict(oracle_predict(g, DENSE_NOISE,
                                                                   EmbeddingParams(), seed)))
                 for g in (t, r)]
    assert predicted[0] == predicted[1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), topology=st.sampled_from(TOPOLOGIES))
def test_translating_every_embedding_keeps_the_clustering_partition(seed, topology):
    targets = encode_scene(_lanes(seed, topology), GRID, BINS)
    segments = decode_grid(oracle_predict(targets, DENSE_NOISE, EmbeddingParams(), seed))
    moved = replace(segments, embedding=segments.embedding + np.array([5.0, -3.0, 17.0, -1.0]))
    partitions = [{frozenset(map(tuple, inst.segments.tile.tolist()))
                   for inst in cluster_segments(s, ClusterParams())} for s in (segments, moved)]
    assert partitions[0] == partitions[1]
