"""The array formatters of `plots` against the loops they replaced.

`_polyline` mapped each point through `_to_px` and `heatmap_svg` clamped
and rounded each tile's score in Python. The reference copies below are
those functions verbatim. Every case asserts that the SVG text is equal, so
the plots written from them stay byte-identical: float64 arithmetic gives
the same bits elementwise as on scalars, and `np.round` rounds a .5 tie to
even, as `round` does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bevlanes import plots
from bevlanes.geometry import Curve, GridSpec, Lane3D
from bevlanes.plots import _header, _to_px

GRIDS = [GridSpec(), GridSpec(n_cols=64, n_rows=104, tile_width=0.32, tile_length=0.75),
         GridSpec(n_cols=3, n_rows=2, tile_width=1.1, tile_length=2.7, y_min=-4.5)]


def ref_polyline(points, grid: GridSpec, color: str, width: float) -> str:
    coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in
                      (_to_px(p[0], p[1], grid) for p in points))
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width:.2f}" stroke-linecap="round"/>')


def ref_heatmap_svg(scores: np.ndarray, grid: GridSpec) -> str:
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (grid.n_rows, grid.n_cols):
        raise ValueError(f"scores shape {scores.shape} does not match grid "
                         f"({grid.n_rows}, {grid.n_cols})")
    parts = [_header(grid)]
    xs = [f"{_to_px(grid.x_min + j * grid.tile_width, 0.0, grid)[0]:.2f}"
          for j in range(grid.n_cols)]
    size = (f'width="{grid.tile_width * plots._SCALE:.2f}" '
            f'height="{grid.tile_length * plots._SCALE:.2f}"')
    for i, row in enumerate(scores.tolist()):
        y = f"{_to_px(0.0, grid.y_min + (i + 1) * grid.tile_length, grid)[1]:.2f}"
        for x, score in zip(xs, row):
            s = min(1.0, max(0.0, score))
            r, g = int(round(220 * (1.0 - s))), int(round(200 * s))
            parts.append(f'<rect x="{x}" y="{y}" {size} fill="rgb({r},{g},40)" '
                         f'stroke="#666" stroke-width="0.3"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Scores s at which 200 * s or 220 * (1 - s) is exactly a .5 tie.
GREEN_TIES = [s for s in ((k + 0.5) / 200 for k in range(200)) if 200 * s % 1 == 0.5]
RED_TIES = [s for s in (1.0 - (k + 0.5) / 220 for k in range(220)) if 220 * (1.0 - s) % 1 == 0.5]
EDGE_SCORES = [0.0, -0.0, 1.0, 0.5, 1e-300, 1.0 - 2 ** -53, -0.25, 1.5,
               float("nan"), float("inf"), -float("inf")]

# Coordinates with both zeros, negatives, and points whose pixel value sits
# on or next to a .xx5 rounding boundary of "{:.2f}". At x = -27.233125 on
# these grids, (x + (1 - x_min)) * 8 rounds to another string than `_to_px`.
COORDS = (st.sampled_from([0.0, -0.0, -1.0, -10.24, 10.24, 0.000625, -0.000625, 0.001875,
                           -12.5, 78.0, 79.0, 1e-9, -1e-9, 1e5, -27.233125])
          | st.floats(-200.0, 200.0, allow_nan=False))


def test_score_ties_are_found():
    assert len(GREEN_TIES) > 100 and len(RED_TIES) > 100


@settings(max_examples=150)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.sampled_from([2, 3])),
                  elements=COORDS),
       st.sampled_from(GRIDS), st.sampled_from([("#cc2222", 2.0), ("#2244cc", 1.2)]))
def test_polyline_matches_point_loop(points, grid, style):
    assert plots._polyline(points, grid, *style) == ref_polyline(points, grid, *style)


@pytest.mark.parametrize("grid", GRIDS)
def test_polyline_signed_zero_and_negative_points(grid):
    points = np.array([[-0.0, -0.0, 0.0], [0.0, 0.0, -0.0], [-10.24, -3.0, 1.0],
                       [-0.000625, 79.0, -2.0], [-1e-9, -1e-9, 0.0], [-27.233125, 1.0, 0.0]])
    for pts in (points, points.tolist(), points[::-1].copy()):
        assert plots._polyline(pts, grid, "#2244cc", 1.2) == \
            ref_polyline(pts, grid, "#2244cc", 1.2)


def test_scene_svg_matches_per_point_reference(monkeypatch):
    grid = GRIDS[0]
    gts = [Lane3D(points=[[-0.0, 0.0, 0.0], [-1.5, 40.0, 0.25], [-2.0, 78.0, -0.0]], lane_id=0)]
    preds = [Curve(points=[[3.0, -0.0, 0.0], [-0.0, 39.99, 0.0]]),
             Curve(points=[[-10.24, 5.0, 0.0], [10.24, 70.0, 1.0], [0.001875, 78.0, 0.0]])]
    got = plots.scene_svg(gts, preds, grid)
    monkeypatch.setattr(plots, "_polyline", ref_polyline)
    assert got == plots.scene_svg(gts, preds, grid)


@pytest.mark.parametrize("grid", GRIDS)
def test_heatmap_matches_tile_loop_at_ties_and_edges(grid):
    values = np.array(GREEN_TIES + RED_TIES + EDGE_SCORES)
    n = grid.n_rows * grid.n_cols
    for shift in range(0, len(values), max(1, n)):
        scores = np.resize(np.roll(values, -shift), (grid.n_rows, grid.n_cols))
        assert plots.heatmap_svg(scores, grid) == ref_heatmap_svg(scores, grid)


@settings(max_examples=60)
@given(st.data(), st.sampled_from(GRIDS[::2]))
def test_heatmap_matches_tile_loop(data, grid):
    scores = data.draw(hnp.arrays(
        np.float64, (grid.n_rows, grid.n_cols),
        elements=st.sampled_from(GREEN_TIES + RED_TIES + EDGE_SCORES) | st.floats(0.0, 1.0)))
    assert plots.heatmap_svg(scores, grid) == ref_heatmap_svg(scores, grid)


def test_heatmap_rejects_a_shape_unlike_the_grid():
    with pytest.raises(ValueError):
        plots.heatmap_svg(np.zeros((3, 3)), GRIDS[0])
