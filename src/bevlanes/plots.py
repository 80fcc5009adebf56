"""SVG plots of BEV scenes: lane overlays and tile score heat maps.

Pure-string SVG output, no raster dependencies. Plot space is the BEV plane
itself (meters): x to the right, y (forward) upward, so the near edge of the
grid sits at the bottom of the image. Ground truth is drawn in red,
predictions in blue; heat maps shade tiles from green (high score) to red
(low score).
"""

from __future__ import annotations

import numpy as np

from .geometry import Curve, GridSpec, Lane3D

_SCALE = 8.0  # SVG pixels per meter
_MARGIN = 1.0  # meters of padding around the grid


def _header(grid: GridSpec) -> str:
    w = (grid.x_extent + 2 * _MARGIN) * _SCALE
    h = (grid.y_extent + 2 * _MARGIN) * _SCALE
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
            f'viewBox="0 0 {w:.2f} {h:.2f}">')


def _to_px(x, y, grid: GridSpec) -> tuple:
    """Pixel coordinates of plane coordinates x and y, numbers or arrays."""
    px = (x - grid.x_min + _MARGIN) * _SCALE
    py = (grid.y_max + _MARGIN - y) * _SCALE  # flip: +y points up
    return px, py


def _polyline(points, grid: GridSpec, color: str, width: float) -> str:
    pts = np.asarray(points, dtype=float)
    px, py = _to_px(pts[:, 0], pts[:, 1], grid)
    coords = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width:.2f}" stroke-linecap="round"/>')


def _grid_frame(grid: GridSpec) -> list[str]:
    parts = []
    x0, y0 = _to_px(grid.x_min, grid.y_max, grid)
    parts.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{grid.x_extent * _SCALE:.2f}" '
                 f'height="{grid.y_extent * _SCALE:.2f}" fill="none" stroke="#999" '
                 f'stroke-width="1"/>')
    xs = [grid.x_min + j * grid.tile_width for j in range(1, grid.n_cols)]
    ys = [grid.y_min + i * grid.tile_length for i in range(1, grid.n_rows)]
    for a, b in [((x, grid.y_min), (x, grid.y_max)) for x in xs] + [
            ((grid.x_min, y), (grid.x_max, y)) for y in ys]:     # inner column, then row borders
        (x1, y1), (x2, y2) = _to_px(*a, grid), _to_px(*b, grid)
        parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
    return parts


def scene_svg(gt_lanes: list[Lane3D], pred_curves: list[Curve], grid: GridSpec) -> str:
    """BEV overlay: grid frame, ground-truth lanes in red, predictions in blue."""
    parts = [_header(grid), *_grid_frame(grid)]
    for lane in gt_lanes:
        parts.append(_polyline(lane.points, grid, "#cc2222", 2.0))
    for curve in pred_curves:
        parts.append(_polyline(curve.points, grid, "#2244cc", 1.2))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap_svg(scores: np.ndarray, grid: GridSpec) -> str:
    """Tile score heat map: green for high scores, red for low."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (grid.n_rows, grid.n_cols):
        raise ValueError(f"scores shape {scores.shape} does not match grid "
                         f"({grid.n_rows}, {grid.n_cols})")
    parts = [_header(grid)]
    # each column's x and each row's y (the tile's top edge) formatted once
    xs = [f"{_to_px(grid.x_min + j * grid.tile_width, 0.0, grid)[0]:.2f}"
          for j in range(grid.n_cols)]
    size = (f'width="{grid.tile_width * _SCALE:.2f}" '
            f'height="{grid.tile_length * _SCALE:.2f}"')
    # fmin/fmax clamp as min/max do (NaN to 0); np.round rounds half to even, as round does
    s = np.fmin(1.0, np.fmax(0.0, scores))
    reds, greens = np.round(220 * (1.0 - s)).astype(int), np.round(200 * s).astype(int)
    for i, (row_r, row_g) in enumerate(zip(reds.tolist(), greens.tolist())):
        y = f"{_to_px(0.0, grid.y_min + (i + 1) * grid.tile_length, grid)[1]:.2f}"
        parts.extend(f'<rect x="{x}" y="{y}" {size} fill="rgb({r},{g},40)" '
                     f'stroke="#666" stroke-width="0.3"/>' for x, r, g in zip(xs, row_r, row_g))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
