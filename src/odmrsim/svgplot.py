"""Minimal deterministic SVG writers for sweep traces and power maps.

Output contains no timestamps or library version strings, so repeated
runs with identical data produce byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .io_formats import _write_text

_MARGIN = 56.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if 0.01 <= abs(v) < 1e4:
        return f"{v:.4g}"
    return f"{v:.3e}"


def _scale(values: np.ndarray, lo_px: float, hi_px: float):
    vmin = float(np.nanmin(values))
    vmax = float(np.nanmax(values))
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin

    def to_px(v):
        return lo_px + (np.asarray(v, dtype=float) - vmin) / span * (hi_px - lo_px)

    return to_px, vmin, vmax


def _header(width: int, height: int, title: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    return parts


def _axes(parts: list[str], width: int, height: int, x_label: str, y_label: str):
    x0, y0, x1, y1 = _MARGIN, _MARGIN, width - _MARGIN, height - _MARGIN
    parts.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y1 - y0)}" fill="none" stroke="black"/>'
    )
    if x_label:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.0f}" y="{height - 10:.0f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{x_label}</text>"
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {(y0 + y1) / 2:.0f})">{y_label}</text>'
        )


def _finish(parts: list[str], height: int, x_ticks, y_ticks, path) -> None:
    """Write the tick labels, close the SVG and write it to path.

    x_ticks are (value, px) pairs on the x axis, y_ticks (value, py) pairs.
    """
    y_bot = height - _MARGIN
    for value, px in x_ticks:
        parts.append(
            f'<text x="{_fmt(px)}" y="{y_bot + 16:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(value)}</text>'
        )
    for value, py in y_ticks:
        parts.append(
            f'<text x="{_MARGIN - 6:.0f}" y="{_fmt(py + 4)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f"{_fmt_tick(value)}</text>"
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def _m4(xa: np.ndarray, ya: np.ndarray, columns: int):
    """The points a line plot columns pixels wide draws, as an index.

    Above 4 points per pixel column, with x strictly increasing and y
    finite, each column's first, last, lowest and highest point, in their
    order (M4: Jugel et al., PVLDB 7(10), 2014), which draw the same line
    at that width; otherwise every point.  Point k falls in column
    floor((x[k] - x[0]) / (x[-1] - x[0]) * columns), the last in the last.
    """
    if xa.size <= 4 * columns:
        return slice(None)
    if not (np.all(np.diff(xa) > 0) and np.isfinite(ya).all()):
        return slice(None)
    col = ((xa - xa[0]) / (xa[-1] - xa[0]) * columns).astype(int)
    np.minimum(col, columns - 1, out=col)
    starts = np.flatnonzero(np.diff(col)) + 1
    first = np.concatenate(([0], starts))
    last = np.concatenate((starts, [xa.size])) - 1
    # Sorted by column, then y, each column keeps its place: its lowest
    # point comes first and its highest last.
    by_y = np.lexsort((ya, col))
    return np.unique(np.concatenate((first, last, by_y[first], by_y[last])))


def line_plot(
    x,
    y,
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Write a single-trace line plot, 640 x 400 px, as an SVG file."""
    width, height = 640, 400
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size or xa.size < 2:
        raise ValueError("line_plot needs two equal-length arrays, n >= 2")
    parts = _header(width, height, title)
    _axes(parts, width, height, x_label, y_label)
    x_px, xmin, xmax = _scale(xa, _MARGIN, width - _MARGIN)
    y_px, ymin, ymax = _scale(ya, height - _MARGIN, _MARGIN)
    keep = _m4(xa, ya, int(width - 2 * _MARGIN))
    pts = " ".join(
        f"{_fmt(px)},{_fmt(py)}" for px, py in zip(x_px(xa[keep]), y_px(ya[keep]))
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" '
        'stroke-width="1.5"/>'
    )
    _finish(
        parts,
        height,
        ((xmin, _MARGIN), (xmax, width - _MARGIN)),
        ((ymin, height - _MARGIN), (ymax, _MARGIN)),
        path,
    )


def _color(norm: float) -> str:
    # Dark blue through teal to yellow; NaN handled by the caller.
    stops = ((13, 8, 135), (33, 145, 140), (253, 231, 37))
    pos = min(max(norm, 0.0), 1.0) * (len(stops) - 1)
    i = min(int(pos), len(stops) - 2)
    frac = pos - i
    rgb = tuple(
        int(round(a + (b - a) * frac))
        for a, b in zip(stops[i], stops[i + 1])
    )
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def heatmap(
    x_values,
    y_values,
    z_grid,
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Write a cell heatmap (rows by y, columns by x), 640 x 480 px, as SVG.

    z_grid must have shape (len(y_values), len(x_values)); colour runs
    from dark blue at the minimum to yellow at the maximum, NaN cells are
    light grey.
    """
    xa = np.asarray(x_values, dtype=float)
    ya = np.asarray(y_values, dtype=float)
    za = np.asarray(z_grid, dtype=float)
    width, height = 640, 480
    if za.shape != (ya.size, xa.size):
        raise ValueError("z_grid shape must be (len(y_values), len(x_values))")
    parts = _header(width, height, title)
    _axes(parts, width, height, x_label, y_label)
    x0, y0, x1, y1 = _MARGIN, _MARGIN, width - _MARGIN, height - _MARGIN
    cell_w = (x1 - x0) / xa.size
    cell_h = (y1 - y0) / ya.size
    finite = za[np.isfinite(za)]
    zmin = float(finite.min()) if finite.size else 0.0
    zmax = float(finite.max()) if finite.size else 1.0
    span = (zmax - zmin) or 1.0
    # Python floats: the same IEEE arithmetic as numpy scalars, cheaper.
    for row, zs in enumerate(za.tolist()):
        # Row 0 (smallest y) is drawn at the bottom edge.
        top = y1 - (row + 1) * cell_h
        for col, z in enumerate(zs):
            fill = "#d0d0d0" if not math.isfinite(z) else _color((z - zmin) / span)
            parts.append(
                f'<rect x="{_fmt(x0 + col * cell_w)}" y="{_fmt(top)}" '
                f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" '
                f'fill="{fill}"/>'
            )
    _finish(
        parts,
        height,
        ((xa[0], x0 + cell_w / 2), (xa[-1], x1 - cell_w / 2)),
        ((ya[0], y1 - cell_h / 2), (ya[-1], y0 + cell_h / 2)),
        path,
    )
