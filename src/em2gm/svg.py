"""Every output file the package writes: CSV tables, JSON and SVG charts.

All output is deterministic, so files can be byte-compared across runs.
Tables print integers bare and every other value with 17 significant
digits, so each float reads back exactly. The charts need no plotting
dependency; they are just enough to eyeball a trajectory or a rate fit:
polylines on a framed viewport, optional log axes, min/max tick labels, and
a small legend.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["write_table", "write_json", "write_line_chart"]

_COLORS = ("#1f6fb4", "#c23b22", "#2e8b57", "#8a2be2", "#b8860b", "#444444")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 30, 44


def write_table(path, header, *columns) -> None:
    """Write a CSV file: one header line, then the columns side by side.

    The format is chosen once per column: integer columns print bare, all
    others as repr-exact floats ("%.17g"). With no rows only the header line
    is written.
    """
    cells = []
    for col in columns:
        col = np.asarray(col)
        values = col.tolist()
        cells.append(map(str, values) if col.dtype.kind in "iu"
                     else [f"{x:.17g}" for x in values])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*cells)), ""]))


def write_json(path, obj) -> None:
    """Write obj as indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _transform(v: float, log: bool) -> float | None:
    if not math.isfinite(v) or (log and v <= 0.0):
        return None
    return math.log10(v) if log else v


def write_line_chart(path, x, series: dict, title: str = "", xlabel: str = "",
                     ylabel: str = "", logx: bool = False, logy: bool = False) -> None:
    """Write one chart, 640 x 420: shared x against one or more named y series.

    Points that do not fit the axes (non-finite, or nonpositive on a log
    axis) are dropped from their polyline rather than failing the chart.
    """
    xs = [float(v) for v in x]
    clean: dict[str, list[tuple[float, float]]] = {}
    for name, ys in series.items():
        pts = []
        for xv, yv in zip(xs, ys):
            tx, ty = _transform(xv, logx), _transform(float(yv), logy)
            if tx is not None and ty is not None:
                pts.append((tx, ty))
        clean[name] = pts

    allx = [p[0] for pts in clean.values() for p in pts]
    ally = [p[1] for pts in clean.values() for p in pts]
    if not allx:
        allx, ally = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(allx), max(allx)
    y0, y1 = min(ally), max(ally)
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5

    width, height = 640, 420
    px0, px1 = _MARGIN_L, width - _MARGIN_R
    py0, py1 = height - _MARGIN_B, _MARGIN_T

    def sx(v):
        return px0 + (v - x0) / (x1 - x0) * (px1 - px0)

    def sy(v):
        return py0 + (v - y0) / (y1 - y0) * (py1 - py0)

    def tick(v, log):
        return f"{10.0 ** v:.3g}" if log else f"{v:.3g}"

    def text(x, y, size, body, anchor="middle", extra=""):
        anchor = f'text-anchor="{anchor}" ' if anchor else ""
        return (f'<text x="{x}" y="{y}" {anchor}font-family="sans-serif" '
                f'font-size="{size}"{extra}>{body}</text>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
    ]
    if title:
        parts.append(text(f"{width / 2:.1f}", 18, 13, title))
    ymid = f"{(py0 + py1) / 2:.1f}"
    parts += [text(f"{(px0 + px1) / 2:.1f}", height - 8, 11, xlabel),
              text(14, ymid, 11, ylabel, extra=f' transform="rotate(-90 14 {ymid})"'),
              text(px0, py0 + 16, 10, tick(x0, logx)),
              text(px1, py0 + 16, 10, tick(x1, logx)),
              text(px0 - 6, f"{py0 + 3:.1f}", 10, tick(y0, logy), anchor="end"),
              text(px0 - 6, f"{py1 + 3:.1f}", 10, tick(y1, logy), anchor="end")]

    for i, (name, pts) in enumerate(clean.items()):
        color = _COLORS[i % len(_COLORS)]
        if pts:
            coords = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                         'stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 * i + 4
        parts.append(f'<line x1="{px1 - 88}" y1="{ly}" x2="{px1 - 70}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(text(px1 - 64, ly + 4, 10, name, anchor=""))

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
