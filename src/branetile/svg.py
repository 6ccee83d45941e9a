"""Deterministic SVG rendering of toric diagrams.

Output depends only on the diagram (and its title, triangulation and
per-matching annotations), never on dict ordering or float formatting:
all coordinates are integers in pixel space.
"""

from __future__ import annotations

from typing import Sequence

from .fan import Triangulation
from .matchings import ToricDiagram

_SCALE = 60
_MARGIN = 50


def _pixel(point: Sequence, xmin: int, ymax: int) -> tuple:
    x = _MARGIN + (point[0] - xmin) * _SCALE
    y = _MARGIN + (ymax - point[1]) * _SCALE
    return x, y


def render_diagram_svg(diagram: ToricDiagram,
                       triangulation: "Triangulation | None", title: str,
                       annotations: "dict | None" = None) -> str:
    """Render the diagram: title, lattice grid, hull, points with
    matching labels and multiplicities, triangulation edges unless
    ``triangulation`` is None, optional per-matching integer annotations
    (e.g. divisor coefficients)."""
    pts = [p for _, p in diagram.points]
    xmin = min(p[0] for p in pts)
    xmax = max(p[0] for p in pts)
    ymin = min(p[1] for p in pts)
    ymax = max(p[1] for p in pts)
    width = 2 * _MARGIN + (xmax - xmin) * _SCALE
    height = 2 * _MARGIN + (ymax - ymin) * _SCALE

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        # escaped by hand: xml.sax.saxutils would import urllib.request
        text = (title.replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;"))
        out.append(f'<text x="{_MARGIN}" y="24" font-family="monospace" '
                   f'font-size="14">{text}</text>')

    for gx in range(xmin, xmax + 1):
        x1, y1 = _pixel((gx, ymin), xmin, ymax)
        x2, y2 = _pixel((gx, ymax), xmin, ymax)
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
    for gy in range(ymin, ymax + 1):
        x1, y1 = _pixel((xmin, gy), xmin, ymax)
        x2, y2 = _pixel((xmax, gy), xmin, ymax)
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                   f'stroke="#dddddd" stroke-width="1"/>')

    if len(diagram.hull) >= 2:
        coords = " ".join(
            "{},{}".format(*_pixel(p, xmin, ymax)) for p in diagram.hull)
        out.append(f'<polygon points="{coords}" fill="none" '
                   f'stroke="#444444" stroke-width="2"/>')

    if triangulation is not None:
        ray_pts = dict(triangulation.ray_points)
        for a, b in triangulation.edges:
            x1, y1 = _pixel(ray_pts[a], xmin, ymax)
            x2, y2 = _pixel(ray_pts[b], xmin, ymax)
            out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                       f'stroke="#2266bb" stroke-width="2"/>')

    by_point: dict = {}
    for mid, p in diagram.points:
        by_point.setdefault(p, []).append(mid)
    extremal = set(diagram.extremal_ids)
    for p in sorted(by_point):
        ids = by_point[p]
        x, y = _pixel(p, xmin, ymax)
        fill = "#bb2222" if any(m in extremal for m in ids) else "#222222"
        out.append(f'<circle cx="{x}" cy="{y}" r="6" fill="{fill}"/>')
        if len(ids) > 1:
            out.append(f'<text x="{x + 9}" y="{y - 9}" '
                       f'font-family="monospace" font-size="12">'
                       f'x{len(ids)}</text>')
        label = ",".join(ids)
        out.append(f'<text x="{x + 9}" y="{y + 16}" '
                   f'font-family="monospace" font-size="12">{label}</text>')
        if annotations:
            values = [str(annotations[m]) for m in ids if m in annotations]
            if values:
                out.append(f'<text x="{x + 9}" y="{y + 30}" '
                           f'font-family="monospace" font-size="12" '
                           f'fill="#2266bb">{";".join(values)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
