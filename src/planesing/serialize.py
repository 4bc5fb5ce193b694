"""Deterministic JSON/CSV/SVG emitters.

Reports must be byte-identical across reruns of the same configuration,
so floats are always formatted with 17 significant digits (enough to
round-trip a double), dictionaries keep their construction order, and
nothing time- or path-dependent is ever written.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = [
    "format_float",
    "canonical_json",
    "dump_json",
    "write_curves_csv",
    "write_svg",
]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        return "0.0"
    if x == int(x) and abs(x) < 1e17:
        # keep integral floats readable and unambiguous: .17g writes one
        # below 1e17 as a bare integer, which JSON reads back as an int
        return f"{x:.1f}"
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [canonical_json(v, indent + 1) for v in obj]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj, path) -> None:
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")


def write_curves_csv(path, curves, image_curves=None) -> None:
    """Curves as CSV rows (curve index, source coords, optional image coords).

    With image_curves given, they must pair up vertex-for-vertex with
    curves; rows then carry u1,u2,x1,x2.
    """
    rows = ["curve,u1,u2" if image_curves is None else "curve,u1,u2,x1,x2"]
    for ci, curve in enumerate(curves):
        img = image_curves[ci] if image_curves is not None else None
        if img is not None and len(img.vertices) != len(curve.vertices):
            raise ValueError("image curve does not match source curve vertex count")
        for vi, v in enumerate(curve.vertices):
            cells = [str(ci), format_float(v[0]), format_float(v[1])]
            if img is not None:
                w = img.vertices[vi]
                cells += [format_float(w[0]), format_float(w[1])]
            rows.append(",".join(cells))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


_SVG_SIZE = 800
_MARGIN = 40
_CURVE_COLOR = "#1f6fb4"
_POINT_COLORS = {"DegenerateCandidate": "#c23b22", "CuspCandidate": "#e08a1e"}


def _world_bounds(curves, box):
    """The box's corners, or without a box the curves' extent padded by 5%.

    The span is at least 1e-9 times the largest |coordinate| (and at
    least 1e-9), so its pad never rounds away, even at |x| = 1e20.
    """
    if box is not None:
        return box.lo[0], box.lo[1], box.hi[0], box.hi[1]
    xs = [v[0] for c in curves for v in c.vertices]
    ys = [v[1] for c in curves for v in c.vertices]
    if not xs:
        return -1.0, -1.0, 1.0, 1.0
    lo1, hi1 = min(xs), max(xs)
    lo2, hi2 = min(ys), max(ys)
    size = max(1.0, -lo1, hi1, -lo2, hi2)
    span = max(hi1 - lo1, hi2 - lo2, 1e-9 * size)
    pad = 0.05 * span
    return lo1 - pad, lo2 - pad, hi1 + pad, hi2 + pad


def write_svg(path, curves, special_points=(), box=None, label="") -> None:
    """Presentational SVG: curves as polylines, special points as markers.

    Everything is scaled into a fixed 800x800 viewport with light axes;
    without a box the view fits the curves alone.  No contract on pixel
    values beyond determinism.
    """
    lo1, lo2, hi1, hi2 = _world_bounds(curves, box)
    span1 = hi1 - lo1
    span2 = hi2 - lo2
    inner = _SVG_SIZE - 2 * _MARGIN

    def sx(x):
        return _MARGIN + (x - lo1) / span1 * inner

    def sy(y):
        return _SVG_SIZE - _MARGIN - (y - lo2) / span2 * inner

    def fmt(v):
        return format(v, ".6g")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="#ffffff"/>',
    ]
    if lo1 < 0.0 < hi1:
        x0 = fmt(sx(0.0))
        parts.append(
            f'<line x1="{x0}" y1="{_MARGIN}" x2="{x0}" y2="{_SVG_SIZE - _MARGIN}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
    if lo2 < 0.0 < hi2:
        y0 = fmt(sy(0.0))
        parts.append(
            f'<line x1="{_MARGIN}" y1="{y0}" x2="{_SVG_SIZE - _MARGIN}" y2="{y0}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
    for c in curves:
        pts = " ".join(f"{fmt(sx(v[0]))},{fmt(sy(v[1]))}" for v in c.vertices)
        tag = "polygon" if c.closed else "polyline"
        parts.append(
            f'<{tag} points="{pts}" fill="none" stroke="{_CURVE_COLOR}" stroke-width="2"/>'
        )
    for sp in special_points:
        color = _POINT_COLORS.get(sp.kind, "#444444")
        parts.append(
            f'<circle cx="{fmt(sx(sp.location[0]))}" cy="{fmt(sy(sp.location[1]))}" '
            f'r="5" fill="{color}"/>'
        )
    if label:
        parts.append(
            f'<text x="{_MARGIN}" y="{_MARGIN - 12}" font-family="monospace" '
            f'font-size="14" fill="#333333">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
