"""Hand-rolled SVG output for curves, point maps, and pixel maps.

No plotting dependency: every figure is an 800x600 document assembled from
primitives, so output is deterministic byte-for-byte for fixed inputs.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 800
HEIGHT = 600
MARGIN = 70

_NEG_COLOR = (33, 102, 172)    # diverging map, negative end
_POS_COLOR = (178, 24, 43)     # diverging map, positive end


def _fmt(v: float) -> str:
    return "%.2f" % v


def _header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{_escape(title)}</text>',
    ]


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


class _Frame:
    """Affine map from data coordinates to the plot rectangle."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi

    def x(self, v):
        return MARGIN + (v - self.x_lo) / (self.x_hi - self.x_lo) \
            * (WIDTH - 2 * MARGIN)

    def y(self, v):
        return HEIGHT - MARGIN - (v - self.y_lo) / (self.y_hi - self.y_lo) \
            * (HEIGHT - 2 * MARGIN)

    def axes(self, x_label: str, y_label: str) -> list:
        parts = [
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>',
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 15}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(x_label)}</text>',
            f'<text x="20" y="{HEIGHT // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" '
            f'transform="rotate(-90 20 {HEIGHT // 2})">{_escape(y_label)}</text>',
        ]
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.x_lo + frac * (self.x_hi - self.x_lo)
            yv = self.y_lo + frac * (self.y_hi - self.y_lo)
            px = self.x(xv)
            py = self.y(yv)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN}" '
                f'x2="{_fmt(px)}" y2="{HEIGHT - MARGIN + 6}" stroke="black"/>')
            parts.append(
                f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN + 22}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="12">{"%.3g" % xv}</text>')
            parts.append(
                f'<line x1="{MARGIN - 6}" y1="{_fmt(py)}" x2="{MARGIN}" '
                f'y2="{_fmt(py)}" stroke="black"/>')
            parts.append(
                f'<text x="{MARGIN - 10}" y="{_fmt(py + 4)}" '
                f'text-anchor="end" font-family="sans-serif" '
                f'font-size="12">{"%.3g" % yv}</text>')
        return parts


def _polyline(frame, xs, ys, stroke, dashed=False):
    pts = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}"
                   for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.5"{dash}/>')


def k_curve_svg(curve, title: str) -> str:
    """Centered L display: solid estimate, dashed confidence bands, dotted
    zero reference line."""
    r = curve.radii
    lvals = curve.centered_l
    cb = curve.centered_bands
    y_vals = [lvals]
    if cb is not None:
        y_vals.extend(cb)
    y_lo = min(float(np.min(v)) for v in y_vals)
    y_hi = max(float(np.max(v)) for v in y_vals)
    pad = 0.08 * max(y_hi - y_lo, 1e-9)
    frame = _Frame(0.0, float(r[-1]), min(y_lo - pad, 0.0),
                   max(y_hi + pad, 0.0))
    parts = _header(title)
    parts.extend(frame.axes("r", "centered L"))
    zero_y = _fmt(frame.y(0.0))
    parts.append(f'<line x1="{MARGIN}" y1="{zero_y}" '
                 f'x2="{WIDTH - MARGIN}" y2="{zero_y}" stroke="gray" '
                 f'stroke-dasharray="2,3"/>')
    if cb is not None:
        parts.append(_polyline(frame, r, cb[0], "#555555", dashed=True))
        parts.append(_polyline(frame, r, cb[1], "#555555", dashed=True))
    parts.append(_polyline(frame, r, lvals, "black"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def point_map_svg(rset, title: str) -> str:
    """Residual point set: filled circles for retained events, open
    diamonds for simulated points."""
    x0, x1, y0, y1 = rset.region.bbox
    frame = _Frame(x0, x1, y0, y1)
    parts = _header(title)
    parts.extend(frame.axes("x", "y"))
    for (x, y), sim in zip(rset.points, rset.simulated):
        px, py = frame.x(x), frame.y(y)
        if sim:
            parts.append(
                f'<path d="M {_fmt(px)} {_fmt(py - 4)} L {_fmt(px + 4)} '
                f'{_fmt(py)} L {_fmt(px)} {_fmt(py + 4)} L {_fmt(px - 4)} '
                f'{_fmt(py)} Z" fill="none" stroke="#b2182b"/>')
        else:
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" '
                         f'fill="black"/>')
    parts.append(
        f'<text x="{WIDTH - MARGIN}" y="{MARGIN - 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">'
        f'{(~rset.simulated).sum()} retained, {rset.simulated.sum()} '
        f'simulated</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _diverging_color(value: float, scale: float) -> str:
    """White at zero, saturating toward blue (negative) or red (positive)."""
    if scale <= 0:
        scale = 1.0
    t = min(abs(value) / scale, 1.0)
    target = _POS_COLOR if value >= 0 else _NEG_COLOR
    rgb = tuple(int(round(255 + (c - 255) * t)) for c in target)
    return "#%02x%02x%02x" % rgb


def residual_map_svg(residual_map, title: str, events=None) -> str:
    """Pixel map with a diverging palette; sentinel and skipped pixels are
    drawn hatched gray.  Optional events (n, 2) are overlaid as circles."""
    grid = residual_map.grid
    frame = _Frame(grid.lon_min, grid.lon_max, grid.lat_min, grid.lat_max)
    finite = residual_map.values[np.isfinite(residual_map.values)]
    scale = float(np.max(np.abs(finite))) if len(finite) else 1.0
    parts = _header(title)
    parts.append('<defs><pattern id="hatch" width="6" height="6" '
                 'patternUnits="userSpaceOnUse">'
                 '<rect width="6" height="6" fill="#dddddd"/>'
                 '<line x1="0" y1="6" x2="6" y2="0" stroke="#888888"/>'
                 '</pattern></defs>')
    # every pixel's rectangle at once: the frame map is affine arithmetic,
    # elementwise the same operations as one pixel at a time
    ix, iy = grid.unflatten(residual_map.pixel_index)
    x_lo = grid.lon_min + ix * grid.dx
    y_hi_v = grid.lat_min + (iy + 1) * grid.dy
    xs = frame.x(x_lo)
    ys = frame.y(y_hi_v)
    ws = frame.x(x_lo + grid.dx) - xs
    hs = frame.y(y_hi_v - grid.dy) - ys
    for px, py, w, h, val in zip(xs.tolist(), ys.tolist(), ws.tolist(),
                                 hs.tolist(), residual_map.values.tolist()):
        if math.isfinite(val):
            fill = f'"{_diverging_color(val, scale)}"'
        else:
            fill = '"url(#hatch)"'
        parts.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" '
                     f'width="{_fmt(w)}" height="{_fmt(h)}" fill={fill} '
                     f'stroke="#cccccc" stroke-width="0.5"/>')
    parts.extend(frame.axes("lon", "lat"))
    if events is not None:
        for x, y in np.asarray(events, dtype=float).reshape(-1, 2):
            parts.append(f'<circle cx="{_fmt(frame.x(x))}" '
                         f'cy="{_fmt(frame.y(y))}" r="2.5" fill="none" '
                         f'stroke="black"/>')
    parts.append(
        f'<text x="{WIDTH - MARGIN}" y="{MARGIN - 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">scale &#177;'
        f'{"%.3g" % scale} ({_escape(residual_map.kind)})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
