"""Minimal deterministic SVG line charts.

Text output only, fixed float formatting, no timestamps or generated ids, so
two renders of the same data are byte-identical and diffable in tests.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from .errors import IoFailure
from .report import unlink_if_regular

_WIDTH = 640
_HEIGHT = 400
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 36
_MARGIN_BOTTOM = 48


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    if raw < sys.float_info.min:  # a subnormal span: 10**floor(log10(raw)) would underflow
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # a step below the float spacing at t would never end
            break
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    """text as XML character data, as xml.sax.saxutils.escape gives it;
    importing that module would add its urllib and ssl imports to every
    command's start-up."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_chart(x, y, path, title: str, x_label: str, y_label: str, marker: tuple) -> None:
    """Render one polyline chart to an SVG file.

    y entries that are None (or NaN) split the polyline into segments.
    marker is an (x, y) pair drawn as a highlighted point.
    ValueError when the data cannot be drawn: no points, no finite y, or a
    span beyond the float range. title, x_label and y_label are plain text;
    they are XML-escaped, so names holding markup characters (artery names
    come from file stems and `analyze --name`) still give well-formed SVG.
    """
    xs = [float(v) for v in x]
    ys = [None if v is None or (isinstance(v, float) and math.isnan(v)) else float(v) for v in y]
    if len(xs) != len(ys) or not xs:
        raise ValueError("x and y must be equal-length, non-empty sequences")
    finite = [v for v in ys if v is not None]
    if not finite:
        raise ValueError("no finite y values to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(*finite, marker[1]), max(*finite, marker[1])
    if x_hi == x_lo:
        x_hi = x_lo + max(1.0, math.ulp(x_lo))
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - max(1.0, math.ulp(y_lo)), y_hi + max(1.0, math.ulp(y_hi))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise ValueError("the data's x or y span exceeds the float range")

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(vx: float) -> float:
        return _MARGIN_LEFT + (vx - x_lo) / (x_hi - x_lo) * plot_w

    def py(vy: float) -> float:
        return _MARGIN_TOP + (y_hi - vy) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
    )
    axis_color = "#444444"
    for tx in _nice_ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{_MARGIN_TOP + plot_h:.2f}" '
            f'x2="{px(tx):.2f}" y2="{_MARGIN_TOP + plot_h + 5:.2f}" stroke="{axis_color}"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{_MARGIN_TOP + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _nice_ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{py(ty):.2f}" '
            f'x2="{_MARGIN_LEFT}" y2="{py(ty):.2f}" stroke="{axis_color}"/>'
        )
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{py(ty):.2f}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{py(ty):.2f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="{axis_color}"/>'
    )

    segment: list = []
    segments: list = []
    for vx, vy in zip(xs, ys):
        if vy is None:
            if len(segment) > 1:
                segments.append(segment)
            segment = []
        else:
            segment.append((vx, vy))
    if len(segment) > 1:
        segments.append(segment)
    for seg in segments:
        points = " ".join(f"{px(vx):.2f},{py(vy):.2f}" for vx, vy in seg)
        parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    for vx, vy in zip(xs, ys):
        if vy is not None and not segments:
            parts.append(f'<circle cx="{px(vx):.2f}" cy="{py(vy):.2f}" r="2" fill="#1f6fb2"/>')

    mx, my = marker
    cx, cy = 16, _MARGIN_TOP + plot_h / 2
    parts += [
        f'<circle cx="{px(mx):.2f}" cy="{py(my):.2f}" r="4" fill="#c23b22"/>',
        f'<text x="{px(mx) + 6:.2f}" y="{py(my) - 6:.2f}" font-family="sans-serif" '
        f'font-size="11" fill="#c23b22">max {_fmt(my)}% at {_fmt(mx)} s</text>',
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>',
        f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 {cx} {cy:.1f})">{_escape(y_label)}</text>',
        "</svg>",
    ]
    unlink_if_regular(path)
    try:
        Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
