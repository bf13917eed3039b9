"""Minimal self-contained SVG line charts (no plotting dependency)."""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
WIDTH, HEIGHT = 640, 420        # pixels


def _ticks(lo: float, hi: float) -> list[float]:
    """About six round tick values spanning [lo, hi]."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10 ** math.floor(math.log10(raw))
    step = min((m for m in (1, 2, 5, 10) if m * mag >= raw), default=10) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * abs(hi):
        out.append(round(t, 12))
        t += step
    return out or [lo]


def line_chart(series: list[tuple[str, list, list]], title: str, xlabel: str, ylabel: str,
               markers: list[tuple[float, float, str]]) -> str:
    """A line chart as SVG text.

    series: list of (label, xs, ys); markers: (x, y, text) points.
    """
    width, height = WIDTH, HEIGHT
    pad_l, pad_r, pad_t, pad_b = 66, 16, 30, 46
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    yspan = y1 - y0
    y0 -= 0.05 * yspan
    y1 += 0.05 * yspan

    def px(x):
        return pad_l + (x - x0) / (x1 - x0) * (width - pad_l - pad_r)

    def py(y):
        return height - pad_b - (y - y0) / (y1 - y0) * (height - pad_t - pad_b)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # axes and grid
    for tx in _ticks(x0, x1):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{py(y0):.1f}" x2="{px(tx):.1f}" '
                     f'y2="{py(y1):.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{height - pad_b + 16}" '
                     f'text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(y0, y1):
        parts.append(f'<line x1="{px(x0):.1f}" y1="{py(ty):.1f}" x2="{px(x1):.1f}" '
                     f'y2="{py(ty):.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{pad_l - 6}" y="{py(ty) + 4:.1f}" '
                     f'text-anchor="end">{ty:g}</text>')
    parts.append(f'<rect x="{pad_l}" y="{pad_t}" width="{width - pad_l - pad_r}" '
                 f'height="{height - pad_t - pad_b}" fill="none" stroke="#444"/>')

    for i, (label, xs, ys) in enumerate(series):
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys)
                       if math.isfinite(y))
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad_r - 6}" y="{pad_t + 14 + 14 * i}" '
                     f'text-anchor="end" fill="{color}">{label}</text>')

    for x, y, text in markers:
        parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.5" '
                     f'fill="#d62728"/>')
        parts.append(f'<text x="{px(x) + 6:.1f}" y="{py(y) - 6:.1f}">{text}</text>')

    parts.append(f'<text x="{width / 2}" y="{pad_t - 12}" text-anchor="middle" '
                 f'font-size="13">{title}</text>')
    parts.append(f'<text x="{(pad_l + width - pad_r) / 2}" y="{height - 10}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(pad_t + height - pad_b) / 2}" '
                 f'text-anchor="middle" '
                 f'transform="rotate(-90 16 {(pad_t + height - pad_b) / 2})">'
                 f'{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
