"""Minimal deterministic SVG plots for scenario outputs.

Two figure kinds: chart-plane path overlays and ratio histograms. Output
is plain SVG text built with fixed-precision formatting, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 640
HEIGHT = 480
MARGIN = 56
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(m * mag for m in (1, 2, 5, 10) if m * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


class _Canvas:
    def __init__(self, xlo, xhi, ylo, yhi):
        if xhi <= xlo:
            xlo, xhi = xlo - 0.5, xlo + 0.5
        if yhi <= ylo:
            ylo, yhi = ylo - 0.5, ylo + 0.5
        self.xlo, self.xhi, self.ylo, self.yhi = xlo, xhi, ylo, yhi
        self.parts: list[str] = []

    def x(self, v):
        return MARGIN + (v - self.xlo) / (self.xhi - self.xlo) * (WIDTH - 2 * MARGIN)

    def y(self, v):
        return HEIGHT - MARGIN - (v - self.ylo) / (self.yhi - self.ylo) * (HEIGHT - 2 * MARGIN)

    def add(self, element: str):
        self.parts.append(element)

    def axes(self, xlabel: str, ylabel: str, xtick_text, ytick_text):
        self.add(
            f'<rect x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" width="{_fmt(WIDTH - 2 * MARGIN)}" '
            f'height="{_fmt(HEIGHT - 2 * MARGIN)}" fill="none" stroke="black"/>'
        )
        for val, text in xtick_text:
            px = self.x(val)
            self.add(
                f'<line x1="{_fmt(px)}" y1="{_fmt(HEIGHT - MARGIN)}" x2="{_fmt(px)}" '
                f'y2="{_fmt(HEIGHT - MARGIN + 5)}" stroke="black"/>'
            )
            self.add(
                f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN + 18)}" font-size="11" '
                f'text-anchor="middle">{text}</text>'
            )
        for val, text in ytick_text:
            py = self.y(val)
            self.add(
                f'<line x1="{_fmt(MARGIN - 5)}" y1="{_fmt(py)}" x2="{_fmt(MARGIN)}" '
                f'y2="{_fmt(py)}" stroke="black"/>'
            )
            self.add(
                f'<text x="{_fmt(MARGIN - 8)}" y="{_fmt(py + 4)}" font-size="11" '
                f'text-anchor="end">{text}</text>'
            )
        self.add(
            f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(HEIGHT - 12)}" font-size="13" '
            f'text-anchor="middle">{xlabel}</text>'
        )
        self.add(
            f'<text x="14" y="{_fmt(HEIGHT / 2)}" font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 14 {_fmt(HEIGHT / 2)})">{ylabel}</text>'
        )

    def polyline(self, xs, ys, color: str):
        pts = " ".join(f"{_fmt(self.x(a))},{_fmt(self.y(b))}" for a, b in zip(xs, ys))
        self.add(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    def legend(self, labels):
        for i, (label, color) in enumerate(labels):
            ly = MARGIN + 14 + 16 * i
            self.add(
                f'<line x1="{_fmt(WIDTH - MARGIN - 120)}" y1="{_fmt(ly)}" '
                f'x2="{_fmt(WIDTH - MARGIN - 96)}" y2="{_fmt(ly)}" stroke="{color}" stroke-width="2"/>'
            )
            self.add(
                f'<text x="{_fmt(WIDTH - MARGIN - 90)}" y="{_fmt(ly + 4)}" '
                f'font-size="11">{label}</text>'
            )

    def document(self, title: str) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
            f'<text x="{_fmt(WIDTH / 2)}" y="24" font-size="15" text-anchor="middle">{title}</text>\n'
        )
        return head + "\n".join(self.parts) + "\n</svg>\n"


def _check_series(series):
    if not series:
        raise ValueError("empty series")
    for label, data in series:
        if len(np.asarray(data)) == 0:
            raise ValueError(f"series {label!r} is empty")


def emit_svg_plot(series, kind: str, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render labeled series as an SVG document string.

    kinds: ``path_overlay`` (chart polylines, equal axes) and
    ``ratio_histogram`` (binned value counts).
    """
    _check_series(series)
    if kind == "path_overlay":
        return _path_overlay(series, title, xlabel or "u", ylabel or "v")
    if kind == "ratio_histogram":
        return _ratio_histogram(series, title, xlabel or "ratio", ylabel or "count")
    raise ValueError(f"unknown plot kind {kind!r}")


def _path_overlay(series, title, xlabel, ylabel):
    arrays = [(label, np.asarray(data, dtype=float).reshape(-1, 2)) for label, data in series]
    allpts = np.concatenate([a for _, a in arrays])
    xlo, ylo = allpts.min(axis=0)
    xhi, yhi = allpts.max(axis=0)
    span = max(xhi - xlo, yhi - ylo, 1e-9)
    # equal scales so chart shapes are not sheared
    cx, cy = (xlo + xhi) / 2, (ylo + yhi) / 2
    half = 0.55 * span
    c = _Canvas(cx - half, cx + half, cy - half, cy + half)
    xt = [(t, f"{t:.4g}") for t in _ticks(c.xlo, c.xhi)]
    yt = [(t, f"{t:.4g}") for t in _ticks(c.ylo, c.yhi)]
    c.axes(xlabel, ylabel, xt, yt)
    labels = []
    for i, (label, a) in enumerate(arrays):
        color = PALETTE[i % len(PALETTE)]
        c.polyline(a[:, 0], a[:, 1], color)
        labels.append((label, color))
    c.legend(labels)
    return c.document(title)


def _ratio_histogram(series, title, xlabel, ylabel):
    values = [np.asarray(data, dtype=float).reshape(-1) for _, data in series]
    lo = min(v.min() for v in values)
    hi = max(v.max() for v in values)
    if hi <= lo:
        hi = lo + 1.0
    bins = np.linspace(lo, hi, 21)
    counts = [np.histogram(v, bins=bins)[0] for v in values]
    top = max(int(cnt.max()) for cnt in counts)
    c = _Canvas(lo, hi, 0.0, top * 1.1)
    xt = [(t, f"{t:.3g}") for t in _ticks(lo, hi)]
    yt = [(t, f"{t:g}") for t in _ticks(0.0, top * 1.1) if t == int(t)]
    c.axes(xlabel, ylabel, xt, yt)
    labels = []
    for i, ((label, _), cnt) in enumerate(zip(series, counts)):
        color = PALETTE[i % len(PALETTE)]
        for k in range(len(cnt)):
            if cnt[k] == 0:
                continue
            x0, x1 = c.x(bins[k]), c.x(bins[k + 1])
            y0, y1 = c.y(0.0), c.y(float(cnt[k]))
            c.add(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
                f'height="{_fmt(y0 - y1)}" fill="{color}" fill-opacity="0.6" stroke="{color}"/>'
            )
        labels.append((label, color))
    c.legend(labels)
    return c.document(title)
