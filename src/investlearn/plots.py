"""Standalone SVG figures.

No plotting dependency: each figure is a few hundred SVG elements written
by hand.  CSV files remain the interchange source of truth; these renderers
are purely presentational and never recompute model quantities beyond the
overlay curves they are explicitly handed.  Output is deterministic
(fixed canvas, fixed decimal formatting), so repeated runs byte-match.
A series maps its points to pixels on whole arrays, which gives each point
the bits of mapping it alone, and formats each point's coordinate pair once.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

WIDTH = 640
HEIGHT = 480
MARGIN_L = 62
MARGIN_R = 18
MARGIN_T = 34
MARGIN_B = 46

PALETTE = {
    "boundary": "#1f77b4",
    "zero_level": "#d62728",
    "threshold": "#2ca02c",
    "breakeven": "#555555",
    "capacity": "#1f77b4",
    "belief": "#ff7f0e",
}


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    color: str
    label: str
    dash: Optional[str] = None
    dots: bool = False
    fill_dots: bool = True
    width: float = 1.6


def _nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """Tick positions on a 1-2-5 ladder covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt_tick(v: float) -> str:
    s = f"{v:.6g}"
    return "0" if s == "-0" else s


COORD = "%.2f"  # a pixel coordinate


def _coord(v: float) -> str:
    return COORD % v


class _Frame:
    """Maps data coordinates to the pixel viewport and accumulates elements."""

    def __init__(self, xlim: Tuple[float, float], ylim: Tuple[float, float]):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.parts: List[str] = []

    def px(self, x: float) -> float:
        span = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * span

    def py(self, y: float) -> float:
        span = HEIGHT - MARGIN_T - MARGIN_B
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * span

    def add_axes(self, title: str, xlabel: str, ylabel: str) -> None:
        left, right = MARGIN_L, WIDTH - MARGIN_R
        top, bottom = MARGIN_T, HEIGHT - MARGIN_B
        p = self.parts
        p.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
        p.append(f'<rect x="{left}" y="{top}" width="{right - left}" '
                 f'height="{bottom - top}" fill="none" stroke="#222" stroke-width="1"/>')
        for t in _nice_ticks(self.x0, self.x1):
            x = _coord(self.px(t))
            p.append(f'<line x1="{x}" y1="{bottom}" x2="{x}" y2="{bottom + 5}" '
                     f'stroke="#222" stroke-width="1"/>')
            p.append(f'<text x="{x}" y="{bottom + 18}" font-size="11" '
                     f'text-anchor="middle" fill="#222">{_fmt_tick(t)}</text>')
        for t in _nice_ticks(self.y0, self.y1):
            y = _coord(self.py(t))
            p.append(f'<line x1="{left - 5}" y1="{y}" x2="{left}" y2="{y}" '
                     f'stroke="#222" stroke-width="1"/>')
            p.append(f'<text x="{left - 8}" y="{y}" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle" '
                     f'fill="#222">{_fmt_tick(t)}</text>')
        p.append(f'<text x="{(left + right) / 2:.1f}" y="{HEIGHT - 10}" font-size="12" '
                 f'text-anchor="middle" fill="#222">{xlabel}</text>')
        p.append(f'<text x="16" y="{(top + bottom) / 2:.1f}" font-size="12" '
                 f'text-anchor="middle" fill="#222" '
                 f'transform="rotate(-90 16 {(top + bottom) / 2:.1f})">{ylabel}</text>')
        p.append(f'<text x="{(left + right) / 2:.1f}" y="{top - 12}" font-size="13" '
                 f'text-anchor="middle" fill="#111">{title}</text>')

    def add_series(self, s: Series) -> None:
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        idx = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
        # px and py on the arrays give each point the bits they give it alone
        pair = f'cx="{COORD}" cy="{COORD}"' if s.dots else f"{COORD},{COORD}"
        pts = list(map(pair.__mod__, zip(self.px(x[idx]).tolist(), self.py(y[idx]).tolist())))
        if s.dots:
            fill = s.color if s.fill_dots else "white"
            self.parts += [f'<circle {xy} r="3.5" fill="{fill}" stroke="{s.color}" '
                           f'stroke-width="1.4"/>' for xy in pts]
            return
        # split at NaNs so curves with undefined stretches render as segments
        cuts = [0, *(np.flatnonzero(np.diff(idx) > 1) + 1).tolist(), idx.size]
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo >= 2:
                self.parts.append(
                    f'<polyline points="{" ".join(pts[lo:hi])}" fill="none" '
                    f'stroke="{s.color}" stroke-width="{s.width}"{dash}/>')

    def add_legend(self, entries: Sequence[Series]) -> None:
        x = WIDTH - MARGIN_R - 150
        y = MARGIN_T + 12
        n = len(entries)
        self.parts.append(
            f'<rect x="{x - 8}" y="{y - 12}" width="150" height="{n * 18 + 8}" '
            f'fill="white" fill-opacity="0.85" stroke="#999" stroke-width="0.7"/>')
        for i, s in enumerate(entries):
            yy = y + i * 18
            if s.dots:
                fill = s.color if s.fill_dots else "white"
                self.parts.append(
                    f'<circle cx="{x + 12}" cy="{yy - 3}" r="3.5" fill="{fill}" '
                    f'stroke="{s.color}" stroke-width="1.4"/>')
            else:
                dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
                self.parts.append(
                    f'<line x1="{x}" y1="{yy - 3}" x2="{x + 24}" y2="{yy - 3}" '
                    f'stroke="{s.color}" stroke-width="{s.width}"{dash}/>')
            self.parts.append(
                f'<text x="{x + 30}" y="{yy}" font-size="11" fill="#222">{s.label}</text>')

    def write(self, out_path: Union[str, Path]) -> Path:
        out_path = Path(out_path)
        body = "\n".join(self.parts)
        svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n{body}\n</svg>\n')
        out_path.write_text(svg, encoding="utf-8")
        return out_path


def _render(out_path, title, xlabel, ylabel, series, ylim=None) -> Path:
    xs = np.concatenate([np.asarray(s.x, dtype=float).ravel() for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float).ravel() for s in series])
    xs = xs[np.isfinite(xs)]
    ys = ys[np.isfinite(ys)]
    if xs.size == 0 or ys.size == 0:
        raise ValueError("nothing to plot: no finite data points")
    if ylim is None:
        pad = 0.05 * max(ys.max() - ys.min(), 1e-12)
        ylim = (ys.min() - pad, ys.max() + pad)
    frame = _Frame((float(xs.min()), float(xs.max())), ylim)
    frame.add_axes(title, xlabel, ylabel)
    for s in series:
        frame.add_series(s)
    frame.add_legend([s for s in series if s.label])
    return frame.write(out_path)


def plot_boundary(u: np.ndarray, b: np.ndarray, c: np.ndarray,
                  zero_level: Optional[np.ndarray], k: float,
                  out_path: Union[str, Path]) -> Path:
    """Boundary b(u) with the stopping threshold c(u), the zero level of the
    drift functional where defined, and the break-even belief k."""
    u = np.asarray(u, dtype=float)
    series = [
        Series(u, np.asarray(b, dtype=float), PALETTE["boundary"], "b(u)"),
        Series(u, np.asarray(c, dtype=float), PALETTE["threshold"], "c(u)", dash="5,3"),
        Series(u, np.full_like(u, k), PALETTE["breakeven"], "k", dash="2,3"),
    ]
    if zero_level is not None:
        zl = np.asarray(zero_level, dtype=float)
        if np.any(np.isfinite(zl)):
            series.insert(1, Series(u, zl, PALETTE["zero_level"], "B(u)", width=1.4))
    return _render(out_path, "Investment boundary", "u", "belief",
                   series, ylim=(0.0, 1.02))


def plot_trajectory(t: np.ndarray, u: np.ndarray, pi: np.ndarray,
                    out_path: Union[str, Path]) -> Path:
    """Sample path: capacity staircase against the belief process."""
    series = [
        Series(np.asarray(t, float), np.asarray(u, float),
               PALETTE["capacity"], "capacity U", width=1.8),
        Series(np.asarray(t, float), np.asarray(pi, float),
               PALETTE["belief"], "belief", width=0.9),
    ]
    return _render(out_path, "Sample trajectory", "t", "level",
                   series, ylim=(0.0, 1.02))


def plot_ladder(u_levels: np.ndarray, b: np.ndarray, c: np.ndarray,
                out_path: Union[str, Path]) -> Path:
    """Discrete boundary points b_n (filled) and thresholds c_n (open)."""
    series = [
        Series(np.asarray(u_levels, float), np.asarray(b, float),
               PALETTE["boundary"], "b_n", dots=True),
        Series(np.asarray(u_levels, float), np.asarray(c, float),
               PALETTE["threshold"], "c_n", dots=True, fill_dots=False),
    ]
    return _render(out_path, "Discrete ladder", "u_n", "belief",
                   series, ylim=(0.0, 1.02))
