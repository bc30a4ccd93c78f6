"""Self-contained SVG scatter figures for sweep results.

Figures are written by hand (no plotting library) so output bytes are a
pure function of the records: diffable, reproducible, and viewable anywhere.
Every visual classification (panel placement, harmful-region shading, point
color) is read off the record columns; nothing is recomputed. Odds ratios
are placed by their log odds, the record's own beta.
"""

from __future__ import annotations

import json
import math

from .classify import Verdict, verdict_from_signs
from .scenario import OutcomePolarity
from .sweep import Records

_FONT = 'font-family="Helvetica, Arial, sans-serif"'
_POINT_R = 2.4


def _n(v: float) -> str:
    """Fixed-precision SVG coordinate, normalized so -0 never appears."""
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


def _hex(rgb) -> str:
    return "#%02x%02x%02x" % tuple(int(round(c)) for c in rgb)


def diverging_color(t: float) -> str:
    """Blue -> light gray -> red over t in [0, 1]."""
    t = min(1.0, max(0.0, t))
    blue, mid, red = (33, 102, 172), (224, 224, 224), (178, 24, 43)
    if t < 0.5:
        u = t / 0.5
        rgb = [_lerp(blue[i], mid[i], u) for i in range(3)]
    else:
        u = (t - 0.5) / 0.5
        rgb = [_lerp(mid[i], red[i], u) for i in range(3)]
    return _hex(rgb)


def _nice_step(span: float, target: int = 5) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    step = _nice_step(hi - lo, target)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9:
        out.append(0.0 if abs(v) < step * 1e-6 else v)
        v += step
    return out


def _tick_label(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return f"{v:.2f}".rstrip("0").rstrip(".")


class _Svg:
    def __init__(self, width: int, height: int, desc: dict):
        self.w, self.h = width, height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f"<desc>{json.dumps(desc, sort_keys=True)}</desc>",
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def add(self, element: str) -> None:
        self.parts.append(element)

    def text(self, x, y, s, size=12, anchor="middle", fill="#222", extra=""):
        self.add(
            f'<text x="{_n(x)}" y="{_n(y)}" {_FONT} font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}" {extra}>{s}</text>'
        )

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _Axis:
    """Affine data->pixel map; a span that rounds to 0 maps every value to
    the middle. Differences are taken of halved values, which round as the
    values' own differences do, so a span across the float range stays
    finite."""

    def __init__(self, lo, hi, px_lo, px_hi):
        self.half_lo, self.half_span = lo / 2, hi / 2 - lo / 2
        self.px_lo, self.px_hi = px_lo, px_hi

    def __call__(self, v: float) -> float:
        t = (v / 2 - self.half_lo) / self.half_span if self.half_span else 0.5
        return self.px_lo + t * (self.px_hi - self.px_lo)


def _odds_label(log_odds: float) -> str:
    """The odds ratio exp(log_odds), or its exponent form past the float range."""
    try:
        return _tick_label(math.exp(log_odds))
    except OverflowError:
        return f"exp({_tick_label(log_odds)})"


def _harmful_auc_sign(polarity: OutcomePolarity, pi0: int) -> int:
    """Which AUC-shift sign the verdict lookup labels harmful in a panel:
    the lookup labels one sign harmful and the other beneficial."""
    return 1 if verdict_from_signs(polarity, pi0, 1) is Verdict.HARMFUL else -1


_PANEL_ROWS = (OutcomePolarity.UNDESIRABLE, OutcomePolarity.DESIRABLE)
_POLARITY_TITLE = {
    OutcomePolarity.UNDESIRABLE: "Y=1 undesirable (treat high risk)",
    OutcomePolarity.DESIRABLE: "Y=1 desirable (treat low risk)",
}
_PI0_TITLE = {0: "historic: treat no one", 1: "historic: treat everyone"}

_OR_TICKS = (0.4, 0.6, 1.0, 1.6, 2.5)
# The x-range's margin each side of the outermost points, in log odds.
_X_PAD = math.log(1.12)


def odds_ratio_panels(
    records: Records,
    x_field: str,
    color_field: str,
    x_label: str,
    color_label: str,
    title: str,
    manifest: dict,
) -> str:
    """Four-panel (polarity x historic policy) scatter of AUC change against
    an odds ratio, log x-scale, diverging color by a second odds ratio, and
    the panel's harmful half-plane shaded."""
    width, height = 900, 660
    svg = _Svg(width, height, manifest)
    svg.text(width / 2, 26, title, size=16, extra='font-weight="bold"')

    xs = records.columns[x_field].tolist()
    cs = records.columns[color_field].tolist()
    ys = records.columns["auc_delta"].tolist()
    # Without points the x-range is fixed around an odds ratio of 1.
    x_lo, x_hi = min(xs, default=0.0) - _X_PAD, max(xs, default=0.0) + _X_PAD
    y_amp = max(max((abs(y) for y in ys), default=0.1), 1e-3) * 1.1
    c_amp = max(max((abs(c) for c in cs), default=1.0), 1e-9)

    margin_l, margin_t, gap = 72, 64, 30
    legend_w = 96
    panel_w = (width - margin_l - legend_w - gap * 2 - 16) / 2
    panel_h = (height - margin_t - 64 - gap) / 2

    for row, polarity in enumerate(_PANEL_ROWS):
        for col, pi0 in enumerate((0, 1)):
            px = margin_l + col * (panel_w + gap)
            py = margin_t + row * (panel_h + gap)
            ax = _Axis(x_lo, x_hi, px, px + panel_w)
            ay = _Axis(-y_amp, y_amp, py + panel_h, py)

            svg.add(
                f'<rect x="{_n(px)}" y="{_n(py)}" width="{_n(panel_w)}" '
                f'height="{_n(panel_h)}" fill="none" stroke="#444"/>'
            )
            harmful_sign = _harmful_auc_sign(polarity, pi0)
            shade_top = py if harmful_sign > 0 else ay(0.0)
            svg.add(
                f'<rect x="{_n(px)}" y="{_n(shade_top)}" width="{_n(panel_w)}" '
                f'height="{_n(panel_h / 2)}" fill="#d73027" fill-opacity="0.12"/>'
            )
            label_y = py + 16 if harmful_sign > 0 else py + panel_h - 9
            svg.text(px + panel_w - 8, label_y, "harmful", size=11,
                     anchor="end", fill="#a63126")

            svg.add(
                f'<line x1="{_n(px)}" y1="{_n(ay(0.0))}" x2="{_n(px + panel_w)}" '
                f'y2="{_n(ay(0.0))}" stroke="#888" stroke-width="0.8"/>'
            )
            if x_lo < 0.0 < x_hi:
                svg.add(
                    f'<line x1="{_n(ax(0.0))}" y1="{_n(py)}" x2="{_n(ax(0.0))}" '
                    f'y2="{_n(py + panel_h)}" stroke="#888" stroke-width="0.8" '
                    'stroke-dasharray="3,3"/>'
                )

            for t in _OR_TICKS:
                x = math.log(t)
                if not x_lo <= x <= x_hi:
                    continue
                svg.add(
                    f'<line x1="{_n(ax(x))}" y1="{_n(py + panel_h)}" '
                    f'x2="{_n(ax(x))}" y2="{_n(py + panel_h + 4)}" stroke="#444"/>'
                )
                svg.text(ax(x), py + panel_h + 16, _tick_label(t), size=10)
            for t in _ticks(-y_amp, y_amp, 4):
                svg.add(
                    f'<line x1="{_n(px - 4)}" y1="{_n(ay(t))}" x2="{_n(px)}" '
                    f'y2="{_n(ay(t))}" stroke="#444"/>'
                )
                if col == 0:
                    svg.text(px - 7, ay(t) + 3, _tick_label(t), size=10, anchor="end")

            svg.text(
                px + panel_w / 2, py - 7,
                f"{_POLARITY_TITLE[polarity]} · {_PI0_TITLE[pi0]}", size=11.5,
            )

            panel = records.where(polarity=polarity, pi0=pi0).columns
            for x, c, y in zip(
                panel[x_field].tolist(), panel[color_field].tolist(),
                panel["auc_delta"].tolist(),
            ):
                t = 0.5 + 0.5 * c / c_amp
                svg.add(
                    f'<circle cx="{_n(ax(x))}" cy="{_n(ay(y))}" r="{_POINT_R}" '
                    f'fill="{diverging_color(t)}" fill-opacity="0.75" '
                    'stroke="#333" stroke-width="0.25"/>'
                )

    svg.text(margin_l + panel_w + gap / 2, height - 22, x_label, size=13)
    svg.text(
        20, margin_t + panel_h + gap / 2, "AUC change (post − pre)", size=13,
        extra=f'transform="rotate(-90 20 {_n(margin_t + panel_h + gap / 2)})"',
    )

    # color legend: vertical gradient bar on the log-odds scale
    lx = width - legend_w + 8
    ly, lh = margin_t + 20, 180
    steps = 24
    for i in range(steps):
        svg.add(
            f'<rect x="{lx}" y="{_n(ly + i * lh / steps)}" width="16" '
            f'height="{_n(lh / steps + 0.5)}" fill="{diverging_color(1.0 - (i + 0.5) / steps)}"/>'
        )
    svg.add(
        f'<rect x="{lx}" y="{_n(ly)}" width="16" height="{_n(lh)}" '
        'fill="none" stroke="#444" stroke-width="0.6"/>'
    )
    svg.text(lx + 24, ly + 5, _odds_label(c_amp), size=10, anchor="start")
    svg.text(lx + 24, ly + lh / 2 + 3, "1", size=10, anchor="start")
    svg.text(lx + 24, ly + lh + 3, _odds_label(-c_amp), size=10, anchor="start")
    svg.text(lx + 8, ly - 12, color_label, size=11, anchor="start")
    return svg.finish()


def auc_pre_panel(records: Records, title: str, manifest: dict) -> str:
    """Single-panel scatter: pre-deployment AUC against AUC change, points
    colored by the marginal-harm flag."""
    width, height = 640, 500
    svg = _Svg(width, height, manifest)
    svg.text(width / 2, 26, title, size=15, extra='font-weight="bold"')

    margin_l, margin_t = 76, 56
    panel_w, panel_h = width - margin_l - 36, height - margin_t - 84
    xs = records.columns["auc_pre"].tolist()
    ys = records.columns["auc_delta"].tolist()
    x_lo = min(xs + [0.5]) - 0.02
    x_hi = max(xs + [0.6]) + 0.02
    y_amp = max(max((abs(y) for y in ys), default=0.1), 1e-3) * 1.1
    ax = _Axis(x_lo, x_hi, margin_l, margin_l + panel_w)
    ay = _Axis(-y_amp, y_amp, margin_t + panel_h, margin_t)

    svg.add(
        f'<rect x="{margin_l}" y="{margin_t}" width="{_n(panel_w)}" '
        f'height="{_n(panel_h)}" fill="none" stroke="#444"/>'
    )
    svg.add(
        f'<line x1="{margin_l}" y1="{_n(ay(0.0))}" x2="{_n(margin_l + panel_w)}" '
        f'y2="{_n(ay(0.0))}" stroke="#888" stroke-width="0.8"/>'
    )
    for t in _ticks(x_lo, x_hi, 6):
        svg.add(
            f'<line x1="{_n(ax(t))}" y1="{_n(margin_t + panel_h)}" '
            f'x2="{_n(ax(t))}" y2="{_n(margin_t + panel_h + 4)}" stroke="#444"/>'
        )
        svg.text(ax(t), margin_t + panel_h + 17, _tick_label(t), size=10)
    for t in _ticks(-y_amp, y_amp, 5):
        svg.add(
            f'<line x1="{_n(margin_l - 4)}" y1="{_n(ay(t))}" x2="{margin_l}" '
            f'y2="{_n(ay(t))}" stroke="#444"/>'
        )
        svg.text(margin_l - 7, ay(t) + 3, _tick_label(t), size=10, anchor="end")

    for x, y, harmful in zip(xs, ys, records.columns["harmful_marginal"].tolist()):
        color = "#d73027" if harmful else "#2c7fb8"
        svg.add(
            f'<circle cx="{_n(ax(x))}" cy="{_n(ay(y))}" '
            f'r="{_POINT_R}" fill="{color}" fill-opacity="0.6" '
            'stroke="#333" stroke-width="0.25"/>'
        )

    svg.text(margin_l + panel_w / 2, height - 34, "AUC before deployment", size=13)
    svg.text(
        22, margin_t + panel_h / 2, "AUC change (post − pre)", size=13,
        extra=f'transform="rotate(-90 22 {_n(margin_t + panel_h / 2)})"',
    )
    ly = height - 16
    svg.add(f'<circle cx="{margin_l + 10}" cy="{ly - 4}" r="4" fill="#d73027"/>')
    svg.text(margin_l + 20, ly, "harmful", size=11, anchor="start")
    svg.add(f'<circle cx="{margin_l + 110}" cy="{ly - 4}" r="4" fill="#2c7fb8"/>')
    svg.text(margin_l + 120, ly, "not harmful", size=11, anchor="start")
    return svg.finish()
