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
import sys

from .classify import benefit_sign
from .scenario import OutcomePolarity
from .sweep import Records, map_distinct

# After `sweep`, which imports numpy itself: numpy imported before `sweep`
# raised every command's peak RSS by about 1.5 MB (the heap's layout).
import numpy as np

_FONT = 'font-family="Helvetica, Arial, sans-serif"'
_POINT_R = 2.4
# The largest |log odds| whose odds ratio a legend writes plainly.
_PLAIN_LOG_ODDS = math.log(10.0)
# XML-escapes text (xml.sax.saxutils.escape would import urllib and ssl).
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _n(v: float) -> str:
    """Fixed-precision SVG coordinate, normalized so -0 never appears."""
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


# The texts of the whole pixels and of the hundredths that `_hundredths`
# picks: no canvas is 1000 pixels wide.
_WHOLE = np.array([str(i) for i in range(1000)], dtype=object)
_FRAC = np.array([f".{i:02d}" for i in range(100)], dtype=object)


def _hundredths(column: np.ndarray) -> tuple[list[str], list[str]]:
    """Two texts for each value of the float column that join to its `_n`,
    with no call and no new string per value: its hundredths
    k = floor(100 v + 0.5) pick the whole pixels and the hundredths from the
    tables. On the tables' range 100 v is rounded by far less than 1e-6, so
    k is exact unless 100 v lies within 1e-6 of a tie; such a value, one
    whose k is not in the tables and one that is not finite gets `_n` and
    ""."""
    with np.errstate(over="ignore", invalid="ignore"):  # 100 v past the float range; inf - inf
        s = column * 100.0
        k = np.floor(s + 0.5)
        table = (abs(s - np.floor(s) - 0.5) > 1e-6) & (k >= 0) & (k < 100 * len(_WHOLE))
    whole, frac = np.divmod(np.where(table, k, 0).astype(np.intp), 100)
    whole, frac = _WHOLE[whole], _FRAC[frac]
    rest = np.flatnonzero(~table)
    whole[rest] = [_n(v) for v in column[rest].tolist()]
    frac[rest] = ""
    return whole.tolist(), frac.tolist()


def _hex(rgb) -> str:
    return "#%02x%02x%02x" % tuple(int(round(c)) for c in rgb)


def diverging_color(t: float) -> str:
    """Blue -> light gray -> red over t in [0, 1]."""
    t = min(1.0, max(0.0, t))
    blue, mid, red = (33, 102, 172), (224, 224, 224), (178, 24, 43)
    lo, hi, u = (blue, mid, t / 0.5) if t < 0.5 else (mid, red, (t - 0.5) / 0.5)
    return _hex(a + (b - a) * u for a, b in zip(lo, hi))


def _nice_step(half_span: float, target: int = 5) -> float:
    """The first of 1, 2, 2.5, 5 and 10 times the power of ten at or below
    span / target that is at least span / target: that power is above a
    tenth of span / target, so ten times it always is. Given half the span,
    which is finite for any two floats."""
    raw = half_span / target * 2
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    step = _nice_step(hi / 2 - lo / 2, target)
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


_ZERO_LINE = 'stroke="#888" stroke-width="0.8"'


class _Svg:
    """The one writer of a figure's markup: its parts, in order, and their
    join. The desc holds the manifest as XML-escaped JSON."""

    def __init__(self, width: int, height: int, desc: dict, title: str, title_size: float):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f"<desc>{json.dumps(desc, sort_keys=True).translate(_ESCAPE)}</desc>",
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]
        self.text(width / 2, 26, title, size=title_size, extra='font-weight="bold"')

    def add(self, element: str) -> None:
        self.parts.append(element)

    def line(self, x1, y1, x2, y2, style='stroke="#444"') -> None:
        self.add(f'<line x1="{_n(x1)}" y1="{_n(y1)}" x2="{_n(x2)}" y2="{_n(y2)}" {style}/>')

    def rect(self, x, y, w, h, style: str) -> None:
        self.add(f'<rect x="{_n(x)}" y="{_n(y)}" width="{_n(w)}" height="{_n(h)}" {style}/>')

    def text(self, x, y, s, size=12, anchor="middle", fill="#222", extra=""):
        self.add(
            f'<text x="{_n(x)}" y="{_n(y)}" {_FONT} font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}" {extra}>{s}</text>'
        )

    def y_label(self, x: int, y: float) -> None:
        """The AUC-change axis title, rotated to run up the left edge."""
        self.text(x, y, "AUC change (post − pre)", size=13,
                  extra=f'transform="rotate(-90 {x} {_n(y)})"')

    def circles(self, xs: tuple, ys: tuple, fills: list, opacity: float) -> None:
        """One point per (x, y, fill) of the formatted columns, the points
        one part joined at once (none without points): eight texts a point,
        the formatted cells between the constant fragments, each coordinate
        as the two texts of `_hundredths`."""
        if fills:
            end = f'" fill-opacity="{opacity}" stroke="#333" stroke-width="0.25"/>'
            point = [None, None, '" cy="', None, None, f'" r="{_POINT_R}" fill="', None,
                     end + '\n<circle cx="']
            text = ['<circle cx="'] + point * len(fills)
            text[1::8], text[2::8] = xs
            text[4::8], text[5::8] = ys
            text[7::8], text[-1] = fills, end
            self.add("".join(text))

    def finish(self) -> str:
        """The document, built by one join; the last call on this object."""
        self.parts += ["</svg>", ""]
        return "\n".join(self.parts)


class _Axis:
    """Affine data->pixel map, one expression on a value or on a column.
    Differences are taken of halved values, which round as the values' own
    differences do, so a span across the float range stays finite. A span
    that rounds to 0 maps every value to the middle: the data span is then
    infinite and the pixel span 0."""

    def __init__(self, lo, hi, px_lo, px_hi):
        self.half_lo, self.half_span = lo / 2, hi / 2 - lo / 2
        self.px_lo, self.px_span = px_lo, px_hi - px_lo
        if not self.half_span:
            self.half_span, self.px_lo, self.px_span = math.inf, px_lo + 0.5 * self.px_span, 0.0

    def __call__(self, v):
        return self.px_lo + (v / 2 - self.half_lo) / self.half_span * self.px_span


def _range(column, empty: tuple[float, float]) -> tuple[float, float]:
    """The column's least and greatest values, `empty` without values."""
    return (float(column.min()), float(column.max())) if len(column) else empty


def _amplitude(column, empty: float, floor: float) -> float:
    """The column's largest |value| (`empty` without values), at least `floor`."""
    lo, hi = _range(column, (-empty, empty))
    return max(-lo, hi, floor)


def _y_amplitude(auc_delta) -> float:
    """The AUC-change axis's half range: a tenth past the column's largest
    |value|, and no more than the largest float."""
    return min(_amplitude(auc_delta, 0.1, 1e-3) * 1.1, sys.float_info.max)


def _scatter(svg: _Svg, ax: _Axis, ay: _Axis, xs, ys, fills, opacity: float) -> None:
    """One circle per point at (ax(x), ay(y)), filled with the point's text
    of the object column `fills`."""
    svg.circles(_hundredths(ax(xs)), _hundredths(ay(ys)), fills.tolist(), opacity)


def _odds_label(log_odds: float) -> str:
    """The odds ratio exp(log_odds) where it reads plainly (0.1 to 10), else
    its exponent form."""
    if abs(log_odds) <= _PLAIN_LOG_ODDS:
        return _tick_label(math.exp(log_odds))
    return f"exp({log_odds:.3g})"


def _harmful_auc_sign(polarity: OutcomePolarity, pi0: int) -> int:
    """Which AUC-shift sign the verdict rule labels harmful in a panel: the
    rule labels one sign harmful and the other beneficial."""
    return -benefit_sign(polarity.favorable_sign, pi0, 1)


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
    svg = _Svg(width, height, manifest, title, 16)

    columns = records.columns
    # Without points the x-range is fixed around an odds ratio of 1.
    x_lo, x_hi = _range(columns[x_field], (0.0, 0.0))
    x_lo, x_hi = x_lo - _X_PAD, x_hi + _X_PAD
    y_amp = _y_amplitude(columns["auc_delta"])
    c_amp = _amplitude(columns[color_field], 1.0, 1e-9)

    # each distinct color value is formatted once per figure
    fills = map_distinct(lambda c: diverging_color(0.5 + 0.5 * c / c_amp), columns[color_field])

    margin_l, margin_t, gap = 72, 64, 30
    legend_w = 96
    panel_w = (width - margin_l - legend_w - gap * 2 - 16) / 2
    panel_h = (height - margin_t - 64 - gap) / 2

    for row, polarity in enumerate(OutcomePolarity):
        for col, pi0 in enumerate((0, 1)):
            px = margin_l + col * (panel_w + gap)
            py = margin_t + row * (panel_h + gap)
            ax = _Axis(x_lo, x_hi, px, px + panel_w)
            ay = _Axis(-y_amp, y_amp, py + panel_h, py)

            svg.rect(px, py, panel_w, panel_h, 'fill="none" stroke="#444"')
            harmful_sign = _harmful_auc_sign(polarity, pi0)
            shade_top = py if harmful_sign > 0 else ay(0.0)
            svg.rect(px, shade_top, panel_w, panel_h / 2, 'fill="#d73027" fill-opacity="0.12"')
            label_y = py + 16 if harmful_sign > 0 else py + panel_h - 9
            svg.text(px + panel_w - 8, label_y, "harmful", size=11,
                     anchor="end", fill="#a63126")

            svg.line(px, ay(0.0), px + panel_w, ay(0.0), _ZERO_LINE)
            if x_lo < 0.0 < x_hi:
                svg.line(ax(0.0), py, ax(0.0), py + panel_h,
                         _ZERO_LINE + ' stroke-dasharray="3,3"')

            for t in _OR_TICKS:
                x = math.log(t)
                if not x_lo <= x <= x_hi:
                    continue
                svg.line(ax(x), py + panel_h, ax(x), py + panel_h + 4)
                svg.text(ax(x), py + panel_h + 16, _tick_label(t), size=10)
            for t in _ticks(-y_amp, y_amp, 4):
                svg.line(px - 4, ay(t), px, ay(t))
                if col == 0:
                    svg.text(px - 7, ay(t) + 3, _tick_label(t), size=10, anchor="end")

            svg.text(
                px + panel_w / 2, py - 7,
                f"{_POLARITY_TITLE[polarity]} · {_PI0_TITLE[pi0]}", size=11.5,
            )

            keep = records.mask(polarity=polarity, pi0=pi0)
            _scatter(svg, ax, ay, columns[x_field][keep], columns["auc_delta"][keep],
                     fills[keep], 0.75)

    svg.text(margin_l + panel_w + gap / 2, height - 22, x_label, size=13)
    svg.y_label(20, margin_t + panel_h + gap / 2)

    # color legend: vertical gradient bar on the log-odds scale; its x and
    # width are written as bare ints (x="812"), which `_n` would write "812.00"
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
    svg = _Svg(width, height, manifest, title, 15)

    margin_l, margin_t = 76, 56
    panel_w, panel_h = width - margin_l - 36, height - margin_t - 84
    x_lo, x_hi = _range(records.columns["auc_pre"], (0.5, 0.6))
    x_lo, x_hi = min(x_lo, 0.5) - 0.02, max(x_hi, 0.6) + 0.02
    y_amp = _y_amplitude(records.columns["auc_delta"])
    ax = _Axis(x_lo, x_hi, margin_l, margin_l + panel_w)
    ay = _Axis(-y_amp, y_amp, margin_t + panel_h, margin_t)

    # The frame, the zero line's x1 and the y ticks' x2 are written as bare
    # ints (x="76"), which `_n` would write "76.00".
    svg.add(
        f'<rect x="{margin_l}" y="{margin_t}" width="{_n(panel_w)}" '
        f'height="{_n(panel_h)}" fill="none" stroke="#444"/>'
    )
    svg.add(
        f'<line x1="{margin_l}" y1="{_n(ay(0.0))}" x2="{_n(margin_l + panel_w)}" '
        f'y2="{_n(ay(0.0))}" {_ZERO_LINE}/>'
    )
    for t in _ticks(x_lo, x_hi, 6):
        svg.line(ax(t), margin_t + panel_h, ax(t), margin_t + panel_h + 4)
        svg.text(ax(t), margin_t + panel_h + 17, _tick_label(t), size=10)
    for t in _ticks(-y_amp, y_amp, 5):
        svg.add(
            f'<line x1="{_n(margin_l - 4)}" y1="{_n(ay(t))}" x2="{margin_l}" '
            f'y2="{_n(ay(t))}" stroke="#444"/>'
        )
        svg.text(margin_l - 7, ay(t) + 3, _tick_label(t), size=10, anchor="end")

    c = records.columns
    fills = map_distinct(lambda harmful: "#d73027" if harmful else "#2c7fb8",
                         c["harmful_marginal"])
    _scatter(svg, ax, ay, c["auc_pre"], c["auc_delta"], fills, 0.6)

    svg.text(margin_l + panel_w / 2, height - 34, "AUC before deployment", size=13)
    svg.y_label(22, margin_t + panel_h / 2)
    # the swatches' centres are bare ints (cx="86"), which `_n` would write "86.00"
    ly = height - 16
    svg.add(f'<circle cx="{margin_l + 10}" cy="{ly - 4}" r="4" fill="#d73027"/>')
    svg.text(margin_l + 20, ly, "harmful", size=11, anchor="start")
    svg.add(f'<circle cx="{margin_l + 110}" cy="{ly - 4}" r="4" fill="#2c7fb8"/>')
    svg.text(margin_l + 120, ly, "not harmful", size=11, anchor="start")
    return svg.finish()
