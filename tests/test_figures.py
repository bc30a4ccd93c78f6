import io
import json
import math
from collections import Counter
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opmdeploy import figures
from opmdeploy.classify import Verdict, verdict_from_signs
from opmdeploy.cli import main
from opmdeploy.figures import (
    FIGURES,
    _POINT_R,
    _Axis,
    _harmful_auc_sign,
    _hundredths,
    _n,
    _odds_label,
    _tick_label,
    auc_pre_panel,
    diverging_color,
    odds_ratio_panels,
)
from opmdeploy.scenario import OutcomePolarity, sign_with_band
from opmdeploy.sweep import (
    CSV_COLUMNS,
    GridSpec,
    Records,
    csv_records,
    default_grid,
    grid_records,
    map_distinct,
    record_columns,
)


@pytest.fixture(scope="module")
def records():
    records, _, _ = record_columns(default_grid())
    return records


def head(records: Records, n: int) -> Records:
    return Records({name: column[:n] for name, column in records.columns.items()})


def test_color_map_endpoints_and_midpoint():
    assert diverging_color(0.0) == "#2166ac"
    assert diverging_color(1.0) == "#b2182b"
    assert diverging_color(0.5) == "#e0e0e0"


@pytest.mark.parametrize("polarity", list(OutcomePolarity))
@pytest.mark.parametrize("pi0", [0, 1])
def test_shaded_side_is_the_harmful_verdict_side(polarity, pi0):
    s = _harmful_auc_sign(polarity, pi0)
    assert verdict_from_signs(polarity, pi0, s) is Verdict.HARMFUL
    assert verdict_from_signs(polarity, pi0, -s) is Verdict.BENEFICIAL


def test_every_point_in_a_shaded_region_is_marginally_harmful(records):
    # shading covers the half-plane auc_sign == harmful side of each panel;
    # a record sits inside iff its own sign matches, and must then carry the
    # harmful flag the CSV exposes
    for r in records:
        side = _harmful_auc_sign(r.polarity, r.pi0)
        if sign_with_band(r.auc_delta) == side:
            assert r.harmful_marginal
        elif sign_with_band(r.auc_delta) == -side:
            assert not r.harmful_marginal


def test_svg_renders_all_records_once(records):
    manifest = {"figure": "test"}
    svg = odds_ratio_panels(
        head(records, 200), "beta_t", "beta_xt", "x", "c", "title", manifest
    )
    assert svg.count("<circle") == 200
    assert svg.count("</svg>") == 1


def test_auc_pre_panel_legend_and_points(records):
    svg = auc_pre_panel(head(records, 50), "title", {"figure": "test"})
    assert svg.count("<circle") == 52  # 50 points + 2 legend swatches
    assert "harmful" in svg and "not harmful" in svg


@pytest.mark.parametrize("log_odds, label", [
    (math.log(2.5), "2.5"),  # the default grid's legend
    (-math.log(2.5), "0.4"),
    (700.0, "exp(700)"),  # a 305-digit odds ratio
    (-6.0, "exp(-6)"),  # 0.0025, which two decimals round to 0
    (-700.0, "exp(-700)"),
    (-710.0, "exp(-710)"),  # past the float range
    (1e308, "exp(1e+308)"),
])
def test_odds_label_reads_plainly_or_as_exponent(log_odds, label):
    assert _odds_label(log_odds) == label


@pytest.mark.parametrize("v, label", [
    (0.0, "0"),
    (0.15000000000000002, "0.15"),  # a tick summed from its step
    (-0.05, "-0.05"),
    (2.5, "2.5"),
    (100.0, "100"),
    (99999999.0, "99999999"),  # the longest text written to two decimals
    (-1234567.0, "-1234567"),
    (123456789.0, "1.23e+08"),
    (-12345.678, "-1.23e+04"),
    (1e308, "1e+308"),  # a tick of an AUC-change axis out to the float range
    (-5.000000000000001e307, "-5e+307"),
])
def test_tick_label_fits_in_eight_characters_or_three_digits(v, label):
    assert _tick_label(v) == label


def test_map_distinct_calls_once_per_bit_pattern():
    seen = []

    def fn(v):
        seen.append(v)
        return repr(v)

    column = np.array([1.5, 0.0, -0.0, 1.5, 0.0, -2.0])
    assert map_distinct(fn, column).tolist() == list(map(repr, column.tolist()))
    assert sorted(map(repr, seen)) == ["-0.0", "-2.0", "0.0", "1.5"]
    flags = np.array([True, False, True])
    assert map_distinct(str, flags).tolist() == ["True", "False", "True"]
    assert map_distinct(repr, np.array([])).tolist() == []


def assert_hundredths_are_n(values) -> None:
    column = np.array(values, dtype=float)
    wholes, fracs = _hundredths(column)
    assert [w + f for w, f in zip(wholes, fracs, strict=True)] == list(map(_n, column.tolist()))


# The table's edge: 999.99 is its last text, 999.995 the first value past it.
EDGE = (999.99, 999.994, 999.995, np.nextafter(999.995, 0.0), 999.996, 1000.0, 1000.004,
        1e5, 2.0**52 / 100, 2.0**53, 1e300, 1.7976931348623157e308)


@pytest.mark.parametrize("values", [
    [0.005, 0.125, 2.675, 1.005, 0.015, 0.0, 0.01, 0.5, 1.0, 72.0, 812.375],
    [-0.005, -0.004, -0.0, -0.0049999, -0.3, -1.005, -72.0, -1e300],
    [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308],
    list(EDGE) + [-v for v in EDGE],
    [],
])
def test_hundredths_are_n_at_the_edge_cases(values):
    assert_hundredths_are_n(values)


def test_hundredths_are_n_on_every_tie():
    # every x.xx5 up to past the table's edge, and the floats either side
    ties = (np.arange(110_000) + 0.5) / 100
    ties = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    assert_hundredths_are_n(np.concatenate([ties, -ties]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-10.0, 1010.0) | st.floats(), max_size=40))
def test_hundredths_are_n(values):
    assert_hundredths_are_n(values)


def test_default_plot_formats_points_without_a_scalar_call_each(tmp_path, monkeypatch, capsys):
    # the default grid's 18 480 points: at 4 coordinates and a fill each,
    # a call per point would be over 36 000 `_n` calls
    calls = Counter()

    def counted(fn):
        def call(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(figures, "_n", counted(figures._n))
    monkeypatch.setattr(figures, "diverging_color", counted(figures.diverging_color))
    assert main(["plot", "--grid", "default", "--out", str(tmp_path)]) == 0
    assert calls["_n"] < 2000 and calls["diverging_color"] < 150, calls


def per_value_axis(lo, hi, px_lo, px_hi, v):
    """The axis as written for one value at a time: the oracle of `_Axis`."""
    half_lo, half_span = lo / 2, hi / 2 - lo / 2
    t = (v / 2 - half_lo) / half_span if half_span else 0.5
    return px_lo + t * (px_hi - px_lo)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(finite, finite, finite, st.floats(-1000.0, 1000.0), st.floats(0.0, 1000.0))
@example(5.0, 5.0, 5.0, 10.0, 20.0)  # zero span: the middle
@example(1e308, 1e308, 1e308 - 1e292, 72.0, 400.0)
def test_axis_maps_a_column_as_each_value(lo, hi, v, px_lo, px_width):
    lo, hi = min(lo, hi), max(lo, hi)
    v = min(max(v, lo), hi)
    px_hi = px_lo + px_width
    want = per_value_axis(lo, hi, px_lo, px_hi, v)
    axis = _Axis(lo, hi, px_lo, px_hi)
    assert repr(axis(v)) == repr(want)
    assert repr(axis(np.array([v, v])).tolist()) == repr([want, want])


def per_point_scatter(svg, ax, ay, xs, ys, fills, opacity):
    """The per-point loop the column renderer replaced: the oracle of
    `figures._scatter`. Each fill is the color of that one point when
    `per_value_map` stands in for `map_distinct`."""
    for x, y, fill in zip(xs.tolist(), ys.tolist(), fills.tolist()):
        svg.add(
            f'<circle cx="{_n(ax(x))}" cy="{_n(ay(y))}" r="{_POINT_R}" '
            f'fill="{fill}" fill-opacity="{opacity}" '
            'stroke="#333" stroke-width="0.25"/>'
        )


def per_value_map(fn, column):
    """fn called on each value in turn: the oracle of `map_distinct`, which
    the figures call once per figure for the fills of all its points."""
    return np.array([fn(v) for v in column.tolist()], dtype=object)


def figure_bytes(records: Records) -> list[str]:
    """Every figure `plot` draws from the records, on both subsets."""
    out = []
    for recs in (records, records.where(avg_treatment_beneficial=True)):
        out.append(odds_ratio_panels(recs, "beta_t", "beta_xt", "x", "c", "t", {}))
        out.append(odds_ratio_panels(recs, "beta_xt", "beta_t", "x", "c", "t", {}))
        out.append(auc_pre_panel(recs, "t", {}))
    return out


def per_value_range(column, empty):
    """The extremes as read off a list of the values: the oracle of
    `figures._range`."""
    values = column.tolist()
    return (min(values), max(values)) if values else empty


def per_value_amplitude(column, empty, floor):
    """The oracle of `figures._amplitude`."""
    return max(max(abs(column).tolist(), default=empty), floor)


def assert_matches_per_point_oracle(records: Records) -> None:
    columns = figure_bytes(records)
    for svg in columns:
        ElementTree.fromstring(svg)
    with mock.patch.object(figures, "_scatter", per_point_scatter), \
            mock.patch.object(figures, "map_distinct", per_value_map), \
            mock.patch.object(figures, "_range", per_value_range), \
            mock.patch.object(figures, "_amplitude", per_value_amplitude):
        assert figure_bytes(records) == columns


@pytest.mark.parametrize("opacity", [0.6, 0.75])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_joined_circles_are_the_per_point_markup(n, opacity):
    # a tie, a negative and a value past the tables among them
    xs = np.array([72.0, 0.125, -3.5, 812.375, 1e4][:n])
    ys = np.array([120.25 - i / 3 for i in range(n)])
    fills = [diverging_color(i / 4) for i in range(n)]
    joined = figures._Svg(100, 80, {}, "t", 12)
    joined.circles(_hundredths(xs), _hundredths(ys), fills, opacity)
    per_point = figures._Svg(100, 80, {}, "t", 12)
    before = len(per_point.parts)
    for x, y, fill in zip(xs.tolist(), ys.tolist(), fills):
        per_point.add(
            '<circle cx="{}" cy="{}" r="2.4" fill="{}" fill-opacity="{}" '
            'stroke="#333" stroke-width="0.25"/>'.format(_n(x), _n(y), fill, opacity)
        )
    # one part for the points, none without points
    assert len(joined.parts) == before + min(n, 1)
    assert joined.finish() == per_point.finish()


def test_default_grid_renders_as_the_per_point_oracle(records):
    assert_matches_per_point_oracle(records)


HUGE = (710.0, -710.0, 745.0, 1e308, -1e308, 1.7976931348623157e308)
beta = st.floats(-40.0, 40.0) | st.sampled_from([0.0, -0.0]) | st.sampled_from(HUGE)


def value_lists(element):
    # one value (a zero span when it is the plotted beta), or both zeros
    return st.lists(element, min_size=1, max_size=3) | st.just([0.0, -0.0])


@st.composite
def grids(draw) -> GridSpec:
    return GridSpec(
        p_x_values=draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=2)),
        pi0_values=draw(st.sampled_from([[0], [1], [0, 1]])),
        beta0_values=draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=2)),
        beta_x_values=draw(value_lists(beta)),
        beta_t_values=draw(value_lists(beta)),
        beta_xt_values=draw(value_lists(beta)),
        polarities=draw(st.lists(st.sampled_from(list(OutcomePolarity)), min_size=1, max_size=2)),
    )


def one_grid(**lists) -> GridSpec:
    base = dict(
        p_x_values=[0.3, 0.5], pi0_values=[0, 1], beta0_values=[-0.5],
        beta_x_values=[1.0], beta_t_values=[0.5], beta_xt_values=[0.0],
        polarities=list(OutcomePolarity),
    )
    return GridSpec(**{**base, **lists})


@settings(max_examples=60, deadline=None)
@given(grids())
# no effect: every auc_delta is 0 and no setting is beneficial on average
@example(one_grid(beta_t_values=[0.0, -0.0], beta_xt_values=[0.0, -0.0]))
# one value per list, past the float range of its odds ratio: zero x span
@example(one_grid(beta_t_values=[1e308], beta_xt_values=[-710.0]))
@example(one_grid(beta_t_values=[-1e308, 1e308], beta_xt_values=[745.0, -0.0]))
def test_custom_grids_render_as_the_per_point_oracle(grid):
    records, _, _ = record_columns(grid)
    assert_matches_per_point_oracle(records)


def test_empty_panels_render_as_the_per_point_oracle():
    # no setting has pi0 = 1, so both "treat everyone" panels are empty
    records, _, _ = record_columns(one_grid(pi0_values=[0]))
    assert len(records) and not records.columns["pi0"].any()
    assert_matches_per_point_oracle(records)
    svg = odds_ratio_panels(records, "beta_t", "beta_xt", "x", "c", "t", {})
    assert svg.count("<circle") == len(records)


def test_oracle_examples_cover_the_edge_cases():
    no_effect, _, _ = record_columns(
        one_grid(beta_t_values=[0.0, -0.0], beta_xt_values=[0.0, -0.0])
    )
    assert len(no_effect) and not np.any(no_effect.columns["auc_delta"])
    assert len(no_effect.where(avg_treatment_beneficial=True)) == 0
    huge, _, _ = record_columns(one_grid(beta_t_values=[1e308], beta_xt_values=[-710.0]))
    assert len(huge)
    svg = odds_ratio_panels(huge, "beta_t", "beta_xt", "x", "c", "t", {})
    assert svg.count("<circle") == len(huge)
    assert "exp(710)" in svg and "exp(-710)" in svg


SVG_DESC = "{http://www.w3.org/2000/svg}desc"


def drawn(records, manifest: dict) -> dict[str, str]:
    """The documents `figures.draw` writes to in-memory files, by figure
    name; it names each figure once, in `FIGURES`' order."""
    files = {name: io.StringIO() for name, *_ in FIGURES}
    assert list(figures.draw(records, files, manifest)) == list(files)
    return {name: fh.getvalue() for name, fh in files.items()}


def descs(documents: dict[str, str]) -> dict[str, dict]:
    """Each well-formed document's `<desc>` manifest."""
    return {name: json.loads(ElementTree.fromstring(text).find(SVG_DESC).text)
            for name, text in documents.items()}


def test_draw_writes_the_documents_plot_writes(tmp_path):
    out = tmp_path / "figs"
    assert main(["plot", "--grid", "default", "--out", str(out)]) == 0
    plotted = {name: (out / name).read_text(encoding="utf-8") for name, *_ in FIGURES}
    desc = descs(plotted)["fig-bt-vs-diff.svg"]
    assert sorted(desc) == ["figure", "points", "source", "subset", "tool"]
    manifest = {"tool": desc["tool"], "source": desc["source"]}
    assert drawn(grid_records(default_grid()), manifest) == plotted


def test_draw_without_avg_beneficial_settings():
    grid = one_grid(beta_t_values=[0.0], beta_xt_values=[0.0])
    found = descs(drawn(grid_records(grid), {"source": "test"}))
    for name, restricted, *_ in FIGURES:
        subset = "avg-beneficial" if restricted else "all"
        assert found[name]["subset"] == subset and found[name]["source"] == "test"
        assert (found[name]["points"] == 0) == restricted, name


def test_draw_from_a_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n")
    found = descs(drawn(csv_records(path), {}))
    assert [desc["points"] for desc in found.values()] == [0, 0, 0, 0]
