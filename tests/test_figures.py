import pytest

from opmdeploy.classify import Verdict, verdict_from_signs
from opmdeploy.figures import (
    _harmful_auc_sign,
    auc_pre_panel,
    diverging_color,
    odds_ratio_panels,
)
from opmdeploy.scenario import OutcomePolarity, sign_with_band
from opmdeploy.sweep import Records, default_grid, record_columns


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
