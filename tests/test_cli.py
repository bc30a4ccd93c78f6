import json
from pathlib import Path

import pytest

from opmdeploy.cli import main
from opmdeploy.sweep import default_grid

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RADIOTHERAPY = str(CONFIGS / "radiotherapy.json")
ZERO_EFFECT = str(CONFIGS / "zero_effect.json")

EXPECTED_HARM_ROWS = [
    ("worse", "0", "true", "1.0"),
    ("worse", "0", "false", "0.0"),
    ("worse", "1", "true", "0.0"),
    ("worse", "1", "false", "1.0"),
    ("better", "0", "true", "0.0"),
    ("better", "0", "false", "1.0"),
    ("better", "1", "true", "1.0"),
    ("better", "1", "false", "0.0"),
]


def write_config(tmp_path, **overrides) -> str:
    cfg = {
        "p_x": 0.5, "pi0": 0, "beta0": -0.5, "beta_x": 0.9162907318741551,
        "beta_t": 0.0, "beta_xt": 0.0, "polarity": "desirable",
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def write_grid(tmp_path, **overrides) -> str:
    """The default grid as a JSON file, with some lists replaced."""
    g = default_grid()
    grid = {
        "p_x_values": list(g.p_x_values), "pi0_values": list(g.pi0_values),
        "beta0_values": list(g.beta0_values), "beta_x_values": list(g.beta_x_values),
        "beta_t_values": list(g.beta_t_values),
        "beta_xt_values": list(g.beta_xt_values),
        "polarities": [p.value for p in g.polarities],
    }
    grid.update(overrides)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    return str(path)


class TestEval:
    def test_radiotherapy_scenario(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main(["eval", "--config", RADIOTHERAPY, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "verdict: harmful" in text
        assert "self_fulfilling=true" in text
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "harmful"
        assert payload["sign_verdict"] == "harmful"
        assert payload["self_fulfilling"] is True
        assert payload["harm"]["harmful_marginal"] is True
        assert payload["post"]["auc"] >= payload["pre"]["auc"]

    def test_zero_effect_scenario(self, capsys):
        assert main(["eval", "--config", ZERO_EFFECT]) == 0
        text = capsys.readouterr().out
        assert "verdict: no_change" in text
        assert "post max_gap=0.000e+00 (yes)" in text

    def test_inline_flags_without_config(self, capsys):
        rc = main([
            "eval", "--p-x", "0.5", "--pi0", "0", "--beta0", "-0.5",
            "--beta-x", "0.9162907318741551", "--beta-t", "0.9162907318741551",
            "--beta-xt", "0.0", "--polarity", "desirable",
        ])
        assert rc == 0
        assert "verdict: beneficial" in capsys.readouterr().out

    def test_invalid_p_x_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, p_x=1.2)
        assert main(["eval", "--config", cfg]) == 2
        assert "p_x" in capsys.readouterr().err

    def test_missing_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"p_x": 0.5}))
        assert main(["eval", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "beta_t: missing" in err

    def test_degenerate_scenario_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, beta_x=0.0)
        assert main(["eval", "--config", cfg]) == 3
        assert "degenerate" in capsys.readouterr().err

    def test_lambda_config_key_exits_2(self, tmp_path, capsys):
        # the threshold is reported, never set
        cfg = write_config(tmp_path, beta_x=0.9, **{"lambda": 0.99})
        assert main(["eval", "--config", cfg]) == 2
        assert "config error: lambda: unknown config key" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", ZERO_EFFECT, "--lambda", "0.5"])
        assert exc.value.code == 2

    def test_misordered_fits_report_no_threshold(self, tmp_path, capsys):
        # beta_x + beta_xt = -1.8e-12 puts group 0 on top, but rounding in
        # the log-odds sums puts f(1) above f(0); their midpoint would treat
        # group 1, against the deployed policy, so no threshold is reported
        out = tmp_path / "report.json"
        assert main([
            "eval", "--p-x", "0.5", "--pi0", "1", "--beta0", "-26145.68172930212",
            "--beta-x", "-14483.249621949799", "--beta-t", "26146.519052852815",
            "--beta-xt", "14483.249621949797", "--polarity", "desirable",
            "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "lambda=none" in text
        assert "deployed=(1, 0)" in text and "changed_group=1" in text
        payload = json.loads(out.read_text())
        assert payload["opm"]["lambda"] is None
        assert payload["opm"]["f"][1] > payload["opm"]["f"][0]

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff{")
        assert main(["eval", "--config", str(path)]) == 2
        assert f"{path}: not valid JSON" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, typo_key=1.0)
        assert main(["eval", "--config", cfg]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_non_finite_beta_names_the_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["eval", "--config", cfg, "--beta-t", "inf"]) == 2
        assert "beta_t: must be finite, got inf" in capsys.readouterr().err

    def test_saturated_outcome_exits_3(self, tmp_path, capsys):
        # beta0 = 40: every outcome probability rounds to 1, so p(Y=1) = 1
        # and sensitivity/specificity divide by zero
        cfg = write_config(tmp_path, beta0=40.0, beta_x=1.0, beta_t=5.0)
        assert main(["eval", "--config", cfg]) == 3
        assert "p(Y=1)=1.0" in capsys.readouterr().err


class TestSweep:
    def test_default_grid_row_count_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4621  # header + one row per retained scenario
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["counts"] == {
            "cardinality": 4840,
            "removed_degenerate": 220,
            "retained": 4620,
        }
        assert manifest["reference_delta"]["reference_total"] == 4632
        assert manifest["reference_delta"]["count_delta"] == 12
        assert "timestamp" in manifest

    def test_manifest_counts_exclusions_by_reason(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "sweep.csv")]) == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["exclusions"] == {"structural": 220, "unrepresentable": 0}
        assert sum(manifest["exclusions"].values()) == manifest["counts"]["removed_degenerate"]

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--out", str(a)]) == 0
        assert main(["sweep", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_grid_list_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "p_x_values": [0.5], "pi0_values": [0], "beta0_values": [-0.5],
            "beta_x_values": [0.2], "beta_t_values": [], "beta_xt_values": [0.0],
            "polarities": ["desirable"],
        }))
        assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "x.csv")]) == 2
        assert "beta_t_values" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("polarities", "desirable"),
        ("beta_t_values", 0.5),
    ])
    def test_non_list_grid_value_exits_2(self, tmp_path, capsys, key, value):
        grid = write_grid(tmp_path, **{key: value})
        assert main(["sweep", "--grid", grid, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"{key}: expected a list" in capsys.readouterr().err

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        out = tmp_path / "nosuchdir" / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_custom_grid_runs(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "p_x_values": [0.3], "pi0_values": [0, 1], "beta0_values": [-0.5],
            "beta_x_values": [0.5], "beta_t_values": [-0.4, 0.0, 0.4],
            "beta_xt_values": [-0.5, 0.0], "polarities": ["desirable", "undesirable"],
        }))
        out = tmp_path / "mini.csv"
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 0
        # 1*2*1*1*3*2*2 = 24 settings, minus pi0=1 & beta_x+beta_xt=0: 3*2=6
        assert len(out.read_text().splitlines()) == 1 + 24 - 6


    def test_reference_cross_check_only_for_the_default_grid(self, tmp_path, capsys):
        manifest = tmp_path / "x.csv.manifest.json"
        custom = write_grid(tmp_path, beta0_values=[-0.4])
        assert main(["sweep", "--grid", custom, "--out", str(tmp_path / "x.csv")]) == 0
        assert "count delta" not in capsys.readouterr().out
        assert "reference_delta" not in json.loads(manifest.read_text())
        # the default grid given as a JSON file is still the default grid
        same = write_grid(tmp_path)
        assert main(["sweep", "--grid", same, "--out", str(tmp_path / "x.csv")]) == 0
        assert json.loads(manifest.read_text())["reference_delta"]["count_delta"] == 12

    @pytest.mark.parametrize("beta0, retained", [(40.0, 0), (30.0, 4)])
    def test_saturated_grid(self, tmp_path, capsys, beta0, retained):
        # beta0 = 40 rounds p(Y=1) to 1 everywhere; at beta0 = 30 the fitted
        # values differ by under 1e-12 but the log-odds steps do not
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "p_x_values": [0.5], "pi0_values": [0, 1], "beta0_values": [beta0],
            "beta_x_values": [1.0], "beta_t_values": [5.0, 0.5],
            "beta_xt_values": [0.0], "polarities": ["desirable"],
        }))
        assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "x.csv")]) == 0
        assert f"removed: {4 - retained}  retained: {retained}" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["exclusions"] == {"structural": 0, "unrepresentable": 4 - retained}
        assert sum(manifest["exclusions"].values()) == manifest["counts"]["removed_degenerate"]

    def test_integer_grid_values_are_filtered_as_floats(self, tmp_path, capsys):
        # beta_x + beta_xt is 1 in integers but 0.0 in the floats the
        # evaluation reads: a structural exclusion, not a degenerate exit
        grid = write_grid(
            tmp_path, p_x_values=[0.5], pi0_values=[1], beta0_values=[0],
            beta_x_values=[100000000000000001], beta_t_values=[1],
            beta_xt_values=[-100000000000000000], polarities=["desirable"],
        )
        out = tmp_path / "x.csv"
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        assert "removed: 1  retained: 0" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["exclusions"] == {"structural": 1, "unrepresentable": 0}
        assert len(out.read_text().splitlines()) == 1

    def test_unknown_grid_key_exits_2(self, tmp_path, capsys):
        grid = write_grid(tmp_path, beta0_value=[3.0])
        assert main(["sweep", "--grid", grid, "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error: beta0_value: unknown config key\n" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_non_finite_grid_value_names_the_field(self, tmp_path, capsys):
        grid = write_grid(tmp_path, beta0_values=[float("nan")])
        assert main(["sweep", "--grid", grid, "--out", str(tmp_path / "x.csv")]) == 2
        assert "beta0: must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("key, values, message", [
        ("beta_x_values", ["a"], "beta_x_values[0]: beta_x: must be a real number, got 'a'"),
        ("beta_x_values", [0.5, None], "beta_x_values[1]: beta_x: must be a real number, got None"),
        ("pi0_values", [[0]], "pi0_values[0]: pi0: must be 0 or 1, got [0]"),
        # once read as a zero historic step and dropped as degenerate
        ("beta_x_values", [float("nan")], "beta_x_values[0]: beta_x: must be finite, got nan"),
    ], ids=["string", "null", "list", "nan-beta_x"])
    def test_grid_value_that_is_not_a_number_exits_2(
        self, tmp_path, capsys, key, values, message
    ):
        # checked before the degeneracy filter does arithmetic on it
        grid = write_grid(tmp_path, **{key: values})
        assert main(["sweep", "--grid", grid, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err


class TestTables:
    def test_harm_table_matches_reference_exactly(self, tmp_path, capsys):
        out = tmp_path / "tables"
        assert main(["tables", "--out", str(out)]) == 0
        harm_lines = (out / "harm_table.csv").read_text().splitlines()
        assert harm_lines[0] == "higher_y_is,pi0,self_fulfilling,n,harmful_fraction"
        rows = [tuple(l.split(",")) for l in harm_lines[1:]]
        got = [(a, b, c, e) for a, b, c, _, e in rows]
        assert got == EXPECTED_HARM_ROWS

    def test_sign_table_and_delta_note(self, tmp_path, capsys):
        assert main(["tables"]) == 0
        text = capsys.readouterr().out
        assert "self_fulfilling(N)" in text
        assert "reference tabulation cross-check:" in text
        assert "count delta: 12" in text
        sign_section = text.split("higher_y_is")[0]
        assert "1560" in sign_section and "1500" in sign_section

    def test_tables_from_csv_match_fresh_run(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(csv_path)]) == 0
        capsys.readouterr()
        assert main(["tables", "--csv", str(csv_path)]) == 0
        from_csv = capsys.readouterr().out
        assert main(["tables"]) == 0
        fresh = capsys.readouterr().out
        assert from_csv == fresh

    @pytest.mark.parametrize("bad_row, message", [
        ("0.2,0,-0.5", "line 3: expected 19 cells, got 3"),
        ("abc" + ",0" * 18, "line 3, column p_x: could not convert"),
    ], ids=["short-row", "non-numeric-p_x"])
    def test_malformed_csv_exits_2(self, sweep_csv, tmp_path, capsys, bad_row, message):
        header, first = sweep_csv.read_text().splitlines()[:2]
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"{header}\n{first}\n{bad_row}\n")
        assert main(["tables", "--csv", str(csv_path)]) == 2
        assert f"{csv_path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [0, 4619], ids=["header-only", "one-row-short"])
    def test_no_reference_cross_check_off_the_default_grid(
        self, sweep_csv, tmp_path, capsys, rows
    ):
        lines = sweep_csv.read_text().splitlines()
        csv_path = tmp_path / "part.csv"
        csv_path.write_text("\n".join(lines[: 1 + rows]) + "\n")
        out = tmp_path / "tables"
        assert main(["tables", "--csv", str(csv_path), "--out", str(out)]) == 0
        assert "count delta" not in capsys.readouterr().out
        manifest = json.loads((out / "tables_manifest.json").read_text())
        assert "reference_delta" not in manifest

    def test_custom_grid_has_no_reference_cross_check(self, tmp_path, capsys):
        grid = write_grid(tmp_path, p_x_values=[0.5])
        assert main(["tables", "--grid", grid]) == 0
        assert "count delta" not in capsys.readouterr().out

    def test_undecodable_cell_exits_2(self, sweep_csv, tmp_path, capsys):
        header, first = sweep_csv.read_text().splitlines()[:2]
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(f"{header}\n{first}\n".encode() + b"\xff" + first.encode())
        assert main(["tables", "--csv", str(csv_path)]) == 2
        assert f"{csv_path}: line 3, column p_x: could not convert" in capsys.readouterr().err

    @pytest.mark.parametrize("column, cell", [("beta_xt", "nan"), ("auc_delta", "-inf")])
    @pytest.mark.parametrize("command", ["tables", "plot"])
    def test_non_finite_float_cell_exits_2(
        self, sweep_csv, tmp_path, capsys, command, cell, column
    ):
        header, first = sweep_csv.read_text().splitlines()[:2]
        cells = first.split(",")
        cells[header.split(",").index(column)] = cell
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"{header}\n{first}\n{','.join(cells)}\n")
        argv = [command, "--csv", str(csv_path), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert (
            f"{csv_path}: line 3, column {column}: expected a finite number, got {cell!r}"
            in capsys.readouterr().err
        )

    def test_unexpected_header_names_the_file(self, sweep_csv, tmp_path, capsys):
        header, first = sweep_csv.read_text().splitlines()[:2]
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"{header.replace('p_x', 'px', 1)}\n{first}\n")
        assert main(["tables", "--csv", str(csv_path)]) == 2
        assert f"{csv_path}: unexpected CSV header" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("plotdata") / "sweep.csv"
    assert main(["sweep", "--out", str(path)]) == 0
    return path


class TestPlot:

    def test_writes_four_svg_figures(self, sweep_csv, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["plot", "--csv", str(sweep_csv), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.svg"))
        assert names == [
            "fig-auc-pre-vs-diff.svg",
            "fig-bt-vs-diff-all.svg",
            "fig-bt-vs-diff.svg",
            "fig-bxt-vs-diff.svg",
        ]
        for p in out.glob("*.svg"):
            body = p.read_text()
            assert body.startswith("<svg ")
            assert "<desc>" in body and "circle" in body

    def test_four_panels_per_odds_ratio_figure(self, sweep_csv, tmp_path):
        out = tmp_path / "figs"
        assert main(["plot", "--csv", str(sweep_csv), "--out", str(out)]) == 0
        body = (out / "fig-bt-vs-diff-all.svg").read_text()
        assert body.count("historic: treat no one") == 2
        assert body.count("historic: treat everyone") == 2
        assert body.count("harmful</text>") == 4

    def test_beneficial_variant_has_fewer_points(self, sweep_csv, tmp_path):
        out = tmp_path / "figs"
        assert main(["plot", "--csv", str(sweep_csv), "--out", str(out)]) == 0
        restricted = (out / "fig-bt-vs-diff.svg").read_text().count("<circle")
        unrestricted = (out / "fig-bt-vs-diff-all.svg").read_text().count("<circle")
        assert restricted < unrestricted

    def test_plots_are_deterministic(self, sweep_csv, tmp_path):
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert main(["plot", "--csv", str(sweep_csv), "--out", str(out1)]) == 0
        assert main(["plot", "--csv", str(sweep_csv), "--out", str(out2)]) == 0
        for name in ("fig-bt-vs-diff.svg", "fig-auc-pre-vs-diff.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_header_only_csv_renders_empty_panels(self, sweep_csv, tmp_path):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text(sweep_csv.read_text().splitlines()[0] + "\n")
        out = tmp_path / "figs"
        assert main(["plot", "--csv", str(csv_path), "--out", str(out)]) == 0
        bodies = [p.read_text() for p in out.glob("*.svg")]
        assert len(bodies) == 4
        assert all('r="2.4"' not in body for body in bodies)

    def test_grid_without_avg_beneficial_settings(self, tmp_path):
        grid = write_grid(
            tmp_path, beta_t_values=[-0.5], beta_xt_values=[0.0],
            polarities=["desirable"],
        )
        out = tmp_path / "figs"
        assert main(["plot", "--grid", grid, "--out", str(out)]) == 0
        assert 'r="2.4"' not in (out / "fig-bt-vs-diff.svg").read_text()
        assert 'r="2.4"' in (out / "fig-bt-vs-diff-all.svg").read_text()

    def test_subset_option_is_gone(self, sweep_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--csv", str(sweep_csv), "--out", str(tmp_path),
                  "--subset", "all"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --subset all" in capsys.readouterr().err

    @pytest.mark.parametrize("beta_t, beta_xt, polarity", [
        ([710.0], [0.0], "desirable"),  # exp(beta_t) overflows
        ([-800.0], [0.0], "desirable"),  # exp(beta_t) underflows to 0
        ([0.0], [710.0], "desirable"),  # the legend's odds ratio overflows
        # the x-range's pad is absorbed: its span rounds to 0
        ([0.0], [-1125899906842625.0], "undesirable"),
        # the x-range's span is past the float range
        ([-1e308, 1e308], [0.0], "desirable"),
    ])
    def test_odds_ratios_past_the_float_range(
        self, tmp_path, capsys, beta_t, beta_xt, polarity
    ):
        grid = write_grid(
            tmp_path, p_x_values=[0.5], pi0_values=[0], beta0_values=[0.0],
            beta_x_values=[1.0], beta_t_values=beta_t,
            beta_xt_values=beta_xt, polarities=[polarity],
        )
        assert main(["sweep", "--grid", grid, "--out", str(tmp_path / "x.csv")]) == 0
        assert f"retained: {len(beta_t)}" in capsys.readouterr().out
        out = tmp_path / "figs"
        assert main(["plot", "--grid", grid, "--out", str(out)]) == 0
        bodies = [p.read_text() for p in out.glob("*.svg")]
        assert len(bodies) == 4
        assert not any("nan" in body for body in bodies)


class TestSimulate:
    def test_agreement_and_determinism(self, tmp_path, capsys):
        args = [
            "simulate", "--config", str(CONFIGS / "beneficial_uptake.json"),
            "--seed", "9", "--samples", "200000",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["pre"]["agreement"]["auc_abs_err"] <= 0.01
        assert payload["post"]["agreement"]["auc_abs_err"] <= 0.01
        assert payload["self_fulfilling"] is True

    def test_fitted_values_tied_in_floats_still_rank_top_group(self, capsys):
        # f(0) and f(1) round to one float, but beta_x = 0.01 puts group 1
        # on top; the sample's rank statistic uses the same operating point
        # as the closed form
        assert main([
            "simulate", "--p-x", "0.5", "--pi0", "0", "--beta0", "36",
            "--beta-x", "0.01", "--beta-t", "-30", "--beta-xt", "0",
            "--polarity", "desirable", "--samples", "100000", "--seed", "3",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["post"]["agreement"]["auc_abs_err"] < 0.005

    def test_missing_class_reported_not_fatal(self, tmp_path, capsys):
        # strongly negative intercept: ten draws will almost surely miss Y=1
        cfg = write_config(tmp_path, beta0=-12.0, beta_x=0.9)
        assert main(["simulate", "--config", cfg, "--seed", "1", "--samples", "10"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["pre"]["empirical"]["insufficient_cases"] is True
        assert "insufficient cases" in captured.err

    def test_sample_dump(self, tmp_path, capsys):
        cfg = write_config(tmp_path, beta_t=0.3)
        prefix = tmp_path / "dump"
        rc = main([
            "simulate", "--config", cfg, "--seed", "3", "--samples", "50",
            "--dump-samples", str(prefix),
        ])
        assert rc == 0
        for which in ("pre", "post"):
            lines = Path(f"{prefix}.{which}.csv").read_text().splitlines()
            assert lines[0] == "x,t,y"
            assert len(lines) == 51
            manifest = json.loads(Path(f"{prefix}.{which}.manifest.json").read_text())
            assert manifest["mc"]["master_seed"] == 3

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        cfg = write_config(tmp_path, beta_t=0.3)
        assert main([
            "simulate", "--config", cfg, "--seed", "4", "--samples", "1000",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["mc"]["master_seed"] == 4
