import argparse
import dataclasses
import json
import os
import re
from pathlib import Path
from xml.etree import ElementTree

import pytest

from opmdeploy import (
    OutcomePolarity, ScenarioParams, classify, cli, evaluate_scenario, figures, mc, sweep,
)
from opmdeploy.cli import main
from opmdeploy.errors import OpmDeployError
from opmdeploy.scenario import PARAM_FIELDS
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

    @pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_text_is_rendered_from_the_json_alone(self, tmp_path, capsys, config):
        # the scenario echoed in the JSON and the payload read back give
        # eval's text, byte for byte
        out = tmp_path / "report.json"
        assert main(["eval", "--config", str(CONFIGS / config), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        payload = json.loads(out.read_text())
        echo = payload["config"]
        cli._print_report(ScenarioParams(**{**echo, "polarity": OutcomePolarity(echo["polarity"])}),
                          payload)
        assert capsys.readouterr().out + f"wrote {out}\n" == stdout

    def test_failed_checks_reach_the_json_and_the_text(self, capsys):
        # a report whose flag contradicts both theorems that read it: each
        # check block holds its record's fields and no other key
        params = ScenarioParams(0.3, 1, 0.5, -1.5, 0.0, 1.0, OutcomePolarity.DESIRABLE)
        flipped = dataclasses.replace(evaluate_scenario(params), self_fulfilling=False)
        payload = cli.report_to_json(flipped, {})
        assert payload["checks"]["shift_subcase"] == {
            "direction": "<", "expected_self_fulfilling": True, "consistent": False,
        }
        detail = "effect signs [0, 1] expected self_fulfilling=True, got False"
        assert payload["checks"]["uniform_effect_rule"] == {"status": "fail", "detail": detail}
        cli._print_report(params, payload)
        assert capsys.readouterr().out.splitlines()[-3:-1] == [
            f"check uniform_effect_rule: fail  {detail}",
            "check shift_subcase: direction='<' expected_sf=True consistent=False",
        ]

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

    @pytest.mark.parametrize("command", [["eval", "--config"], ["tables", "--grid"]])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert main([*command, str(path)]) == 2
        assert f"config error: {path}: not valid JSON (" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, typo_key=1.0)
        assert main(["eval", "--config", cfg]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_only_a_key_the_file_repeats_is_refused(self, tmp_path, capsys):
        # a flag replaces a value the file gives once, not a repeated one;
        # a key repeated inside a value is the value's
        text = Path(RADIOTHERAPY).read_text()
        path = tmp_path / "config.json"
        path.write_text(text.replace('"beta_t"', '"beta_t": {"a": 1, "a": 2}, "beta_t"'))
        assert main(["eval", "--config", str(path), "--beta-t", "0.5"]) == 2
        assert capsys.readouterr().err == "config error: beta_t: given twice\n"
        path.write_text(text.replace('"beta_t"', '"bt": {"a": 1, "a": 2}, "beta_t"'))
        assert main(["eval", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: bt: unknown config key\n"
        assert main(["eval", "--config", RADIOTHERAPY, "--beta-t", "0.5"]) == 0
        assert "beta_t=0.5 " in capsys.readouterr().out

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

    def test_manifests_echo_the_grid_as_it_is_evaluated(self, tmp_path):
        # floats, and each polarity as its member's value
        grid = write_grid(tmp_path, beta0_values=[-1], polarities=[" Undesirable", "desirable"])
        echo = {**json.loads(Path(grid).read_text()), "beta0_values": [-1.0],
                "polarities": ["undesirable", "desirable"]}
        assert main(["sweep", "--grid", grid, "--out", str(tmp_path / "x.csv")]) == 0
        assert json.loads((tmp_path / "x.csv.manifest.json").read_text())["grid"] == echo
        assert main(["tables", "--grid", grid, "--out", str(tmp_path / "t")]) == 0
        manifest = json.loads((tmp_path / "t" / "tables_manifest.json").read_text())
        assert manifest["source"] == {"grid": echo}


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

    @pytest.mark.parametrize("command", ["tables", "plot"])
    def test_unmatched_quote_exits_2(self, sweep_csv, tmp_path, capsys, command):
        # a quote is no byte of a sweep's: the cell holding it is the fault
        lines = sweep_csv.read_text().splitlines(keepends=True)
        lines[3] = '"' + lines[3]
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("".join(lines))
        p_x = lines[3].split(",")[0]
        argv = [command, "--csv", str(csv_path), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {csv_path}: line 4, column p_x: "
            f"could not convert string to float: {p_x!r}\n"
        )

    @pytest.mark.parametrize("command", ["tables", "plot"])
    def test_over_long_cell_exits_2(self, sweep_csv, tmp_path, capsys, command):
        header, first, second = sweep_csv.read_text().splitlines()[:3]
        cells = second.split(",")
        cells[0] = "0." + "0" * (128 << 10) + "2"  # a finite number, if it were read
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"{header}\n{first}\n{','.join(cells)}\n")
        argv = [command, "--csv", str(csv_path), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {csv_path}: line 3: longer than the 1024 bytes no sweep line reaches\n"
        )


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

    def test_each_figure_is_dropped_before_the_next_is_drawn(
        self, sweep_csv, tmp_path, monkeypatch
    ):
        # at 10^6 settings a document is hundreds of MB: one held while the
        # next is drawn raised the peak RSS of `plot` by a fifth
        drawn, freed = [], []

        class Document(str):
            def __del__(self):
                freed.append(self[:4])

        def counted(draw):
            def call(*args):
                assert len(freed) == len(drawn), "a written figure is still held"
                drawn.append(draw.__name__)
                return Document(draw(*args))
            return call

        for name in ("odds_ratio_panels", "auc_pre_panel"):
            monkeypatch.setattr(figures, name, counted(getattr(figures, name)))
        assert main(["plot", "--csv", str(sweep_csv), "--out", str(tmp_path / "figs")]) == 0
        assert len(drawn) == len(freed) == 4

    def test_a_csv_path_with_markup_characters_gives_well_formed_figures(
        self, sweep_csv, tmp_path
    ):
        # The manifest JSON in <desc> is XML-escaped, so it reads back whole.
        csv_path = tmp_path / "a&b<c>.csv"
        csv_path.write_bytes(sweep_csv.read_bytes())
        out = tmp_path / "figs"
        assert main(["plot", "--csv", str(csv_path), "--out", str(out)]) == 0
        figures = sorted(out.glob("*.svg"))
        assert len(figures) == 4
        for p in figures:
            desc = ElementTree.parse(p).find("{http://www.w3.org/2000/svg}desc")
            assert json.loads(desc.text)["source"] == {"csv": str(csv_path)}

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

    @staticmethod
    def plot_edited(sweep_csv, tmp_path, cells) -> list:
        """The SVGs `plot` draws from the sweep CSV with the given cells
        ({line: {column: text}}) replaced."""
        lines = sweep_csv.read_text().splitlines()
        header = lines[0].split(",")
        for i, values in cells.items():
            row = lines[i].split(",")
            for name, text in values.items():
                row[header.index(name)] = text
            lines[i] = ",".join(row)
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "figs"
        assert main(["plot", "--csv", str(csv_path), "--out", str(out)]) == 0
        return sorted(out.glob("*.svg"))

    @pytest.mark.parametrize("cells", [
        {1: {"auc_delta": "1e308"}},
        {1: {"auc_delta": "-1.7976931348623157e+308"}},
        {1: {"auc_pre": "1e308"}, 2: {"auc_pre": "-1e308"}},
    ])
    def test_huge_finite_cells_give_well_formed_figures(self, sweep_csv, tmp_path, cells):
        # an axis span past the float range, or a margin that overflows it
        figures = self.plot_edited(sweep_csv, tmp_path, cells)
        assert len(figures) == 4
        for p in figures:
            ElementTree.parse(p)

    def test_tick_labels_fit_the_canvas_on_huge_cells(self, sweep_csv, tmp_path):
        # a whole-number tick of an AUC-change axis out to 1e308 was written
        # with all its 309 digits
        cells = {1: {"auc_delta": "1e308"}, 2: {"auc_delta": "-1e308"}}
        labels = [
            label for p in self.plot_edited(sweep_csv, tmp_path, cells)
            for label in re.findall(r'font-size="10"[^>]*>([^<]*)</text>', p.read_text())
        ]
        assert "1e+308" in labels and "-1e+308" in labels
        assert max(map(len, labels)) <= 8

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


class TestCsvOrGrid:
    """tables and plot read a CSV or a grid: given both, they refuse."""

    @pytest.mark.parametrize("command", ["tables", "plot"])
    @pytest.mark.parametrize("grid", ["default", "grid.json"])
    def test_both_sources_exit_2(self, sweep_csv, tmp_path, monkeypatch, capsys, command, grid):
        monkeypatch.chdir(tmp_path)
        write_grid(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--csv", str(sweep_csv), "--grid", grid, "--out", "out"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--csv" in err and "--grid" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json"]


INLINE_SCENARIO = [
    "--p-x", "0.5", "--pi0", "0", "--beta0", "-0.5", "--beta-x", "0.9",
    "--beta-t", "0.3", "--beta-xt", "0", "--polarity", "desirable",
]


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command reads records, evaluates a grid or draws
    a sample."""
    def refused(*args, **kwargs):
        raise AssertionError("work began before the paths were checked")

    for module, name in ((sweep, "record_columns"), (sweep, "read_csv_chunks"),
                         (mc, "cell_counts"), (mc, "sample")):
        monkeypatch.setattr(module, name, refused)


class TestEmptyPath:
    """An empty path names no file: every path option refuses it with exit
    4 before any work or output, and none reads it as the built-in grid or
    the working directory."""

    @pytest.mark.parametrize("argv", [
        ["tables", "--csv", ""],
        ["plot", "--csv", "", "--out", "d"],
        ["tables", "--grid", ""],
        ["plot", "--grid", "", "--out", "d"],
        ["sweep", "--grid", "", "--out", "s.csv"],
        ["eval", "--config", "", *INLINE_SCENARIO],
        ["simulate", "--config", "", "--samples", "50", *INLINE_SCENARIO],
        ["eval", "--out", "", *INLINE_SCENARIO],
        ["simulate", "--out", "", "--samples", "50", *INLINE_SCENARIO],
        ["tables", "--out", ""],
        ["plot", "--out", ""],
        ["sweep", "--out", ""],
    ], ids=lambda argv: " ".join(a for a in argv[:3] if a.startswith("-") or a.isalpha()))
    def test_exits_4_and_writes_nothing(self, no_work, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "i/o error" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_dump_prefix_is_used_as_given(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--samples", "50", "--dump-samples", "", *INLINE_SCENARIO]
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".post.csv", ".post.manifest.json", ".pre.csv", ".pre.manifest.json",
        ]


class TestOutputPathsFirst:
    """Each command makes or opens its output paths before it reads
    records, evaluates a grid, draws a sample or prints: a path that cannot
    be written exits 4, with nothing on stdout and no new file. (Empty
    paths: `TestEmptyPath`.)"""

    @pytest.mark.parametrize("argv", [
        ["eval", "--out", "missing/r.json"],
        ["sweep", "--out", "missing/s.csv"],
        ["tables", "--out", "taken/t"],
        ["tables", "--csv", "taken", "--out", "taken/t"],
        ["plot", "--out", "taken/f"],
        ["plot", "--csv", "taken", "--out", "taken/f"],
        ["simulate", "--out", "missing/s.json"],
        ["simulate", "--dump-samples", "missing/x"],
        ["simulate", "--dump-samples", "taken/x"],
    ], ids=" ".join)
    def test_exits_4_before_the_work(self, no_work, tmp_path, monkeypatch, capsys, argv):
        if argv[0] in ("eval", "simulate"):
            argv = [*argv, *INLINE_SCENARIO]
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("a file, so no path can go through it\n")
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    # Each output name that cannot be opened is not the first one a command
    # opens: its earlier names are opened, then removed again.
    @pytest.mark.parametrize("dirs, argv", [
        ((), ["sweep", "--out", "a" * 247 + ".csv"]),  # the manifest name is too long
        (("d",), ["sweep", "--out", "d"]),  # the manifest can be made, the CSV not
        (("t",), ["simulate", "--dump-samples", "t/" + "b" * 240]),
        (("d/x.post.manifest.json",), ["simulate", "--dump-samples", "d/x"]),
        (("d/x.pre.csv",), ["simulate", "--out", "s.json", "--dump-samples", "d/x"]),
        (("d/harm_table.csv",), ["tables", "--out", "d"]),
        (("d/tables_manifest.json",), ["tables", "--csv", "taken", "--out", "d"]),
        (("d/fig-auc-pre-vs-diff.svg",), ["plot", "--out", "d"]),
        (("d/fig-bt-vs-diff-all.svg",), ["plot", "--csv", "taken", "--out", "d"]),
    ], ids=["sweep-long-name", "sweep-into-a-directory", "simulate-long-prefix",
            "simulate-post-manifest", "simulate-dump-after-out", "tables-harm-csv",
            "tables-manifest", "plot-last-figure", "plot-csv-second-figure"])
    def test_every_name_is_opened_before_the_work(
        self, no_work, tmp_path, monkeypatch, capsys, dirs, argv
    ):
        if argv[0] == "simulate":
            argv = [*argv, *INLINE_SCENARIO]
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("a sweep CSV that is never read\n")
        for d in dirs:
            Path(d).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert sorted(tmp_path.rglob("*")) == before

    # Two roles that name one file: each command refuses the run before it
    # opens any output, so no file is made, emptied or removed.
    @pytest.mark.parametrize("argv, message", [
        (["tables", "--csv", "out/sign_table.csv", "--out", "out"],
         "--csv out/sign_table.csv and sign table out/sign_table.csv name one file"),
        (["plot", "--csv", "out/fig-bt-vs-diff.svg", "--out", "out"],
         "--csv out/fig-bt-vs-diff.svg and fig-bt-vs-diff.svg "
         "out/fig-bt-vs-diff.svg name one file"),
        (["simulate", "--samples", "1000", "--dump-samples", "d", "--out", "d.pre.manifest.json"],
         "--out d.pre.manifest.json and pre sample manifest d.pre.manifest.json name one file"),
        (["sweep", "--out", "link.csv"],
         "--out link.csv and manifest link.csv.manifest.json name one file"),
        # hard links: one file under two resolved paths
        (["tables", "--csv", "h/in.csv", "--out", "h"],
         "--csv h/in.csv and sign table h/sign_table.csv name one file"),
        (["simulate", "--samples", "1000", "--out", "X", "--dump-samples", "d"],
         "--out X and pre sample CSV d.pre.csv name one file"),
    ], ids=["tables-reads-its-output", "plot-reads-its-output",
            "simulate-report-is-a-dump-manifest", "sweep-manifest-links-to-the-csv",
            "tables-output-is-a-hard-link-of-the-input",
            "simulate-report-is-a-hard-link-of-a-dump"])
    def test_one_file_in_two_roles_exits_2(
        self, no_work, sweep_csv, tmp_path, monkeypatch, capsys, argv, message
    ):
        if argv[0] == "simulate":
            argv = [*argv, *INLINE_SCENARIO]
        monkeypatch.chdir(tmp_path)
        Path("out").mkdir()
        for name in ("sign_table.csv", "fig-bt-vs-diff.svg"):
            Path("out", name).write_bytes(sweep_csv.read_bytes())
        Path("link.csv").write_text("an earlier sweep\n")
        Path("link.csv.manifest.json").symlink_to("link.csv")
        Path("h").mkdir()
        Path("h/in.csv").write_bytes(sweep_csv.read_bytes())
        os.link("h/in.csv", "h/sign_table.csv")
        Path("d.pre.csv").write_text("an earlier dump\n")
        os.link("d.pre.csv", "X")

        def files():
            return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

        before = files()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert files() == before

    @pytest.mark.parametrize("command", ["tables", "plot"])
    def test_a_run_that_fails_later_removes_the_files_it_opened(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        Path("bad.csv").write_text("not,a,sweep,header\n")
        assert main([command, "--csv", "bad.csv", "--out", "d"]) == 2
        assert "unexpected CSV header" in capsys.readouterr().err
        assert list(Path("d").iterdir()) == []

    def test_a_sweep_that_fails_later_removes_its_csv_and_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        # the grid's second chunk fails after the first is in the CSV
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sweep, "CHUNK", 1000)
        evaluate, calls = sweep.record_columns, []

        def second_chunk_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OpmDeployError("the second chunk fails")
            return evaluate(*args)

        monkeypatch.setattr(sweep, "record_columns", second_chunk_fails)
        assert main(["sweep", "--out", "out.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the second chunk fails\n"
        assert len(calls) == 2
        assert list(tmp_path.iterdir()) == []

    def test_a_sweep_that_fails_over_earlier_outputs_leaves_them_empty(
        self, tmp_path, monkeypatch, capsys
    ):
        # an earlier sweep's files are emptied, not left holding the failed
        # run's first chunk, which `tables` would read as a whole grid
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--out", "out.csv"]) == 0
        monkeypatch.setattr(sweep, "CHUNK", 1000)
        evaluate, calls = sweep.record_columns, []

        def second_chunk_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OpmDeployError("the second chunk fails")
            return evaluate(*args)

        monkeypatch.setattr(sweep, "record_columns", second_chunk_fails)
        assert main(["sweep", "--out", "out.csv"]) == 2
        assert capsys.readouterr().err == "error: the second chunk fails\n"
        assert len(calls) == 2
        sizes = {p.name: p.stat().st_size for p in tmp_path.iterdir()}
        assert sizes == {"out.csv": 0, "out.csv.manifest.json": 0}
        assert main(["tables", "--csv", "out.csv"]) == 2
        assert capsys.readouterr().err == "config error: out.csv: unexpected CSV header: ''\n"


class TestOneParser:
    """`main` builds its parser once per process and parses every argv
    with it as a freshly built one would."""

    @pytest.fixture(autouse=True)
    def unbuilt(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_many_calls_build_one_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser()
        one_build = list(built)
        built.clear()
        for _ in range(3):
            assert main(["eval", *INLINE_SCENARIO]) == 0
            with pytest.raises(SystemExit):
                main(["eval", "--no-such-option"])
        assert built == one_build
        assert cli.build_parser() is not cli._parser()  # the caller's own

    def test_help_is_wrapped_to_the_width_at_the_call(self, monkeypatch, capsys):
        widths = []
        for columns in ("200", "50"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit):
                main(["--help"])
            widths.append(max(map(len, capsys.readouterr().out.splitlines())))
        assert cli._parser.cache_info().misses == 1
        assert widths[0] > 100 and widths[1] <= 50

    def run(self, root: Path, monkeypatch, capsys, fresh: bool):
        """Each step's exit code, stdout and stderr, then every written file."""
        root.mkdir()
        monkeypatch.chdir(root)
        write_config(root, p_x=2.0)
        steps = [
            ["eval", "--no-such-option"],
            ["--version"],
            ["eval", "--config", "config.json"],
            ["eval", *INLINE_SCENARIO, "--out", "eval.json"],
            ["sweep", "--out", "sweep.csv"],
            ["tables", "--csv", "sweep.csv", "--out", "tables"],
        ]
        seen = []
        for argv in steps:
            if fresh:
                cli._parser.cache_clear()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            seen.append((rc, *capsys.readouterr()))
        files = {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        return seen, files

    def test_reused_parser_gives_what_a_fresh_one_gives(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_timestamp", lambda: "2000-01-01T00:00:00+00:00")
        reused = self.run(tmp_path / "reused", monkeypatch, capsys, fresh=False)
        assert cli._parser.cache_info().misses == 1
        fresh = self.run(tmp_path / "fresh", monkeypatch, capsys, fresh=True)
        assert reused == fresh
        steps, files = reused
        assert [rc for rc, _, _ in steps] == [2, 0, 2, 0, 0, 0]
        assert "unrecognized arguments: --no-such-option" in steps[0][2]
        assert steps[1][1] == f"{cli.__version__}\n"
        assert steps[2][2] == "config error: p_x: must lie strictly in (0,1), got 2.0\n"
        assert sorted(files) == [
            "config.json", "eval.json", "sweep.csv", "sweep.csv.manifest.json",
            "tables/harm_table.csv", "tables/sign_table.csv", "tables/tables_manifest.json",
        ]


class TestChecksOnce:
    """A report's checkers run once, whoever asks for its checks, and each
    caller gets a dict of its own."""

    PARAMS = ScenarioParams(
        p_x=0.5, pi0=0, beta0=-0.5, beta_x=0.9, beta_t=0.3, beta_xt=-0.1,
        polarity=OutcomePolarity.DESIRABLE,
    )
    CHECKERS = ("check_uniform_effect_rule", "classify_shift_subcase",
                "check_calibration_preservation")

    @pytest.fixture
    def runs(self, monkeypatch):
        runs = []
        for name in self.CHECKERS:
            def counted(report, checker=getattr(classify, name), name=name):
                runs.append(name)
                return checker(report)

            monkeypatch.setattr(classify, name, counted)
        return runs

    def test_each_checker_runs_once_per_report(self, runs, capsys):
        report = evaluate_scenario(self.PARAMS)
        for _ in range(3):
            report.checks()
            cli._print_report(report.params, cli.report_to_json(report, {}))
        assert sorted(runs) == sorted(self.CHECKERS)
        evaluate_scenario(self.PARAMS).checks()  # another report runs them again
        assert sorted(runs) == sorted(self.CHECKERS * 2)

    def test_eval_with_out_runs_each_checker_once(self, runs, tmp_path, capsys):
        assert main(["eval", *INLINE_SCENARIO, "--out", str(tmp_path / "r.json")]) == 0
        assert sorted(runs) == sorted(self.CHECKERS)

    def test_each_call_returns_a_dict_of_its_own(self):
        report = evaluate_scenario(self.PARAMS)
        mine = report.checks()
        mine.pop("shift_subcase")
        mine["uniform_effect_rule"] = None
        mine["extra"] = 1
        assert report.checks() is not report.checks()
        assert report.checks() == evaluate_scenario(self.PARAMS).checks()
        assert list(report.checks()) == [
            "uniform_effect_rule", "shift_subcase", "calibration_preservation",
        ]


class TestGridEvaluatedOnce:
    """Every command evaluates each chunk of its grid once: the kernel is
    called once per chunk, whatever the command reads."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        kernel = sweep.record_columns

        def counted(grid, start=0, stop=None):
            calls.append((start, stop))
            return kernel(grid, start, stop)

        monkeypatch.setattr(sweep, "record_columns", counted)
        return calls

    COMMANDS = [["sweep", "--out", "sweep.csv"], ["tables", "--out", "tables"],
                ["plot", "--out", "figures"]]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_default_grid(self, calls, tmp_path, monkeypatch, command, capsys):
        # the sweep reads it twice: the CSV and the reference sign table
        monkeypatch.chdir(tmp_path)
        assert main(command) == 0
        assert calls == [(0, default_grid().cardinality)]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_no_grid_is_grid_default(self, calls, tmp_path, monkeypatch, command, capsys):
        # and `--grid ""` is no grid at all: TestEmptyPath
        monkeypatch.setattr(cli, "_timestamp", lambda: "2000-01-01T00:00:00+00:00")
        runs = []
        for name, source in (("none", []), ("named", ["--grid", "default"])):
            root = tmp_path / name
            root.mkdir()
            monkeypatch.chdir(root)
            assert main([*command, *source]) == 0
            files = {str(p.relative_to(root)): p.read_bytes()
                     for p in root.rglob("*") if p.is_file()}
            runs.append((capsys.readouterr(), files))
        assert runs[0] == runs[1]
        assert calls == [(0, default_grid().cardinality)] * 2

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_grid_of_many_chunks(self, calls, tmp_path, monkeypatch, command, capsys):
        # one kernel call per chunk of 97 settings, in grid order
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sweep, "CHUNK", 97)
        grid = write_grid(tmp_path, beta0_values=[-0.5, 0.5])
        cardinality = 2 * default_grid().cardinality
        assert main([*command, "--grid", grid]) == 0
        assert calls == [(s, min(s + 97, cardinality)) for s in range(0, cardinality, 97)]


class TestGridTooLargeToIndex:
    """5000^5 * 2 * 2 = 1.25e19 settings, past the largest index numpy
    holds: every grid command refuses the grid before it opens a file."""

    @pytest.fixture
    def grid(self, tmp_path):
        many = [i / 5000 - 0.5 for i in range(5000)]
        return write_grid(
            tmp_path, p_x_values=[(i + 1) / 5001 for i in range(5000)],
            beta0_values=many, beta_x_values=many, beta_t_values=many,
            beta_xt_values=many,
        )

    @pytest.mark.parametrize("command", TestGridEvaluatedOnce.COMMANDS, ids=lambda c: c[0])
    def test_exits_2_and_writes_nothing(self, grid, tmp_path, monkeypatch, command, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--grid", grid]) == 2
        assert capsys.readouterr().err == (
            "config error: grid: 12500000000000000000 settings, past the "
            "9223372036854775807 a sweep can index\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["grid.json"]


class TestDefaultGridCheck:
    """`is_default_grid` builds the default grid's settings only for records
    as many as its retained settings."""

    def test_retained_count(self):
        assert sweep.DEFAULT_RETAINED == len(sweep.grid_records(default_grid()))

    @pytest.fixture
    def grids(self, monkeypatch):
        grids = []
        settings = sweep._settings

        def recorded(grid, start, stop):
            grids.append(grid)
            return settings(grid, start, stop)

        monkeypatch.setattr(sweep, "_settings", recorded)
        return grids

    def test_custom_grid_and_its_csv(self, grids, tmp_path, capsys):
        out = tmp_path / "x.csv"
        grid = write_grid(tmp_path, beta0_values=[-0.5, 0.5])
        assert main(["sweep", "--grid", grid, "--out", str(out)]) == 0
        assert main(["tables", "--csv", str(out), "--out", str(tmp_path / "t")]) == 0
        assert grids and default_grid() not in grids

    def test_default_settings_are_built_once(self, grids):
        records, _, _ = sweep.record_columns(default_grid())
        assert sweep.is_default_grid(records)
        grids.clear()
        assert sweep.is_default_grid(records) and sweep.is_default_grid(records)
        assert default_grid() not in grids
        assert not any(c.flags.writeable for c in sweep._default_settings().values())

    @pytest.mark.parametrize("name", PARAM_FIELDS)
    def test_one_setting_changed_is_another_grid(self, name):
        records, _, _ = sweep.record_columns(default_grid())
        column = records.columns[name].copy()
        column[-1] = 1 - column[-1] if name in ("pi0", "polarity") else column[-1] + 0.125
        assert sweep.is_default_grid(records)
        assert not sweep.is_default_grid(sweep.Records({**records.columns, name: column}))

    def test_default_grid_writes_its_reference_delta(self, grids, tmp_path, capsys):
        records, _, _ = sweep.record_columns(default_grid())
        delta = sweep.reference_delta(sweep.aggregate_sign_table(records))
        block = '  "reference_delta": ' + json.dumps(delta, indent=2).replace("\n", "\n  ")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        assert main(["tables", "--csv", str(out), "--out", str(tmp_path / "t")]) == 0
        assert main(["tables", "--out", str(tmp_path / "g")]) == 0
        for manifest in ("sweep.csv.manifest.json", "t/tables_manifest.json",
                         "g/tables_manifest.json"):
            assert block in (tmp_path / manifest).read_text(), manifest


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
