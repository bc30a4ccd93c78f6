"""Byte-for-byte pins of the CLI's outputs.

Small outputs are kept verbatim under golden/; the sweep CSV and the SVGs,
as sha256 digests in golden/digests.json. Manifests carry a timestamp and
are not pinned. Every command runs from a fresh working directory with the
relative path sweep.csv, because each SVG's <desc> embeds the --csv string.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opmdeploy import sweep
from opmdeploy.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text())
CONFIGS = ("beneficial_uptake", "radiotherapy", "zero_effect")
FIGURES = (
    "fig-bt-vs-diff.svg",
    "fig-bt-vs-diff-all.svg",
    "fig-bxt-vs-diff.svg",
    "fig-auc-pre-vs-diff.svg",
)


def assert_golden(name: str, data: bytes) -> None:
    if name in DIGESTS:
        assert hashlib.sha256(data).hexdigest() == DIGESTS[name], name
    else:
        assert data.decode() == (GOLDEN / name).read_bytes().decode(), name


def run(argv, capsys) -> bytes:
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


def test_sweep_tables_plot(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert_golden("sweep.stdout", run(["sweep", "--out", "sweep.csv"], capsys))
    assert_golden("sweep.csv", Path("sweep.csv").read_bytes())

    stdout = run(["tables", "--csv", "sweep.csv", "--out", "tables"], capsys)
    assert_golden("tables.stdout", stdout)
    for name in ("sign_table.csv", "harm_table.csv"):
        assert_golden(name, (Path("tables") / name).read_bytes())

    stdout = run(["plot", "--csv", "sweep.csv", "--out", "figures"], capsys)
    assert_golden("plot.stdout", stdout)
    for name in FIGURES:
        assert_golden(name, (Path("figures") / name).read_bytes())


def test_plot_from_grid(tmp_path, monkeypatch, capsys):
    # The <desc> of each SVG then echoes the grid instead of the CSV path;
    # no other line differs from the figure drawn from the sweep CSV.
    monkeypatch.chdir(tmp_path)
    run(["sweep", "--out", "sweep.csv"], capsys)
    run(["plot", "--csv", "sweep.csv", "--out", "from-csv"], capsys)
    run(["plot", "--grid", "default", "--out", "figures"], capsys)
    for name in ("fig-bt-vs-diff.svg", "fig-bxt-vs-diff.svg"):
        assert_golden(f"grid-beneficial-{name}", (Path("figures") / name).read_bytes())
    for name in FIGURES:
        from_grid = (Path("figures") / name).read_text().splitlines()
        from_csv = (Path("from-csv") / name).read_text().splitlines()
        assert len(from_grid) == len(from_csv)
        differ = [i for i, (a, b) in enumerate(zip(from_grid, from_csv)) if a != b]
        assert differ == [1] and from_grid[1].startswith("<desc>"), name


# A child process whose locale encodes text as ASCII: the C locale, with
# Python's coercion of it and its UTF-8 mode both off. Only the panel
# titles' "·" and the axis title's "−" are not ASCII.
ASCII_ENV = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
ASCII_MAIN = ("import codecs, locale, sys; from opmdeploy.cli import main; "
              "assert codecs.lookup(locale.getpreferredencoding(False)).name == 'ascii'; "
              "sys.exit(main())")


def run_in_ascii_locale(argv) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(ASCII_ENV, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", ASCII_MAIN, *argv], env=env,
                          capture_output=True)


def test_plot_writes_utf8_under_an_ascii_locale(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(["sweep", "--out", "sweep.csv"], capsys)
    done = run_in_ascii_locale(["plot", "--csv", "sweep.csv", "--out", "figures"])
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert_golden("plot.stdout", done.stdout)
    for name in FIGURES:
        assert_golden(name, (Path("figures") / name).read_bytes())


def test_grid_is_read_as_utf8_under_an_ascii_locale(tmp_path, monkeypatch):
    # read in the locale's encoding, the "·" would make the file invalid JSON
    monkeypatch.chdir(tmp_path)
    grid = {
        "p_x_values": [0.5], "pi0_values": [0], "beta0_values": [0.0],
        "beta_x_values": [1.0], "beta_t_values": [0.5], "beta_xt_values": [0.0],
        "polarities": ["undesirable"], "note·": 1,
    }
    Path("grid.json").write_text(json.dumps(grid, ensure_ascii=False), encoding="utf-8")
    done = run_in_ascii_locale(["plot", "--grid", "grid.json", "--out", "figures"])
    assert done.returncode == 2
    assert done.stderr == b"config error: note\\xb7: unknown config key\n"


def test_plot_builds_no_rows(tmp_path, monkeypatch, capsys):
    # Figures read the record columns: no ScenarioRecord is built from
    # either source, and the bytes are the pinned ones.
    monkeypatch.chdir(tmp_path)
    run(["sweep", "--out", "sweep.csv"], capsys)

    def no_rows(*args, **kwargs):
        raise AssertionError("a ScenarioRecord was built")

    monkeypatch.setattr(sweep, "ScenarioRecord", no_rows)
    run(["plot", "--csv", "sweep.csv", "--out", "from-csv"], capsys)
    for name in FIGURES:
        assert_golden(name, (Path("from-csv") / name).read_bytes())
    run(["plot", "--grid", "default", "--out", "figures"], capsys)
    for name in ("fig-bt-vs-diff.svg", "fig-bxt-vs-diff.svg"):
        assert_golden(f"grid-beneficial-{name}", (Path("figures") / name).read_bytes())


@pytest.mark.parametrize("config", CONFIGS)
def test_eval(config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = str(ROOT / "configs" / f"{config}.json")
    stdout = run(["eval", "--config", cfg, "--out", "report.json"], capsys)
    assert_golden(f"eval-{config}.stdout", stdout)
    assert_golden(f"eval-{config}.json", Path("report.json").read_bytes())


@pytest.mark.parametrize("config", CONFIGS)
def test_simulate(config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = str(ROOT / "configs" / f"{config}.json")
    argv = ["simulate", "--config", cfg, "--seed", "7", "--samples", "100000",
            "--out", "simulate.json"]
    stdout = run(argv, capsys)
    written = Path("simulate.json").read_bytes()
    assert stdout == written
    assert_golden(f"simulate-{config}.json", written)


# Runs whose report holds nulls: a sample with no case leaves the rank
# metrics, their errors and the empirical AUC change unavailable (and a
# note on stderr); a sample with no X=0 patient leaves mu0 unavailable.
NULL_RUNS = {
    "missing_class": (["--p-x", "0.5", "--beta0", "-12", "--samples", "10"],
                      ("pre", "agreement", "auc_abs_err")),
    "empty_group": (["--p-x", "0.99", "--beta0", "0", "--samples", "5"],
                    ("pre", "agreement", "mu0_abs_err")),
}


@pytest.mark.parametrize("name", NULL_RUNS)
def test_simulate_with_nulls(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    flags, null_path = NULL_RUNS[name]
    argv = ["simulate", *flags, "--pi0", "0", "--beta-x", "0.9", "--beta-t", "0.3",
            "--beta-xt", "0", "--polarity", "desirable", "--seed", "1",
            "--out", "simulate.json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    written = Path("simulate.json").read_bytes()
    assert captured.out.encode() == written
    block = json.loads(written)
    for key in null_path:
        block = block[key]
    assert block is None
    assert_golden(f"simulate-{name}.json", written)
    assert_golden(f"simulate-{name}.stderr", captured.err.encode())


# A config that lacks `polarity` and holds a `beta_t` the flag overrides:
# the echo keeps the file's key order, the overridden value in its place
# and the flag-only key last.
PARTIAL_CONFIG = """{"beta_t": -0.2, "p_x": 0.5, "pi0": 0, "beta0": -0.5,
 "beta_xt": 0.0, "beta_x": 0.9}
"""


def test_eval_with_flags_over_a_partial_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("partial.json").write_text(PARTIAL_CONFIG)
    stdout = run(["eval", "--config", "partial.json", "--beta-t", "0.3",
                  "--polarity", "desirable", "--out", "r.json"], capsys)
    assert_golden("eval-partial.stdout", stdout)
    assert_golden("eval-partial.json", Path("r.json").read_bytes())


# Input files each refused with exit 2 before any output is made: the
# command, its input file's name and text.
REFUSED_INPUTS = {
    "config-not-object": (["eval", "--config", "list.json", "--out", "r.json"],
                          "list.json", "[1, 2]\n"),
    "grid-not-object": (["sweep", "--grid", "list.json", "--out", "s.csv"],
                        "list.json", '"default"\n'),
    "grid-missing-and-unknown": (
        ["sweep", "--grid", "grid.json", "--out", "s.csv"], "grid.json",
        json.dumps({**{k: [0] for k in sweep.GRID_KEYS if k != "beta_x_values"},
                    "beta_x_value": [0.5], "extra": 1}),
    ),
    # every problem of the file, in field order, polarities among them
    "grid-bad-values": (
        ["sweep", "--grid", "grid.json", "--out", "s.csv"], "grid.json",
        json.dumps({"p_x_values": [0.5], "pi0_values": [0], "beta0_values": [-0.5],
                    "beta_x_values": [0.5], "beta_t_values": [0.1, "x"], "beta_xt_values": [0],
                    "polarities": ["desirable", "bogus", 7]}),
    ),
    # a key the file repeats, which JSON readers resolve to its last value
    "config-repeated-key": (
        ["eval", "--config", "config.json", "--out", "r.json"], "config.json",
        '{"p_x": 0.3, "pi0": 1, "beta0": 0.5, "beta_x": -1.5, "beta_t": 0.3, "beta_xt": 1.0,'
        ' "polarity": "desirable", "beta_t": -0.3}\n',
    ),
    # before the missing and unknown keys
    "grid-repeated-key": (
        ["sweep", "--grid", "grid.json", "--out", "s.csv"], "grid.json",
        '{"p_x_values": [0.5], "pi0_values": [0, 1], "beta0_values": [-0.5],'
        ' "beta_x_value": [0.5], "beta_t_values": [0.1], "beta_xt_values": [0],'
        ' "polarities": ["desirable"], "pi0_values": [1]}\n',
    ),
    "config-bad-values": (
        ["eval", "--config", "config.json", "--out", "r.json"], "config.json",
        json.dumps({"p_x": 1.5, "pi0": 0, "beta0": -0.5, "beta_x": 0.9, "beta_t": 0.3,
                    "beta_xt": "0.1", "polarity": "bogus"}),
    ),
}


@pytest.mark.parametrize("name", REFUSED_INPUTS)
def test_refused_input_messages(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv, path, text = REFUSED_INPUTS[name]
    Path(path).write_text(text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_golden(f"{name}.stderr", captured.err.encode())
    assert [p.name for p in tmp_path.iterdir()] == [path]
