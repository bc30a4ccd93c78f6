"""Byte-for-byte pins of the CLI's outputs.

Small outputs are kept verbatim under golden/; the sweep CSV and the SVGs,
as sha256 digests in golden/digests.json. Manifests carry a timestamp and
are not pinned. Every command runs from a fresh working directory with the
relative path sweep.csv, because each SVG's <desc> embeds the --csv string.
"""

import hashlib
import json
from pathlib import Path

import pytest

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


def test_plot_from_grid_subset(tmp_path, monkeypatch, capsys):
    # The <desc> of each SVG then echoes the grid instead of the CSV path.
    monkeypatch.chdir(tmp_path)
    run(["plot", "--grid", "default", "--subset", "avg-beneficial",
         "--out", "figures"], capsys)
    for name in FIGURES:
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
