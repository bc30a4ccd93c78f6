"""Flat memory: `sweep`, `tables --grid` and `tables --csv` hold one chunk
of records at a time, whatever the grid's size.

Each command runs in-process under `tracemalloc`, which numpy's
allocations report to, with `sweep.CHUNK` made small, on seeded grids of
4 and of 16 chunks. A command that held its whole stream would hold 12
chunks more at 16: 12 * 256 rows of 19 columns, 89 B a row, about 270 kB.
"""

import json
import tracemalloc

import numpy as np
import pytest

from opmdeploy import sweep
from opmdeploy.cli import main

CHUNK = 256
# How far the peak at 16 chunks may lie above the peak at 4: under a
# quarter of what holding the 12 more chunks would add. Beside the chunks,
# the grid echo of the manifest grows with the grid's lists.
SLACK = 64 * 1024


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    """Grid files of 4 and 16 chunks, by chunk count, and a work directory:
    the default grid's lists but for 4 random beta_x and beta_xt values and
    8 or 32 random beta_t values, seed 12345."""
    work = tmp_path_factory.mktemp("memory")
    rng = np.random.default_rng(12345)
    paths = {}
    for chunks in (4, 16):
        grid = {
            "p_x_values": [0.2, 0.5], "pi0_values": [0, 1], "beta0_values": [-0.5],
            "beta_x_values": rng.uniform(-3, 3, 4).tolist(),
            "beta_t_values": rng.uniform(-3, 3, chunks * CHUNK // 128).tolist(),
            "beta_xt_values": rng.uniform(-3, 3, 4).tolist(),
            "polarities": ["desirable", "undesirable"],
        }
        paths[chunks] = work / f"grid-{chunks}.json"
        paths[chunks].write_text(json.dumps(grid))
    return paths, work


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK", CHUNK)


def peaks(command, grids, capsys) -> dict[int, int]:
    """The traced peak of `command(grid file, work directory)`'s argv, by
    the grid's chunk count, after a first run that builds the parser."""
    paths, work = grids
    assert main(command(paths[4], work)) == 0
    found = {}
    for chunks, path in paths.items():
        tracemalloc.start()
        try:
            assert main(command(path, work)) == 0
            found[chunks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    return found


def sweep_csv(grid, work):
    return work / f"sweep-{grid.stem}.csv"


COMMANDS = {
    "sweep": lambda grid, work: ["sweep", "--grid", str(grid), "--out", str(sweep_csv(grid, work))],
    "tables --grid": lambda grid, work: ["tables", "--grid", str(grid)],
    "tables --csv": lambda grid, work: ["tables", "--csv", str(sweep_csv(grid, work))],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_memory_is_flat_in_the_grid(name, grids, capsys):
    if name == "tables --csv":  # the files it reads, in many chunks: none is kept
        for path in grids[0].values():
            assert main(COMMANDS["sweep"](path, grids[1])) == 0
    found = peaks(COMMANDS[name], grids, capsys)
    assert found[16] <= found[4] + SLACK, found


def test_plot_peak_is_linear_in_the_grid(grids, capsys):
    # `plot` joins the columns it draws, so its peak grows with the grid:
    # checked to grow, not held flat. When it streams its figures, it joins the
    # commands above.
    found = peaks(lambda grid, work: ["plot", "--grid", str(grid), "--out", str(work / "figures")],
                  grids, capsys)
    assert found[16] > 2 * found[4], found
