import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

run.bootstrap(run.ROOT)


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    # Workloads use paths relative to the checkout root, as the benchmark does.
    monkeypatch.chdir(run.ROOT)
