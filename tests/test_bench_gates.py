"""One operation of each benchmark workload passes the workload's own
correctness gates: a renamed name or row attribute that a workload reads,
or a moved output byte, fails here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("make", [
    lambda: workloads.DefaultExperiment(ROOT, 0),
    lambda: workloads.WideGrid(ROOT, 0, n_bt=2, n_bxt=2),
    lambda: workloads.EvalStream(ROOT, 0, size=50),
], ids=["default-experiment", "wide-grid", "eval-stream"])
def test_one_operation_passes_its_gates(make, tmp_path, monkeypatch, capsys):
    # The workloads write under a relative directory, and the default
    # experiment's SVGs embed its relative CSV path, as their digests do.
    monkeypatch.chdir(tmp_path)
    workload = make()
    out = workload.op(0)
    assert workload.check(0, out) == []
    assert workload.finish() == {}


def test_mc_simulate_passes_its_gates(monkeypatch):
    # The workload reads configs/ by relative path and writes no file.
    monkeypatch.chdir(ROOT)
    workload = workloads.McSimulate(ROOT, 0)
    for i in range(len(workload.configs)):
        assert workload.check(i, workload.op(i)) == []
    assert workload.finish() == {}
