"""The benchmark's own tests: tiny runs pass every gate, corrupted outputs
fail it, and the command prints what BENCHMARK.json names.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from opmdeploy import mc, sweep

SEED = 11  # not the benchmark's default seed
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(wl, seconds=0.0):
    failures = {}
    durations, _ = run.run_ops(wl, seconds, 0, failures)
    for i, problems in wl.finish().items():
        failures.setdefault(i, []).extend(problems)
    return len(durations), failures


TINY = {
    "default-experiment": lambda: workloads.DefaultExperiment(run.ROOT, SEED),
    "wide-grid": lambda: workloads.WideGrid(run.ROOT, SEED, n_bt=2, n_bxt=2),
    "mc-simulate": lambda: workloads.McSimulate(run.ROOT, SEED),
    "eval-stream": lambda: workloads.EvalStream(run.ROOT, SEED, size=300),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_every_gate(name):
    attempted, failures = run_tiny(TINY[name](), seconds=0.2)
    assert attempted >= 1
    assert failures == {}


def test_wide_grid_accounting_matches_the_structural_filter():
    spec = workloads.wide_grid_spec(SEED, 2, 2)
    structural, tie = workloads.grid_exclusions(spec)
    # 5 matched (beta_x, -beta_x) pairs under treat everyone, for each of
    # 2 beta_t, 2 p_x and 2 polarities; no numeric ties at |beta| <= 3.
    assert structural == 5 * 2 * 2 * 2
    assert tie == 0


def test_flipped_csv_byte_fails_the_gate(monkeypatch):
    write = sweep.write_records_csv

    def write_then_flip(records, path):
        write(records, path)
        data = bytearray(Path(path).read_bytes())
        k = data.index(b"\n") + 1  # first digit of the first data row
        data[k] = ord("0") + (data[k] - ord("0") + 1) % 10
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(sweep, "write_records_csv", write_then_flip)
    attempted, failures = run_tiny(TINY["default-experiment"]())
    assert len(failures) / attempted == 1.0
    assert any("sweep.csv: sha256" in p for p in failures[0])


@pytest.mark.parametrize("name, step", [("default-experiment", "plot"), ("wide-grid", "tables")])
def test_a_step_that_writes_nothing_fails_the_gate(monkeypatch, name, step):
    wl = TINY[name]()
    failures = {}
    run.run_ops(wl, 0.0, 0, failures)
    assert failures == {}
    call = workloads.call_cli
    monkeypatch.setattr(workloads, "call_cli", lambda argv: "" if argv[0] == step else call(argv))
    run.run_ops(wl, 0.0, 1, failures)
    # The first operation's files are gone, so the second cannot pass on them.
    assert list(failures) == [1]
    assert failures[1] and all(p.endswith(": not written") for p in failures[1])


def test_flipped_auc_hat_digit_fails_the_gate(monkeypatch):
    empirical = mc.empirical_metrics

    def flip_auc_hat(table, opm):
        m = empirical(table, opm)
        s = repr(m.auc_hat)
        k = s.index(".") + 1
        return dataclasses.replace(
            m, auc_hat=float(s[:k] + str((int(s[k]) + 1) % 10) + s[k + 1:])
        )

    monkeypatch.setattr(mc, "empirical_metrics", flip_auc_hat)
    attempted, failures = run_tiny(TINY["mc-simulate"]())
    assert len(failures) / attempted == 1.0
    assert any("auc" in p and "standard errors" in p for p in failures[0])


def test_mc_gate_rejects_a_changed_auc_hat_in_the_report():
    wl = TINY["mc-simulate"]()
    text = wl.op(0)
    assert workloads.mc_problems(text, wl.p_x[0]) == []
    payload = json.loads(text)
    payload["post"]["empirical"]["auc_hat"] += 0.01
    assert workloads.mc_problems(json.dumps(payload), wl.p_x[0])


def test_mc_gate_passes_a_rare_but_honest_draw():
    # x lands 4.6 SE above p_x = 0.5, which puts post sens_hat 5.01 SE off.
    text = workloads.call_cli([
        "simulate", "--config", "configs/beneficial_uptake.json",
        "--seed", "77068992576565", "--samples", str(workloads.MC_SAMPLES),
    ])
    assert workloads.mc_problems(text, 0.5) == []


def test_mc_gate_catches_a_bias_no_single_operation_shows():
    wl = TINY["mc-simulate"]()
    payload = json.loads(wl.op(0))
    post = payload["post"]
    cf, emp = post["closed_form"], post["empirical"]
    se = math.sqrt(cf["sens"] * (1 - cf["sens"]) / emp["n_pos"])
    emp["sens_hat"] = cf["sens"] + 3 * se  # 3 SE: within the per-operation limit
    post["agreement"]["sens_abs_err"] = abs(emp["sens_hat"] - cf["sens"])
    text = json.dumps(payload)
    n = len(wl.configs)
    for i in range(n, 5 * n, n):  # four operations on config 0, none of them the replayed one
        assert wl.check(i, text) == []
    failures = wl.finish()
    assert list(failures) == [0]
    assert all("post.sens: pooled error" in p for p in failures[0])


def test_oracle_catches_a_wrong_auc():
    wl = TINY["eval-stream"]()
    checks, payload = wl.op(0)
    assert workloads.oracle_problems(wl.raw[0], payload) == []
    payload["post"]["auc"] += 1e-9
    assert workloads.oracle_problems(wl.raw[0], payload)


def last_json_line(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_metrics_benchmark_json_names(trace, section):
    result = last_json_line("mc-simulate", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["mc.sample.calls"]["value"] == 2
        assert result["metrics"]["mc.bytes_computed"]["value"] == 4 * 3 * 10**6


def test_traced_eval_stream_reports_its_layers():
    out_dir = run.ROOT / workloads.WORK_DIR / "tests"
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = {}
    attempted, metrics, details = run.per_layer(TINY["eval-stream"](), 0.3, failures, out_dir)
    assert failures == {}
    calls = {k[: -len(".calls")]: v for k, (v, _) in metrics.items() if k.endswith(".calls")}
    assert calls["report.evaluate_scenario"] == 1
    assert calls["metrics.discrimination"] == 2
    assert calls["classify.checks"] == 2  # once directly, once in report_to_json
    assert calls["sweep.read_records_csv"] == 0  # not on this path: reported as 0
    assert metrics["trace.overhead_ratio"][0] > 0
    assert details["spans"] > 0 and (out_dir / "spans.npz").exists()


def test_fails_without_the_program():
    bare = run.ROOT / workloads.WORK_DIR / "tests" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout == ""
