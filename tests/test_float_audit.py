"""The exact audit of every derived float column of the default sweep.

`scripts/float_audit.py` compares each of the 4620 rows' `cate0`, `cate1`,
`auc_pre`, `auc_post` and `auc_delta` with `float_oracle`'s 50-digit
values. Each column is held to the error bound it meets today, so a float
regression fails here even where it keeps every sign; the contradiction
counts are checked against a count made here from the written CSV.
"""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from opmdeploy.cli import main
from opmdeploy.sweep import csv_records

import float_oracle

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("float_audit", ROOT / "scripts" / "float_audit.py")
float_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(float_audit)

# Per column: the largest relative error where the exact value is not 0,
# and the largest absolute error where it is, as the default grid meets
# them (measured 1.24e-15, 4.89e-15, 3.27e-16, 3.03e-16 and 2.71e-14).
BOUNDS = {
    "cate0": (1.5e-15, 0.0),
    "cate1": (5e-15, 2.0**-54),
    "auc_pre": (4e-16, 0.0),
    "auc_post": (4e-16, 0.0),
    "auc_delta": (3e-14, 0.0),
}
# The 24 `cate1` cells are 2**-54 in rows whose beta_t + beta_xt is exactly
# 0: beta0 + beta_x + beta_t + beta_xt and beta0 + beta_x round apart.
CONTRADICTIONS = {"cate0": 0, "cate1": 24, "auc_pre": None, "auc_post": None, "auc_delta": 0}


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("audit") / "sweep.csv"
    assert main(["sweep", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def result(sweep_csv):
    return float_audit.audit(csv_records(sweep_csv))


def test_every_default_row_is_audited(result):
    assert result["rows"] == 4620
    assert set(result["columns"]) == set(float_oracle.COLUMNS)


@pytest.mark.parametrize("name", float_oracle.COLUMNS)
def test_each_column_meets_its_bound(result, name):
    a = result["columns"][name]
    rel, at_zero = BOUNDS[name]
    assert a["max_rel_error"] <= rel
    assert a["max_abs_error_at_zero"] <= at_zero
    # beta_t = 0, and beta_xt = -beta_t, each on 420 rows: no effect, no AUC change
    assert a["exact_zeros"] == (0 if name in ("auc_pre", "auc_post") else 420)


def test_contradictions_equal_a_count_from_the_csv(result, sweep_csv):
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))

    def sign(text):
        value = float(text)
        return (value > 0) - (value < 0)

    def decided(row):
        if row["calibrated_post"] == "true":
            return 0
        return 1 if row["self_fulfilling"] == "true" else -1

    counted = {
        "cate0": sum(sign(r["cate0"]) != int(r["sign_bt"]) for r in rows),
        "cate1": sum(sign(r["cate1"]) != int(r["sign_bt_plus_bxt"]) for r in rows),
        "auc_pre": None,
        "auc_post": None,
        "auc_delta": sum(sign(r["auc_delta"]) != decided(r) for r in rows),
    }
    assert counted == CONTRADICTIONS
    assert {name: a["contradictions"] for name, a in result["columns"].items()} == counted


def test_the_oracle_is_exact_where_a_float_sum_is_not():
    # one of the 24 rows: beta_t + beta_xt == 0 exactly, while the float
    # sums of the two cells' log-odds differ. The exact cate1 is 0, and so
    # is the AUC change, since the changed group is group 1.
    beta0, beta_x, beta_t = -0.5, 0.371563556432483, -0.9162907318741551
    assert beta0 + beta_x + beta_t - beta_t != beta0 + beta_x
    exact = float_oracle.exact_columns(0.2, 0, beta0, beta_x, beta_t, -beta_t)
    assert exact["cate1"] == 0 and exact["auc_delta"] == 0
    assert exact["cate0"] < 0


def test_the_script_writes_the_table_and_the_json(sweep_csv, tmp_path, capsys):
    head = tmp_path / "head.csv"
    head.write_text("".join(sweep_csv.read_text().splitlines(keepends=True)[:11]))
    out = tmp_path / "audit.json"
    assert float_audit.main(["--csv", str(head), "--json", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("10 rows")
    assert len(printed) == 2 + len(float_oracle.COLUMNS)
    written = json.loads(out.read_text())
    assert written["source"] == {"csv": str(head)}
    assert written["rows"] == 10 and written["counts"] == {"retained": 10}
    assert set(written["columns"]) == set(float_oracle.COLUMNS)
    assert float_audit.main(["--csv", str(tmp_path / "missing.csv")]) == 2
