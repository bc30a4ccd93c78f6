#!/usr/bin/env python3
"""Audit every derived float column a sweep writes against exact arithmetic.

Each row's `cate0`, `cate1`, `auc_pre`, `auc_post` and `auc_delta` are
compared with the 50-digit values `tests/float_oracle.py` computes from
the row's parameter columns by the model's definition. Per column the
audit reports:

- the largest relative error over the rows whose exact value is not 0;
- how many rows' exact value is 0, and the largest absolute error there;
- the contradictions: rows whose float has another sign than the one the
  row decides. `auc_delta` is held to 0 where `calibrated_post`, else to
  +1 where `self_fulfilling`, else to -1; `cate0` to `sign_bt`; `cate1` to
  `sign_bt_plus_bxt`. The AUCs themselves decide no sign (null).

Usage: python scripts/float_audit.py [--csv PATH | --grid GRID | --probe S]
                                     [--json OUT]

--csv reads a sweep CSV. --grid evaluates a grid JSON file, or the default
grid by the name "default", which is also the source when none is given.
--probe S evaluates the seeded probe grid at scale S: 4 beta0, 5 beta_x, 50
beta_t and 50 beta_xt values drawn in that order from U(-S, S) by numpy's
default_rng(12345), with the default grid's p_x, pi0 and polarities
(400 000 settings). Prints a table; --json OUT also writes its numbers as
JSON. Exits 0, or 2 when the source cannot be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from float_oracle import COLUMNS, exact_columns  # noqa: E402

from opmdeploy import cli, sweep  # noqa: E402
from opmdeploy.errors import ConfigError  # noqa: E402

DPS = 50
_INPUTS = ("p_x", "pi0", "beta0", "beta_x", "beta_t", "beta_xt")


def decided_signs(c: dict) -> dict:
    """Per signed column, the sign each row decides for it."""
    sf = np.where(c["self_fulfilling"], 1, -1)
    return {
        "cate0": c["sign_bt"],
        "cate1": c["sign_bt_plus_bxt"],
        "auc_delta": np.where(c["calibrated_post"], 0, sf),
    }


def audit(records) -> dict:
    """The audit of `Records` or a `Stream`, chunk by chunk: its row count
    and, per column of COLUMNS, the numbers of the module docstring."""
    rows = 0
    rel = dict.fromkeys(COLUMNS, mpmath.mpf(0))
    at_zero = dict.fromkeys(COLUMNS, mpmath.mpf(0))
    zeros = dict.fromkeys(COLUMNS, 0)
    contradictions = {"cate0": 0, "cate1": 0, "auc_delta": 0}
    with mpmath.workdps(DPS):
        for chunk in records.chunks():
            c = chunk.columns
            rows += len(chunk)
            for name, sign in decided_signs(c).items():
                contradictions[name] += int(np.count_nonzero(np.sign(c[name]) != sign))
            floats = {name: c[name].tolist() for name in COLUMNS}
            for i, setting in enumerate(zip(*(c[name].tolist() for name in _INPUTS))):
                for name, exact in exact_columns(*setting, dps=DPS).items():
                    error = abs(floats[name][i] - exact)
                    if exact == 0:
                        zeros[name] += 1
                        at_zero[name] = max(at_zero[name], error)
                    else:
                        rel[name] = max(rel[name], error / abs(exact))
    return {
        "rows": rows,
        "columns": {
            name: {
                "max_rel_error": float(rel[name]),
                "exact_zeros": zeros[name],
                "max_abs_error_at_zero": float(at_zero[name]),
                "contradictions": contradictions.get(name),
            }
            for name in COLUMNS
        },
    }


def probe_grid(scale: float) -> sweep.GridSpec:
    """The seeded probe grid at `scale` (see the module docstring)."""
    rng = np.random.default_rng(12345)
    betas = [rng.uniform(-scale, scale, n).tolist() for n in (4, 5, 50, 50)]
    default = sweep.default_grid()
    return sweep.GridSpec(default.p_x_values, default.pi0_values, *betas, default.polarities)


def table(result: dict) -> str:
    lines = [f"{result['rows']} rows; settings counted by the source: {result['counts']}",
             f"{'column':<10} {'max rel. error':>15} {'exact zeros':>12} "
             f"{'max abs. error at 0':>20} {'contradictions':>15}"]
    for name, a in result["columns"].items():
        lines.append(f"{name:<10} {a['max_rel_error']:>15.3g} {a['exact_zeros']:>12} "
                     f"{a['max_abs_error_at_zero']:>20.3g} {a['contradictions'] if a['contradictions'] is not None else '-':>15}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--csv")
    source.add_argument("--grid")
    source.add_argument("--probe", type=float, metavar="S")
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args(argv)
    try:
        if args.csv is not None:
            records, echo = sweep.csv_records(args.csv), {"csv": args.csv}
        elif args.probe is not None:
            records, echo = sweep.grid_records(probe_grid(args.probe)), {"probe": args.probe}
        else:
            records, echo = sweep.grid_records(cli._load_grid(args.grid)), {"grid": args.grid or "default"}
        result = {"source": echo, **audit(records), "counts": records.counts}
    except (ConfigError, OSError) as exc:
        print(f"float_audit: {exc}", file=sys.stderr)
        return 2
    print(table(result))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
