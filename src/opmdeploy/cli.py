"""Command-line surface.

Subcommands: eval, sweep, tables, plot, simulate. Exit codes: 0 success,
2 validation failure, 3 degenerate scenario, 4 I/O failure. All commands
are deterministic given their inputs (plus the seed, for simulate).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, figures, mc, sweep
from .classify import CheckResult
from .errors import (
    ConfigError,
    DegenerateOutcome,
    DegenerateScenario,
    OpmDeployError,
)
from .report import DeploymentReport, evaluate_scenario
from .scenario import PARAM_FIELDS, OutcomePolarity, ScenarioParams, parse_polarity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4


def _tool_stamp() -> dict:
    return {"name": "opmdeploy", "version": __version__}


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # also undecodable bytes, oversized integers
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from None


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _check_keys(raw: dict, keys: tuple[str, ...]) -> None:
    """Every key present, and no other."""
    problems = [f"{k}: missing" for k in keys if k not in raw]
    problems += [f"{k}: unknown config key" for k in sorted(set(raw) - set(keys))]
    if problems:
        raise ConfigError(problems)


def _scenario_from_args(args) -> tuple[ScenarioParams, dict]:
    raw = {}
    if args.config:
        loaded = _load_json(args.config)
        if not isinstance(loaded, dict):
            raise ConfigError([f"{args.config}: expected a JSON object"])
        raw.update(loaded)
    for key in PARAM_FIELDS:
        v = getattr(args, key)
        if v is not None:
            raw[key] = v

    _check_keys(raw, PARAM_FIELDS)
    values = {k: raw[k] for k in PARAM_FIELDS}
    values["polarity"] = parse_polarity(raw["polarity"])
    return ScenarioParams(**values), raw


def _load_grid(source: str) -> sweep.GridSpec:
    if source == "default":
        return sweep.default_grid()
    raw = _load_json(source)
    if not isinstance(raw, dict):
        raise ConfigError([f"{source}: expected a JSON object"])
    _check_keys(raw, sweep.GRID_KEYS)
    not_lists = [k for k in sweep.GRID_KEYS if not isinstance(raw[k], list)]
    if not_lists:
        raise ConfigError([f"{k}: expected a list" for k in not_lists])
    values = {k: raw[k] for k in sweep.GRID_KEYS}
    values["polarities"] = [parse_polarity(p) for p in raw["polarities"]]
    return sweep.GridSpec(**values)


def _grid_echo(grid: sweep.GridSpec) -> dict:
    echo = {k: list(getattr(grid, k)) for k in sweep.GRID_KEYS}
    echo["polarities"] = [p.value for p in grid.polarities]
    return echo


def _records_from_args(args) -> tuple[sweep.Records | sweep.GridRecords, dict, bool]:
    """The records, their source echo, and whether they are the default
    grid's (the only records the reference cross-check applies to)."""
    if args.csv:
        records = sweep.read_records_csv(args.csv)
        return records, {"csv": str(args.csv)}, sweep.is_default_grid(records)
    grid = _load_grid(args.grid)
    return (
        sweep.GridRecords(grid),
        {"grid": _grid_echo(grid)},
        grid == sweep.default_grid(),
    )


# ---------------------------------------------------------------------------
# eval


def _check_to_json(check) -> dict:
    if isinstance(check, CheckResult):
        return {"status": check.status.value, "detail": check.detail}
    return {**vars(check), "consistent": check.consistent}


def _dist_block(report: DeploymentReport, which: str) -> dict:
    dist = report.pre if which == "pre" else report.post
    disc = (
        report.discrimination_pre if which == "pre" else report.discrimination_post
    )
    return {
        "mu": list(dist.mu),
        "p_y1": dist.p_y1,
        "sens": disc.sens,
        "spec": disc.spec,
        "auc": disc.auc,
    }


def _calibration_block(calib) -> dict:
    return {**vars(calib), "levels": [dict(vars(l)) for l in calib.levels]}


def report_to_json(report: DeploymentReport, config_echo: dict) -> dict:
    return {
        "tool": _tool_stamp(),
        "config": config_echo,
        "potential_outcomes": {
            "q": [list(row) for row in report.po.q],
            "cate": list(report.po.cate),
        },
        "opm": {"f": list(report.opm.f), "lambda": report.opm.lam},
        "policies": {
            "historic": list(report.policy_pre.assign),
            "deployed": list(report.policy_post.assign),
        },
        "pre": _dist_block(report, "pre"),
        "post": _dist_block(report, "post"),
        "auc_delta": report.auc_delta,
        "auc_sign": report.auc_sign,
        "self_fulfilling": report.self_fulfilling,
        "calibration": {
            "pre": _calibration_block(report.calibration_pre),
            "post": _calibration_block(report.calibration_post),
        },
        "harm": dict(vars(report.harm)),
        "verdict": report.verdict.value,
        "sign_verdict": report.verdict.value,
        "checks": {name: _check_to_json(c) for name, c in report.checks().items()},
    }


def _print_report(report: DeploymentReport) -> None:
    p = report.params
    q = report.po.q
    print(f"scenario: p_x={p.p_x!r} pi0={p.pi0} polarity={p.polarity.value}")
    print(
        f"  betas: beta0={p.beta0!r} beta_x={p.beta_x!r} "
        f"beta_t={p.beta_t!r} beta_xt={p.beta_xt!r}"
    )
    print("potential outcomes p(Y_t=1|X=x):")
    for t in (0, 1):
        print(f"  t={t}: x=0 {q[t][0]:.6f}   x=1 {q[t][1]:.6f}")
    print(f"  effect per group: x=0 {report.po.cate[0]:+.6f}   x=1 {report.po.cate[1]:+.6f}")
    lam = "none" if report.opm.lam is None else f"{report.opm.lam:.6f}"
    print(f"fitted predictor: f=({report.opm.f[0]:.6f}, {report.opm.f[1]:.6f})  lambda={lam}")
    print(f"policies: historic={report.policy_pre.assign}  deployed={report.policy_post.assign}")
    for which, dist, disc in (
        ("pre ", report.pre, report.discrimination_pre),
        ("post", report.post, report.discrimination_post),
    ):
        print(
            f"{which}: mu=({dist.mu[0]:.6f}, {dist.mu[1]:.6f})  p(Y=1)={dist.p_y1:.6f}"
            f"  sens={disc.sens:.6f} spec={disc.spec:.6f} auc={disc.auc:.6f}"
        )
    print(
        f"auc_delta={report.auc_delta:+.6f} (sign {report.auc_sign:+d})  "
        f"self_fulfilling={str(report.self_fulfilling).lower()}"
    )
    print(
        f"calibration: pre max_gap={report.calibration_pre.max_gap:.3e} "
        f"({'yes' if report.calibration_pre.is_calibrated else 'no'})  "
        f"post max_gap={report.calibration_post.max_gap:.3e} "
        f"({'yes' if report.calibration_post.is_calibrated else 'no'})"
    )
    harm = report.harm
    print(
        f"harm: shift=({harm.outcome_shift[0]:+.6f}, {harm.outcome_shift[1]:+.6f})  "
        f"changed_group={harm.changed_group}  harmful_group={list(harm.harmful_group)}  "
        f"marginal={str(harm.harmful_marginal).lower()}"
    )
    print(f"verdict: {report.verdict.value}  (sign lookup: {report.verdict.value})")
    for name, check in report.checks().items():
        if isinstance(check, CheckResult):
            print(f"check {name}: {check.status.value}  {check.detail}")
        else:
            print(
                f"check {name}: changed_group={check.changed_group} "
                f"direction={check.direction!r} expected_sf={check.expected_self_fulfilling} "
                f"consistent={check.consistent}"
            )


def cmd_eval(args) -> int:
    params, raw = _scenario_from_args(args)
    report = evaluate_scenario(params)
    _print_report(report)
    if args.out:
        _write_json(args.out, report_to_json(report, raw))
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    grid = _load_grid(args.grid)
    records = sweep.GridRecords(grid)
    sweep.write_records_csv(records, args.out)
    retained = len(records)
    counts = {
        "cardinality": grid.cardinality,
        "removed_degenerate": grid.cardinality - retained,
        "retained": retained,
    }
    manifest = {
        "tool": _tool_stamp(),
        "grid": _grid_echo(grid),
        "counts": counts,
        "exclusions": records.exclusions,
    }
    if grid == sweep.default_grid():
        manifest["reference_delta"] = sweep.reference_delta(
            sweep.aggregate_sign_table(records), retained
        )
    manifest["timestamp"] = _timestamp()
    manifest_path = str(args.out) + ".manifest.json"
    _write_json(manifest_path, manifest)
    print(
        f"grid settings: {counts['cardinality']}  removed: "
        f"{counts['removed_degenerate']}  retained: {counts['retained']}"
    )
    print(f"wrote {args.out}")
    print(f"wrote {manifest_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables

# Per table: CSV file name, CSV columns, text header, text row format. Both
# writers render the same rows.
_SIGN_TABLE = (
    "sign_table.csv",
    ("sign_bt", "sign_bt_plus_bxt", "self_fulfilling_n", "not_self_fulfilling_n"),
    "sign(beta_t)  sign(beta_t+beta_xt)  self_fulfilling(N)  not_self_fulfilling(N)",
    "{:>11d}  {:>20d}  {:>18d}  {:>22d}",
)
_HARM_TABLE = (
    "harm_table.csv",
    ("higher_y_is", "pi0", "self_fulfilling", "n", "harmful_fraction"),
    "higher_y_is  pi0  self_fulfilling  n     harmful_fraction",
    "{:<11s}  {:<3d}  {:<15s}  {:<4d}  {}",
)
_POLARITY_WORD = {
    OutcomePolarity.UNDESIRABLE: "worse",
    OutcomePolarity.DESIRABLE: "better",
}


def cmd_tables(args) -> int:
    records, source, default = _records_from_args(args)
    sign_table = sweep.aggregate_sign_table(records)
    tables = (
        (_SIGN_TABLE, [(*cell, *counts) for cell, counts in sign_table.items()]),
        (_HARM_TABLE, [
            (_POLARITY_WORD[pol], pi0, str(sf).lower(), total,
             "" if total == 0 else repr(harmed / total))
            for (pol, pi0, sf), (harmed, total)
            in sweep.aggregate_harm_table(records).items()
        ]),
    )

    for (_, _, header, row_format), rows in tables:
        print("\n".join([header] + [row_format.format(*row) for row in rows]))
        print()
    reference = {}
    if default:
        delta = sweep.reference_delta(sign_table, len(records))
        reference["reference_delta"] = delta
        print("reference tabulation cross-check:")
        print(
            f"  retained here: {delta['retained']}   reference total: "
            f"{delta['reference_total']}   count delta: {delta['count_delta']}"
        )
        print(
            f"  cell count differences after orientation swap: "
            f"{delta['cell_deltas_after_orientation_swap'] or 'none'}"
        )
        print(f"  note: {delta['orientation_note']}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for (name, columns, _, _), rows in tables:
            with open(out / name, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(rows)
        _write_json(out / "tables_manifest.json", {
            "tool": _tool_stamp(),
            "source": source,
            **reference,
            "timestamp": _timestamp(),
        })
        print(f"\nwrote {out / 'sign_table.csv'}, {out / 'harm_table.csv'}, "
              f"{out / 'tables_manifest.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plot

# Per figure: file name, whether it is restricted to the avg-beneficial
# subset, title, and for the odds-ratio figures (x field, color field, x
# label, color label); None marks the pre-AUC figure.
_FIGURES = (
    ("fig-bt-vs-diff.svg", True,
     "AUC change after deployment (treatment beneficial on average)",
     ("beta_t", "beta_xt", "treatment odds ratio exp(beta_t)", "exp(beta_xt)")),
    ("fig-bt-vs-diff-all.svg", False,
     "AUC change after deployment (all settings)",
     ("beta_t", "beta_xt", "treatment odds ratio exp(beta_t)", "exp(beta_xt)")),
    ("fig-bxt-vs-diff.svg", True,
     "AUC change vs effect heterogeneity (treatment beneficial on average)",
     ("beta_xt", "beta_t", "interaction odds ratio exp(beta_xt)", "exp(beta_t)")),
    ("fig-auc-pre-vs-diff.svg", False,
     "Discrimination before deployment vs change after", None),
)


def cmd_plot(args) -> int:
    records, source, _ = _records_from_args(args)
    records = sweep.Records.join(records.chunks())  # a grid is evaluated once
    beneficial = records.where(avg_treatment_beneficial=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, restricted, title, axes in _FIGURES:
        recs = beneficial if restricted else records
        manifest = {
            "tool": _tool_stamp(),
            "figure": name,
            "source": source,
            "subset": "avg-beneficial" if restricted else "all",
            "points": len(recs),
        }
        if axes is None:
            svg = figures.auc_pre_panel(recs, title, manifest)
        else:
            svg = figures.odds_ratio_panels(recs, *axes, title, manifest)
        with open(out / name, "w") as fh:
            fh.write(svg)
        print(f"wrote {out / name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _empirical_block(m: mc.EmpiricalMetrics) -> dict:
    return {**vars(m), "insufficient_cases": m.insufficient_cases}


def _abs_err(a, b):
    if a is None or b is None:
        return None
    return abs(a - b)


def cmd_simulate(args) -> int:
    params, raw = _scenario_from_args(args)
    report = evaluate_scenario(params)
    cfg = mc.McConfig(
        n_samples=args.samples,
        master_seed=args.seed,
        scenario_index=args.scenario_index,
    )
    mc_echo = dict(vars(cfg))
    blocks = {}
    for which, policy in (("pre", report.policy_pre), ("post", report.policy_post)):
        table = mc.sample(params, policy, cfg)
        emp = _empirical_block(mc.empirical_metrics(table, report.top))
        if args.dump_samples:
            path = f"{args.dump_samples}.{which}.csv"
            mc.write_sample_csv(table, path)
            print(f"wrote {path}")
            _write_json(f"{args.dump_samples}.{which}.manifest.json", {
                "tool": _tool_stamp(),
                "config": raw,
                "policy": list(policy.assign),
                "mc": mc_echo,
            })
        closed = _dist_block(report, which)
        blocks[which] = {
            "closed_form": closed,
            "empirical": emp,
            "agreement": {
                "mu0_abs_err": _abs_err(emp["mu_hat"][0], closed["mu"][0]),
                "mu1_abs_err": _abs_err(emp["mu_hat"][1], closed["mu"][1]),
                **{
                    f"{k}_abs_err": _abs_err(emp[f"{k}_hat"], closed[k])
                    for k in ("sens", "spec", "auc")
                },
            },
        }

    auc_hats = (blocks["pre"]["empirical"]["auc_hat"],
                blocks["post"]["empirical"]["auc_hat"])
    text = json.dumps({
        "tool": _tool_stamp(),
        "config": raw,
        "mc": mc_echo,
        "pre": blocks["pre"],
        "post": blocks["post"],
        "auc_delta": {
            "closed_form": report.auc_delta,
            "empirical": (
                None if None in auc_hats else auc_hats[1] - auc_hats[0]
            ),
        },
        "self_fulfilling": report.self_fulfilling,
        "harmful_marginal": report.harm.harmful_marginal,
    }, indent=2)
    print(text)
    for which in ("pre", "post"):
        if blocks[which]["empirical"]["insufficient_cases"]:
            print(
                f"note: {which} sample is missing an outcome class; "
                "rank metrics unavailable (insufficient cases)",
                file=sys.stderr,
            )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON scenario config path")
    parser.add_argument("--p-x", dest="p_x", type=float, help="p(X=1)")
    parser.add_argument("--pi0", type=int, help="historic assignment, 0 or 1")
    parser.add_argument("--beta0", type=float, help="log-odds intercept")
    parser.add_argument("--beta-x", dest="beta_x", type=float, help="log-odds for X")
    parser.add_argument("--beta-t", dest="beta_t", type=float, help="log-odds for T")
    parser.add_argument(
        "--beta-xt", dest="beta_xt", type=float, help="log-odds for the X:T interaction"
    )
    parser.add_argument("--polarity", help="desirable | undesirable")


def _add_records_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", help="existing sweep CSV (otherwise runs the grid)")
    parser.add_argument(
        "--grid", default="default", help="'default' or a JSON grid path"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opmdeploy",
        description=(
            "Closed-form analysis of an outcome prediction model deployed as "
            "a treatment policy: discrimination and calibration before and "
            "after deployment, harm classification, the full grid experiment, "
            "and a seeded Monte Carlo cross-check."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one scenario end to end")
    _add_scenario_arguments(p)
    p.add_argument("--out", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a parameter grid, write records CSV")
    p.add_argument("--grid", default="default", help="'default' or a JSON grid path")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tables", help="aggregate sign and harm tables")
    _add_records_arguments(p)
    p.add_argument("--out", help="directory for table CSVs and manifest")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("plot", help="emit SVG figures from sweep records")
    _add_records_arguments(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser(
        "simulate", help="Monte Carlo sample a scenario, compare with closed form"
    )
    _add_scenario_arguments(p)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--samples", type=int, default=100_000, help="patients to draw")
    p.add_argument(
        "--scenario-index", type=int, default=0,
        help="substream index (parallel runs use distinct indices)",
    )
    p.add_argument("--out", help="also write the comparison report JSON here")
    p.add_argument(
        "--dump-samples", help="write drawn samples to PREFIX.pre.csv / PREFIX.post.csv"
    )
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DegenerateScenario, DegenerateOutcome) as exc:
        print(f"degenerate scenario: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OpmDeployError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
