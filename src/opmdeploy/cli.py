"""Command-line surface.

Subcommands: eval, sweep, tables, plot, simulate. Exit codes: 0 success,
2 validation failure, 3 degenerate scenario, 4 I/O failure. All commands
are deterministic given their inputs (plus the seed, for simulate).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections import Counter
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


def _load_object(path: str | None, keys: tuple[str, ...], given=()) -> dict:
    """The JSON object in the UTF-8 file at `path` (an empty one for None),
    updated with the (key, value) pairs `given`: every one of `keys`, and
    no other, none of them twice in the file."""
    raw, pairs = {}, []
    if path is not None:
        objects = []  # each JSON object's (key, value) pairs, the outermost last
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=lambda p: objects.append(p) or dict(p))
        except (ValueError, RecursionError) as exc:  # also bad bytes, huge ints, deep nesting
            raise ConfigError([f"{path}: not valid JSON ({exc})"]) from None
        if not isinstance(raw, dict):
            raise ConfigError([f"{path}: expected a JSON object"])
        pairs = objects[-1]
    raw.update(given)
    problems = [f"{k}: given twice" for k, n in Counter(k for k, _ in pairs).items() if n > 1]
    problems += [f"{k}: missing" for k in keys if k not in raw]
    problems += [f"{k}: unknown config key" for k in sorted(set(raw) - set(keys))]
    if problems:
        raise ConfigError(problems)
    return raw


def _write_json(fh, payload) -> None:
    json.dump(payload, fh, indent=2)
    fh.write("\n")


@contextlib.contextmanager
def _outputs(outputs: dict, others=()):
    """Open every output file, given as {role: path}, for writing UTF-8 text
    before the command's work, and yield the handles by role, so that a name
    that cannot be written fails first. Two outputs that are one file, or an
    output that is one of `others` ((role, path) pairs of the files the
    command reads or writes itself), are refused before any file is opened:
    names of files that exist are one file when their (device, inode) are,
    so hard links are, and other names when their resolved paths are.
    If a name cannot be opened or the work fails, no file opened here
    keeps a byte of the run: those that did not exist before are removed
    again, and the others are left empty (what cannot be truncated, such
    as /dev/null or a FIFO, is left as it is)."""
    seen = {}
    for role, path in (*others, *outputs.items()):
        try:
            st = os.stat(path)
            file = st.st_dev, st.st_ino
        except OSError:
            file = os.path.realpath(path)
        first = seen.setdefault(file, (role, path))
        if first[0] != role:
            raise OpmDeployError(f"{first[0]} {first[1]} and {role} {path} name one file")
    opened = []
    try:
        with contextlib.ExitStack() as stack:
            handles = {}
            for role, path in outputs.items():
                new = not os.path.lexists(path)
                handles[role] = stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
                opened.append((path, new))
            yield handles
    except BaseException:  # the handles are closed, so nothing is flushed after this
        for path, new in opened:
            with contextlib.suppress(OSError):
                if new:
                    os.remove(path)
                else:
                    os.truncate(path, 0)
        raise


def _scenario_from_args(args) -> tuple[ScenarioParams, dict]:
    """The scenario and its config echo: the config file's keys in its
    order, each flag given replacing its value or following them."""
    given = {k: v for k in PARAM_FIELDS if (v := getattr(args, k)) is not None}
    raw = _load_object(args.config, PARAM_FIELDS, given)
    return ScenarioParams(**{**raw, "polarity": parse_polarity(raw["polarity"])}), raw


def _load_grid(source: str | None) -> sweep.GridSpec:
    """The built-in grid for None or "default", else the grid JSON file."""
    if source is None or source == "default":
        return sweep.default_grid()
    raw = _load_object(source, sweep.GRID_KEYS)
    not_lists = [k for k in sweep.GRID_KEYS if not isinstance(raw[k], list)]
    if not_lists:
        raise ConfigError([f"{k}: expected a list" for k in not_lists])
    return sweep.GridSpec(**{**raw, "polarities": list(map(parse_polarity, raw["polarities"]))})


def _records_from_args(args) -> tuple[sweep.Stream, dict, list]:
    """The records of `--csv`, or else of `--grid` (`sweep` has no `--csv`:
    it is None), streamed a chunk at a time; their source echo; and the
    `--csv` they are read from, as `_outputs`' others. A grid with
    problems, all of them reported, and a CSV that cannot be opened fail
    here, before any output is made."""
    if args.csv is not None:
        open(args.csv, "rb").close()
        return sweep.csv_records(args.csv), {"csv": str(args.csv)}, [("--csv", args.csv)]
    grid = _load_grid(args.grid)
    echo = {k: list(getattr(grid, k)) for k in sweep.GRID_KEYS}
    echo["polarities"] = [p.value for p in grid.polarities]
    return sweep.grid_records(grid), {"grid": echo}, []


# ---------------------------------------------------------------------------
# eval


def _check_to_json(check) -> dict:
    if isinstance(check, CheckResult):
        return {"status": check.status.value, "detail": check.detail}
    return vars(check).copy()


def _dist_block(dist, disc) -> dict:
    return {"mu": list(dist.mu), "p_y1": dist.p_y1,
            "sens": disc.sens, "spec": disc.spec, "auc": disc.auc}


def _calibration_block(calib) -> dict:
    block = vars(calib).copy()
    block["levels"] = [vars(l).copy() for l in calib.levels]
    return block


def report_to_json(report: DeploymentReport, config_echo: dict) -> dict:
    verdict = report.verdict.value
    return {
        "tool": _tool_stamp(),
        "config": config_echo,
        "potential_outcomes": {
            "q": list(map(list, report.po.q)),
            "cate": list(report.po.cate),
        },
        "opm": {"f": list(report.opm.f), "lambda": report.opm.lam},
        "policies": {
            "historic": list(report.policy_pre),
            "deployed": list(report.policy_post),
        },
        "pre": _dist_block(report.pre, report.discrimination_pre),
        "post": _dist_block(report.post, report.discrimination_post),
        "auc_delta": report.auc_delta,
        "auc_sign": report.auc_sign,
        "self_fulfilling": report.self_fulfilling,
        "calibration": {
            "pre": _calibration_block(report.calibration_pre),
            "post": _calibration_block(report.calibration_post),
        },
        "harm": dict(vars(report.harm)),
        "verdict": verdict,
        "sign_verdict": verdict,
        "checks": {name: _check_to_json(c) for name, c in report.checks().items()},
    }


def _print_report(p: ScenarioParams, r: dict) -> None:
    """The text report of `report_to_json`'s payload `r` (or of its JSON
    read back) for the scenario `p`."""
    q, cate = r["potential_outcomes"]["q"], r["potential_outcomes"]["cate"]
    print(f"scenario: p_x={p.p_x!r} pi0={p.pi0} polarity={p.polarity.value}")
    print(
        f"  betas: beta0={p.beta0!r} beta_x={p.beta_x!r} "
        f"beta_t={p.beta_t!r} beta_xt={p.beta_xt!r}"
    )
    print("potential outcomes p(Y_t=1|X=x):")
    for t in (0, 1):
        print(f"  t={t}: x=0 {q[t][0]:.6f}   x=1 {q[t][1]:.6f}")
    print(f"  effect per group: x=0 {cate[0]:+.6f}   x=1 {cate[1]:+.6f}")
    f, lam = r["opm"]["f"], r["opm"]["lambda"]
    lam = "none" if lam is None else f"{lam:.6f}"
    print(f"fitted predictor: f=({f[0]:.6f}, {f[1]:.6f})  lambda={lam}")
    policies = {k: tuple(v) for k, v in r["policies"].items()}
    print(f"policies: historic={policies['historic']}  deployed={policies['deployed']}")
    for which in ("pre", "post"):
        d = r[which]
        print(
            f"{which:4}: mu=({d['mu'][0]:.6f}, {d['mu'][1]:.6f})  p(Y=1)={d['p_y1']:.6f}"
            f"  sens={d['sens']:.6f} spec={d['spec']:.6f} auc={d['auc']:.6f}"
        )
    print(
        f"auc_delta={r['auc_delta']:+.6f} (sign {r['auc_sign']:+d})  "
        f"self_fulfilling={str(r['self_fulfilling']).lower()}"
    )
    pre, post = r["calibration"]["pre"], r["calibration"]["post"]
    print(
        f"calibration: pre max_gap={pre['max_gap']:.3e} "
        f"({'yes' if pre['is_calibrated'] else 'no'})  "
        f"post max_gap={post['max_gap']:.3e} "
        f"({'yes' if post['is_calibrated'] else 'no'})"
    )
    harm = r["harm"]
    print(
        f"harm: shift=({harm['outcome_shift'][0]:+.6f}, {harm['outcome_shift'][1]:+.6f})  "
        f"changed_group={harm['changed_group']}  harmful_group={list(harm['harmful_group'])}  "
        f"marginal={str(harm['harmful_marginal']).lower()}"
    )
    print(f"verdict: {r['verdict']}")
    for name, c in r["checks"].items():
        if "status" in c:
            print(f"check {name}: {c['status']}  {c['detail']}")
        else:
            print(f"check {name}: direction={c['direction']!r} "
                  f"expected_sf={c['expected_self_fulfilling']} consistent={c['consistent']}")


def cmd_eval(args) -> int:
    params, raw = _scenario_from_args(args)
    payload = report_to_json(evaluate_scenario(params), raw)
    with _outputs({} if args.out is None else {"--out": args.out}) as handles:
        _print_report(params, payload)
        if handles:
            _write_json(handles["--out"], payload)
            print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    records, source, _ = _records_from_args(args)
    outputs = {"--out": args.out, "manifest": str(args.out) + ".manifest.json"}
    with _outputs(outputs) as handles:
        sweep.write_records_csv(records, args.out)
        exclusions = {k: records.counts[k] for k in ("structural", "unrepresentable")}
        removed = sum(exclusions.values())
        counts = {
            "cardinality": len(records) + removed,
            "removed_degenerate": removed,
            "retained": len(records),
        }
        manifest = {"tool": _tool_stamp(), **source, "counts": counts, "exclusions": exclusions}
        if sweep.is_default_grid(records):
            manifest["reference_delta"] = sweep.reference_delta(sweep.aggregate_sign_table(records))
        manifest["timestamp"] = _timestamp()
        _write_json(handles["manifest"], manifest)
    print(
        f"grid settings: {counts['cardinality']}  removed: "
        f"{counts['removed_degenerate']}  retained: {counts['retained']}"
    )
    for path in outputs.values():
        print(f"wrote {path}")
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
    records, source, read = _records_from_args(args)
    outputs = {}
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)  # "" raises, where Path("") is the working directory
        out = Path(args.out)
        outputs = {"sign table": out / _SIGN_TABLE[0], "harm table": out / _HARM_TABLE[0],
                   "manifest": out / "tables_manifest.json"}
    with _outputs(outputs, read) as handles:
        sign_table, harm_table = sweep.aggregate_tables(records)
        tables = (
            (_SIGN_TABLE, [(*cell, *counts) for cell, counts in sign_table.items()]),
            (_HARM_TABLE, [
                (_POLARITY_WORD[pol], pi0, str(sf).lower(), total,
                 "" if total == 0 else repr(harmed / total))
                for (pol, pi0, sf), (harmed, total) in harm_table.items()
            ]),
        )

        for (_, _, header, row_format), rows in tables:
            print("\n".join([header] + [row_format.format(*row) for row in rows]))
            print()
        reference = {}
        if sweep.is_default_grid(records):  # the only records the reference describes
            delta = sweep.reference_delta(sign_table)
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

        if handles:
            *csv_handles, manifest_fh = handles.values()
            for ((_, columns, _, _), rows), fh in zip(tables, csv_handles):
                fh.write(",".join(columns) + "\n")
                fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
            _write_json(manifest_fh, {
                "tool": _tool_stamp(),
                "source": source,
                **reference,
                "timestamp": _timestamp(),
            })
            print("\nwrote " + ", ".join(map(str, outputs.values())))
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
    records, source, read = _records_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    out = Path(args.out)
    with _outputs({name: out / name for name, *_ in _FIGURES}, read) as handles:
        # the chunks are joined, so a grid is evaluated and a file read once,
        # keeping only the columns the figures read
        records = sweep.Records.join(records.chunks(), (
            "beta_t", "beta_xt", "auc_delta", "auc_pre", "harmful_marginal",
            "polarity", "pi0", "avg_treatment_beneficial",
        ))
        beneficial = records.where(avg_treatment_beneficial=True)
        for (name, restricted, title, axes), fh in zip(_FIGURES, handles.values()):
            recs = beneficial if restricted else records
            manifest = {
                "tool": _tool_stamp(),
                "figure": name,
                "source": source,
                "subset": "avg-beneficial" if restricted else "all",
                "points": len(recs),
            }
            # each document is written and dropped before the next is drawn
            if axes is None:
                fh.write(figures.auc_pre_panel(recs, title, manifest))
            else:
                fh.write(figures.odds_ratio_panels(recs, *axes, title, manifest))
            print(f"wrote {out / name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _abs_err(a, b):
    return None if a is None else abs(a - b)


def cmd_simulate(args) -> int:
    params, raw = _scenario_from_args(args)
    report = evaluate_scenario(params)
    closed_form = report_to_json(report, raw)
    cfg = mc.McConfig(
        n_samples=args.samples,
        master_seed=args.seed,
        scenario_index=args.scenario_index,
    )
    dump = args.dump_samples
    outputs = {} if args.out is None else {"--out": args.out}
    if dump is not None:
        outputs.update(
            (f"{which} sample {kind}", f"{dump}.{which}{suffix}")
            for which in ("pre", "post")
            for kind, suffix in (("CSV", ".csv"), ("manifest", ".manifest.json"))
        )
    with _outputs(outputs) as handles:
        policies = {"pre": report.policy_pre, "post": report.policy_post}
        counts = mc.cell_counts(params, tuple(policies.values()), cfg)
        payload = {"tool": _tool_stamp(), "config": raw, "mc": dict(vars(cfg))}
        for (which, policy), cells in zip(policies.items(), counts):
            emp = mc.empirical_metrics(cells, report.top)
            if dump is not None:
                mc.write_sample_csv(mc.sample(params, policy, cfg), handles[f"{which} sample CSV"])
                print(f"wrote {dump}.{which}.csv")
                _write_json(handles[f"{which} sample manifest"], {
                    "tool": _tool_stamp(),
                    "config": raw,
                    "policy": list(policy),
                    "mc": payload["mc"],
                })
            closed = closed_form[which]
            payload[which] = {
                "closed_form": closed,
                "empirical": {**vars(emp), "insufficient_cases": emp.insufficient_cases},
                "agreement": {
                    "mu0_abs_err": _abs_err(emp.mu_hat[0], closed["mu"][0]),
                    "mu1_abs_err": _abs_err(emp.mu_hat[1], closed["mu"][1]),
                    **{
                        f"{k}_abs_err": _abs_err(getattr(emp, f"{k}_hat"), closed[k])
                        for k in ("sens", "spec", "auc")
                    },
                },
            }
        pre, post = (payload[which]["empirical"]["auc_hat"] for which in policies)
        payload["auc_delta"] = {
            "closed_form": closed_form["auc_delta"],
            "empirical": None if None in (pre, post) else post - pre,
        }
        payload["self_fulfilling"] = closed_form["self_fulfilling"]
        payload["harmful_marginal"] = closed_form["harm"]["harmful_marginal"]
        text = json.dumps(payload, indent=2)
        print(text)
        for which in policies:
            if payload[which]["empirical"]["insufficient_cases"]:
                print(
                    f"note: {which} sample is missing an outcome class; "
                    "rank metrics unavailable (insufficient cases)",
                    file=sys.stderr,
                )
        if "--out" in handles:
            handles["--out"].write(text + "\n")
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
    # no default for --grid: argparse would not see `--grid default` as given
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--csv", help="existing sweep CSV (otherwise runs the grid)")
    source.add_argument("--grid", help="'default' (the default) or a JSON grid path")


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
    p.add_argument("--grid", help="'default' (the default) or a JSON grid path")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep, csv=None)

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: built on the first call, not at import,
    with the `cmd_*` functions of that moment. Parsing leaves it as it was,
    so no call sees an earlier one's state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
