"""The grid experiment: expand, filter, evaluate, aggregate.

The default grid crosses two X prevalences, both constant historic
policies, one intercept, five X effects, eleven treatment effects, eleven
interaction effects, and both outcome polarities: 4840 settings. Settings
whose historic conditionals coincide (a constant fitted predictor) are
removed structurally before evaluation.

Aggregations reproduce two published reference tables; where this tool's
structural filter and self-fulfilling orientation differ from the
reference tabulation, the delta is computed and surfaced, never hidden
(see `reference_delta`).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .classify import Verdict
from .errors import ConfigError, DegenerateOutcome
from .report import DeploymentReport, evaluate_scenario
from .scenario import (
    PARAM_FIELDS,
    OutcomePolarity,
    ScenarioParams,
    effect_sign,
    field_problems,
    historic_step_sign,
    param_values,
    sign_with_band,
)

# Odds ratios behind the default grid's log-odds values.
_OR_STEPS = (1.1, 1.45, 1.8, 2.15, 2.5)


def _symmetric_log_odds() -> tuple[float, ...]:
    # Negations of the same float, not log(1/v): matched beta_x + beta_xt
    # pairs then cancel exactly and the degenerate filter is structural.
    down = tuple(-math.log(v) for v in reversed(_OR_STEPS))
    up = tuple(math.log(v) for v in _OR_STEPS)
    return down + (0.0,) + up


@dataclass(frozen=True)
class GridSpec:
    """One list of values per `ScenarioParams` field, in field order; every
    value is checked as that field before any arithmetic reads it."""

    p_x_values: tuple[float, ...]
    pi0_values: tuple[int, ...]
    beta0_values: tuple[float, ...]
    beta_x_values: tuple[float, ...]
    beta_t_values: tuple[float, ...]
    beta_xt_values: tuple[float, ...]
    polarities: tuple[OutcomePolarity, ...]

    def __post_init__(self):
        problems = []
        for key, name in zip(GRID_KEYS, PARAM_FIELDS):
            values = tuple(getattr(self, key))
            object.__setattr__(self, key, values)
            if not values:
                problems.append(f"{key}: must be nonempty")
            problems += [
                f"{key}[{i}]: {problem}"
                for i, v in enumerate(values)
                for problem in field_problems([(name, v)])
            ]
        if problems:
            raise ConfigError(problems)

    def lists(self) -> tuple[tuple, ...]:
        """The value lists, in `ScenarioParams` field order."""
        return tuple(getattr(self, key) for key in GRID_KEYS)

    @property
    def cardinality(self) -> int:
        return math.prod(map(len, self.lists()))


GRID_KEYS = tuple(f.name for f in fields(GridSpec))


def default_grid() -> GridSpec:
    return GridSpec(
        p_x_values=(0.2, 0.5),
        pi0_values=(0, 1),
        beta0_values=(-0.5,),
        beta_x_values=tuple(math.log(v) for v in _OR_STEPS),
        beta_t_values=_symmetric_log_odds(),
        beta_xt_values=_symmetric_log_odds(),
        polarities=(OutcomePolarity.DESIRABLE, OutcomePolarity.UNDESIRABLE),
    )


def is_degenerate(pi0: int, beta_x: float, beta_xt: float) -> bool:
    """Historic conditionals coincide: mu0(0) = mu0(1).

    Under pi0=0 that is beta_x = 0; under pi0=1 it is beta_x + beta_xt = 0.
    The same step sign that `evaluate_scenario` raises on, so grids built
    from ln(1/v) floats are still caught.
    """
    return historic_step_sign(pi0, beta_x, beta_xt) == 0


def _retained_settings(grid: GridSpec):
    """Cartesian product in the canonical order of the grid lists, minus
    degenerate settings, as plain tuples in `ScenarioParams` field order."""
    for setting in itertools.product(*grid.lists()):
        _, pi0, _, bx, _, bxt, _ = setting
        if not is_degenerate(pi0, bx, bxt):
            yield setting


def expand_and_filter(grid: GridSpec) -> list[ScenarioParams]:
    """The retained settings of `grid`, validated, in canonical order."""
    return [ScenarioParams(*setting) for setting in _retained_settings(grid)]


@dataclass(frozen=True)
class ScenarioRecord:
    """Flattened per-scenario sweep row; exactly the fields the aggregate
    tables and figures need."""

    p_x: float
    pi0: int
    beta0: float
    beta_x: float
    beta_t: float
    beta_xt: float
    polarity: OutcomePolarity
    cate0: float
    cate1: float
    auc_pre: float
    auc_post: float
    auc_delta: float
    self_fulfilling: bool
    sign_bt: int
    sign_bt_plus_bxt: int
    harmful_marginal: bool
    verdict: Verdict
    calibrated_post: bool
    avg_treatment_beneficial: bool


CSV_COLUMNS = tuple(f.name for f in fields(ScenarioRecord))


def record_from_report(report: DeploymentReport) -> ScenarioRecord:
    p = report.params
    cate = report.po.cate
    avg_effect = p.p_x * cate[1] + (1.0 - p.p_x) * cate[0]
    return ScenarioRecord(
        p_x=p.p_x,
        pi0=p.pi0,
        beta0=p.beta0,
        beta_x=p.beta_x,
        beta_t=p.beta_t,
        beta_xt=p.beta_xt,
        polarity=p.polarity,
        cate0=cate[0],
        cate1=cate[1],
        auc_pre=report.discrimination_pre.auc,
        auc_post=report.discrimination_post.auc,
        auc_delta=report.auc_delta,
        self_fulfilling=report.self_fulfilling,
        sign_bt=effect_sign(p, 0),
        sign_bt_plus_bxt=effect_sign(p, 1),
        harmful_marginal=report.harm.harmful_marginal,
        verdict=report.verdict,
        calibrated_post=report.calibration_post.is_calibrated,
        avg_treatment_beneficial=sign_with_band(
            p.polarity.favorable_sign * avg_effect
        )
        > 0,
    )


def run_sweep(grid: GridSpec) -> list[ScenarioRecord]:
    """Evaluate every retained scenario, in canonical order.

    Evaluations are independent (pure functions) and could run in parallel;
    the full default grid takes milliseconds sequentially, so this runs
    in-order and the output order is the expansion order by construction.
    Settings whose p(Y=1) rounds to 0 or 1 (possible only in hand-built
    grids with saturated log-odds) are excluded, never raised.
    """
    records = []
    for params in expand_and_filter(grid):
        try:
            records.append(record_from_report(evaluate_scenario(params)))
        except DegenerateOutcome:
            continue
    return records


SIGN_CELLS = tuple((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1))


def aggregate_sign_table(
    records: list[ScenarioRecord],
) -> dict[tuple[int, int], tuple[int, int]]:
    """Counts of (self-fulfilling, not) per (sign beta_t, sign beta_t+beta_xt)."""
    sf = {cell: 0 for cell in SIGN_CELLS}
    nsf = {cell: 0 for cell in SIGN_CELLS}
    for r in records:
        cell = (r.sign_bt, r.sign_bt_plus_bxt)
        if r.self_fulfilling:
            sf[cell] += 1
        else:
            nsf[cell] += 1
    return {cell: (sf[cell], nsf[cell]) for cell in SIGN_CELLS}


HARM_ROWS = tuple(
    (pol, pi0, sf)
    for pol in (OutcomePolarity.UNDESIRABLE, OutcomePolarity.DESIRABLE)
    for pi0 in (0, 1)
    for sf in (True, False)
)


def aggregate_harm_table(
    records: list[ScenarioRecord],
) -> dict[tuple[OutcomePolarity, int, bool], tuple[int, int]]:
    """(harmful, total) counts per (polarity, pi0, self-fulfilling), with
    no-change scenarios excluded so each row is purely one orientation."""
    table = {row: (0, 0) for row in HARM_ROWS}
    for r in records:
        if r.verdict is Verdict.NO_CHANGE:
            continue
        key = (r.polarity, r.pi0, r.self_fulfilling)
        harmed, total = table[key]
        table[key] = (harmed + int(r.harmful_marginal), total + 1)
    return table


def filter_avg_beneficial(records: list[ScenarioRecord]) -> list[ScenarioRecord]:
    """Scenarios whose prevalence-weighted treatment effect is strictly
    favorable; the realistic subset (treatments reach the market only after
    demonstrating average benefit)."""
    return [r for r in records if r.avg_treatment_beneficial]


# ---------------------------------------------------------------------------
# Cross-check against the published reference tabulation of this experiment.

# Reference sign-table counts as printed: columns (self-fulfilling, not).
REFERENCE_SIGN_TABLE = {
    (-1, -1): (1508, 0),
    (-1, 0): (100, 100),
    (-1, 1): (200, 200),
    (0, -1): (140, 40),
    (0, 0): (0, 40),
    (0, 1): (0, 200),
    (1, -1): (320, 44),
    (1, 0): (0, 180),
    (1, 1): (0, 1560),
}
REFERENCE_SIGN_TOTAL = 4632  # sum of the printed counts

ORIENTATION_NOTE = (
    "The reference tabulation's self-fulfilling columns are oriented the "
    "opposite way (its printed table matches this one with the two count "
    "columns exchanged, i.e. it counted AUC strictly decreasing); this tool "
    "follows the definition 'AUC stays equal or rises', under which "
    "uniformly nonnegative treatment effects are always self-fulfilling."
)


def is_default_grid(records: list[ScenarioRecord]) -> bool:
    """Whether the records hold exactly the default grid's retained
    settings, in order: the only record set the published reference
    tabulation describes."""
    return list(map(param_values, records)) == list(
        _retained_settings(default_grid())
    )


def reference_delta(
    sign_table: dict[tuple[int, int], tuple[int, int]],
    retained: int,
) -> dict:
    """Per-cell comparison with the reference tabulation.

    Compares the reference against this table with columns exchanged (the
    orientation difference) and reports every remaining count difference,
    plus the total gap; the reference's equality filter retained a few
    settings this tool removes structurally.
    """
    cell_deltas = {}
    for cell in SIGN_CELLS:
        ours_sf, ours_nsf = sign_table[cell]
        ref_sf, ref_nsf = REFERENCE_SIGN_TABLE[cell]
        d = (ref_sf - ours_nsf, ref_nsf - ours_sf)
        if d != (0, 0):
            cell_deltas[cell] = d
    return {
        "retained": retained,
        "reference_total": REFERENCE_SIGN_TOTAL,
        "count_delta": REFERENCE_SIGN_TOTAL - retained,
        "cell_deltas_after_orientation_swap": {
            f"({a},{b})": list(d) for (a, b), d in sorted(cell_deltas.items())
        },
        "orientation_note": ORIENTATION_NOTE,
    }


# ---------------------------------------------------------------------------
# CSV round trip. Floats use repr (shortest round-trip form) so reruns are
# byte-identical; booleans are true/false, signs -1/0/1.


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (OutcomePolarity, Verdict)):
        return value.value
    return str(value)


def records_to_csv_rows(records: list[ScenarioRecord]):
    yield list(CSV_COLUMNS)
    for r in records:
        yield [_format_value(getattr(r, c)) for c in CSV_COLUMNS]


def write_records_csv(records: list[ScenarioRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(records_to_csv_rows(records))


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


# One parser per CSV column, from the field's type: the type itself parses
# its cell (int, float and the two enums by value), except bool.
_CELL_PARSERS = tuple(
    _parse_bool if t is bool else t
    for t in map(get_type_hints(ScenarioRecord).get, CSV_COLUMNS)
)


def read_records_csv(path) -> list[ScenarioRecord]:
    """Parse a sweep CSV; a bad header, row width or cell raises ConfigError
    naming the file, the line and (for a cell) the column. Undecodable bytes
    become U+FFFD, which no header or cell accepts."""
    with open(path, newline="", errors="replace") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_COLUMNS):
            raise ConfigError([f"{path}: unexpected CSV header: {header!r}"])
        records = []
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise ConfigError([
                    f"{path}: line {reader.line_num}: expected "
                    f"{len(CSV_COLUMNS)} cells, got {len(row)}"
                ])
            values = []
            try:
                for column, parse, cell in zip(CSV_COLUMNS, _CELL_PARSERS, row):
                    values.append(parse(cell))
            except ValueError as exc:
                raise ConfigError([
                    f"{path}: line {reader.line_num}, column {column}: {exc}"
                ]) from None
            records.append(ScenarioRecord(*values))
        return records
