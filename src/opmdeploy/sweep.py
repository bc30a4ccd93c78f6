"""The grid experiment: expand, filter, evaluate, aggregate.

The default grid crosses two X prevalences, both constant historic
policies, one intercept, five X effects, eleven treatment effects, eleven
interaction effects, and both outcome polarities: 4840 settings. Settings
whose historic conditionals coincide (a constant fitted predictor) are
removed structurally before evaluation.

A grid is evaluated column-wise by `record_columns`, CHUNK settings at a
time: every decision is sign arithmetic on the log-odds coefficients, and
every float comes from the same IEEE operations, in the same order, as on
the per-scenario path `record_from_report(evaluate_scenario(p))`, which the
tests hold it to cell for cell. Records stay columns through the CSV
writer, the reader and the aggregations.

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
from functools import cached_property
from typing import get_type_hints

import numpy as np

from .classify import Verdict, verdict_from_signs
from .errors import ConfigError

# `evaluate_scenario` is the per-scenario path whose reports
# `record_from_report` flattens: the kernel's oracle.
from .report import DeploymentReport, evaluate_scenario  # noqa: F401
from .scenario import (
    EPS_EQ,
    PARAM_FIELDS,
    OutcomePolarity,
    ScenarioParams,
    effect_sign,
    field_problems,
    historic_step_sign,
    logistic,
    sign_with_band,
)

# Odds ratios behind the default grid's log-odds values.
_OR_STEPS = (1.1, 1.45, 1.8, 2.15, 2.5)
# The type each scenario field is stored as (float, int or the enum).
_PARAM_TYPES = get_type_hints(ScenarioParams)


def _symmetric_log_odds() -> tuple[float, ...]:
    # Negations of the same float, not log(1/v): matched beta_x + beta_xt
    # pairs then cancel exactly and the degenerate filter is structural.
    down = tuple(-math.log(v) for v in reversed(_OR_STEPS))
    up = tuple(math.log(v) for v in _OR_STEPS)
    return down + (0.0,) + up


@dataclass(frozen=True)
class GridSpec:
    """One list of values per `ScenarioParams` field, in field order; every
    value is checked as that field before any arithmetic reads it, then
    stored as `ScenarioParams` stores it (float, or int for pi0), so the
    filter and the evaluation read the same numbers."""

    p_x_values: tuple[float, ...]
    pi0_values: tuple[int, ...]
    beta0_values: tuple[float, ...]
    beta_x_values: tuple[float, ...]
    beta_t_values: tuple[float, ...]
    beta_xt_values: tuple[float, ...]
    polarities: tuple[OutcomePolarity, ...]

    def __post_init__(self):
        lists = {key: tuple(getattr(self, key)) for key in GRID_KEYS}
        problems = []
        for key, name in zip(GRID_KEYS, PARAM_FIELDS):
            if not lists[key]:
                problems.append(f"{key}: must be nonempty")
            problems += [
                f"{key}[{i}]: {problem}"
                for i, v in enumerate(lists[key])
                for problem in field_problems([(name, v)])
            ]
        if problems:
            raise ConfigError(problems)
        for key, name in zip(GRID_KEYS, PARAM_FIELDS):
            object.__setattr__(self, key, tuple(map(_PARAM_TYPES[name], lists[key])))

    def lists(self) -> tuple[tuple, ...]:
        """The value lists, in `ScenarioParams` field order."""
        return tuple(getattr(self, key) for key in GRID_KEYS)

    @property
    def cardinality(self) -> int:
        return math.prod(map(len, self.lists()))

    @cached_property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The value lists as arrays, polarities as codes into _POLARITIES."""
        *numbers, polarities = self.lists()
        codes = [_POLARITIES.index(p) for p in polarities]
        return (*map(np.array, numbers), np.array(codes, dtype=np.int8))


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


def expand_and_filter(grid: GridSpec) -> list[ScenarioParams]:
    """The retained settings of `grid`, validated, in canonical order (the
    Cartesian product of the lists, minus degenerate settings)."""
    return [
        ScenarioParams(*setting)
        for setting in itertools.product(*grid.lists())
        if not is_degenerate(setting[1], setting[3], setting[5])
    ]


@dataclass(frozen=True, slots=True)
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
_COLUMN_TYPES = get_type_hints(ScenarioRecord)


def record_from_report(report: DeploymentReport) -> ScenarioRecord:
    """One report as a sweep row: the per-scenario path `record_columns`
    must match."""
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


# ---------------------------------------------------------------------------
# Columns. Enum columns hold codes into these tuples.

_POLARITIES = tuple(OutcomePolarity)
_VERDICTS = tuple(Verdict)
_MEMBERS = {OutcomePolarity: _POLARITIES, Verdict: _VERDICTS}
_NO_CHANGE = _VERDICTS.index(Verdict.NO_CHANGE)
_HARMFUL = _VERDICTS.index(Verdict.HARMFUL)
_FAVORABLE_SIGN = np.array([p.favorable_sign for p in _POLARITIES])
# Verdict code by (polarity code, pi0, effect sign + 1), from the one lookup.
_VERDICT_CODES = np.array(
    [
        [[_VERDICTS.index(verdict_from_signs(pol, pi0, s)) for s in (-1, 0, 1)]
         for pi0 in (0, 1)]
        for pol in _POLARITIES
    ],
    dtype=np.int8,
)
_DTYPES = {float: np.float64, int: np.int8, bool: np.bool_}

# Settings the kernel evaluates at once: the sweep's memory is bounded by
# this, whatever the grid's size.
CHUNK = 1 << 14
# Rows converted at once between cells and columns, when reading a CSV or
# iterating rows: bounds the Python objects held beside the columns.
_ROWS = 1 << 7


class Records:
    """Sweep records as columns: one array per `ScenarioRecord` field, keyed
    by CSV column, the enums as codes. Sized; iterates as `ScenarioRecord`
    rows."""

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns["p_x"])

    def __iter__(self):
        for start in range(0, len(self), _ROWS):
            values = []
            for name in CSV_COLUMNS:
                column = self.columns[name][start:start + _ROWS].tolist()
                members = _MEMBERS.get(_COLUMN_TYPES[name])
                values.append(column if members is None else [members[i] for i in column])
            yield from map(ScenarioRecord, *values)

    def chunks(self):
        return (self,)


def _band_sign(values: np.ndarray) -> np.ndarray:
    """`sign_with_band`, elementwise."""
    return (values > EPS_EQ).astype(np.int8) - (values < -EPS_EQ)


def _settings(grid: GridSpec, start: int, stop: int):
    """Settings [start, stop) of the grid's canonical order (the Cartesian
    product of its lists, the last varying fastest) minus the structurally
    degenerate ones: one array per `ScenarioParams` field, the historic
    step sign of each, and how many were removed."""
    arrays = grid.arrays
    index = np.unravel_index(np.arange(start, stop), tuple(map(len, arrays)))
    values = [a[i] for a, i in zip(arrays, index)]
    _, pi0, _, beta_x, _, beta_xt, _ = values
    step = _band_sign(beta_x + beta_xt * pi0)  # historic_step_sign
    kept = step != 0
    removed = stop - start - int(np.count_nonzero(kept))
    return dict(zip(PARAM_FIELDS, (v[kept] for v in values))), step[kept], removed


def _logistic(eta: np.ndarray) -> np.ndarray:
    """`logistic` itself on each distinct value (numpy's exp differs from
    libm's in the last ulp)."""
    distinct, where = np.unique(eta, return_inverse=True)
    return np.array([logistic(e) for e in distinct.tolist()])[where]


def _observed(q, a0, a1, p_x):
    """`observed_distribution` under assignment (a0, a1): mu and p(Y=1)."""
    mu0 = (1 - a0) * q[0][0] + a0 * q[1][0]
    mu1 = (1 - a1) * q[0][1] + a1 * q[1][1]
    return mu0, mu1, (1.0 - p_x) * mu0 + p_x * mu1


def _auc(mu0, mu1, p_y1, top, p_x):
    """`metrics.discrimination`'s AUC at operating point `top`, from the
    joint cells as `observed_distribution` forms them."""
    sens = np.where(top == 1, p_x * mu1, (1.0 - p_x) * mu0) / p_y1
    spec = np.where(top == 1, (1.0 - p_x) * (1.0 - mu0), p_x * (1.0 - mu1)) / (
        1.0 - p_y1
    )
    return 0.5 * (sens + spec)


def record_columns(grid: GridSpec, start: int = 0, stop: int | None = None):
    """The sweep kernel: the records of settings [start, stop) of the grid
    (all of them by default), with how many were excluded as structurally
    degenerate and as unrepresentable.

    Each column holds what `record_from_report(evaluate_scenario(p))` holds
    for each retained setting: the four outcome probabilities come from
    `logistic` itself, every other float from the same `+ - * /` in the same
    order, and `top`, the changed group, the effect sign and the verdict
    from the same coefficient signs. A setting whose
    p(Y=1) before or after deployment is not strictly between 0 and 1
    (where `evaluate_scenario` raises DegenerateOutcome) is unrepresentable.
    """
    stop = grid.cardinality if stop is None else stop
    # Sums of |beta| near 1e308 overflow and excluded settings divide by
    # zero, as on the scalar path, which warns of neither.
    with np.errstate(all="ignore"):
        s, step, structural = _settings(grid, start, stop)
        p_x, pi0, beta0, beta_x, beta_t, beta_xt, polarity = s.values()
        q = [  # q[t][x], as `potential_outcomes`
            [_logistic(beta0 + beta_x * x + beta_t * t + beta_xt * x * t) for x in (0, 1)]
            for t in (0, 1)
        ]
        top = (step > 0).astype(np.int8)
        changed = top ^ pi0  # top under treat no one, the other group otherwise
        sign_bt = _band_sign(beta_t + beta_xt * 0)
        sign_bt_plus_bxt = _band_sign(beta_t + beta_xt * 1)
        sign = np.where(changed == 1, sign_bt_plus_bxt, sign_bt)
        verdict = _VERDICT_CODES[polarity, pi0, sign + 1]
        pre = _observed(q, pi0, pi0, p_x)
        post = _observed(q, 1 - top, top, p_x)
        auc_pre = _auc(*pre, top, p_x)
        auc_post = _auc(*post, top, p_x)
        cate0 = q[1][0] - q[0][0]
        cate1 = q[1][1] - q[0][1]
        avg_effect = p_x * cate1 + (1.0 - p_x) * cate0
        beneficial = _FAVORABLE_SIGN[polarity] * avg_effect > EPS_EQ
    representable = (0.0 < pre[2]) & (pre[2] < 1.0) & (0.0 < post[2]) & (post[2] < 1.0)
    columns = {
        **s,
        "cate0": cate0,
        "cate1": cate1,
        "auc_pre": auc_pre,
        "auc_post": auc_post,
        "auc_delta": auc_post - auc_pre,
        "self_fulfilling": sign >= 0,
        "sign_bt": sign_bt,
        "sign_bt_plus_bxt": sign_bt_plus_bxt,
        "harmful_marginal": verdict == _HARMFUL,
        "verdict": verdict,
        "calibrated_post": sign == 0,
        "avg_treatment_beneficial": beneficial,
    }
    unrepresentable = len(representable) - int(np.count_nonzero(representable))
    records = Records({name: columns[name][representable] for name in CSV_COLUMNS})
    return records, structural, unrepresentable


class GridRecords:
    """A grid's records, computed by `record_columns` CHUNK settings at a
    time each time they are read, so a grid of any size streams to disk in
    flat memory. Sized (a first read of the whole grid counts them) and
    iterable as rows."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._counts = None

    def chunks(self):
        counts = dict.fromkeys(("retained", "structural", "unrepresentable"), 0)
        cardinality = self.grid.cardinality
        for start in range(0, cardinality, CHUNK):
            records, structural, unrepresentable = record_columns(
                self.grid, start, min(start + CHUNK, cardinality)
            )
            counts["retained"] += len(records)
            counts["structural"] += structural
            counts["unrepresentable"] += unrepresentable
            yield records
        self._counts = counts

    def _counted(self) -> dict:
        if self._counts is None:
            for _ in self.chunks():
                pass
        return self._counts

    def __len__(self) -> int:
        return self._counted()["retained"]

    @property
    def exclusions(self) -> dict[str, int]:
        """Settings removed, by reason: structurally degenerate, or p(Y=1)
        not strictly between 0 and 1."""
        counts = self._counted()
        return {k: counts[k] for k in ("structural", "unrepresentable")}

    def __iter__(self):
        for records in self.chunks():
            yield from records


SIGN_CELLS = tuple((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1))


def aggregate_sign_table(records) -> dict[tuple[int, int], tuple[int, int]]:
    """Counts of (self-fulfilling, not) per (sign beta_t, sign beta_t+beta_xt)."""
    counts = np.zeros(2 * len(SIGN_CELLS), dtype=np.int64)
    for chunk in records.chunks():
        c = chunk.columns
        key = (
            6 * (c["sign_bt"].astype(np.intp) + 1)
            + 2 * (c["sign_bt_plus_bxt"] + 1)
            + ~c["self_fulfilling"]
        )
        counts += np.bincount(key, minlength=len(counts))
    sf, nsf = counts.reshape(-1, 2).T.tolist()
    return dict(zip(SIGN_CELLS, zip(sf, nsf)))


HARM_ROWS = tuple(
    (pol, pi0, sf)
    for pol in (OutcomePolarity.UNDESIRABLE, OutcomePolarity.DESIRABLE)
    for pi0 in (0, 1)
    for sf in (True, False)
)
# The block of HARM_ROWS each polarity code heads.
_HARM_BLOCK = np.array(
    [(OutcomePolarity.UNDESIRABLE, OutcomePolarity.DESIRABLE).index(p) for p in _POLARITIES]
)


def aggregate_harm_table(
    records,
) -> dict[tuple[OutcomePolarity, int, bool], tuple[int, int]]:
    """(harmful, total) counts per (polarity, pi0, self-fulfilling), with
    no-change scenarios excluded so each row is purely one orientation."""
    harmed = np.zeros(len(HARM_ROWS), dtype=np.int64)
    total = np.zeros(len(HARM_ROWS), dtype=np.int64)
    for chunk in records.chunks():
        c = chunk.columns
        key = 4 * _HARM_BLOCK[c["polarity"]] + 2 * c["pi0"] + ~c["self_fulfilling"]
        changed = c["verdict"] != _NO_CHANGE
        total += np.bincount(key[changed], minlength=len(total))
        harmed += np.bincount(key[changed & c["harmful_marginal"]], minlength=len(total))
    return dict(zip(HARM_ROWS, zip(harmed.tolist(), total.tolist())))


def filter_avg_beneficial(records) -> list[ScenarioRecord]:
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


def is_default_grid(records: Records) -> bool:
    """Whether the records hold exactly the default grid's retained
    settings, in order: the only record set the published reference
    tabulation describes."""
    grid = default_grid()
    settings, _, _ = _settings(grid, 0, grid.cardinality)
    return all(
        np.array_equal(records.columns[name], settings[name]) for name in PARAM_FIELDS
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
# CSV round trip, a column at a time. Floats use repr (shortest round-trip
# form) so reruns are byte-identical; booleans are true/false, signs -1/0/1.

# Cell text by value (ints: index -1 is the last entry) or code.
_CELL_TEXT = {
    int: np.array(["0", "1", "-1"], dtype=object),
    bool: np.array(["false", "true"], dtype=object),
    **{t: np.array([m.value for m in members], dtype=object) for t, members in _MEMBERS.items()},
}


def _column_cells(kind: type, values: np.ndarray) -> np.ndarray:
    if kind is float:
        # repr once per distinct bit pattern, which keeps 0.0 and -0.0 apart
        bits, where = np.unique(values.view(np.int64), return_inverse=True)
        text = list(map(repr, bits.view(np.float64).tolist()))
        return np.array(text, dtype=object)[where]
    return _CELL_TEXT[kind][values.astype(np.intp)]


def write_records_csv(records, path) -> None:
    """Write `Records` or `GridRecords` as a sweep CSV, one chunk at a time,
    each column formatted at once."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for chunk in records.chunks():
            cells = [
                _column_cells(_COLUMN_TYPES[name], chunk.columns[name]).tolist()
                for name in CSV_COLUMNS
            ]
            fh.writelines(map("{}\n".format, map(",".join, zip(*cells))))


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


def _cell_parser(name: str, kind: type):
    """Parse one cell of the column: floats as float, the enums by value
    (to their codes), pi0 as 0 or 1, the signs as -1, 0 or 1."""
    if kind is float:
        return float
    if kind is bool:
        return _parse_bool
    if kind in _MEMBERS:
        codes = {m: i for i, m in enumerate(_MEMBERS[kind])}
        return lambda text: codes[kind(text)]
    allowed = (0, 1) if name == "pi0" else (-1, 0, 1)

    def parse_int(text: str) -> int:
        value = int(text)
        if value not in allowed:
            raise ValueError(f"expected one of {allowed}, got {text!r}")
        return value

    return parse_int


_CELL_PARSERS = {name: _cell_parser(name, kind) for name, kind in _COLUMN_TYPES.items()}


def _parse_column(name: str, cells: tuple[str, ...]):
    """The column's array, or the first row whose cell does not parse and
    why: each distinct cell is parsed once."""
    parse, distinct = _CELL_PARSERS[name], set(cells)
    try:
        parsed = dict(zip(distinct, map(parse, distinct)))
    except ValueError:
        errors = {}
        for cell in distinct:
            try:
                parse(cell)
            except ValueError as exc:
                errors[cell] = exc
        row = next(i for i, cell in enumerate(cells) if cell in errors)
        return None, (row, errors[cells[row]])
    dtype = _DTYPES.get(_COLUMN_TYPES[name], np.int8)  # int8: enum codes
    return np.fromiter(map(parsed.__getitem__, cells), dtype, len(cells)), None


def _line_number(path, row: int) -> int:
    """The line csv.reader has reached after data row `row` (quoted
    newlines can put it past row + 2)."""
    with open(path, newline="", errors="replace") as fh:
        reader = csv.reader(fh)
        for _ in itertools.islice(reader, row + 2):
            pass
        return reader.line_num


def _parse_rows(path, first: int, rows: list[list[str]]) -> dict[str, np.ndarray]:
    """Columns of data rows first, first + 1, ...; ConfigError on the first
    fault among them."""
    width = len(CSV_COLUMNS)
    short = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    cells = zip(*rows[:short]) if short else [()] * width
    columns, fault = {}, None
    for name, column in zip(CSV_COLUMNS, cells):
        columns[name], bad = _parse_column(name, column)
        if bad is not None and (fault is None or bad[0] < fault[0]):
            fault = (*bad, name)
    if fault is not None:
        row, exc, name = fault
        raise ConfigError(
            [f"{path}: line {_line_number(path, first + row)}, column {name}: {exc}"]
        )
    if short < len(rows):
        raise ConfigError([
            f"{path}: line {_line_number(path, first + short)}: expected "
            f"{width} cells, got {len(rows[short])}"
        ])
    return columns


def read_records_csv(path) -> Records:
    """Parse a sweep CSV column by column; a bad header, row width or cell
    raises ConfigError naming the file, the line and (for a cell) the
    column of the first fault in the file. Undecodable bytes become U+FFFD,
    which no header or cell accepts."""
    with open(path, newline="", errors="replace") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_COLUMNS):
            raise ConfigError([f"{path}: unexpected CSV header: {header!r}"])
        blocks, first = [], 0
        while rows := list(itertools.islice(reader, _ROWS)):
            blocks.append(_parse_rows(path, first, rows))
            first += len(rows)
    if not blocks:
        blocks.append(_parse_rows(path, 0, []))
    return Records({
        name: np.concatenate([block[name] for block in blocks]) for name in CSV_COLUMNS
    })
