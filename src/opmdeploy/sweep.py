"""The grid experiment: expand, filter, evaluate, aggregate.

The default grid crosses two X prevalences, both constant historic
policies, one intercept, five X effects, eleven treatment effects, eleven
interaction effects, and both outcome polarities: 4840 settings. Settings
whose historic conditionals coincide (a constant fitted predictor) are
removed structurally before evaluation.

A grid is evaluated column-wise by `record_columns`, CHUNK settings at a
time: it calls the `scenario` functions behind every decision and every
float of the per-scenario path `record_from_report(evaluate_scenario(p))`
on columns, which the tests hold it to cell for cell. Records stay columns
through the CSV writer, the reader and the aggregations.

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
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np

from .classify import Verdict, verdict_from_signs
from .errors import ConfigError

# `evaluate_scenario` is the per-scenario path whose reports
# `record_from_report` flattens: the kernel's oracle.
from .report import DeploymentReport, evaluate_scenario  # noqa: F401
from .scenario import (
    PARAM_FIELDS,
    OutcomePolarity,
    Policy,
    PotentialOutcomes,
    ScenarioParams,
    avg_effect_sign,
    deployment_signs,
    effect_sign,
    field_problems,
    historic_policy,
    historic_step_sign,
    log_odds,
    logistic,
    observed_distribution,
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
        avg_treatment_beneficial=p.polarity.favorable_sign
        * avg_effect_sign(p, *cate)
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

    @staticmethod
    def join(chunks) -> Records:
        """One `Records` of the chunks' rows, in order (at least one chunk)."""
        columns = [chunk.columns for chunk in chunks]
        return Records({name: np.concatenate([c[name] for c in columns]) for name in CSV_COLUMNS})

    def __len__(self) -> int:
        return len(self.columns["p_x"])

    def where(self, **values) -> Records:
        """The records whose fields hold the given values (enum members
        for the enum fields), in order."""
        keep = np.ones(len(self), dtype=bool)
        for name, value in values.items():
            members = _MEMBERS.get(_COLUMN_TYPES[name])
            keep &= self.columns[name] == (value if members is None else members.index(value))
        return Records({name: column[keep] for name, column in self.columns.items()})

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


def _settings(grid: GridSpec, start: int, stop: int):
    """Settings [start, stop) of the grid's canonical order (the Cartesian
    product of its lists, the last varying fastest) minus the structurally
    degenerate ones: one array per `ScenarioParams` field, and how many
    were removed."""
    arrays = grid.arrays
    index = np.unravel_index(np.arange(start, stop), tuple(map(len, arrays)))
    values = [a[i] for a, i in zip(arrays, index)]
    _, pi0, _, beta_x, _, beta_xt, _ = values
    kept = historic_step_sign(pi0, beta_x, beta_xt) != 0
    removed = stop - start - int(np.count_nonzero(kept))
    return dict(zip(PARAM_FIELDS, (v[kept] for v in values))), removed


def _logistic(eta: np.ndarray) -> np.ndarray:
    """`logistic` itself on each distinct value (numpy's exp differs from
    libm's in the last ulp)."""
    distinct, where = np.unique(eta, return_inverse=True)
    return np.array([logistic(e) for e in distinct.tolist()])[where]


def _auc(dist, top):
    """`metrics.discrimination`'s AUC at each row's operating point `top`."""
    (j00, j01), (j10, j11) = dist.joint
    sens = np.where(top, j11, j01) / dist.p_y1
    spec = np.where(top, j00, j10) / (1.0 - dist.p_y1)
    return 0.5 * (sens + spec)


def record_columns(grid: GridSpec, start: int = 0, stop: int | None = None):
    """The sweep kernel: the records of settings [start, stop) of the grid
    (all of them by default), with how many were excluded as structurally
    degenerate and as unrepresentable.

    Each column holds what `record_from_report(evaluate_scenario(p))` holds
    for each retained setting: the decisions and the floats come from the
    same `scenario` functions, called on columns, and the four outcome
    probabilities from `logistic` itself. A setting whose p(Y=1) before or
    after deployment is not strictly between 0 and 1 (where
    `evaluate_scenario` raises DegenerateOutcome) is unrepresentable.
    """
    stop = grid.cardinality if stop is None else stop
    # Sums of |beta| near 1e308 overflow and excluded settings divide by
    # zero, as on the scalar path, which warns of neither.
    with np.errstate(all="ignore"):
        s, structural = _settings(grid, start, stop)
        c = SimpleNamespace(**s)
        po = PotentialOutcomes(
            [[_logistic(log_odds(c, t, x)) for x in (0, 1)] for t in (0, 1)]
        )
        _, top, _, sign = deployment_signs(c)
        verdict = _VERDICT_CODES[c.polarity, c.pi0, sign + 1]
        pre = observed_distribution(po, historic_policy(c.pi0), c.p_x)
        post = observed_distribution(po, Policy((1 - top, top)), c.p_x)
        auc_pre, auc_post = _auc(pre, top), _auc(post, top)
        cate0, cate1 = po.cate
        columns = {
            **s,
            "cate0": cate0,
            "cate1": cate1,
            "auc_pre": auc_pre,
            "auc_post": auc_post,
            "auc_delta": auc_post - auc_pre,
            "self_fulfilling": sign >= 0,
            "sign_bt": effect_sign(c, 0),
            "sign_bt_plus_bxt": effect_sign(c, 1),
            "harmful_marginal": verdict == _HARMFUL,
            "verdict": verdict,
            "calibrated_post": sign == 0,
            "avg_treatment_beneficial": _FAVORABLE_SIGN[c.polarity]
            * avg_effect_sign(c, cate0, cate1)
            > 0,
        }
    representable = (
        (0.0 < pre.p_y1) & (pre.p_y1 < 1.0) & (0.0 < post.p_y1) & (post.p_y1 < 1.0)
    )
    unrepresentable = len(representable) - int(np.count_nonzero(representable))
    records = Records({name: columns[name][representable] for name in CSV_COLUMNS})
    return records, structural, unrepresentable


class GridRecords:
    """A grid's records, computed by `record_columns` CHUNK settings at a
    time each time they are read, so a grid of any size streams to disk in
    flat memory. Sized: a first read of the whole grid counts them."""

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
    settings, _ = _settings(grid, 0, grid.cardinality)
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


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # no sweep writes one
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


def _cell_parser(name: str, kind: type):
    """Parse one cell of the column: finite floats, the enums by value (to
    their codes), pi0 as 0 or 1, the signs as -1, 0 or 1."""
    if kind is float:
        return _parse_float
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


def _parse_column(name: str, cells: tuple[str, ...]) -> np.ndarray:
    """The column's array, each distinct cell parsed once; ValueError if
    one does not parse."""
    parse, distinct = _CELL_PARSERS[name], set(cells)
    parsed = dict(zip(distinct, map(parse, distinct)))
    dtype = _DTYPES.get(_COLUMN_TYPES[name], np.int8)  # int8: enum codes
    return np.fromiter(map(parsed.__getitem__, cells), dtype, len(cells))


def _parse_block(path, block: list) -> dict[str, np.ndarray]:
    """Columns of a block of (data row, line csv.reader reached after it)
    pairs. On a fault, one pass over the rows raises ConfigError on the
    first: a row's width, then its cells left to right."""
    width = len(CSV_COLUMNS)
    rows = [row for row, _ in block]
    if all(len(row) == width for row in rows):
        try:
            return dict(zip(CSV_COLUMNS, map(_parse_column, CSV_COLUMNS, zip(*rows))))
        except ValueError:
            pass
    for row, line in block:
        if len(row) != width:
            raise ConfigError([f"{path}: line {line}: expected {width} cells, got {len(row)}"])
        for name, cell in zip(CSV_COLUMNS, row):
            try:
                _CELL_PARSERS[name](cell)
            except ValueError as exc:
                raise ConfigError([f"{path}: line {line}, column {name}: {exc}"]) from None


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
        # typed empty columns, for a file with no rows
        blocks = [Records({name: _parse_column(name, ()) for name in CSV_COLUMNS})]
        while block := [(row, reader.line_num) for row in itertools.islice(reader, _ROWS)]:
            blocks.append(Records(_parse_block(path, block)))
    return Records.join(blocks)
