"""The grid experiment: expand, filter, evaluate, aggregate.

The default grid crosses two X prevalences, both constant historic
policies, one intercept, five X effects, eleven treatment effects, eleven
interaction effects, and both outcome polarities: 4840 settings. Settings
whose historic conditionals coincide (a constant fitted predictor) are
removed structurally before evaluation.

A grid is evaluated column-wise by `record_columns`, CHUNK settings at a
time: it calls the `scenario` and `metrics` functions behind every
decision and every float of the per-scenario path
`record_from_report(evaluate_scenario(p))` on columns, which the tests
hold it to cell for cell, and adds only the chunking, the masks and the
enum codes. Records stay columns through the CSV writer, the reader and
the aggregations. A grid's records, or a sweep CSV's, are one `Stream`:
chunks made as they are read (`grid_records`, `csv_records`), which every
command reads the same way, and `aggregate_tables` sums in one pass.

Aggregations reproduce two published reference tables; where this tool's
structural filter and self-fulfilling orientation differ from the
reference tabulation, the delta is computed and surfaced, never hidden
(see `reference_delta`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import cache, cached_property
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np

from .classify import Verdict, benefit_sign
from .errors import ConfigError
from .metrics import discrimination

# `evaluate_scenario` is the per-scenario path whose reports
# `record_from_report` flattens: the kernel's oracle.
from .report import DeploymentReport, evaluate_scenario  # noqa: F401
from .scenario import (
    PARAM_FIELDS,
    OutcomePolarity,
    ScenarioParams,
    avg_effect_sign,
    deployment_signs,
    effect_sign,
    field_problems,
    historic_step_sign,
    observed_distribution,
    potential_outcomes,
)

# Odds ratios behind the default grid's log-odds values.
_OR_STEPS = (1.1, 1.45, 1.8, 2.15, 2.5)
# The type each scenario field is stored as (float, int or the enum).
_PARAM_TYPES = get_type_hints(ScenarioParams)
# The most settings `_settings` can index.
_MAX_SETTINGS = np.iinfo(np.intp).max


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
        if (settings := math.prod(map(len, lists.values()))) > _MAX_SETTINGS:
            problems.append(f"grid: {settings} settings, past the {_MAX_SETTINGS} a sweep can index")
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


def expand_and_filter(grid: GridSpec) -> list[ScenarioParams]:
    """The retained settings of `grid`, validated, in canonical order (the
    Cartesian product of the lists, minus degenerate settings)."""
    return [
        ScenarioParams(*setting)
        for setting in itertools.product(*grid.lists())
        if historic_step_sign(setting[1], setting[3], setting[5]) != 0
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
# int8 for the ints and the enum codes
_COLUMN_DTYPES = {
    name: {float: np.float64, bool: np.bool_}.get(kind, np.int8)
    for name, kind in _COLUMN_TYPES.items()
}

# Settings the kernel evaluates at once: the sweep's memory is bounded by
# this, whatever the grid's size.
CHUNK = 1 << 14
# Rows made at once from the columns when iterating rows: bounds the Python
# objects held beside the columns.
_ROWS = 1 << 7


class Records:
    """Sweep records as columns: one array per `ScenarioRecord` field, keyed
    by CSV column, the enums as codes. Sized; iterates as `ScenarioRecord`
    rows; read as a `Stream` is, as its one chunk."""

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns

    @staticmethod
    def join(chunks, names=CSV_COLUMNS) -> Records:
        """One `Records` of the chunks' rows, in order, holding the named
        columns: a chunk's other columns are not kept."""
        columns = [{name: chunk.columns[name] for name in names} for chunk in chunks]
        if not columns:
            return Records({name: np.empty(0, _COLUMN_DTYPES[name]) for name in names})
        return Records({name: np.concatenate([c[name] for c in columns]) for name in names})

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def mask(self, **values) -> np.ndarray:
        """Which records' fields hold the given values (enum members for
        the enum fields), as a boolean column."""
        keep = np.ones(len(self), dtype=bool)
        for name, value in values.items():
            members = _MEMBERS.get(_COLUMN_TYPES[name])
            keep &= self.columns[name] == (value if members is None else members.index(value))
        return keep

    def where(self, **values) -> Records:
        """The records `mask(**values)` picks, in order."""
        keep = self.mask(**values)
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


def record_columns(grid: GridSpec, start: int = 0, stop: int | None = None):
    """The sweep kernel: the records of settings [start, stop) of the grid
    (all of them by default), with how many were excluded as structurally
    degenerate and as unrepresentable.

    Each column holds what `record_from_report(evaluate_scenario(p))` holds
    for each retained setting: the decisions and the floats come from the
    same `scenario` and `metrics` functions, called on columns. A setting
    whose AUC before or after deployment is not finite (where
    `discrimination` raises DegenerateOutcome on floats) is
    unrepresentable.
    """
    stop = grid.cardinality if stop is None else stop
    # Sums of |beta| near 1e308 overflow and excluded settings divide by
    # zero, as on the scalar path, which warns of neither.
    with np.errstate(all="ignore"):
        s, structural = _settings(grid, start, stop)
        c = SimpleNamespace(**s)
        po = potential_outcomes(c)
        _, top, _, sign = deployment_signs(c)
        # A verdict's code is its benefit sign modulo 3: -1 is the last member,
        # as in VERDICT_BY_BENEFIT. int8, the dtype the CSV reader gives it.
        verdict = (benefit_sign(_FAVORABLE_SIGN[c.polarity], c.pi0, sign) % 3).astype(np.int8)
        pre = observed_distribution(po, (c.pi0, c.pi0), c.p_x)
        post = observed_distribution(po, (1 - top, top), c.p_x)
        auc_pre, auc_post = (discrimination(d, top).auc for d in (pre, post))
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
    representable = np.isfinite(auc_pre) & np.isfinite(auc_post)
    unrepresentable = len(representable) - int(np.count_nonzero(representable))
    records = Records({name: columns[name][representable] for name in CSV_COLUMNS})
    return records, structural, unrepresentable


class Stream:
    """Records made a chunk at a time by `make(counts)` as they are read, so
    any number of them streams in flat memory. When one chunk holds them
    all, it is made once and kept. Sized: a first read fills `counts`, the
    records retained and what `make` adds to them."""

    def __init__(self, make):
        self._make = make
        self._counts = None
        self._chunk = None

    def chunks(self):
        return self._stream() if self._chunk is None else (self._chunk,)

    def _stream(self):
        counts = {"retained": 0}
        made = 0
        for made, records in enumerate(self._make(counts), 1):
            counts["retained"] += len(records)
            yield records
        self._counts = counts
        if made == 1:
            self._chunk = records

    @property
    def counts(self) -> dict[str, int]:
        if self._counts is None:
            for _ in self.chunks():
                pass
        return self._counts

    def __len__(self) -> int:
        return self.counts["retained"]


def grid_records(grid: GridSpec) -> Stream:
    """A grid's records, computed by `record_columns` as they are read, so a
    grid of any size streams to disk in flat memory; the default grid fits
    in one chunk and is evaluated once. Its counts add the settings removed,
    by reason: structurally degenerate, or p(Y=1) not strictly between 0
    and 1."""

    def make(counts):
        counts.update(structural=0, unrepresentable=0)
        for start in range(0, grid.cardinality, CHUNK):
            stop = min(start + CHUNK, grid.cardinality)
            records, structural, unrepresentable = record_columns(grid, start, stop)
            counts["structural"] += structural
            counts["unrepresentable"] += unrepresentable
            yield records

    return Stream(make)


def csv_records(path) -> Stream:
    """A sweep CSV's records, parsed by `read_csv_chunks` as they are read,
    so the tables of a file of any size are summed in flat memory. A file
    that holds exactly the bytes of the last one-chunk CSV this process
    wrote (`write_records_csv`) is not parsed: its kept records are the
    stream's one chunk. Only the bytes decide, compared whole (at most one
    byte past the kept length is read), so an edited, truncated, CRLF or
    rewritten file is parsed; a file that cannot seek, such as a pipe, is
    parsed with no byte read for the comparison."""

    def make(counts):
        data, records = _written or (None, ())  # one read: a pair replaced whole
        if data is not None and len(records) <= CHUNK:  # one chunk, as when parsed
            with open(path, "rb") as fh:
                if fh.seekable() and fh.read(len(data) + 1) == data:
                    return (records,)
        return read_csv_chunks(path)

    return Stream(make)


SIGN_CELLS = tuple((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1))
HARM_ROWS = tuple(
    (pol, pi0, sf)
    for pol in _POLARITIES
    for pi0 in (0, 1)
    for sf in (True, False)
)


def aggregate_tables(records):
    """The sign table and the harm table, reading the records once.

    The sign table counts (self-fulfilling, not) per (sign beta_t, sign
    beta_t+beta_xt). The harm table counts (harmful, total) per (polarity,
    pi0, self-fulfilling), with no-change scenarios excluded so each row is
    purely one orientation.
    """
    sign = np.zeros(2 * len(SIGN_CELLS), dtype=np.int64)
    harmed = np.zeros(len(HARM_ROWS), dtype=np.int64)
    total = np.zeros(len(HARM_ROWS), dtype=np.int64)
    for chunk in records.chunks():
        c = chunk.columns
        not_sf = ~c["self_fulfilling"]
        key = 6 * (c["sign_bt"].astype(np.intp) + 1) + 2 * (c["sign_bt_plus_bxt"] + 1) + not_sf
        sign += np.bincount(key, minlength=len(sign))
        key = 4 * c["polarity"] + 2 * c["pi0"] + not_sf
        changed = c["verdict"] != _NO_CHANGE
        total += np.bincount(key[changed], minlength=len(total))
        harmed += np.bincount(key[changed & c["harmful_marginal"]], minlength=len(total))
    sf, nsf = sign.reshape(-1, 2).T.tolist()
    harm = zip(harmed.tolist(), total.tolist())
    return dict(zip(SIGN_CELLS, zip(sf, nsf))), dict(zip(HARM_ROWS, harm))


def aggregate_sign_table(records) -> dict[tuple[int, int], tuple[int, int]]:
    """The sign table of `aggregate_tables`."""
    return aggregate_tables(records)[0]


def aggregate_harm_table(records) -> dict[tuple[OutcomePolarity, int, bool], tuple[int, int]]:
    """The harm table of `aggregate_tables`."""
    return aggregate_tables(records)[1]


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
REFERENCE_SIGN_TOTAL = sum(map(sum, REFERENCE_SIGN_TABLE.values()))

ORIENTATION_NOTE = (
    "The reference tabulation's self-fulfilling columns are oriented the "
    "opposite way (its printed table matches this one with the two count "
    "columns exchanged, i.e. it counted AUC strictly decreasing); this tool "
    "follows the definition 'AUC stays equal or rises', under which "
    "uniformly nonnegative treatment effects are always self-fulfilling."
)


# How many of the default grid's settings are retained.
DEFAULT_RETAINED = 4620


def is_default_grid(records) -> bool:
    """Whether the records (`Records` or a chunk stream) hold exactly the
    default grid's retained settings, in order: the only record set the
    published reference tabulation describes. Records of another size are
    not read again, and the default grid is not built for them."""
    if len(records) != DEFAULT_RETAINED:
        return False
    settings = _default_settings()
    columns = Records.join(records.chunks(), PARAM_FIELDS).columns
    return all(np.array_equal(columns[name], settings[name]) for name in PARAM_FIELDS)


@cache
def _default_settings() -> dict[str, np.ndarray]:
    """The default grid's retained settings, built once per process:
    read-only columns, as `_settings` makes them."""
    grid = default_grid()
    settings, _ = _settings(grid, 0, grid.cardinality)
    for column in settings.values():
        column.flags.writeable = False
    return settings


def reference_delta(sign_table: dict[tuple[int, int], tuple[int, int]]) -> dict:
    """Per-cell comparison of the default grid's sign table with the
    reference tabulation.

    Compares the reference against this table with columns exchanged (the
    orientation difference) and reports every remaining count difference,
    plus the total gap. The reference has twelve more rows than this tool
    retains: settings with a zero log-odds step, a constant predictor this
    tool removes as degenerate, that a float test on f(0) == f(1) keeps
    where rounding separates the two fitted values
    (`tests/test_reference.py` reproduces the table by emulation).
    """
    cell_deltas = {}
    for cell in SIGN_CELLS:
        ours_sf, ours_nsf = sign_table[cell]
        ref_sf, ref_nsf = REFERENCE_SIGN_TABLE[cell]
        d = (ref_sf - ours_nsf, ref_nsf - ours_sf)
        if d != (0, 0):
            cell_deltas[cell] = d
    return {
        "retained": DEFAULT_RETAINED,
        "reference_total": REFERENCE_SIGN_TOTAL,
        "count_delta": REFERENCE_SIGN_TOTAL - DEFAULT_RETAINED,
        "cell_deltas_after_orientation_swap": {
            f"({a},{b})": list(d) for (a, b), d in sorted(cell_deltas.items())
        },
        "orientation_note": ORIENTATION_NOTE,
    }


# ---------------------------------------------------------------------------
# CSV round trip, a column at a time. Floats use repr (shortest round-trip
# form) so reruns are byte-identical; booleans are true/false, signs -1/0/1.

# Each token column's lowest value and its cell texts in value order: the
# values are one range.
_TOKENS = {
    name: (0, ["false", "true"]) if kind is bool
    else (0, ["0", "1"]) if name == "pi0"
    else (-1, ["-1", "0", "1"]) if kind is int
    else (0, [m.value for m in _MEMBERS[kind]])
    for name, kind in _COLUMN_TYPES.items() if kind is not float
}
# What follows each column's cells on a line, and the token texts with it.
_SEPARATOR = dict.fromkeys(CSV_COLUMNS, ",") | {CSV_COLUMNS[-1]: "\n"}
_TOKEN_CELLS = {name: (low, np.array(texts, dtype=object) + _SEPARATOR[name])
                for name, (low, texts) in _TOKENS.items()}
# Lines the writer joins into one string at once: bounds the text held
# beside a chunk's bytes. At 1024 the wide-grid benchmark's peak RSS rose
# 0.4 MB over joining one line at a time; at 512 it did not.
_SLICE = 1 << 9


def _distinct(fn, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fn of each distinct value of the column, as an object array, and
    each value's index in it: fn is called once per distinct bit pattern,
    which keeps 0.0 and -0.0 apart."""
    bits, where = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
    return np.array(list(map(fn, bits.view(column.dtype).tolist())), dtype=object), where


def map_distinct(fn, column: np.ndarray) -> np.ndarray:
    """fn of each value of the column, as an object array (see `_distinct`)."""
    values, where = _distinct(fn, column)
    return values[where]


def _refuse(name: str, unwritable: np.ndarray):
    raise ConfigError([f"column {name}: no sweep CSV cell holds {unwritable[0].item()!r}"])


def _column_cells(name: str, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column's distinct cell texts, each followed by its separator,
    and each value's index among them. Token codes that are not of an
    integer or bool dtype, a code outside the column's range of tokens or
    a float that is not finite raises ConfigError naming the column."""
    if name not in _TOKEN_CELLS:
        if not np.isfinite(values).all():
            _refuse(name, values[~np.isfinite(values)])
        texts, where = _distinct(repr, values)
        return texts + _SEPARATOR[name], where
    low, texts = _TOKEN_CELLS[name]
    if values.dtype.kind not in "biu":
        raise ConfigError([f"column {name}: token codes must be integers, not {values.dtype}"])
    if len(values) and (values.min() < low or values.max() >= low + len(texts)):
        _refuse(name, values[(values < low) | (values >= low + len(texts))])
    return texts, values.astype(np.intp) - low


def _cell_groups(chunk: Records) -> list[tuple[np.ndarray, np.ndarray]]:
    """The chunk's cells, neighbouring columns merged into one cell while
    the merged texts number at most a quarter of the chunk's rows: per
    cell, its distinct texts (the outer concatenation of its columns') and
    each row's index among them."""
    groups = []
    for name in CSV_COLUMNS:
        texts, where = _column_cells(name, chunk.columns[name])
        if groups and 4 * len(groups[-1][0]) * len(texts) <= len(chunk):
            head, head_where = groups.pop()
            texts, where = np.add.outer(head, texts).ravel(), head_where * len(texts) + where
        groups.append((texts, where))
    return groups


# The last sweep CSV this process wrote in one chunk, as (its bytes, its
# records as `read_csv_chunks` reads them back, read-only), or None.
_written = None


def write_records_csv(records, path) -> None:
    """Write `Records` or a `Stream` as a sweep CSV, one chunk at a time:
    each column's distinct cells formatted once, merged with their
    neighbours (`_cell_groups`), and the lines joined `_SLICE` at a time.

    A chunk holding a value no cell stands for raises ConfigError (see
    `_column_cells`) before its bytes are written. One chunk of at most
    CHUNK records is kept, with the bytes written, as the memo
    `csv_records` serves while a file holds exactly those bytes: the bytes
    formatted, not read back from the path, which may be /dev/null, a pipe
    or a terminal. Any other write forgets the memo."""
    global _written
    _written, made = None, 0
    with open(path, "wb") as fh:
        fh.write(_HEADER + b"\n")
        for made, chunk in enumerate(records.chunks(), 1):
            groups = _cell_groups(chunk)
            lines = np.empty((min(_SLICE, len(chunk)), len(groups)), dtype=object)
            body = bytearray()  # a slice of lines at a time: no str of the chunk is held
            for start in range(0, len(chunk), _SLICE):
                rows = lines[:len(chunk) - start]
                for cell, (texts, where) in zip(rows.T, groups):
                    cell[:] = texts[where[start:start + _SLICE]]
                body += "".join(rows.ravel().tolist()).encode()
            fh.write(body)
    if made == 1 and len(chunk) <= CHUNK:
        columns = {name: chunk.columns[name].astype(_COLUMN_DTYPES[name]) for name in CSV_COLUMNS}
        for column in columns.values():
            column.flags.writeable = False
        _written = _HEADER + b"\n" + body, Records(columns)


# Reading. The format is what `write_records_csv` writes; each line may end
# in \n or \r\n, and the last one need not end. Every gate acts on each line
# alone, so a chunk of lines is read at once, and the first line of a chunk
# the gates refuse is the first fault in it.

# No line a sweep writes comes near this: ten floats of at most 24
# characters each, nine short tokens and the commas between them.
_MAX_LINE = 1 << 10
_HEADER = ",".join(CSV_COLUMNS).encode()


# numpy's C text reader makes float cells float64 and the others byte
# strings one longer than the longest token, so no longer cell matches one
# cut short.
_CSV_DTYPE = np.dtype([
    (name, f"S{1 + max(len(t) for _, texts in _TOKENS.values() for t in texts)}"
     if name in _TOKENS else np.float64)
    for name in CSV_COLUMNS
])
# The bytes of a sweep's cells: a comma, a quote, whitespace, \r or a
# non-ASCII byte is none of them.
_WRITTEN_BYTES = bytes(sorted(set(
    "".join(itertools.chain("0123456789+-.e", *(texts for _, texts in _TOKENS.values()))).encode()
)))


def _columns(lines: list[bytes]) -> dict[str, np.ndarray] | None:
    """The columns of data lines, parsed at once, or None if any of them is
    not a line a sweep writes."""
    text = b"".join(lines)
    if (
        max(map(len, lines)) > _MAX_LINE
        or text.translate(None, _WRITTEN_BYTES + b",\r\n")
        or b"\r" in text and text.count(b"\r") != text.count(b"\r\n")  # \r ends a line
        or b"\n" in lines or b"\r\n" in lines  # a blank line, which loadtxt skips
    ):
        return None
    del text  # not held while the chunk is parsed
    try:
        table = np.loadtxt(lines, _CSV_DTYPE, comments=None, delimiter=",", ndmin=1)
    except ValueError:
        return None
    columns = {}
    for name in CSV_COLUMNS:
        cells = table[name]
        if name in _TOKENS:
            low, texts = _TOKENS[name]
            index = np.zeros(len(cells), np.int8)  # 1 + the text's position, 0 for none
            for i, text in enumerate(texts, 1):
                index[cells == text.encode()] = i
            if not index.all():
                return None
            columns[name] = (index + (low - 1)).astype(_COLUMN_DTYPES[name], copy=False)
        elif np.isfinite(cells).all():
            columns[name] = cells.copy()  # a view would hold the whole table
        else:
            return None
    return columns


def _cell_fault(name: str, cell: bytes) -> str | None:
    """Why `_columns` refuses the cell in the column, or None."""
    text, kind = cell.decode(errors="replace"), _COLUMN_TYPES[name]
    if kind is float:
        try:  # numpy's reading of the cell, as in `_columns` (an empty one is no line)
            if not cell or cell.translate(None, _WRITTEN_BYTES):
                raise ValueError
            value = float(np.loadtxt([cell], np.float64, comments=None, delimiter=","))
        except ValueError:
            return f"could not convert string to float: {text!r}"
        return None if math.isfinite(value) else f"expected a finite number, got {text!r}"
    low, texts = _TOKENS[name]
    if text in texts:
        return None
    if kind is bool:
        return f"expected true/false, got {text!r}"
    if kind is int:
        return f"expected one of {tuple(range(low, low + len(texts)))}, got {text!r}"
    return f"{text!r} is not a valid {kind.__name__}"


def _line_fault(line: bytes) -> str:
    """Why `_columns` refuses the line, after its line number: its length,
    its width, or its first refused cell from the left."""
    if len(line) > _MAX_LINE:
        return f": longer than the {_MAX_LINE} bytes no sweep line reaches"
    body = line[:-2] if line.endswith(b"\r\n") else line.removesuffix(b"\n")
    cells = body.split(b",")
    if len(cells) != len(CSV_COLUMNS):
        return f": expected {len(CSV_COLUMNS)} cells, got {len(cells)}"
    for name, cell in zip(CSV_COLUMNS, cells):
        if fault := _cell_fault(name, cell):
            return f", column {name}: {fault}"


def read_csv_chunks(path):
    """The records of a sweep CSV, CHUNK data lines at a time (none for a
    file of no data line), each chunk parsed at once by `_columns`. A
    header that is not the sweep's, or the first line the gates refuse,
    raises ConfigError naming the file, the line and (for a cell) the
    column."""
    with open(path, "rb") as fh:
        header = fh.readline(len(_HEADER) + 2)
        if header not in (_HEADER, _HEADER + b"\n", _HEADER + b"\r\n"):
            raise ConfigError([f"{path}: unexpected CSV header: {header.decode(errors='replace')!r}"])
        lines_before = 1
        while lines := list(itertools.islice(fh, CHUNK)):
            count, columns = len(lines), _columns(lines)
            if columns is None:
                lo, hi = 0, count  # the first refused line is in lines[lo:hi]
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if _columns(lines[lo:mid]) is None else (mid, hi)
                raise ConfigError([f"{path}: line {lines_before + lo + 1}{_line_fault(lines[lo])}"])
            del lines  # not held while the chunk is read
            yield Records(columns)
            lines_before += count


def read_records_csv(path) -> Records:
    """A sweep CSV's records as one `Records`: the join of its chunks."""
    return Records.join(read_csv_chunks(path))
