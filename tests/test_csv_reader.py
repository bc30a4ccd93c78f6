"""The sweep-CSV reader: one path, chunks of lines parsed at once by numpy's
text reader, and the first line the gates refuse reported. The reference is
the format read a line and a cell at a time with Python's own parsers,
narrowed to what a sweep writes: the reader returns its columns, or raises
its problems, on any input."""

import math
import os
import re
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from opmdeploy import sweep
from opmdeploy.classify import Verdict
from opmdeploy.cli import main
from opmdeploy.errors import ConfigError
from opmdeploy.scenario import OutcomePolarity
from opmdeploy.sweep import (
    CSV_COLUMNS,
    GridSpec,
    Records,
    default_grid,
    grid_records,
    read_csv_chunks,
    read_records_csv,
    write_records_csv,
)
import test_sweep


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("reader") / "sweep.csv"
    write_records_csv(grid_records(default_grid()), path)
    return path


# ---------------------------------------------------------------------------
# The reference.

HEADER = ",".join(CSV_COLUMNS).encode()
WIDTH = len(CSV_COLUMNS)
TOKENS = ("true", "false", "-1", "0", "1", *(m.value for m in (*OutcomePolarity, *Verdict)))
# Every character of a cell a sweep writes: float reprs and the tokens.
CELL_CHARS = set("0123456789+-.e" + "".join(TOKENS))


def parse_float(text: str) -> float:
    # float() also reads whitespace, other digits and digit-group
    # underscores, none of which a repr holds
    if not set(text) <= CELL_CHARS or "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


def int_parser(allowed):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value not in allowed or str(value) != text:  # int() also reads +1, 01, -0
            raise ValueError(f"expected one of {allowed}, got {text!r}")
        return value

    return parse


def enum_parser(kind):
    codes = {member: i for i, member in enumerate(kind)}
    return lambda text: codes[kind(text)]


PARSERS = {
    name: {float: parse_float, bool: parse_bool, int: int_parser((-1, 0, 1))}.get(kind)
    or enum_parser(kind)
    for name, kind in sweep._COLUMN_TYPES.items()
}
PARSERS["pi0"] = int_parser((0, 1))


def per_cell(path) -> Records:
    """A sweep CSV read a line and a cell at a time: lines end in \\n or
    \\r\\n (the last need not end), the header is the sweep's, and each data
    line is no longer than `sweep._MAX_LINE` bytes and holds WIDTH cells
    that their column's parser reads. The first fault raises ConfigError."""
    lines = re.findall(rb"[^\n]*\n|[^\n]+\Z", Path(path).read_bytes())
    header = lines[0][: len(HEADER) + 2] if lines else b""
    if header not in (HEADER, HEADER + b"\n", HEADER + b"\r\n"):
        raise ConfigError([f"{path}: unexpected CSV header: {header.decode(errors='replace')!r}"])
    columns = {name: [] for name in CSV_COLUMNS}
    for number, line in enumerate(lines[1:], 2):
        where = f"{path}: line {number}"
        if len(line) > sweep._MAX_LINE:
            raise ConfigError([f"{where}: longer than the {sweep._MAX_LINE} bytes no sweep line reaches"])
        text = line.decode(errors="replace")
        cells = (text[:-2] if text.endswith("\r\n") else text.removesuffix("\n")).split(",")
        if len(cells) != WIDTH:
            raise ConfigError([f"{where}: expected {WIDTH} cells, got {len(cells)}"])
        for name, cell in zip(CSV_COLUMNS, cells):
            try:
                columns[name].append(PARSERS[name](cell))
            except ValueError as exc:
                raise ConfigError([f"{where}, column {name}: {exc}"]) from None
    return Records({
        name: np.array(values, sweep._COLUMN_DTYPES[name]) for name, values in columns.items()
    })


def outcome(read, path):
    """Each column's dtype and bytes (-0.0 and 0.0 differ), or the
    problems of the ConfigError raised."""
    try:
        records = read(path)
    except ConfigError as exc:
        return exc.problems
    return {name: (c.dtype, c.tobytes()) for name, c in records.columns.items()}


def no_fault(monkeypatch):
    def refused(*args):
        raise AssertionError("a line of a sweep's own CSV was refused")

    monkeypatch.setattr(sweep, "_line_fault", refused)


def write_lines(path, lines) -> Path:
    path.write_bytes(b"".join(lines))
    return path


# ---------------------------------------------------------------------------
# Equivalence under mutation: cells a sweep never writes, in any column,
# and edits of whole lines.

NEAR_MISSES = [
    b"nan", b"inf", b"-inf", b"1_0", b" 0.2", b"0.2 ", b'"0.2"', b"+0.2", b"0.20",
    b"2e-1", b".2", b"", b"2", b"-0", b"+1", b"01", b"1.0", b"no_change",
    b"no_change ", b"true", b"True", b"desirable", b"\xef\xbf\xbd", b"\xff",
    b"0.2\xef\xbf\xbd", b"#", b"0x1p-3", b"1" * 400, b"undesirables", b"falsey", b"-11",
    b"0.2\r", b"\r", b"1__0", b"+nan", b"1e5", b"1.e5", b"-.5", b"e", b"1e", b"1e999",
    b"-1e-999",
]


def set_cell(lines, i, column, cell):
    cells = lines[i].rstrip(b"\n").split(b",")
    cells[column % len(cells)] = cell
    lines[i] = b",".join(cells) + b"\n"


def quote_across_lines(lines, i, column, _):
    cells = lines[i].rstrip(b"\n").split(b",")
    cells[column % len(cells)] = b'"' + cells[column % len(cells)] + b'\n"'
    lines[i] = b",".join(cells) + b"\n"


def extra_comma(lines, i, column, _):
    lines[i] = lines[i].rstrip(b"\n") + b",\n"


def blank_line(lines, i, column, _):
    lines.insert(i, b"\n")


def blank_crlf_line(lines, i, column, _):
    lines.insert(i, b"\r\n")


def crlf(lines, i, column, _):
    lines[i] = lines[i].rstrip(b"\n") + b"\r\n"


def crlf_everywhere(lines, i, column, _):
    lines[:] = [line.rstrip(b"\n") + b"\r\n" for line in lines]


def cr_join(lines, i, column, _):
    # two rows on one line: \r ends no line
    if i + 1 < len(lines):
        lines[i : i + 2] = [lines[i].rstrip(b"\n") + b"\r" + lines[i + 1]]


def no_last_newline(lines, i, column, _):
    lines[-1] = lines[-1].rstrip(b"\n")


def cr_ends_the_file(lines, i, column, _):
    # numpy's reader would take the \r for the last line's end
    lines[i:] = [lines[i].rstrip(b"\n") + b"\r"]


def over_long(lines, i, column, _):
    set_cell(lines, i, column, b"0." + b"0" * sweep._MAX_LINE + b"1")


EDITS = [set_cell] * 4 + [
    quote_across_lines, extra_comma, blank_line, blank_crlf_line, crlf, crlf_everywhere,
    cr_join, no_last_newline, cr_ends_the_file, over_long,
]
mutations = st.tuples(
    st.sampled_from(EDITS),
    st.integers(1, 40),  # a data line of the 40-row file
    st.integers(0, len(CSV_COLUMNS) - 1),
    st.sampled_from(NEAR_MISSES),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(mutations, max_size=3))
def test_chunked_reader_equals_the_per_cell_path(sweep_csv, tmp_path_factory, edits):
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[:41]
    for edit, i, column, cell in edits:
        edit(lines, min(i, len(lines) - 1), column, cell)
    path = write_lines(tmp_path_factory.mktemp("mutated") / "sweep.csv", lines)
    with mock.patch.object(sweep, "CHUNK", 7):  # chunk edges between the edits
        assert outcome(read_records_csv, path) == outcome(per_cell, path)


@pytest.mark.parametrize("cell", NEAR_MISSES)
@pytest.mark.parametrize(
    "column", ["p_x", "pi0", "polarity", "sign_bt", "verdict", "calibrated_post"]
)
def test_each_near_miss_in_each_kind_of_column(sweep_csv, tmp_path, column, cell):
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[:30]
    set_cell(lines, 20, CSV_COLUMNS.index(column), cell)
    path = write_lines(tmp_path / "sweep.csv", lines)
    with mock.patch.object(sweep, "CHUNK", 8):
        assert outcome(read_records_csv, path) == outcome(per_cell, path)


@pytest.mark.parametrize("header", [
    b"", b"\n", HEADER + b"\r", HEADER + b"\r\r\n", HEADER + b",\n", HEADER[1:] + b"\n",
    HEADER + b" \n", b"\xff" + HEADER + b"\n", HEADER + b"x" * 5000 + b"\n",
])
def test_header_is_the_sweeps_alone(sweep_csv, tmp_path, header):
    # a header with no \n ends the file
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[1:3] if header.endswith(b"\n") else []
    path = write_lines(tmp_path / "sweep.csv", [header] + lines)
    problems = outcome(read_records_csv, path)
    assert problems == outcome(per_cell, path)
    assert problems[0].startswith(f"{path}: unexpected CSV header: ")
    assert len(problems[0]) < len(str(path)) + 400  # a long first line is not echoed whole


def test_sweep_csv_is_read_in_bulk(sweep_csv, monkeypatch):
    want = outcome(per_cell, sweep_csv)
    no_fault(monkeypatch)
    assert outcome(read_records_csv, sweep_csv) == want


@pytest.mark.parametrize("cell", [b" 0.2", b"0.2\t", b"2E-1", b"\xd9\xa0.2", b"1_0", b'"0.2"'])
def test_cells_python_reads_as_numbers_are_refused(sweep_csv, cell):
    # Python's float() reads each as a number; the gates refuse them
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[1:30]
    assert sweep._columns(lines) is not None
    set_cell(lines, 20, CSV_COLUMNS.index("p_x"), cell)
    assert sweep._columns(lines) is None


def test_no_sweep_line_reaches_the_line_limit():
    # in every float column a repr as long as any (a sign, 17 digits, a point
    # and a three-digit exponent), in every other its longest token
    longest = repr(-2.2250738585072014e-308)
    cells = [
        longest if kind is float else max(sweep._TOKENS[name][1], key=len)
        for name, kind in sweep._COLUMN_TYPES.items()
    ]
    assert len(",".join(cells) + "\r\n") <= sweep._MAX_LINE


# ---------------------------------------------------------------------------
# Input no sweep writes, which the csv.reader fallback of earlier versions
# read (all but a blank line, which it refused as a row of 0 cells): each is
# a fault of its line and, for a cell, its column, for every command that
# reads a CSV.

FORMERLY_READ = [
    ("beta_t", b"1_0", ", column beta_t: could not convert string to float: '1_0'"),
    ("p_x", b" 0.2", ", column p_x: could not convert string to float: ' 0.2'"),
    ("p_x", b'"0.2"', ", column p_x: could not convert string to float: '\"0.2\"'"),
    ("sign_bt", b"+1", ", column sign_bt: expected one of (-1, 0, 1), got '+1'"),
    ("sign_bt", b"01", ", column sign_bt: expected one of (-1, 0, 1), got '01'"),
    ("pi0", b"-0", ", column pi0: expected one of (0, 1), got '-0'"),
    ("auc_pre", b"0.5\r", ", column auc_pre: could not convert string to float: '0.5\\r'"),
    ("verdict", b'"harmful"', ", column verdict: '\"harmful\"' is not a valid Verdict"),
]


@pytest.mark.parametrize("command", ["tables", "plot"])
@pytest.mark.parametrize("column, cell, message", FORMERLY_READ)
def test_formerly_read_cell_exits_2(sweep_csv, tmp_path, capsys, command, column, cell, message):
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[:30]
    set_cell(lines, 20, CSV_COLUMNS.index(column), cell)
    path = write_lines(tmp_path / "bad.csv", lines)
    assert main([command, "--csv", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {path}: line 21{message}\n"


@pytest.mark.parametrize("command", ["tables", "plot"])
@pytest.mark.parametrize("edit, message", [
    (blank_line, ": expected 19 cells, got 1"),
    (blank_crlf_line, ": expected 19 cells, got 1"),
    (cr_join, ": expected 19 cells, got 37"),
    (cr_ends_the_file, ", column avg_treatment_beneficial: expected true/false, got 'true\\r'"),
    (quote_across_lines, ": expected 19 cells, got 1"),  # the quote's line is cut off
], ids=["blank", "blank-crlf", "lone-cr", "lone-cr-at-the-end", "quoted-newline"])
def test_formerly_read_line_exits_2(sweep_csv, tmp_path, capsys, command, edit, message):
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[:30]
    edit(lines, 20, 0, None)
    path = write_lines(tmp_path / "bad.csv", lines)
    assert main([command, "--csv", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {path}: line 21{message}\n"


def test_first_fault_comes_before_a_later_over_long_field(sweep_csv, tmp_path):
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[:30]
    set_cell(lines, 3, CSV_COLUMNS.index("pi0"), b"2")
    set_cell(lines, 5, 0, b"0." + b"0" * (128 << 10) + b"1")
    path = write_lines(tmp_path / "sweep.csv", lines)
    with pytest.raises(ConfigError) as err:
        read_records_csv(path)
    assert err.value.problems == [f"{path}: line 4, column pi0: expected one of (0, 1), got '2'"]


# ---------------------------------------------------------------------------
# CRLF line ends: the same records and the same outputs.


@pytest.fixture(scope="module")
def crlf_csv(sweep_csv, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("crlf") / "sweep.csv"
    path.write_bytes(sweep_csv.read_bytes().replace(b"\n", b"\r\n"))
    return path


def test_crlf_twin_gives_the_same_columns_in_bulk(sweep_csv, crlf_csv, monkeypatch):
    want = outcome(read_records_csv, sweep_csv)
    no_fault(monkeypatch)
    assert outcome(read_records_csv, crlf_csv) == want


@pytest.mark.parametrize("command, outputs", [
    ("tables", ["sign_table.csv", "harm_table.csv"]),
    ("plot", ["fig-bt-vs-diff.svg", "fig-bt-vs-diff-all.svg", "fig-bxt-vs-diff.svg",
              "fig-auc-pre-vs-diff.svg"]),
])
def test_crlf_twin_writes_the_same_bytes(sweep_csv, crlf_csv, tmp_path, capsys, command, outputs):
    def run(source):  # from one path: the figures echo it
        csv, out = tmp_path / "sweep.csv", tmp_path / "out"
        csv.write_bytes(source.read_bytes())
        assert main([command, "--csv", str(csv), "--out", str(out)]) == 0
        return [(out / name).read_bytes() for name in outputs]

    assert run(crlf_csv) == run(sweep_csv)


# ---------------------------------------------------------------------------
# Chunk edges, in chunks of 97 rows: the default grid's 4620 rows make 47
# full chunks and one of 61.


@pytest.fixture
def chunk_97(monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK", 97)


@pytest.mark.parametrize("command, outputs", [
    ("tables", ["sign_table.csv", "harm_table.csv"]),
    ("plot", ["fig-bt-vs-diff.svg", "fig-bt-vs-diff-all.svg", "fig-bxt-vs-diff.svg",
              "fig-auc-pre-vs-diff.svg"]),
])
def test_commands_write_the_same_bytes_in_any_chunk_size(
    sweep_csv, tmp_path, monkeypatch, capsys, command, outputs
):
    def run(out):
        assert main([command, "--csv", str(sweep_csv), "--out", str(out)]) == 0
        return [(out / name).read_bytes() for name in outputs]

    whole = run(tmp_path / "whole")
    monkeypatch.setattr(sweep, "CHUNK", 97)
    assert run(tmp_path / "chunked") == whole


def test_no_chunk_holds_more_than_chunk_rows(sweep_csv, crlf_csv, tmp_path, chunk_97):
    sizes = [97] * 47 + [61]
    assert [len(c) for c in read_csv_chunks(sweep_csv)] == sizes
    assert [len(c) for c in read_csv_chunks(crlf_csv)] == sizes
    for rows in (97, 194):  # whole chunks: no empty one after them
        lines = sweep_csv.read_bytes().splitlines(keepends=True)[: 1 + rows]
        part = write_lines(tmp_path / f"part{rows}.csv", lines)
        assert [len(c) for c in read_csv_chunks(part)] == [97] * (rows // 97)


@pytest.mark.parametrize("line", [98, 99, 150, 194, 195, 4621])
def test_fault_is_reported_on_its_file_line(sweep_csv, tmp_path, chunk_97, line):
    # the first and last line of a chunk, and lines inside one
    lines = sweep_csv.read_bytes().splitlines(keepends=True)
    set_cell(lines, line - 1, CSV_COLUMNS.index("sign_bt"), b"7")
    if line < len(lines):  # a later fault is not the one reported
        set_cell(lines, line, CSV_COLUMNS.index("sign_bt"), b"8")
    path = write_lines(tmp_path / "bad.csv", lines)
    with pytest.raises(ConfigError) as err:
        read_records_csv(path)
    assert err.value.problems == [
        f"{path}: line {line}, column sign_bt: expected one of (-1, 0, 1), got '7'"
    ]


# ---------------------------------------------------------------------------
# Small inputs. pytest turns a warning into a failure here: numpy warns
# when loadtxt is handed no data.


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b""])
def test_header_only_csv_gives_typed_empty_columns(sweep_csv, tmp_path, end):
    path = write_lines(tmp_path / "empty.csv", [HEADER + end])
    assert list(read_csv_chunks(path)) == []
    records, whole = read_records_csv(path), read_records_csv(sweep_csv)
    assert len(records) == 0
    assert {n: c.dtype for n, c in records.columns.items()} == {
        n: c.dtype for n, c in whole.columns.items()
    }


def test_one_row_csv_gives_columns_of_length_one(sweep_csv, tmp_path, monkeypatch):
    path = write_lines(tmp_path / "one.csv", sweep_csv.read_bytes().splitlines(keepends=True)[:2])
    whole = read_records_csv(sweep_csv)
    no_fault(monkeypatch)
    records = read_records_csv(path)
    for name in CSV_COLUMNS:
        assert records.columns[name].shape == (1,), name
        assert records.columns[name].dtype == whole.columns[name].dtype, name
        assert records.columns[name][0] == whole.columns[name][0], name


# ---------------------------------------------------------------------------
# Which command reads how.


@pytest.fixture
def reads(monkeypatch):
    """Calls of read_csv_chunks, and whether read_records_csv was called."""
    calls = {"chunks": 0, "whole": 0}
    chunks, whole = sweep.read_csv_chunks, sweep.read_records_csv

    def counted_chunks(path):
        calls["chunks"] += 1
        return chunks(path)

    def counted_whole(path):
        calls["whole"] += 1
        return whole(path)

    monkeypatch.setattr(sweep, "read_csv_chunks", counted_chunks)
    monkeypatch.setattr(sweep, "read_records_csv", counted_whole)
    return calls


def test_tables_streams_the_file(sweep_csv, tmp_path, reads, capsys, monkeypatch):
    # a file this process did not just write, in one chunk: read once and
    # kept for the default-grid check
    monkeypatch.setattr(sweep, "_written", None)
    assert main(["tables", "--csv", str(sweep_csv), "--out", str(tmp_path / "t")]) == 0
    assert reads == {"chunks": 1, "whole": 0}


def test_tables_in_many_chunks_keeps_none(sweep_csv, tmp_path, reads, chunk_97, capsys):
    # a second read, by the default-grid check: the file has the default's length
    assert main(["tables", "--csv", str(sweep_csv)]) == 0
    assert reads == {"chunks": 2, "whole": 0}
    assert "count delta: 12" in capsys.readouterr().out
    records = sweep.csv_records(sweep_csv)
    assert len(records) == 4620
    assert records._chunk is None


def test_plot_reads_the_whole_file_once(sweep_csv, tmp_path, reads, capsys, monkeypatch):
    # a file this process did not just write, through the same chunk
    # stream as tables, joined
    monkeypatch.setattr(sweep, "_written", None)
    assert main(["plot", "--csv", str(sweep_csv), "--out", str(tmp_path / "f")]) == 0
    assert reads == {"chunks": 1, "whole": 0}


def test_chunk_columns_own_their_data(sweep_csv, monkeypatch):
    # a chunk a caller still holds keeps no parsed text table alive
    monkeypatch.setattr(sweep, "CHUNK", 97)
    for chunk in read_csv_chunks(sweep_csv):
        for name, column in chunk.columns.items():
            assert column.base is None, name


# ---------------------------------------------------------------------------
# The memo of the last one-chunk CSV this process wrote: a file holding
# exactly its bytes is not parsed, and any other file is, as before.


@pytest.fixture
def swept(tmp_path, capsys) -> Path:
    """The default grid's CSV, written by `sweep --out` in this process."""
    path = tmp_path / "swept" / "sweep.csv"
    path.parent.mkdir()
    assert main(["sweep", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def memo_columns():
    data, records = sweep._written
    return data, {name: (c.dtype, c.tobytes()) for name, c in records.columns.items()}


def tables_and_plot(path, out, capsys):
    """What `tables --csv` and `plot --csv` print and write, with the run's
    output directory and the tables manifest's timestamp left out."""
    assert main(["tables", "--csv", str(path), "--out", str(out / "tables")]) == 0
    assert main(["plot", "--csv", str(path), "--out", str(out / "figures")]) == 0
    files = {
        f.relative_to(out).as_posix(): re.sub(rb'"timestamp": "[^"]*"', b"", f.read_bytes())
        for f in sorted(out.rglob("*")) if f.is_file()
    }
    return capsys.readouterr().out.replace(str(out), "OUT"), files


def test_tables_and_plot_reuse_what_sweep_wrote(swept, tmp_path, reads, capsys, monkeypatch):
    kept = tables_and_plot(swept, tmp_path / "kept", capsys)
    assert reads == {"chunks": 0, "whole": 0}
    monkeypatch.setattr(sweep, "_written", None)
    parsed = tables_and_plot(swept, tmp_path / "parsed", capsys)
    assert reads == {"chunks": 2, "whole": 0}
    assert kept == parsed
    assert len(parsed[1]) == 7 and "count delta: 12" in parsed[0]


def one_digit_changed(data: bytes) -> bytes:
    return data.replace(b"\n0.2,", b"\n0.3,", 1)  # the first line's p_x


def one_cell_refused(data: bytes) -> bytes:
    return data.replace(b"true\n", b"tru3\n", 1)


def crlf_copy(data: bytes) -> bytes:
    return data.replace(b"\n", b"\r\n")


def last_line_dropped(data: bytes) -> bytes:
    return data[: data.rindex(b"\n", 0, -1) + 1]


def written_in_chunks_of_97(data: bytes) -> bytes:
    return data  # the bytes are the same; the sweep that wrote them kept no memo


@pytest.mark.parametrize("edit", [
    one_digit_changed, one_cell_refused, crlf_copy, last_line_dropped, written_in_chunks_of_97,
])
def test_any_other_file_is_parsed_once(swept, tmp_path, reads, capsys, monkeypatch, edit):
    if edit is written_in_chunks_of_97:
        with monkeypatch.context() as chunked:
            chunked.setattr(sweep, "CHUNK", 97)
            assert main(["sweep", "--out", str(swept)]) == 0
        capsys.readouterr()
    data = swept.read_bytes()
    swept.write_bytes(edit(data))
    if edit in (one_digit_changed, one_cell_refused):
        assert len(edit(data)) == len(data) and edit(data) != data

    def run(out):
        code = main(["tables", "--csv", str(swept), "--out", str(out)])
        printed = capsys.readouterr()
        return code, printed.out.replace(str(out), "OUT"), printed.err

    held = run(tmp_path / "held")
    assert reads == {"chunks": 1, "whole": 0}
    monkeypatch.setattr(sweep, "_written", None)
    assert held == run(tmp_path / "cleared")
    assert reads == {"chunks": 2, "whole": 0}
    if edit is one_cell_refused:
        assert held[:2] == (2, "")
        assert held[2].startswith(f"config error: {swept}: line ")
        assert held[2].endswith(", column avg_treatment_beneficial: expected true/false, got 'tru3'\n")


@settings(max_examples=40, deadline=None)
@given(test_sweep.grids())
def test_kept_records_are_what_the_file_parses_to(grid):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "sweep.csv"
        write_records_csv(grid_records(grid), path)
        data, kept = memo_columns()
        assert data == path.read_bytes()
        assert kept == outcome(lambda p: Records.join(read_csv_chunks(p)), path)


def test_kept_columns_are_read_only_copies(tmp_path):
    records, _, _ = sweep.record_columns(default_grid())
    write_records_csv(records, tmp_path / "sweep.csv")
    for name, column in sweep._written[1].columns.items():
        assert not column.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]
        assert records.columns[name].flags.writeable, name  # the writer's own are left alone


def test_a_memo_past_the_chunk_size_is_not_served(swept, reads, chunk_97):
    # the kept records are one chunk; in chunks of 97 the file is not
    assert [len(c) for c in sweep.csv_records(swept).chunks()] == [97] * 47 + [61]
    assert reads == {"chunks": 1, "whole": 0}


class Failing:
    def chunks(self):
        raise RuntimeError("no records")


@pytest.mark.parametrize("later", ["many chunks", "failed"])
def test_a_later_write_forgets_the_memo(swept, tmp_path, monkeypatch, later):
    assert sweep._written is not None
    if later == "failed":
        with pytest.raises(RuntimeError):
            write_records_csv(Failing(), tmp_path / "other.csv")
    else:
        monkeypatch.setattr(sweep, "CHUNK", 97)
        write_records_csv(grid_records(default_grid()), tmp_path / "other.csv")
    assert sweep._written is None


# Each token column's code one past its range, on either side for some,
# and the floats that are not finite. The writer used to write a sign_bt
# of 2 as -1, and a pi0 of 2 as -1.
UNWRITABLE = [
    ("auc_delta", np.inf), ("cate0", np.nan), ("cate1", -np.inf),
    ("pi0", 2), ("pi0", -1), ("sign_bt", 2), ("sign_bt", -2), ("sign_bt_plus_bxt", 2),
    ("polarity", 2), ("polarity", -1), ("verdict", 3), ("self_fulfilling", 2),
    ("harmful_marginal", 2), ("calibrated_post", -1), ("avg_treatment_beneficial", 2),
]


def with_value(records, name, row, value):
    """`records` with one cell set to `value`, in a column wide enough for it."""
    column = records.columns[name].astype(np.int64 if isinstance(value, int) else np.float64)
    column[row] = value
    return Records({**records.columns, name: column})


@pytest.mark.parametrize("name, value", UNWRITABLE)
def test_a_value_no_cell_holds_is_refused(tmp_path, name, value):
    records, _, _ = sweep.record_columns(default_grid())
    path = tmp_path / "sweep.csv"
    write_records_csv(records, path)  # the memo a refused write forgets
    with pytest.raises(ConfigError) as refused:
        write_records_csv(with_value(records, name, 5, value), path)
    assert refused.value.problems == [f"column {name}: no sweep CSV cell holds {value!r}"]
    assert sweep._written is None
    assert path.read_bytes() == sweep._HEADER + b"\n"


@pytest.mark.parametrize("name, value", UNWRITABLE)
def test_a_refused_chunk_writes_no_byte(tmp_path, name, value):
    # the chunks before it are written whole, and none of its lines
    records, _, _ = sweep.record_columns(default_grid())
    head, bad = (Records({n: c[at] for n, c in records.columns.items()}) for at in (slice(97), slice(97, 194)))
    path = tmp_path / "sweep.csv"
    with pytest.raises(ConfigError, match=f"column {name}"):
        write_records_csv(SimpleNamespace(chunks=lambda: [head, with_value(bad, name, 96, value)]), path)
    write_records_csv(head, tmp_path / "head.csv")
    assert path.read_bytes() == (tmp_path / "head.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(sweep._TOKENS))
@pytest.mark.parametrize("value", [0.5, 1.0])
def test_token_codes_that_are_not_integers_are_refused(tmp_path, name, value):
    # a float code used to be cut to a whole one: a sign_bt of 0.5 was
    # written as 0; a float column is refused even where it holds whole numbers
    records, _, _ = sweep.record_columns(default_grid())
    head, bad = (Records({n: c[at] for n, c in records.columns.items()}) for at in (slice(97), slice(97, 194)))
    path = tmp_path / "sweep.csv"
    write_records_csv(records, path)  # the memo a refused write forgets
    with pytest.raises(ConfigError) as refused:
        write_records_csv(SimpleNamespace(chunks=lambda: [head, with_value(bad, name, 5, value)]), path)
    assert refused.value.problems == [f"column {name}: token codes must be integers, not float64"]
    assert sweep._written is None
    write_records_csv(head, tmp_path / "head.csv")
    assert path.read_bytes() == (tmp_path / "head.csv").read_bytes()


def test_each_token_reads_back_as_its_code(sweep_csv, tmp_path):
    # the writer's table is the reader's: its i-th text in a column reads
    # back as low + i, and a text of the same width it lacks is refused
    # with the reference's message for the cell
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[:3]
    path = tmp_path / "sweep.csv"
    for name, (low, texts) in sweep._TOKENS.items():
        column = CSV_COLUMNS.index(name)
        for i, text in enumerate(texts):
            set_cell(lines, 1, column, text.encode())
            (chunk,) = read_csv_chunks(write_lines(path, lines))
            assert chunk.columns[name].dtype == sweep._COLUMN_DTYPES[name]
            assert chunk.columns[name][0] == low + i, (name, text)

            other = next(t for b in sweep._WRITTEN_BYTES if (t := text[:-1] + chr(b)) not in texts)
            set_cell(lines, 1, column, other.encode())
            assert sweep._columns(lines[1:]) is None
            with pytest.raises(ValueError) as reference:
                PARSERS[name](other)
            with pytest.raises(ConfigError) as refused:
                list(read_csv_chunks(write_lines(path, lines)))
            assert refused.value.problems == [f"{path}: line 2, column {name}: {reference.value}"]
        set_cell(lines, 1, column, text.encode())


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="names a pipe by /proc/self/fd")
def test_a_pipe_is_parsed_without_a_byte_read_for_the_memo(tmp_path, reads):
    # a pipe cannot be read twice: the memo's comparison must leave it whole
    grid = GridSpec(*([v] for v in (0.5, 0, -0.5, 1.0, 0.5, 0.0, OutcomePolarity.DESIRABLE)))
    write_records_csv(grid_records(grid), tmp_path / "sweep.csv")
    data, kept = memo_columns()
    r, w = os.pipe()
    try:
        os.write(w, data)  # one short line: the pipe holds it all
        os.close(w)
        assert outcome(lambda p: Records.join(sweep.csv_records(p).chunks()), f"/proc/self/fd/{r}") == kept
    finally:
        os.close(r)
    assert reads == {"chunks": 1, "whole": 0}


def test_threads_never_read_one_file_as_another(tmp_path):
    # the memo is shared by the process: each thread writes and reads back
    # its own one-row CSV while the others replace the memo
    def work(k, failures):
        grid = GridSpec(*([v] for v in (0.5, 0, float(k), 1.0, 0.5, 0.0, OutcomePolarity.DESIRABLE)))
        path = tmp_path / f"sweep{k}.csv"
        try:
            for _ in range(100):
                write_records_csv(grid_records(grid), path)
                (chunk,) = sweep.csv_records(path).chunks()
                if chunk.columns["beta0"].tolist() != [float(k)]:
                    failures.append(k)
        except Exception as exc:  # the thread's end: reported by the assertion below
            failures.append(exc)

    failures = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k, failures)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
