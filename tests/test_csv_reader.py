"""The sweep-CSV reader: chunks parsed in bulk by numpy's text reader, and
the per-cell fault path behind it. The per-cell path run alone over the
whole file is the reference: the chunked reader returns its columns, or
raises its problems, on any input."""

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from opmdeploy import sweep
from opmdeploy.cli import main
from opmdeploy.errors import ConfigError
from opmdeploy.sweep import (
    CSV_COLUMNS,
    GridRecords,
    Records,
    default_grid,
    read_csv_chunks,
    read_records_csv,
    write_records_csv,
)


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("reader") / "sweep.csv"
    write_records_csv(GridRecords(default_grid()), path)
    return path


def per_cell(path) -> Records:
    """The fault path alone, from the header on."""
    with open(path, "rb") as fh:
        return Records.join(sweep._fault_path_chunks(path, fh, 0))


def outcome(read, path):
    """Each column's dtype and bytes (-0.0 and 0.0 differ), or the
    problems of the ConfigError raised."""
    try:
        records = read(path)
    except ConfigError as exc:
        return exc.problems
    return {name: (c.dtype, c.tobytes()) for name, c in records.columns.items()}


def bulk_only(monkeypatch):
    def refused(*args):
        raise AssertionError("a sweep's own CSV reached the fault path")

    monkeypatch.setattr(sweep, "_fault_path_chunks", refused)


# ---------------------------------------------------------------------------
# Equivalence under mutation: cells a sweep never writes, in any column,
# and edits of whole lines.

NEAR_MISSES = [
    b"nan", b"inf", b"-inf", b"1_0", b" 0.2", b"0.2 ", b'"0.2"', b"+0.2", b"0.20",
    b"2e-1", b".2", b"", b"2", b"-0", b"+1", b"01", b"1.0", b"no_change",
    b"no_change ", b"true", b"True", b"desirable", b"\xef\xbf\xbd", b"\xff",
    b"0.2\xef\xbf\xbd", b"#", b"0x1p-3", b"1" * 400, b"undesirables", b"falsey", b"-11",
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


def crlf(lines, i, column, _):
    lines[i] = lines[i].rstrip(b"\n") + b"\r\n"


def crlf_everywhere(lines, i, column, _):
    lines[:] = [line.rstrip(b"\n") + b"\r\n" for line in lines]


def cr_join(lines, i, column, _):
    # two rows on one line to a reader that ends lines only at \n
    if i + 1 < len(lines):
        lines[i : i + 2] = [lines[i].rstrip(b"\n") + b"\r" + lines[i + 1]]


def no_last_newline(lines, i, column, _):
    lines[-1] = lines[-1].rstrip(b"\n")


EDITS = [set_cell] * 4 + [
    quote_across_lines, extra_comma, blank_line, crlf, crlf_everywhere, cr_join,
    no_last_newline,
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
    path = tmp_path_factory.mktemp("mutated") / "sweep.csv"
    path.write_bytes(b"".join(lines))
    with mock.patch.object(sweep, "CHUNK", 7):  # chunk edges between the edits
        assert outcome(read_records_csv, path) == outcome(per_cell, path)


@pytest.mark.parametrize("cell", NEAR_MISSES)
@pytest.mark.parametrize(
    "column", ["p_x", "pi0", "polarity", "sign_bt", "verdict", "calibrated_post"]
)
def test_each_near_miss_in_each_kind_of_column(sweep_csv, tmp_path, column, cell):
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[:30]
    set_cell(lines, 20, CSV_COLUMNS.index(column), cell)
    path = tmp_path / "sweep.csv"
    path.write_bytes(b"".join(lines))
    with mock.patch.object(sweep, "CHUNK", 8):
        assert outcome(read_records_csv, path) == outcome(per_cell, path)


def test_sweep_csv_is_read_in_bulk(sweep_csv, monkeypatch):
    want = outcome(per_cell, sweep_csv)
    bulk_only(monkeypatch)
    assert outcome(read_records_csv, sweep_csv) == want


@pytest.mark.parametrize("cell", [b" 0.2", b"0.2\t", b"2E-1", b"\xd9\xa0.2"])
def test_bytes_a_sweep_never_writes_go_to_the_fault_path(sweep_csv, cell):
    # Python's float() reads each as 0.2; numpy's parser need not be asked
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[1:30]
    assert sweep._bulk_columns(lines) is not None
    set_cell(lines, 20, CSV_COLUMNS.index("p_x"), cell)
    assert sweep._bulk_columns(lines) is None


def test_lone_cr_ends_a_line(sweep_csv, tmp_path):
    # csv.reader counts a line ended by \r alone, so the fault is on line 22
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[:30]
    cr_join(lines, 10, 0, None)
    set_cell(lines, 20, CSV_COLUMNS.index("pi0"), b"2")
    path = tmp_path / "sweep.csv"
    path.write_bytes(b"".join(lines))
    problems = [f"{path}: line 22, column pi0: expected one of (0, 1), got '2'"]
    assert outcome(per_cell, path) == problems
    with mock.patch.object(sweep, "CHUNK", 8):
        assert outcome(read_records_csv, path) == problems


def test_first_fault_comes_before_a_later_over_long_field(sweep_csv, tmp_path):
    lines = sweep_csv.read_bytes().splitlines(keepends=True)[:30]
    set_cell(lines, 3, CSV_COLUMNS.index("pi0"), b"2")
    set_cell(lines, 5, 0, b"0." + b"0" * (128 << 10) + b"1")
    path = tmp_path / "sweep.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ConfigError) as err:
        read_records_csv(path)
    assert err.value.problems == [f"{path}: line 4, column pi0: expected one of (0, 1), got '2'"]


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


def test_no_chunk_holds_more_than_chunk_rows(sweep_csv, tmp_path, chunk_97):
    sizes = [97] * 47 + [61]
    assert [len(c) for c in read_csv_chunks(sweep_csv)] == sizes
    crlf = tmp_path / "crlf.csv"  # all of it on the fault path
    crlf.write_bytes(sweep_csv.read_bytes().replace(b"\n", b"\r\n"))
    assert [len(c) for c in read_csv_chunks(crlf)] == sizes
    for rows in (97, 194):  # whole chunks: no empty one after them
        part = tmp_path / f"part{rows}.csv"
        part.write_bytes(b"".join(sweep_csv.read_bytes().splitlines(keepends=True)[: 1 + rows]))
        assert [len(c) for c in read_csv_chunks(part)] == [97] * (rows // 97)


def test_fault_is_reported_on_its_file_line(sweep_csv, tmp_path, chunk_97):
    lines = sweep_csv.read_bytes().splitlines(keepends=True)
    set_cell(lines, 149, CSV_COLUMNS.index("sign_bt"), b"7")  # line 150, second chunk
    path = tmp_path / "bad.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ConfigError) as err:
        read_records_csv(path)
    assert err.value.problems == [
        f"{path}: line 150, column sign_bt: expected one of (-1, 0, 1), got '7'"
    ]


def test_quote_in_a_later_chunk_counts_its_newline(sweep_csv, tmp_path, chunk_97):
    lines = sweep_csv.read_bytes().splitlines(keepends=True)
    quote_across_lines(lines, 110, 0, None)  # line 111, second chunk: spans two lines
    set_cell(lines, 300, CSV_COLUMNS.index("sign_bt"), b"7")  # line 301, one further down now
    path = tmp_path / "bad.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ConfigError) as err:
        read_records_csv(path)
    assert err.value.problems == [
        f"{path}: line 302, column sign_bt: expected one of (-1, 0, 1), got '7'"
    ]


# ---------------------------------------------------------------------------
# Small inputs. pytest turns a warning into a failure here: numpy warns
# when loadtxt is handed no data.


def test_header_only_csv_gives_typed_empty_columns(sweep_csv, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(sweep_csv.read_bytes().splitlines(keepends=True)[0])
    assert list(read_csv_chunks(path)) == []
    records, whole = read_records_csv(path), read_records_csv(sweep_csv)
    assert len(records) == 0
    assert {n: c.dtype for n, c in records.columns.items()} == {
        n: c.dtype for n, c in whole.columns.items()
    }


def test_one_row_csv_gives_columns_of_length_one(sweep_csv, tmp_path, monkeypatch):
    path = tmp_path / "one.csv"
    path.write_bytes(b"".join(sweep_csv.read_bytes().splitlines(keepends=True)[:2]))
    whole = read_records_csv(sweep_csv)
    bulk_only(monkeypatch)
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


def test_tables_streams_the_file(sweep_csv, tmp_path, reads, capsys):
    # one chunk: read once and kept for the default-grid check
    assert main(["tables", "--csv", str(sweep_csv), "--out", str(tmp_path / "t")]) == 0
    assert reads == {"chunks": 1, "whole": 0}


def test_tables_in_many_chunks_keeps_none(sweep_csv, tmp_path, reads, chunk_97, capsys):
    # a second read, by the default-grid check: the file has the default's length
    assert main(["tables", "--csv", str(sweep_csv)]) == 0
    assert reads == {"chunks": 2, "whole": 0}
    assert "count delta: 12" in capsys.readouterr().out
    records = sweep.CsvRecords(sweep_csv)
    assert len(records) == 4620
    assert records._chunk is None


def test_plot_reads_the_whole_file_once(sweep_csv, tmp_path, reads, capsys):
    assert main(["plot", "--csv", str(sweep_csv), "--out", str(tmp_path / "f")]) == 0
    assert reads == {"chunks": 1, "whole": 1}


def test_chunk_columns_own_their_data(sweep_csv, monkeypatch):
    # a chunk a caller still holds keeps no parsed text table alive
    monkeypatch.setattr(sweep, "CHUNK", 97)
    for chunk in read_csv_chunks(sweep_csv):
        for name, column in chunk.columns.items():
            assert column.base is None, name
