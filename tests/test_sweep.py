import csv
import io
import math
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opmdeploy import sweep
from opmdeploy.classify import Verdict
from opmdeploy.errors import ConfigError, DegenerateOutcome
from opmdeploy.report import evaluate_scenario
from opmdeploy.scenario import (
    OutcomePolarity,
    ScenarioParams,
    avg_effect_sign,
    historic_step_sign,
)
from opmdeploy.sweep import (
    CSV_COLUMNS,
    GridSpec,
    REFERENCE_SIGN_TABLE,
    REFERENCE_SIGN_TOTAL,
    Records,
    aggregate_harm_table,
    aggregate_sign_table,
    default_grid,
    expand_and_filter,
    grid_records,
    read_records_csv,
    record_columns,
    record_from_report,
    reference_delta,
    write_records_csv,
)

# Canonical default-grid results, frozen from an independent brute-force
# enumeration (plain floats + exact four-cell joints, no package code).
CANONICAL_SIGN_TABLE = {
    (-1, -1): (0, 1500),
    (-1, 0): (100, 100),
    (-1, 1): (200, 200),
    (0, -1): (40, 140),
    (0, 0): (40, 0),
    (0, 1): (200, 0),
    (1, -1): (40, 320),
    (1, 0): (180, 0),
    (1, 1): (1560, 0),
}
CANONICAL_HARM_TABLE = {
    ("worse", 0, True): (550, 1.0),
    ("worse", 0, False): (550, 0.0),
    ("worse", 1, True): (420, 0.0),
    ("worse", 1, False): (580, 1.0),
    ("better", 0, True): (550, 0.0),
    ("better", 0, False): (550, 1.0),
    ("better", 1, True): (420, 1.0),
    ("better", 1, False): (580, 0.0),
}
POLARITY_WORD = {
    OutcomePolarity.UNDESIRABLE: "worse",
    OutcomePolarity.DESIRABLE: "better",
}


@pytest.fixture(scope="module")
def default_records():
    records, _, _ = record_columns(default_grid())
    return records


class TestDefaultGrid:
    def test_cardinality(self):
        assert default_grid().cardinality == 2 * 2 * 1 * 5 * 11 * 11 * 2 == 4840

    def test_treatment_effect_list_contains_zero(self):
        assert 0.0 in default_grid().beta_t_values

    def test_x_effect_list_excludes_zero(self):
        grid = default_grid()
        assert 0.0 not in grid.beta_x_values
        assert min(grid.beta_x_values) == pytest.approx(math.log(1.1))

    def test_matched_pairs_cancel_exactly(self):
        grid = default_grid()
        for bx in grid.beta_x_values:
            assert -bx in grid.beta_xt_values
            assert bx + (-bx) == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(
                p_x_values=(0.5,), pi0_values=(0,), beta0_values=(-0.5,),
                beta_x_values=(0.1,), beta_t_values=(), beta_xt_values=(0.0,),
                polarities=(OutcomePolarity.DESIRABLE,),
            )

    def test_largest_indexable_grid(self):
        # 7^2 * 73 * 127 * 337 * 92737 * 649657 = 2^63 - 1 settings: the
        # kernel still evaluates the last of them, and one more is refused.
        largest = np.iinfo(np.intp).max
        lists = dict(
            p_x_values=[(i + 1) / 50 for i in range(49)], pi0_values=[0, 1] * 36 + [0],
            beta0_values=[i / 127 for i in range(127)],
            beta_x_values=[i / 337 - 0.5 for i in range(337)],
            beta_t_values=[i / 92737 for i in range(92737)],
            beta_xt_values=[i / 649657 for i in range(649657)],
            polarities=[OutcomePolarity.DESIRABLE],
        )
        grid = GridSpec(**lists)
        assert grid.cardinality == largest
        records, structural, _ = record_columns(grid, largest - 3, largest)
        assert len(records) + structural == 3
        lists["pi0_values"].append(1)
        with pytest.raises(ConfigError) as refused:
            GridSpec(**lists)
        assert refused.value.problems == [
            f"grid: {74 * largest // 73} settings, past the {largest} a sweep can index"
        ]


class TestExpandAndFilter:
    def test_matched_pair_removed_under_treat_everyone(self):
        assert historic_step_sign(1, math.log(1.8), math.log(1 / 1.8)) == 0

    def test_treat_no_one_retained_for_any_interaction(self):
        assert historic_step_sign(0, math.log(1.1), math.log(1 / 2.5)) != 0

    def test_counts(self):
        grid = default_grid()
        retained = expand_and_filter(grid)
        assert grid.cardinality == 4840
        assert len(retained) == 4620
        assert grid.cardinality - len(retained) == 220

    def test_canonical_order_is_lexicographic(self):
        grid = default_grid()
        retained = expand_and_filter(grid)
        keys = [
            (
                grid.p_x_values.index(p.p_x),
                grid.pi0_values.index(p.pi0),
                grid.beta0_values.index(p.beta0),
                grid.beta_x_values.index(p.beta_x),
                grid.beta_t_values.index(p.beta_t),
                grid.beta_xt_values.index(p.beta_xt),
                grid.polarities.index(p.polarity),
            )
            for p in retained
        ]
        assert keys == sorted(keys)


class TestRunSweep:
    def test_record_count(self, default_records):
        assert len(default_records) == 4620

    def test_auc_delta_column_consistent(self, default_records):
        for r in default_records:
            assert r.auc_delta == r.auc_post - r.auc_pre

    def test_verdict_lookup_consistency_everywhere(self, default_records):
        from opmdeploy.classify import verdict_from_signs
        from opmdeploy.scenario import sign_with_band

        for r in default_records:
            lookup = verdict_from_signs(r.polarity, r.pi0, sign_with_band(r.auc_delta))
            assert lookup is r.verdict

    def test_determinism_byte_identical(self, default_records, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(default_records, a)
        write_records_csv(grid_records(default_grid()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_runtime_well_under_a_second(self):
        import time

        t0 = time.perf_counter()
        assert len(grid_records(default_grid())) == 4620
        assert time.perf_counter() - t0 < 1.0

    def test_sub_band_fitted_tie_retained(self):
        # beta_x above the log-odds zero band, with fitted values closer
        # than 1e-12: the step sign decides, so the setting is kept
        grid = GridSpec(
            p_x_values=(0.5,), pi0_values=(0,), beta0_values=(-0.5,),
            beta_x_values=(2e-12, 0.5), beta_t_values=(0.3,),
            beta_xt_values=(0.0,), polarities=(OutcomePolarity.DESIRABLE,),
        )
        assert len(expand_and_filter(grid)) == 2
        records = Records.join(grid_records(grid).chunks())
        assert records.columns["beta_x"].tolist() == [2e-12, 0.5]
        assert list(records)[0].verdict is Verdict.BENEFICIAL


class TestRecordsColumns:
    def test_where_selects_rows_in_order(self, default_records):
        rows = list(default_records)
        for polarity in OutcomePolarity:
            for pi0 in (0, 1):
                picked = default_records.where(polarity=polarity, pi0=pi0)
                assert list(picked) == [
                    r for r in rows if r.polarity is polarity and r.pi0 == pi0
                ]
                assert default_records.mask(polarity=polarity, pi0=pi0).tolist() == [
                    r.polarity is polarity and r.pi0 == pi0 for r in rows
                ]
        picked = default_records.where(avg_treatment_beneficial=True, verdict=Verdict.HARMFUL)
        assert list(picked) == [
            r for r in rows if r.avg_treatment_beneficial and r.verdict is Verdict.HARMFUL
        ]
        assert list(default_records.where()) == rows

    def test_join_concatenates_chunks_in_order(self, default_records, monkeypatch):
        monkeypatch.setattr(sweep, "CHUNK", 97)  # chunk edges inside runs of settings
        joined = Records.join(grid_records(default_grid()).chunks())
        for name in CSV_COLUMNS:
            column = joined.columns[name]
            assert column.dtype == default_records.columns[name].dtype, name
            assert np.array_equal(column, default_records.columns[name]), name


    def test_join_keeps_the_named_columns(self, default_records, monkeypatch):
        monkeypatch.setattr(sweep, "CHUNK", 97)
        names = ("polarity", "auc_delta", "pi0", "avg_treatment_beneficial")
        joined = Records.join(grid_records(default_grid()).chunks(), names)
        assert tuple(joined.columns) == names
        for name in names:
            column = joined.columns[name]
            assert column.dtype == default_records.columns[name].dtype, name
            assert np.array_equal(column, default_records.columns[name]), name
        assert len(joined) == len(default_records) == 4620
        picked = joined.where(polarity=OutcomePolarity.DESIRABLE, pi0=1)
        assert tuple(picked.columns) == names
        assert len(picked) == len(default_records.where(polarity=OutcomePolarity.DESIRABLE, pi0=1))

    def test_the_kernels_enum_codes_have_the_readers_dtype(self, default_records):
        # the verdict code is computed as an int64 benefit sign modulo 3
        for name in ("polarity", "verdict"):
            assert default_records.columns[name].dtype == sweep._COLUMN_DTYPES[name] == np.int8

    def test_join_of_no_chunks_gives_empty_columns(self):
        names = ("auc_pre", "verdict", "harmful_marginal")
        joined = Records.join([], names)
        assert tuple(joined.columns) == names
        for name in names:
            assert joined.columns[name].shape == (0,)
            assert joined.columns[name].dtype == sweep._COLUMN_DTYPES[name]
        assert len(joined) == 0
        assert tuple(Records.join([]).columns) == CSV_COLUMNS


class TestSignTable:
    def test_canonical_counts(self, default_records):
        assert aggregate_sign_table(default_records) == CANONICAL_SIGN_TABLE

    def test_uniform_sign_cells_are_pure(self, default_records):
        table = aggregate_sign_table(default_records)
        for cell in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert table[cell][1] == 0  # nonnegative effects: all self-fulfilling
        assert table[(-1, -1)][0] == 0  # all-negative effects: none

    def test_mixed_cells_contain_both_outcomes(self, default_records):
        table = aggregate_sign_table(default_records)
        for cell in [(-1, 0), (-1, 1), (0, -1), (1, -1)]:
            assert table[cell][0] > 0 and table[cell][1] > 0

    def test_reference_delta_is_swap_plus_twelve(self, default_records):
        table = aggregate_sign_table(default_records)
        delta = reference_delta(table)
        assert delta["retained"] == 4620
        assert delta["reference_total"] == REFERENCE_SIGN_TOTAL == 4632
        assert delta["count_delta"] == 12
        assert delta["cell_deltas_after_orientation_swap"] == {
            "(-1,-1)": [8, 0],
            "(1,-1)": [0, 4],
        }

    def test_reference_matches_after_swap_except_flagged_cells(self, default_records):
        table = aggregate_sign_table(default_records)
        for cell, (sf, nsf) in table.items():
            ref_sf, ref_nsf = REFERENCE_SIGN_TABLE[cell]
            if cell == (-1, -1):
                assert (ref_sf, ref_nsf) == (nsf + 8, sf)
            elif cell == (1, -1):
                assert (ref_sf, ref_nsf) == (nsf, sf + 4)
            else:
                assert (ref_sf, ref_nsf) == (nsf, sf)


class TestHarmTable:
    def test_fractions_and_counts(self, default_records):
        table = aggregate_harm_table(default_records)
        seen = {}
        for (pol, pi0, sf), (harmed, total) in table.items():
            assert total > 0
            seen[(POLARITY_WORD[pol], pi0, sf)] = (total, harmed / total)
        assert seen == CANONICAL_HARM_TABLE

    def test_no_change_scenarios_excluded(self, default_records):
        table = aggregate_harm_table(default_records)
        covered = sum(total for _, total in table.values())
        no_change = sum(1 for r in default_records if r.verdict is Verdict.NO_CHANGE)
        assert covered + no_change == len(default_records)
        assert no_change == 420


class TestAvgBeneficialFilter:
    def test_zero_effect_excluded(self, default_records):
        kept = default_records.where(avg_treatment_beneficial=True).columns
        assert not np.any((kept["beta_t"] == 0.0) & (kept["beta_xt"] == 0.0))
        assert 0 < len(kept["p_x"]) < len(default_records)

    def test_uniformly_positive_effects_included_when_desirable(self, default_records):
        for r in default_records:
            if (
                r.polarity is OutcomePolarity.DESIRABLE
                and r.cate0 > 0
                and r.cate1 > 0
            ):
                assert r.avg_treatment_beneficial

    def test_agreeing_effect_signs_decide_over_the_float_average(self):
        # Both log-odds effects are +0.5, but cate0 underflows to 0.0 and
        # the float average 2.8e-17 lies inside the coefficient band.
        grid = one_grid(
            pi0_values=[0], beta0_values=[37.0], beta_x_values=[-74.0],
            polarities=[OutcomePolarity.DESIRABLE],
        )
        records, _, _ = record_columns(grid)
        (row,) = records
        assert (row.cate0, row.cate1) == (0.0, 5.5355694987173984e-17)
        assert row.avg_treatment_beneficial
        (oracle_row,), _, _ = oracle(grid)
        assert oracle_row.avg_treatment_beneficial

    def test_weighted_average_decides(self):
        # Effects of equal size and opposed signs (+ at X=0, - at X=1): the
        # prevalence weights decide.
        for p_x, sign in ((0.2, 1), (0.8, -1)):
            params = ScenarioParams(
                p_x=p_x, pi0=0, beta0=-0.5, beta_x=1.0, beta_t=0.5, beta_xt=-1.0,
                polarity=OutcomePolarity.DESIRABLE,
            )
            cate = evaluate_scenario(params).po.cate
            assert cate == pytest.approx((0.12246, -0.12246), abs=1e-5)
            assert avg_effect_sign(params, *cate) == sign
            grid = one_grid(
                p_x_values=[p_x], pi0_values=[0], beta_xt_values=[-1.0],
                polarities=[OutcomePolarity.DESIRABLE],
            )
            (row,), _, _ = record_columns(grid)
            (oracle_row,), _, _ = oracle(grid)
            assert row.avg_treatment_beneficial is (sign > 0)
            assert oracle_row.avg_treatment_beneficial is (sign > 0)


class TestCsvRoundTrip:
    def test_header_and_row_count(self, default_records, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(default_records, path)
        rows = path.read_text().splitlines()
        assert rows[0].split(",")[:7] == [
            "p_x", "pi0", "beta0", "beta_x", "beta_t", "beta_xt", "polarity",
        ]
        assert len(rows) == 4621

    def test_round_trip_identity(self, default_records, tmp_path):
        path, again = tmp_path / "records.csv", tmp_path / "again.csv"
        write_records_csv(default_records, path)
        records = read_records_csv(path)
        assert list(records) == list(default_records)
        write_records_csv(records, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("column, cell, message", [
        ("pi0", "2", "expected one of (0, 1), got '2'"),
        ("sign_bt", "5", "expected one of (-1, 0, 1), got '5'"),
        ("verdict", "maybe", "'maybe' is not a valid Verdict"),
        ("self_fulfilling", "yes", "expected true/false, got 'yes'"),
        ("beta_xt", "nan", "expected a finite number, got 'nan'"),
        ("auc_delta", "inf", "expected a finite number, got 'inf'"),
    ])
    def test_out_of_range_cell_names_line_and_column(
        self, default_records, tmp_path, column, cell, message
    ):
        path = tmp_path / "records.csv"
        write_records_csv(default_records, path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        lines[3] = ",".join(cells)
        lines[5] = "short,row"  # a later fault: the first one is reported
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as err:
            read_records_csv(path)
        assert err.value.problems == [f"{path}: line 4, column {column}: {message}"]

    def test_quoted_newline_is_a_fault_of_its_line(self, default_records, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(default_records, path)
        lines = path.read_text().splitlines()
        cells = lines[10].split(",")  # line 11: a quote holds its line end
        cells[0] = f'"{cells[0]}\n"'
        lines[10] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as err:
            read_records_csv(path)
        assert err.value.problems == [f"{path}: line 11: expected 19 cells, got 1"]

    def test_value_rendering(self, default_records, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(default_records, path)
        text = path.read_text().splitlines()
        assert "true" in text[1] or "false" in text[1]
        assert "desirable" in text[1] or "undesirable" in text[1]


# ---------------------------------------------------------------------------
# The kernel against the per-scenario object path, which stays as its
# oracle: record_from_report(evaluate_scenario(p)) for every retained
# setting, written cell by cell through csv.writer.


def oracle(grid: GridSpec):
    """(rows, structural exclusions, unrepresentable exclusions)."""
    expanded = expand_and_filter(grid)
    rows = []
    for params in expanded:
        try:
            rows.append(record_from_report(evaluate_scenario(params)))
        except DegenerateOutcome:
            continue
    return rows, grid.cardinality - len(expanded), len(expanded) - len(rows)


def oracle_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (OutcomePolarity, Verdict)):
        return value.value
    return str(value)


def oracle_csv(rows) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([oracle_cell(getattr(r, c)) for c in CSV_COLUMNS] for r in rows)
    return out.getvalue().encode()


def cells(rows) -> list[tuple[str, ...]]:
    """Each row as the reprs of its cells: -0.0 and 0.0 differ."""
    return [tuple(repr(getattr(r, c)) for c in CSV_COLUMNS) for r in rows]


def assert_kernel_matches_oracle(grid: GridSpec, path) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails
        records, structural, unrepresentable = record_columns(grid)
        streamed = grid_records(grid)
        write_records_csv(streamed, path)
    rows, want_structural, want_unrepresentable = oracle(grid)
    assert (structural, unrepresentable) == (want_structural, want_unrepresentable)
    assert (streamed.counts["structural"], streamed.counts["unrepresentable"]) == (
        structural, unrepresentable,
    )
    assert len(records) == len(streamed) == len(rows)
    assert cells(records) == cells(rows)
    assert path.read_bytes() == oracle_csv(rows)


HUGE = (1e308, -1e308, 1.7976931348623157e308, -8.98846567431158e307)
beta = (
    st.floats(-40.0, 40.0)
    | st.integers(-40, 40)
    | st.sampled_from([0.0, -0.0])
    | st.sampled_from(HUGE)
)


def value_lists(element):
    # [0.0, -0.0] puts both zeros in one list
    return st.lists(element, min_size=1, max_size=2) | st.just([0.0, -0.0])


@st.composite
def grids(draw) -> GridSpec:
    return GridSpec(
        p_x_values=draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=2)),
        pi0_values=draw(st.sampled_from([[0], [1], [0, 1], [1, 0]])),
        beta0_values=draw(value_lists(beta | st.sampled_from([40.0, -40.0, 745.0]))),
        beta_x_values=draw(value_lists(beta)),
        beta_t_values=draw(value_lists(beta)),
        beta_xt_values=draw(value_lists(beta)),
        polarities=draw(st.lists(st.sampled_from(list(OutcomePolarity)), min_size=1, max_size=2)),
    )


def one_grid(**lists) -> GridSpec:
    base = dict(
        p_x_values=[0.5], pi0_values=[0, 1], beta0_values=[-0.5],
        beta_x_values=[1.0], beta_t_values=[0.5], beta_xt_values=[0.0],
        polarities=list(OutcomePolarity),
    )
    return GridSpec(**{**base, **lists})


class TestKernelMatchesOracle:
    def test_default_grid(self, tmp_path):
        assert_kernel_matches_oracle(default_grid(), tmp_path / "sweep.csv")

    @pytest.mark.parametrize("grid", [
        one_grid(beta_t_values=[0.0, -0.0, 2], beta_xt_values=[-1, 0, -0.0, 3]),
        one_grid(beta0_values=[40.0], beta_t_values=[5.0, 0.5]),  # saturated
        one_grid(beta_x_values=list(HUGE), beta_t_values=list(HUGE),
                 beta_xt_values=[-1e308, 1e308, 0.0]),
        # integer values that differ as integers but not as floats
        one_grid(beta_x_values=[10**17 + 1], beta_xt_values=[-(10**17)]),
    ], ids=["signed-zeros-and-ints", "saturated-beta0", "near-float-max", "big-ints"])
    def test_edge_grids(self, grid, tmp_path):
        assert_kernel_matches_oracle(grid, tmp_path / "sweep.csv")

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_random_grids(self, grid):
        with tempfile.TemporaryDirectory() as d:
            assert_kernel_matches_oracle(grid, Path(d) / "sweep.csv")

    def test_chunks_join_to_one_pass(self, monkeypatch, tmp_path):
        whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
        write_records_csv(grid_records(default_grid()), whole)
        monkeypatch.setattr(sweep, "CHUNK", 97)  # chunk edges inside runs of settings
        records = grid_records(default_grid())
        write_records_csv(records, chunked)
        assert chunked.read_bytes() == whole.read_bytes()
        assert (records.counts["structural"], records.counts["unrepresentable"]) == (220, 0)

    def test_exclusions_add_up_over_chunks(self, monkeypatch, tmp_path):
        # 32 settings in chunks of 3: 16 structural, 8 unrepresentable
        monkeypatch.setattr(sweep, "CHUNK", 3)
        grid = one_grid(beta0_values=[40.0, -0.5], beta_x_values=[1.0, 0.0],
                        beta_t_values=[5.0, 0.5])
        assert_kernel_matches_oracle(grid, tmp_path / "sweep.csv")
        records = grid_records(grid)
        assert (len(records), records.counts["structural"], records.counts["unrepresentable"]) == (
            8, 16, 8,
        )


class TestCsvReadInBulk:
    """Every CSV a sweep writes is read back with no line refused, to the
    kernel's columns bit for bit: numpy's float parser reads each repr as
    Python's does, signed zeros and values near the float range included."""

    @staticmethod
    def assert_read_in_bulk(grid: GridSpec, path) -> None:
        records, _, _ = record_columns(grid)
        write_records_csv(records, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "_line_fault", None)  # not called
            again = read_records_csv(path)
        for name in CSV_COLUMNS:
            want = records.columns[name]
            if want.dtype == np.float64:
                assert again.columns[name].tobytes() == want.tobytes(), name
            else:
                assert again.columns[name].tolist() == want.tolist(), name

    @pytest.mark.parametrize("grid", [
        default_grid(),
        one_grid(beta_t_values=[0.0, -0.0, 2], beta_xt_values=[-1, 0, -0.0, 3]),
        one_grid(beta_x_values=list(HUGE), beta_t_values=list(HUGE),
                 beta_xt_values=[-1e308, 1e308, 0.0]),
        one_grid(beta_x_values=[5e-324, 2.2250738585072014e-308], beta_t_values=[1e-300]),
    ], ids=["default", "signed-zeros-and-ints", "near-float-max", "subnormal"])
    def test_edge_grids(self, grid, tmp_path):
        self.assert_read_in_bulk(grid, tmp_path / "sweep.csv")

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_random_grids(self, grid):
        with tempfile.TemporaryDirectory() as d:
            self.assert_read_in_bulk(grid, Path(d) / "sweep.csv")


# ---------------------------------------------------------------------------
# The writer against a per-row reference: each line the cells' texts, the
# floats' repr and the tokens' words, joined by commas. The writer merges
# neighbouring columns into one cell and joins lines a slice at a time; the
# bytes must not show either.

# Floats with every repr form: signed zeros, the smallest subnormal, the
# exponent boundaries of repr (1e-5, 1e16) and values far past them.
WRITER_FLOATS = (0.0, -0.0, 5e-324, 1e-5, 1e16, 1e22, -1.5e300, 0.1, -2.5, 1 / 3)
FLOAT_POOLS = st.lists(st.sampled_from(WRITER_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=4)


def token_values(name: str, kind: type) -> list:
    """The values a token column holds: bools, signs (0/1 for pi0) or enum
    codes."""
    if kind is bool:
        return [False, True]
    if kind is int:
        return [0, 1] if name == "pi0" else [-1, 0, 1]
    return list(range(len(kind)))


def token_text(kind: type, value) -> str:
    if kind is bool:
        return "true" if value else "false"
    return str(value) if kind is int else list(kind)[value].value


def reference_csv(records: Records) -> bytes:
    """The sweep CSV of the records, a row and a cell at a time."""
    lines = [",".join(CSV_COLUMNS)]
    for row in range(len(records)):
        texts = []
        for name in CSV_COLUMNS:
            kind, value = sweep._COLUMN_TYPES[name], records.columns[name][row].item()
            texts.append(repr(float(value)) if kind is float else token_text(kind, value))
        lines.append(",".join(texts))
    return "\n".join(lines).encode() + b"\n"


@st.composite
def writer_records(draw) -> Records:
    """Records of 1 to 48 rows, each float column drawn from a pool of at
    most four values, so cells repeat and columns merge; from 3 rows on,
    every token code appears in its column. Which row holds which value
    comes from a seeded generator: drawing each cell costs more than the
    write it tests."""
    rows = draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    columns = {}
    for name in CSV_COLUMNS:
        kind = sweep._COLUMN_TYPES[name]
        if kind is float:
            pool = draw(FLOAT_POOLS)
            values = rng.choice(np.array(pool), rows)
        else:  # each token once, in some order, then any
            pool = token_values(name, kind)
            values = np.concatenate([rng.permutation(pool), rng.choice(pool, rows)])[:rows]
        columns[name] = values.astype(sweep._COLUMN_DTYPES[name])
    return Records(columns)


def chunked(records: Records, size: int):
    """The records as a stream of chunks of `size` rows."""
    chunks = [Records({name: column[at:at + size] for name, column in records.columns.items()})
              for at in range(0, len(records), size)]
    return SimpleNamespace(chunks=lambda: chunks)


def assert_writes_reference(records: Records, size: int, lines_at_once: int) -> None:
    want = reference_csv(records)
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "CHUNK", size)
        mp.setattr(sweep, "_SLICE", lines_at_once)
        path = Path(d) / "sweep.csv"
        write_records_csv(chunked(records, size), path)
        assert path.read_bytes() == want
        assert sweep._written is None if size < len(records) else sweep._written[0] == want


class TestWriterBytes:
    @settings(max_examples=100, deadline=None)
    @given(writer_records(), st.data())
    def test_random_records_in_one_chunk_and_in_many(self, records, data):
        lines_at_once = data.draw(st.integers(1, 8), label="lines at once")
        assert_writes_reference(records, len(records), lines_at_once)
        size = data.draw(st.integers(1, len(records)), label="chunk size")
        assert_writes_reference(records, size, lines_at_once)

    @staticmethod
    def records(rows: int) -> Records:
        # p_x takes two values and pi0 has two tokens: four texts merged
        columns = dict(record_columns(default_grid())[0].columns)
        at = np.arange(rows) % 2
        columns = {name: column[:rows].copy() for name, column in columns.items()}
        columns["p_x"], columns["pi0"] = np.array([0.2, 0.5])[at], at.astype(np.int8)
        return Records(columns)

    @pytest.mark.parametrize("rows, merged", [(1, False), (2, False), (3, False),
                                              (15, False), (16, True)])
    def test_a_merge_lands_on_the_bound(self, rows, merged):
        # merged texts number at most a quarter of the chunk's rows: 4 at 16
        records = self.records(rows)
        first = sweep._cell_groups(records)[0][0].tolist()
        if merged:
            assert first[:2] == [f"0.2,{pi0},{first[0][6:]}" for pi0 in (0, 1)]
        else:
            assert first == ["0.2,", "0.5,"][:rows]
        if rows < 4:  # no two columns merge at all
            assert len(sweep._cell_groups(records)) == len(CSV_COLUMNS)
        assert_writes_reference(records, rows, 1 << 10)
        assert_writes_reference(records, rows, 3)

    def test_default_grid_is_seven_cells_a_line(self, default_records):
        groups = sweep._cell_groups(default_records)
        assert [len(texts) for texts, _ in groups][-1] == 2 * 3 * 3 * 2 * 3 * 2 * 2
        assert len(groups) == 7
