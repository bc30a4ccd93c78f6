"""The input boundary never leaks a traceback: whatever a config file, a
grid file, a sweep CSV or the command line holds, `main` returns one of the
documented exit codes (0 ok, 2 validation, 3 degenerate scenario, 4 I/O)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from opmdeploy.cli import main
from opmdeploy.scenario import PARAM_FIELDS
from opmdeploy.sweep import CSV_COLUMNS, GRID_KEYS

EXIT_CODES = {0, 2, 3, 4}

scalars = (
    st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans()
    | st.text(max_size=6)
    | st.none()
)
junk = scalars | st.lists(scalars, max_size=2) | st.dictionaries(
    st.text(max_size=3), scalars, max_size=2
)


def one_in(n: int):
    """True about once in n draws. Hypothesis favours the ends of a range,
    so the rare case is its middle value."""
    return st.integers(0, n - 1).map(lambda i: i == n // 2)


def mostly(valid, n: int = 10):
    """Anything at all about once in n draws, `valid` otherwise (a plain
    `|` would weigh each of junk's branches like `valid`)."""
    return one_in(n).flatmap(lambda rare: junk if rare else valid)


# Per scenario field, a value it accepts.
VALID = {
    "p_x": st.floats(0.01, 0.99),
    "pi0": st.sampled_from([0, 1]),
    "polarity": st.sampled_from(["desirable", "undesirable"]),
}
fuzz_settings = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def field_value(name: str):
    real = st.floats(-50.0, 50.0) | st.floats(allow_nan=False, allow_infinity=False)
    return mostly(VALID.get(name, real | st.integers(-3, 3)))


@st.composite
def json_documents(draw, keys, value_for):
    """Mostly a JSON object over `keys` (one may be missing, one unknown
    key may be added); otherwise another JSON value or raw bytes."""
    doc = {key: draw(value_for(key)) for key in keys}
    if draw(one_in(10)):
        del doc[draw(st.sampled_from(keys))]
    if draw(one_in(10)):
        doc[draw(st.text(max_size=4))] = draw(junk)
    if draw(one_in(10)):
        return draw(st.binary(max_size=12))
    return json.dumps(draw(mostly(st.just(doc)))).encode()


def grid_list(key: str):
    name = PARAM_FIELDS[GRID_KEYS.index(key)]
    return mostly(st.lists(field_value(name), min_size=1, max_size=2), n=30)


def run(argv_for, body: bytes) -> None:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input"
        path.write_bytes(body)
        rc = main(argv_for(str(path), d))
    assert rc in EXIT_CODES, rc


@fuzz_settings
@given(json_documents(PARAM_FIELDS, field_value), st.sampled_from(["eval", "simulate"]))
def test_any_config_maps_to_an_exit_code(body, command):
    extra = ["--samples", "20"] if command == "simulate" else []
    run(lambda path, d: [command, "--config", path, "--out", f"{d}/out.json", *extra], body)


@fuzz_settings
@given(json_documents(GRID_KEYS, grid_list))
# a grid sweep accepts whose odds ratio exp(710) plot could not compute
@example(json.dumps({
    "p_x_values": [0.5], "pi0_values": [0], "beta0_values": [0.0], "beta_x_values": [1.0],
    "beta_t_values": [710.0], "beta_xt_values": [0.0], "polarities": ["desirable"],
}).encode())
def test_any_grid_maps_to_an_exit_code(body):
    run(lambda path, d: ["sweep", "--grid", path, "--out", f"{d}/sweep.csv"], body)
    run(lambda path, d: ["tables", "--grid", path, "--out", f"{d}/tables"], body)
    run(lambda path, d: ["plot", "--grid", path, "--out", f"{d}/figures"], body)


header = ",".join(CSV_COLUMNS).encode()
row = (
    b"0.2,0,-0.5,0.09531017980432493,-0.9162907318741551,0.0,desirable,"
    b"-0.1,-0.1,0.6,0.6,0.0,false,-1,-1,false,harmful,false,false"
)


@fuzz_settings
@given(st.lists(st.sampled_from([header, row]) | st.binary(max_size=30), max_size=4))
def test_any_sweep_csv_maps_to_an_exit_code(lines):
    run(lambda path, d: ["tables", "--csv", path, "--out", f"{d}/tables"], b"\n".join(lines))


# ---------------------------------------------------------------------------
# argv: every subcommand's options, each left out, given once or given
# twice, with numbers, NaN, infinities, huge integers, empty strings and
# paths to good, bad and missing files. argparse's own refusal (SystemExit
# with code 2) counts as exit 2.

GOOD_CONFIG = {
    "p_x": 0.3, "pi0": 1, "beta0": 0.5, "beta_x": -1.5, "beta_t": 0.0,
    "beta_xt": 1.0, "polarity": "desirable",
}
SMALL_GRID = {
    "p_x_values": [0.3], "pi0_values": [0, 1], "beta0_values": [-0.5],
    "beta_x_values": [0.5], "beta_t_values": [-0.4, 0.4],
    "beta_xt_values": [-0.5, 0.0], "polarities": ["desirable"],
}
argv_text = st.text(st.characters(blacklist_characters="\x00"), max_size=6)
number = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats().map(repr),  # also nan, inf, -inf
    st.sampled_from(["nan", "inf", "-inf", "1e400", str(10**30), str(-(2**64)), ""]),
    argv_text,
)
path = st.sampled_from(
    ["config.json", "grid.json", "sweep.csv", "missing.json", "", ".", "nodir/out"]
) | argv_text


def option(*good, bad=number):
    """A value the option accepts about five draws in six, else `bad`."""
    return one_in(6).flatmap(lambda rare: bad if rare else st.sampled_from(good))


SCENARIO_OPTIONS = {
    "--config": option("config.json", bad=path),
    **{flag: option("0.3", "-1.5", "0") for flag in ("--p-x", "--beta0", "--beta-x", "--beta-t", "--beta-xt")},
    "--pi0": option("0", "1"),
    "--polarity": option("desirable", "undesirable", bad=number | path),
}
OUT = option("out", "out.json", bad=path)
RECORDS_OPTIONS = {"--csv": option("sweep.csv", bad=path), "--grid": option("grid.json", bad=path)}
OPTIONS = {
    "eval": {**SCENARIO_OPTIONS, "--out": OUT},
    "sweep": {"--grid": option("grid.json", "default", bad=path), "--out": OUT},
    "tables": {**RECORDS_OPTIONS, "--out": OUT},
    "plot": {**RECORDS_OPTIONS, "--out": OUT},
    "simulate": {
        **SCENARIO_OPTIONS,
        "--seed": option("7", str(2**64 - 1), bad=number | st.integers(-(2**70), 2**70).map(str)),
        # past MAX_SAMPLES a count is refused before any draw; a count
        # between a few hundred and that cap would allocate up to gigabytes
        "--samples": option("1", "50", "300", str(10**8 + 1), str(10**30)),
        "--scenario-index": option("0", "3", str(2**70)),
        "--out": OUT,
        "--dump-samples": option("dump", bad=path),
    },
}


@st.composite
def argvs(draw) -> list[str]:
    command = draw(option(*OPTIONS, bad=argv_text))
    argv = [command]
    for flag, values in OPTIONS.get(command, {}).items():
        for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):  # missing, once, twice
            argv += [flag, draw(values)]
    if draw(one_in(20)):
        argv.insert(draw(st.integers(0, len(argv))), draw(argv_text))
    return argv


def run_argv(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as d, contextlib.chdir(d):
        Path("config.json").write_text(json.dumps(GOOD_CONFIG))
        Path("grid.json").write_text(json.dumps(SMALL_GRID))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            main(["sweep", "--grid", "grid.json", "--out", "sweep.csv"])
            try:
                return main(argv)
            except SystemExit as exc:  # argparse: usage errors, --help
                return exc.code


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
# sample counts numpy refused with ValueError and MemoryError tracebacks
@example(["simulate", "--config", "config.json", "--samples", str(10**30)])
@example(["simulate", "--config", "config.json", "--samples", str(10**13)])
def test_any_argv_maps_to_an_exit_code(argv):
    assert run_argv(argv) in EXIT_CODES
