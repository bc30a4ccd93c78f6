"""The input boundary never leaks a traceback: whatever a config file, a
grid file or a sweep CSV holds, `main` returns one of the documented exit
codes (0 ok, 2 validation, 3 degenerate scenario, 4 I/O)."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

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
def test_any_grid_maps_to_an_exit_code(body):
    run(lambda path, d: ["sweep", "--grid", path, "--out", f"{d}/sweep.csv"], body)


header = ",".join(CSV_COLUMNS).encode()
row = (
    b"0.2,0,-0.5,0.09531017980432493,-0.9162907318741551,0.0,desirable,"
    b"-0.1,-0.1,0.6,0.6,0.0,false,-1,-1,false,harmful,false,false"
)


@fuzz_settings
@given(st.lists(st.sampled_from([header, row]) | st.binary(max_size=30), max_size=4))
def test_any_sweep_csv_maps_to_an_exit_code(lines):
    run(lambda path, d: ["tables", "--csv", path, "--out", f"{d}/tables"], b"\n".join(lines))
