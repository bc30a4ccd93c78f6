"""Byte-for-byte pins of the scalar report path.

`golden/scalar_path.jsonl` holds one `report_to_json` payload per line, as
`json.dumps` writes it, for seeded random scenarios and for named edge
cases. Each line's `config` echo is its scenario, so the test rebuilds
every payload from the file alone and compares the bytes.
"""

import json
import random
from pathlib import Path

from opmdeploy.cli import report_to_json
from opmdeploy.report import evaluate_scenario
from opmdeploy.scenario import ScenarioParams, parse_polarity

GOLDEN = Path(__file__).resolve().parent / "golden" / "scalar_path.jsonl"

EDGE_CASES = (
    # zero effect in both groups: the '=' subcase, calibrated after
    {"p_x": 0.5, "pi0": 0, "beta0": -0.5, "beta_x": 0.9162907318741551,
     "beta_t": 0.0, "beta_xt": 0.0, "polarity": "desirable"},
    {"p_x": 0.5, "pi0": 1, "beta0": -0.5, "beta_x": -0.9, "beta_t": 0,
     "beta_xt": 0, "polarity": "undesirable"},
    # zero effect in the changed group only, under each historic policy
    {"p_x": 0.3, "pi0": 0, "beta0": 0.2, "beta_x": 1.1, "beta_t": 0.7,
     "beta_xt": -0.7, "polarity": "desirable"},
    {"p_x": 0.3, "pi0": 1, "beta0": 0.5, "beta_x": -1.5, "beta_t": 0.0,
     "beta_xt": 1.0, "polarity": "desirable"},
    # both effects strictly negative, and both strictly positive
    {"p_x": 0.6, "pi0": 0, "beta0": 0.1, "beta_x": 0.8, "beta_t": -0.4,
     "beta_xt": -0.3, "polarity": "undesirable"},
    {"p_x": 0.6, "pi0": 1, "beta0": 0.1, "beta_x": 0.8, "beta_t": 0.4,
     "beta_xt": 0.3, "polarity": "undesirable"},
    # f(0) and f(1) round to one float: the single calibration level
    {"p_x": 0.5, "pi0": 0, "beta0": 36.0, "beta_x": 0.01, "beta_t": -30.0,
     "beta_xt": 0.0, "polarity": "desirable"},
    # rounding misorders f(0) and f(1): no threshold is echoed
    {"p_x": 0.5, "pi0": 1, "beta0": -26145.68172930212,
     "beta_x": -14483.249621949799, "beta_t": 26146.519052852815,
     "beta_xt": 14483.249621949797, "polarity": "desirable"},
)


def random_cases(n: int = 92, seed: int = 20261019) -> list[dict]:
    rng = random.Random(seed)
    return [
        {
            "p_x": rng.uniform(0.05, 0.95),
            "pi0": rng.randrange(2),
            "beta0": rng.uniform(-3.0, 3.0),
            "beta_x": rng.uniform(-3.0, 3.0),
            "beta_t": rng.uniform(-3.0, 3.0),
            "beta_xt": rng.uniform(-3.0, 3.0),
            "polarity": rng.choice(("desirable", "undesirable")),
        }
        for _ in range(n)
    ]


def payload_line(raw: dict) -> str:
    params = ScenarioParams(**{**raw, "polarity": parse_polarity(raw["polarity"])})
    return json.dumps(report_to_json(evaluate_scenario(params), raw))


def golden_lines() -> list[str]:
    return GOLDEN.read_text().splitlines()


def test_the_golden_holds_every_case_in_order():
    configs = [json.loads(line)["config"] for line in golden_lines()]
    assert configs == [*EDGE_CASES, *random_cases()]


def test_each_payload_is_byte_identical():
    for i, line in enumerate(golden_lines()):
        assert payload_line(json.loads(line)["config"]) == line, i


def test_the_cases_reach_every_branch():
    payloads = [json.loads(line) for line in golden_lines()]
    seen = {
        (p["config"]["pi0"], p["config"]["polarity"]) for p in payloads
    }
    assert seen == {(0, "desirable"), (0, "undesirable"),
                    (1, "desirable"), (1, "undesirable")}
    statuses = {p["checks"]["uniform_effect_rule"]["status"] for p in payloads}
    assert statuses == {"pass", "not_applicable"}
    assert {p["checks"]["calibration_preservation"]["status"] for p in payloads} == {"pass"}
    assert {p["checks"]["shift_subcase"]["direction"] for p in payloads} == {"=", "<", ">"}
    assert {p["checks"]["shift_subcase"]["consistent"] for p in payloads} == {True}
    assert {p["verdict"] for p in payloads} == {"harmful", "beneficial", "no_change"}
    assert any(p["opm"]["lambda"] is None for p in payloads)
    assert {len(p["calibration"]["post"]["levels"]) for p in payloads} == {1, 2}
    assert {p["calibration"]["post"]["is_calibrated"] for p in payloads} == {True, False}
