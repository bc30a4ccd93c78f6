"""The paper's characterization as a complete case table.

Every discrete output of a deployment is a function of five signs: the
historic policy `pi0`, the outcome polarity, the historic log-odds step
from X=0 to X=1 (never 0: a zero step is refused), and the signs of
`beta_t` and of `beta_t + beta_xt`, the treatment effects of groups 0 and
1. That gives 2 * 2 * 2 * 3 * 3 = 72 cases. Each expected row below is
derived from the paper's statements and the eight-row verdict oracle
`TestVerdictFromSigns.CASES` alone, and each case is realized by one
scenario at |beta| about 1 and one at |beta| about 20. Both the
per-scenario path and a one-setting sweep must give the row, and the AUC
sign must be the sign of the AUC change in `test_decisions.oracle`'s
120-digit arithmetic. Only discrete outputs are compared: float agreement
at |beta| about 20 is not yet exact.
"""

import itertools

import pytest

from opmdeploy.classify import Verdict
from opmdeploy.report import evaluate_scenario
from opmdeploy.scenario import OutcomePolarity, ScenarioParams
from opmdeploy.sweep import GridSpec, record_columns
import test_classify
import test_decisions

VERDICTS = {
    (pol, pi0, sign): v for pol, pi0, sign, v in test_classify.TestVerdictFromSigns.CASES
}
# (pi0, polarity, historic step sign, sign(beta_t), sign(beta_t + beta_xt))
CASES = list(itertools.product((0, 1), OutcomePolarity, (-1, 1), (-1, 0, 1), (-1, 0, 1)))


def expected_row(pi0, polarity, step, s0, s1) -> dict:
    """The case's discrete outputs, from the paper's statements.

    The fitted predictor reproduces the historic conditionals, so it ranks
    group 1 higher iff the historic step is positive, and the deployed
    policy treats that group. Under treat no one that grants treatment to
    the top group; under treat everyone it withdraws treatment from the
    other one. Either way the AUC moves with the changed group's treatment
    effect: granting moves its outcome with the effect and widens the gap
    the predictor sees, withdrawing moves it against the effect, down from
    the lower-predicted side. A deployment is self-fulfilling iff the AUC
    does not fall, and stays calibrated iff the changed group's outcome
    does not move. Only the changed group can be harmed.
    """
    top = 1 if step > 0 else 0
    changed = top if pi0 == 0 else 1 - top
    auc_sign = (s0, s1)[changed]
    verdict = Verdict.NO_CHANGE if auc_sign == 0 else VERDICTS[polarity, pi0, auc_sign]
    harmful = verdict is Verdict.HARMFUL
    shift = auc_sign if pi0 == 0 else -auc_sign
    return {
        "top": top,
        "changed_group": changed,
        "auc_sign": auc_sign,
        "self_fulfilling": auc_sign >= 0,
        "calibrated_post": auc_sign == 0,
        "verdict": verdict,
        "harmful_group": (harmful and changed == 0, harmful and changed == 1),
        "harmful_marginal": harmful,
        "direction": {0: "=", 1: ">", -1: "<"}[shift],
    }


def case_scenario(pi0, polarity, step, s0, s1, scale: float) -> ScenarioParams:
    """A scenario with the case's signs and coefficients near `scale` in
    magnitude. A zero group-1 effect is exact, beta_xt = -beta_t; beta0
    centres the four cells' log-odds on 0, so p(Y=1) stays inside (0, 1)."""
    beta_t = s0 * scale
    beta_xt = s1 * 1.5 * scale - beta_t
    beta_x = step * 0.5 * scale - pi0 * beta_xt
    cells = (0.0, beta_x, beta_t, beta_x + beta_t + beta_xt)
    return ScenarioParams(
        p_x=0.3, pi0=pi0, beta0=-(max(cells) + min(cells)) / 2, beta_x=beta_x,
        beta_t=beta_t, beta_xt=beta_xt, polarity=polarity,
    )


def sign(value) -> int:
    return (value > 0) - (value < 0)


def case_id(case) -> str:
    pi0, polarity, step, s0, s1 = case
    return f"pi0={pi0}-{polarity.value}-step{step:+d}-bt{s0:+d}-btxt{s1:+d}"


def test_every_case_is_listed_once():
    assert len(CASES) == len(set(CASES)) == 72
    assert len(VERDICTS) == 8


@pytest.mark.parametrize("scale", [1.0, 20.0])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_case(case, scale):
    pi0, polarity, step, s0, s1 = case
    p = case_scenario(*case, scale)
    assert (sign(p.beta_x + p.beta_xt * pi0), sign(p.beta_t), sign(p.beta_t + p.beta_xt)) == (
        step, s0, s1)
    row = expected_row(*case)
    assert test_decisions.oracle(p) == row["auc_sign"]

    r = evaluate_scenario(p)
    assert {
        "top": r.top,
        "changed_group": r.harm.changed_group,
        "auc_sign": r.auc_sign,
        "self_fulfilling": r.self_fulfilling,
        "calibrated_post": r.calibration_post.is_calibrated,
        "verdict": r.verdict,
        "harmful_group": r.harm.harmful_group,
        "harmful_marginal": r.harm.harmful_marginal,
        "direction": r.checks()["shift_subcase"].direction,
    } == row

    grid = GridSpec(*([v] for v in (p.p_x, pi0, p.beta0, p.beta_x, p.beta_t, p.beta_xt,
                                    polarity)))
    records, structural, unrepresentable = record_columns(grid)
    assert (len(records), structural, unrepresentable) == (1, 0, 0)
    (rec,) = records
    assert (rec.sign_bt, rec.sign_bt_plus_bxt) == (s0, s1)
    expected = {k: row[k] for k in ("self_fulfilling", "calibrated_post", "verdict",
                                    "harmful_marginal")}
    assert {k: getattr(rec, k) for k in expected} == expected
