"""Every discrete outcome follows from log-odds coefficient signs, also with
|beta| up to 40, where the outcome probabilities saturate.

A scenario is either refused for one of two reasons, or evaluated with no
failing check, the verdict the sign lookup gives, an AUC sign equal to the
sign of the AUC change computed in 120-digit arithmetic, and a reported
threshold that is absent or lies in [f(other), f(top)). The refusals: a
zero historic log-odds step (DegenerateScenario) or p(Y=1) rounding to
exactly 0 or 1 (DegenerateOutcome). Inside the documented 1e-12 zero band
on the changed group's log-odds effect the AUC sign is 0.
"""

import random

import mpmath
from hypothesis import given, strategies as st

from opmdeploy.classify import CheckResult, CheckStatus, Verdict, verdict_from_signs
from opmdeploy.errors import DegenerateOutcome, DegenerateScenario
from opmdeploy.report import evaluate_scenario
from opmdeploy.scenario import (
    OutcomePolarity,
    ScenarioParams,
    observed_distribution,
    potential_outcomes,
)

import float_oracle

# The 120-digit oracle costs about 0.5 ms a scenario, so the seeded runs
# check one scenario in ORACLE_EVERY against it and all of them otherwise.
SEEDED_N = 20_000
ORACLE_EVERY = 20
POLARITIES = list(OutcomePolarity)


def oracle(params: ScenarioParams) -> int:
    """The sign of the AUC change in 120-digit arithmetic, from the model's
    definition alone (`float_oracle.exact_columns`). 0 where the changed
    group's log-odds effect lies in the 1e-12 zero band."""
    p = params
    exact = float_oracle.exact_columns(p.p_x, p.pi0, p.beta0, p.beta_x, p.beta_t, p.beta_xt, dps=120)
    # a float sum has the exact sum's sign: top is the group exact f ranks higher
    top = int(params.beta_x + params.beta_xt * params.pi0 > 0)
    changed = top if params.pi0 == 0 else 1 - top
    if abs(params.beta_t + params.beta_xt * changed) <= 1e-12:
        return 0
    return int(mpmath.sign(exact["auc_delta"]))


def assert_decided(params: ScenarioParams, with_oracle: bool) -> bool:
    """Assert the contract for one scenario; False if it was refused."""
    try:
        r = evaluate_scenario(params)
    except DegenerateScenario:
        assert abs(params.beta_x + params.beta_xt * params.pi0) <= 1e-12, params
        return False
    except DegenerateOutcome:
        po = potential_outcomes(params)
        top = int(params.beta_x + params.beta_xt * params.pi0 > 0)
        p_y1 = {
            observed_distribution(po, policy, params.p_x).p_y1
            for policy in ((params.pi0, params.pi0), (1 - top, top))
        }
        assert p_y1 & {0.0, 1.0}, (params, p_y1)
        return False
    lam, f = r.opm.lam, r.opm.f
    assert lam is None or f[1 - r.top] <= lam < f[r.top], (params, lam)
    checks = r.checks()
    failed = [
        (name, c.detail)
        for name, c in checks.items()
        if isinstance(c, CheckResult) and c.status is CheckStatus.FAIL
    ]
    assert not failed, (params, failed)
    assert checks["shift_subcase"].consistent, params
    lookup = verdict_from_signs(params.polarity, params.pi0, r.auc_sign)
    assert r.verdict is lookup, params
    assert r.harm.harmful_marginal == (r.verdict is Verdict.HARMFUL), params
    # the deployment changes exactly the group the harm assessment names
    changed = [
        x for x in (0, 1) if r.policy_post[x] != r.policy_pre[x]
    ]
    assert changed == [r.harm.changed_group], params
    if with_oracle:
        assert r.auc_sign == oracle(params), params
    return True


def seeded_params(rng: random.Random, scale: float) -> ScenarioParams:
    return ScenarioParams(
        p_x=rng.uniform(0.05, 0.95),
        pi0=rng.randrange(2),
        beta0=rng.uniform(-scale, scale),
        beta_x=rng.uniform(-scale, scale),
        beta_t=rng.uniform(-scale, scale),
        beta_xt=rng.uniform(-scale, scale),
        polarity=rng.choice(POLARITIES),
    )


def test_seeded_wide_scales():
    for seed, scale in ((20, 20.0), (40, 40.0)):
        rng = random.Random(seed)
        evaluated = sum(
            assert_decided(seeded_params(rng, scale), i % ORACLE_EVERY == 0)
            for i in range(SEEDED_N)
        )
        # saturation refuses a few percent at |beta| <= 40, not more
        assert evaluated >= 0.9 * SEEDED_N, (scale, evaluated)


def test_zero_band_on_changed_effect():
    # beta_t + beta_xt at 1e-13 under treat no one, with group 1 on top: the
    # AUC does move, but by less than the documented band, so the sign is 0
    params = ScenarioParams(
        p_x=0.5, pi0=0, beta0=-0.5, beta_x=1.0, beta_t=0.5, beta_xt=-0.5 + 1e-13,
        polarity=OutcomePolarity.DESIRABLE,
    )
    assert assert_decided(params, with_oracle=True)
    assert evaluate_scenario(params).auc_sign == 0


wide = st.floats(-40.0, 40.0)


@given(
    st.builds(
        ScenarioParams,
        p_x=st.floats(0.05, 0.95),
        pi0=st.sampled_from([0, 1]),
        beta0=wide,
        beta_x=wide,
        beta_t=wide,
        beta_xt=wide,
        polarity=st.sampled_from(POLARITIES),
    ),
)
def test_wide_random_scenarios(params):
    assert_decided(params, with_oracle=True)
