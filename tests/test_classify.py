from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import LN25
from opmdeploy.classify import (
    CheckStatus,
    SubcaseRow,
    Verdict,
    check_calibration_preservation,
    check_uniform_effect_rule,
    classify_shift_subcase,
    verdict_from_signs,
)
from opmdeploy.errors import DegenerateScenario
from opmdeploy.report import evaluate_scenario
from opmdeploy.scenario import OutcomePolarity, ScenarioParams, sign_with_band
from test_scenario import scenario_st

DESIRABLE = OutcomePolarity.DESIRABLE
UNDESIRABLE = OutcomePolarity.UNDESIRABLE

# Withdrawing-effective-therapy example: everyone historically treated, the
# model predicts lower survival for the fast-progressing group (X=1), which
# is exactly the group the treatment helps. Deploying "treat the
# higher-predicted group" withdraws therapy where it works.
RADIOTHERAPY = ScenarioParams(
    p_x=0.3, pi0=1, beta0=0.5, beta_x=-1.5, beta_t=0.0, beta_xt=1.0,
    polarity=DESIRABLE,
)


class TestAssessHarm:
    def test_withdrawing_effective_treatment_harms_that_group(self):
        r = evaluate_scenario(RADIOTHERAPY)
        assert r.po.cate[0] == 0.0
        assert r.po.cate[1] > 0.0
        assert r.policy_post == (1, 0)
        assert r.harm.changed_group == 1
        assert r.harm.harmful_group == (False, True)
        assert r.harm.harmful_marginal

    def test_zero_effect_changes_nothing(self):
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=0.0, beta_xt=0.0,
            polarity=DESIRABLE,
        )
        r = evaluate_scenario(params)
        assert r.harm.outcome_shift == (0.0, 0.0)
        assert not r.harm.harmful_marginal
        assert r.verdict is Verdict.NO_CHANGE

    def test_granting_effective_treatment_is_beneficial(self):
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=LN25, beta_xt=0.0,
            polarity=DESIRABLE,
        )
        r = evaluate_scenario(params)
        assert r.harm.changed_group == 1
        assert r.harm.outcome_shift[1] == pytest.approx(0.1886720038027030, abs=1e-12)
        assert not r.harm.harmful_marginal
        assert r.verdict is Verdict.BENEFICIAL

    def test_polarity_reverses_the_comparison(self):
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=LN25, beta_xt=0.0,
            polarity=UNDESIRABLE,
        )
        r = evaluate_scenario(params)
        assert r.harm.harmful_marginal
        assert r.verdict is Verdict.HARMFUL

    @given(scenario_st)
    def test_unchanged_group_never_harmed_and_marginal_matches_changed(self, params):
        try:
            r = evaluate_scenario(params)
        except DegenerateScenario:
            return
        c = r.harm.changed_group
        assert c is not None  # fitted threshold policy always differs from constant
        assert not r.harm.harmful_group[1 - c]
        assert r.harm.harmful_marginal == r.harm.harmful_group[c]


def _harm_condition_oracle(report) -> bool:
    """Independent restatement of when a deployment harms some group:
    treatment was withdrawn from a group it helped, or granted to a group
    it damages — with 'helps'/'damages' flipped for undesirable outcomes."""
    p = report.params
    for x in (0, 1):
        before = report.policy_pre[x]
        after = report.policy_post[x]
        # the sign of cate[x], restated by its log-odds effect
        effect = p.polarity.favorable_sign * (p.beta_t + p.beta_xt * x)
        if before == 1 and after == 0 and effect > 1e-12:
            return True
        if before == 0 and after == 1 and effect < -1e-12:
            return True
    return False


class TestHarmConditionEquivalence:
    def test_matches_on_the_default_grid(self):
        from opmdeploy.sweep import default_grid, expand_and_filter

        for params in expand_and_filter(default_grid()):
            r = evaluate_scenario(params)
            assert r.harm.harmful_marginal == _harm_condition_oracle(r)

    @given(scenario_st)
    def test_matches_on_random_scenarios(self, params):
        try:
            r = evaluate_scenario(params)
        except DegenerateScenario:
            return
        assert r.harm.harmful_marginal == _harm_condition_oracle(r)


def direct_verdict(report) -> Verdict:
    """Oracle for the lookup: the verdict read straight off the outcome
    shift of the group whose assignment changed. That shift is
    +-(q[1][x] - q[0][x]), granted or withdrawn, so its sign is restated by
    the group's log-odds effect, which carries the zero band."""
    pre, post = report.policy_pre, report.policy_post
    changed = [x for x in (0, 1) if pre[x] != post[x]]
    if not changed:
        return Verdict.NO_CHANGE
    x = changed[0]
    p = report.params
    shift = (post[x] - pre[x]) * sign_with_band(p.beta_t + p.beta_xt * x)
    signed = p.polarity.favorable_sign * shift
    if signed == 0:
        return Verdict.NO_CHANGE
    return Verdict.HARMFUL if signed < 0 else Verdict.BENEFICIAL


class TestVerdictFromSigns:
    # The eight (polarity, historic policy, AUC sign) cells.
    CASES = [
        (UNDESIRABLE, 0, +1, Verdict.HARMFUL),
        (UNDESIRABLE, 0, -1, Verdict.BENEFICIAL),
        (UNDESIRABLE, 1, +1, Verdict.BENEFICIAL),
        (UNDESIRABLE, 1, -1, Verdict.HARMFUL),
        (DESIRABLE, 0, +1, Verdict.BENEFICIAL),
        (DESIRABLE, 0, -1, Verdict.HARMFUL),
        (DESIRABLE, 1, +1, Verdict.HARMFUL),
        (DESIRABLE, 1, -1, Verdict.BENEFICIAL),
    ]

    @pytest.mark.parametrize("polarity,pi0,sign,expected", CASES)
    def test_all_rows(self, polarity, pi0, sign, expected):
        assert verdict_from_signs(polarity, pi0, sign) is expected

    @pytest.mark.parametrize("polarity", [DESIRABLE, UNDESIRABLE])
    @pytest.mark.parametrize("pi0", [0, 1])
    def test_zero_band_is_no_change(self, polarity, pi0):
        assert verdict_from_signs(polarity, pi0, 0) is Verdict.NO_CHANGE

    @given(scenario_st)
    def test_lookup_matches_direct_assessment(self, params):
        try:
            r = evaluate_scenario(params)
        except DegenerateScenario:
            return
        assert verdict_from_signs(params.polarity, params.pi0, r.auc_sign) is r.verdict
        assert direct_verdict(r) is r.verdict


class TestUniformEffectRule:
    def test_both_effects_up_passes(self):
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=LN25, beta_xt=0.0,
            polarity=DESIRABLE,
        )
        r = evaluate_scenario(params)
        assert r.self_fulfilling
        assert check_uniform_effect_rule(r).status is CheckStatus.PASS

    def test_both_effects_down_passes(self):
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=-LN25, beta_xt=0.0,
            polarity=DESIRABLE,
        )
        r = evaluate_scenario(params)
        assert not r.self_fulfilling
        assert check_uniform_effect_rule(r).status is CheckStatus.PASS

    def test_mixed_signs_not_applicable(self):
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=-0.4, beta_xt=0.9,
            polarity=DESIRABLE,
        )
        r = evaluate_scenario(params)
        assert check_uniform_effect_rule(r).status is CheckStatus.NOT_APPLICABLE

    @given(scenario_st)
    def test_never_fails(self, params):
        try:
            r = evaluate_scenario(params)
        except DegenerateScenario:
            return
        assert check_uniform_effect_rule(r).status is not CheckStatus.FAIL


class TestShiftSubcase:
    def test_outcome_up_under_treat_no_one(self):
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=LN25, beta_xt=0.0,
            polarity=DESIRABLE,
        )
        report = evaluate_scenario(params)
        row = classify_shift_subcase(report)
        assert report.harm.changed_group == 1
        assert row == SubcaseRow(direction=">", expected_self_fulfilling=True, consistent=True)

    def test_outcome_down_under_treat_everyone(self):
        # removing a beneficial treatment: shift down, historically treated
        assert RADIOTHERAPY.pi0 == 1
        report = evaluate_scenario(RADIOTHERAPY)
        row = classify_shift_subcase(report)
        assert report.harm.changed_group == 1
        assert row == SubcaseRow(direction="<", expected_self_fulfilling=True, consistent=True)

    def test_no_outcome_change_trivially_self_fulfilling(self):
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=0.0, beta_xt=0.0,
            polarity=DESIRABLE,
        )
        row = classify_shift_subcase(evaluate_scenario(params))
        assert row == SubcaseRow(direction="=", expected_self_fulfilling=True, consistent=True)

    # Every (pi0, direction) subcase, from explicit coefficients: with
    # beta_x > 0 and beta_xt = 0 group 1 ranks higher, so treat no one
    # grants treatment to group 1 and treat everyone withdraws it from
    # group 0, and the shift follows sign(beta_t) under pi0=0 and opposes
    # it under pi0=1. Self-fulfilling: shift up under pi0=0, shift down
    # under pi0=1, or no shift.
    @pytest.mark.parametrize("pi0, beta_t, changed, direction, expected", [
        (0, LN25, 1, ">", True),
        (0, -LN25, 1, "<", False),
        (0, 0.0, 1, "=", True),
        (1, -LN25, 0, ">", False),
        (1, LN25, 0, "<", True),
        (1, 0.0, 0, "=", True),
    ])
    def test_each_subcase(self, pi0, beta_t, changed, direction, expected):
        params = ScenarioParams(
            p_x=0.5, pi0=pi0, beta0=-0.5, beta_x=LN25, beta_t=beta_t, beta_xt=0.0,
            polarity=DESIRABLE,
        )
        report = evaluate_scenario(params)
        row = classify_shift_subcase(report)
        assert row == SubcaseRow(
            direction=direction,
            expected_self_fulfilling=expected,
            consistent=True,
        )
        assert report.harm.changed_group == changed
        assert report.self_fulfilling is expected
        shift = report.harm.outcome_shift[changed]
        assert (shift > 0, shift < 0) == (direction == ">", direction == "<")

    @given(scenario_st)
    def test_every_scenario_lands_in_a_consistent_subcase(self, params):
        try:
            r = evaluate_scenario(params)
        except DegenerateScenario:
            return
        assert classify_shift_subcase(r).consistent


class TestCalibrationPreservation:
    def test_zero_effect_calibrated_and_condition_holds(self):
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=0.0, beta_xt=0.0,
            polarity=DESIRABLE,
        )
        r = evaluate_scenario(params)
        assert r.calibration_post.is_calibrated
        assert check_calibration_preservation(r).status is CheckStatus.PASS

    def test_effect_at_changed_group_breaks_calibration(self):
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=LN25, beta_xt=0.0,
            polarity=DESIRABLE,
        )
        r = evaluate_scenario(params)
        assert not r.calibration_post.is_calibrated
        assert check_calibration_preservation(r).status is CheckStatus.PASS

    def test_effect_only_at_unchanged_group_keeps_calibration(self):
        # beta_t + beta_xt = 0 cancels the treated group's effect exactly;
        # the untreated group's nonzero effect never enters the deployed
        # distribution, so the predictor stays calibrated.
        params = ScenarioParams(
            p_x=0.5, pi0=0, beta0=-0.5, beta_x=1.0, beta_t=0.7, beta_xt=-0.7,
            polarity=DESIRABLE,
        )
        r = evaluate_scenario(params)
        assert r.harm.changed_group == 1
        assert r.po.cate[1] == 0.0
        assert r.po.cate[0] != 0.0
        assert r.calibration_post.is_calibrated
        assert check_calibration_preservation(r).status is CheckStatus.PASS

    @given(scenario_st)
    def test_equivalence_never_fails(self, params):
        try:
            r = evaluate_scenario(params)
        except DegenerateScenario:
            return
        assert check_calibration_preservation(r).status is CheckStatus.PASS


class TestCheckersFail:
    """Reports that contradict each theorem, built by replacing one decided
    flag: every checker reaches its FAIL branch."""

    UP = ScenarioParams(
        p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=LN25, beta_xt=0.0,
        polarity=DESIRABLE,
    )
    DOWN = ScenarioParams(
        p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=-LN25, beta_xt=0.0,
        polarity=DESIRABLE,
    )
    NO_EFFECT = ScenarioParams(
        p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=0.0, beta_xt=0.0,
        polarity=DESIRABLE,
    )

    @pytest.mark.parametrize("params, detail", [
        (UP, "effect signs [1, 1] expected self_fulfilling=True, got False"),
        (NO_EFFECT, "effect signs [0, 0] expected self_fulfilling=True, got False"),
        (DOWN, "effect signs [-1, -1] expected self_fulfilling=False, got True"),
    ], ids=["up", "no-effect", "down"])
    def test_uniform_effect_rule_fails_on_a_flipped_flag(self, params, detail):
        r = evaluate_scenario(params)
        result = check_uniform_effect_rule(replace(r, self_fulfilling=not r.self_fulfilling))
        assert result.status is CheckStatus.FAIL
        assert result.detail == detail

    @pytest.mark.parametrize("params", [UP, DOWN, NO_EFFECT, RADIOTHERAPY],
                             ids=["up", "down", "no-effect", "radiotherapy"])
    def test_shift_subcase_is_inconsistent_on_a_flipped_flag(self, params):
        r = evaluate_scenario(params)
        row = classify_shift_subcase(replace(r, self_fulfilling=not r.self_fulfilling))
        assert row == SubcaseRow(
            direction=classify_shift_subcase(r).direction,
            expected_self_fulfilling=r.self_fulfilling,
            consistent=False,
        )

    @pytest.mark.parametrize("params, detail", [
        (NO_EFFECT, "calibrated_pre_and_post=False but inconsequential=True"),
        (UP, "calibrated_pre_and_post=True but inconsequential=False"),
    ], ids=["no-effect", "up"])
    def test_calibration_preservation_fails_on_a_flipped_flag(self, params, detail):
        r = evaluate_scenario(params)
        post = replace(r.calibration_post, is_calibrated=not r.calibration_post.is_calibrated)
        result = check_calibration_preservation(replace(r, calibration_post=post))
        assert result.status is CheckStatus.FAIL
        assert result.detail == detail
