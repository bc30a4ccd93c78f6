"""End-to-end evaluation of one scenario: world -> fit -> deploy -> judge."""

from __future__ import annotations

from dataclasses import dataclass

from . import classify, metrics
from .classify import CheckResult, HarmAssessment, SubcaseRow, Verdict
from .metrics import CalibrationReport, DiscriminationMetrics
from .scenario import (
    ObservedDistribution,
    Opm,
    Policy,
    PotentialOutcomes,
    ScenarioParams,
    derive_policy,
    fit_opm,
    historic_policy,
    observed_distribution,
    potential_outcomes,
)


@dataclass(frozen=True)
class DeploymentReport:
    """Everything knowable in closed form about one deployment."""

    params: ScenarioParams
    po: PotentialOutcomes
    opm: Opm
    policy_pre: Policy
    policy_post: Policy
    pre: ObservedDistribution
    post: ObservedDistribution
    discrimination_pre: DiscriminationMetrics
    discrimination_post: DiscriminationMetrics
    auc_delta: float
    auc_sign: int
    self_fulfilling: bool
    calibration_pre: CalibrationReport
    calibration_post: CalibrationReport
    harm: HarmAssessment
    verdict: Verdict
    sign_verdict: Verdict

    def checks(self) -> dict[str, CheckResult | SubcaseRow]:
        """The consistency checkers, run against this report."""
        return {
            "uniform_effect_rule": classify.check_uniform_effect_rule(self.po, self),
            "shift_subcase": classify.classify_shift_subcase(self),
            "calibration_preservation": classify.check_calibration_preservation(self),
        }


def evaluate_scenario(params: ScenarioParams, lam: float | None = None) -> DeploymentReport:
    """Run the whole closed-form pipeline for one parameterization.

    Raises DegenerateScenario when the historic conditionals coincide and
    ConstantPolicy when an explicit `lam` yields a constant rule.
    """
    po = potential_outcomes(params)
    policy_pre = historic_policy(params.pi0)
    pre = observed_distribution(po, policy_pre, params.p_x)
    opm = fit_opm(pre, lam)
    policy_post = derive_policy(opm)
    post = observed_distribution(po, policy_post, params.p_x)

    disc_pre = metrics.discrimination(opm, pre)
    disc_post = metrics.discrimination(opm, post)
    delta = disc_post.auc - disc_pre.auc
    sign = metrics.auc_shift_sign(delta)

    harm = classify.assess_harm(
        pre, post, params.polarity, (policy_pre, policy_post)
    )
    return DeploymentReport(
        params=params,
        po=po,
        opm=opm,
        policy_pre=policy_pre,
        policy_post=policy_post,
        pre=pre,
        post=post,
        discrimination_pre=disc_pre,
        discrimination_post=disc_post,
        auc_delta=delta,
        auc_sign=sign,
        self_fulfilling=metrics.is_self_fulfilling(delta),
        calibration_pre=metrics.calibration(opm, pre, params.p_x),
        calibration_post=metrics.calibration(opm, post, params.p_x),
        harm=harm,
        verdict=classify.direct_verdict(harm, params.polarity),
        sign_verdict=classify.verdict_from_signs(params.polarity, params.pi0, sign),
    )
