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
    deployment_signs,
    fit_opm,
    historic_policy,
    observed_distribution,
    potential_outcomes,
    zero_step_error,
)


@dataclass(frozen=True)
class DeploymentReport:
    """Everything knowable in closed form about one deployment."""

    params: ScenarioParams
    po: PotentialOutcomes
    opm: Opm
    top: int  # the group the predictor ranks higher, and the one it treats
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

    def checks(self) -> dict[str, CheckResult | SubcaseRow]:
        """The consistency checkers, run against this report."""
        return {
            "uniform_effect_rule": classify.check_uniform_effect_rule(self),
            "shift_subcase": classify.classify_shift_subcase(self),
            "calibration_preservation": classify.check_calibration_preservation(self),
        }


def evaluate_scenario(params: ScenarioParams) -> DeploymentReport:
    """Run the whole closed-form pipeline for one parameterization.

    Every discrete outcome follows from `deployment_signs`, the log-odds
    coefficient signs the sweep kernel decides on columns: the deployed
    policy treats the higher-predicted group `top`, and the sign of the
    changed group's treatment effect is the AUC sign, and fixes the
    verdict, the harm flags and post-deployment calibration. The
    probabilities are reported, never thresholded.

    Raises DegenerateScenario when the historic conditionals coincide and
    DegenerateOutcome when p(Y=1) rounds to 0 or 1.
    """
    step, top, changed, sign = deployment_signs(params)
    if step == 0:
        raise zero_step_error(params)
    verdict = classify.verdict_from_signs(params.polarity, params.pi0, sign)

    po = potential_outcomes(params)
    policy_pre = historic_policy(params.pi0)
    pre = observed_distribution(po, policy_pre, params.p_x)
    opm = fit_opm(pre, top)
    policy_post = Policy(assign=(1 - top, top))
    post = observed_distribution(po, policy_post, params.p_x)
    disc_pre = metrics.discrimination(pre, top)
    disc_post = metrics.discrimination(post, top)
    return DeploymentReport(
        params=params,
        po=po,
        opm=opm,
        top=top,
        policy_pre=policy_pre,
        policy_post=policy_post,
        pre=pre,
        post=post,
        discrimination_pre=disc_pre,
        discrimination_post=disc_post,
        auc_delta=disc_post.auc - disc_pre.auc,
        auc_sign=sign,
        self_fulfilling=sign >= 0,
        calibration_pre=metrics.calibration(opm, pre, params.p_x, is_calibrated=True),
        calibration_post=metrics.calibration(
            opm, post, params.p_x, is_calibrated=sign == 0
        ),
        harm=classify.assess_harm(pre, post, changed, verdict),
        verdict=verdict,
    )
