"""Harm classification, the verdict rule, and consistency checkers.

Sign conventions live in one place, `benefit_sign`: a deployment benefits
the changed group when favorable_sign * (1 - 2*pi0) * s is +1, harms it
when it is -1, and changes nothing when it is 0, where s is the sign of
that group's log-odds treatment effect (the AUC sign). Under treat no one
deployment grants the group treatment, which moves its outcome with the
effect; under treat everyone it withdraws treatment, which moves the
outcome against it; polarity says whether that direction is good. So "the
inequality signs reverse" for undesirable outcomes is implemented exactly
once. The harm flags follow from the verdict, and the checkers read the
same coefficient signs.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from .scenario import ObservedDistribution, OutcomePolarity, effect_sign, frozen_record

if TYPE_CHECKING:  # pragma: no cover
    from .report import DeploymentReport


class Verdict(Enum):
    """Declared in benefit-sign order: 0, +1, -1."""

    NO_CHANGE = "no_change"
    BENEFICIAL = "beneficial"
    HARMFUL = "harmful"


class CheckStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


@frozen_record
class CheckResult:
    status: CheckStatus
    detail: str


@frozen_record
class HarmAssessment:
    """Per-group and marginal harm of a policy change.

    outcome_shift[x] = mu_post(x) - mu_pre(x). A constant historic policy
    and a nonconstant deployed one differ in exactly one group, so marginal
    harm coincides with harm for the changed group.
    """

    outcome_shift: tuple[float, float]
    changed_group: int
    harmful_group: tuple[bool, bool]
    harmful_marginal: bool


def assess_harm(
    pre: ObservedDistribution,
    post: ObservedDistribution,
    changed: int,
    verdict: Verdict,
) -> HarmAssessment:
    """Classify a deployment's effect on each group and on average.

    Only the changed group's outcome moves, so it alone can be harmed, and
    it is harmed iff the verdict is harmful.
    """
    harmful = verdict is Verdict.HARMFUL
    return HarmAssessment(
        outcome_shift=(post.mu[0] - pre.mu[0], post.mu[1] - pre.mu[1]),
        changed_group=changed,
        harmful_group=(harmful and changed == 0, harmful and changed == 1),
        harmful_marginal=harmful,
    )


def benefit_sign(favorable_sign, pi0, auc_sign):
    """+1 if deployment benefits the changed group, -1 if it harms it, 0 if
    it changes nothing: on ints, or elementwise on columns of them.

    The mechanism: a fitted OPM treats the higher-predicted group, so under
    "treat no one" the changed group is the one the model can see improving
    (AUC up <=> outcome up), while under "treat everyone" it is the
    lower-predicted group (AUC up <=> outcome down). Either way the AUC sign
    is the sign of the changed group's log-odds treatment effect.
    """
    return favorable_sign * (1 - 2 * pi0) * auc_sign


# The verdict by benefit sign: index -1 is the last entry.
VERDICT_BY_BENEFIT = tuple(Verdict)


def verdict_from_signs(
    polarity: OutcomePolarity, pi0: int, auc_sign: int
) -> Verdict:
    """Deployment verdict from post-deployment observables alone: what Y=1
    means, what the historic policy was, and whether AUC rose or fell."""
    return VERDICT_BY_BENEFIT[benefit_sign(polarity.favorable_sign, pi0, auc_sign)]


def check_uniform_effect_rule(report: "DeploymentReport") -> CheckResult:
    """Sufficient-condition check: treatment effects that never point down
    force a self-fulfilling deployment, effects that always point down
    (strictly) forbid one. Mixed signs are out of the rule's scope."""
    signs = [effect_sign(report.params, 0), effect_sign(report.params, 1)]
    if min(signs) >= 0:
        expected = True
    elif max(signs) < 0:
        expected = False
    else:
        return CheckResult(
            CheckStatus.NOT_APPLICABLE, f"mixed effect signs {signs}"
        )
    if report.self_fulfilling == expected:
        return CheckResult(
            CheckStatus.PASS,
            f"effect signs {signs} => self_fulfilling={expected}",
        )
    return CheckResult(
        CheckStatus.FAIL,
        f"effect signs {signs} expected self_fulfilling={expected}, "
        f"got {report.self_fulfilling}",
    )


@frozen_record
class SubcaseRow:
    """One row of the exhaustive policy-change case split: the direction of
    the changed group's outcome shift, whether that subcase is
    self-fulfilling, and whether the report's flag agrees."""

    direction: str  # '=', '<', '>'
    expected_self_fulfilling: bool
    consistent: bool


def classify_shift_subcase(report: "DeploymentReport") -> SubcaseRow:
    """Place a scenario in the case split over (changed group, shift
    direction) and compare the subcase's known self-fulfilling value with
    the computed flag.

    With the historic policy constant, "treat no one" always hands
    treatment to the higher-predicted group (shift up => AUC up) and "treat
    everyone" always withdraws it from the lower-predicted group (shift
    down => AUC up); the '=' subcases change nothing and are trivially
    self-fulfilling.
    """
    pi0 = report.params.pi0
    # The sign of the changed group's outcome shift: granting treatment
    # (pi0=0) moves the outcome with the effect, withdrawing it (pi0=1)
    # against it. "=><"[-1] is "<".
    s = benefit_sign(1, pi0, effect_sign(report.params, report.harm.changed_group))
    expected = s == 0 or (s > 0) == (pi0 == 0)
    return SubcaseRow("=><"[s], expected, expected == report.self_fulfilling)


def check_calibration_preservation(report: "DeploymentReport") -> CheckResult:
    """Equivalence check: a predictor fitted on historic data stays
    calibrated after deployment iff, for every group, the assignment did
    not change or the group's treatment effect is zero — i.e. iff the
    deployment changed nothing consequential."""
    pre, post, params = report.policy_pre, report.policy_post, report.params
    condition = (pre[0] == post[0] or effect_sign(params, 0) == 0) and (
        pre[1] == post[1] or effect_sign(params, 1) == 0
    )
    calibrated_both = (
        report.calibration_pre.is_calibrated and report.calibration_post.is_calibrated
    )
    if calibrated_both == condition:
        return CheckResult(
            CheckStatus.PASS,
            f"calibrated_pre_and_post={calibrated_both} <=> inconsequential={condition}",
        )
    return CheckResult(
        CheckStatus.FAIL,
        f"calibrated_pre_and_post={calibrated_both} but inconsequential={condition}",
    )
