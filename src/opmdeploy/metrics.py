"""Closed-form discrimination and calibration for a two-valued predictor.

With a binary feature the predictor takes at most two values, so the ROC
curve has a single interior operating point (the higher-predicted group
called positive) and the area under it is the trapezoid value
(sens + spec) / 2. Sensitivity and specificity come straight off the
four-cell joint by Bayes.
"""

from __future__ import annotations

from .errors import DegenerateOutcome
from .scenario import ObservedDistribution, Opm, frozen_record


@frozen_record
class DiscriminationMetrics:
    sens: float
    spec: float
    auc: float


@frozen_record
class CalibrationLevel:
    """One prediction level: its value alpha, the conditional outcome mean
    E[Y | f(X)=alpha] under the evaluated distribution, and its mass."""

    alpha: float
    conditional_mean: float
    mass: float

    @property
    def gap(self) -> float:
        return abs(self.conditional_mean - self.alpha)


@frozen_record
class CalibrationReport:
    levels: tuple[CalibrationLevel, ...]
    max_gap: float
    is_calibrated: bool


def discrimination(dist: ObservedDistribution, top: int) -> DiscriminationMetrics:
    """Sens/spec/AUC of the fitted predictor against a distribution.

    The operating point calls the higher-predicted group `top` positive
    (decided from the log-odds step, so it stands where f(0) and f(1) round
    to one float):

        sens = p(X=top | Y=1)      spec = p(X=1-top | Y=0)

    and AUC = (sens + spec) / 2. The cells are picked by `top`'s 0/1
    weight, which is exact, so `dist` and `top` may be columns. p(Y=1)
    never rounds past [0, 1], so the one refusal is a division by zero:
    on floats, where p(Y=1) is exactly 0 or 1, it raises DegenerateOutcome;
    on columns those rows' AUCs are not finite.
    """
    (j00, j01), (j10, j11) = dist.joint
    try:
        sens = ((1 - top) * j01 + top * j11) / dist.p_y1
        spec = (top * j00 + (1 - top) * j10) / (1.0 - dist.p_y1)
    except ZeroDivisionError:
        raise DegenerateOutcome(
            f"p(Y=1)={dist.p_y1!r}: sensitivity/specificity undefined"
        ) from None
    return DiscriminationMetrics(sens, spec, 0.5 * (sens + spec))


def calibration(
    opm: Opm, dist: ObservedDistribution, p_x: float, is_calibrated: bool
) -> CalibrationReport:
    """Per-level calibration of the predictor against a distribution.

    One level per distinct predicted value. When f is injective the level at
    f(x) has conditional mean mu(x) and mass p(X=x); a constant predictor
    has the single level (f, p(Y=1), 1). Whether the predictor is calibrated
    is decided by the caller from coefficient signs; the gaps are reported.
    """
    f0, f1 = opm.f
    if f0 == f1:
        levels = (CalibrationLevel(f0, dist.p_y1, 1.0),)
    else:
        levels = (
            CalibrationLevel(f0, dist.mu[0], 1.0 - p_x),
            CalibrationLevel(f1, dist.mu[1], p_x),
        )
    return CalibrationReport(levels, max([level.gap for level in levels]), is_calibrated)
