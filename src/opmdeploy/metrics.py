"""Closed-form discrimination and calibration for a two-valued predictor.

With a binary feature the predictor takes at most two values, so the ROC
curve has a single interior operating point (tau = max f) and the area under
it is the trapezoid value (sens + spec) / 2. Sensitivity and specificity
come straight off the four-cell joint by Bayes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateOutcome, DegenerateScenario
from .scenario import EPS_EQ, ObservedDistribution, Opm, sign_with_band

# Calibration equality band. Fitted predictors reproduce the historic
# conditionals bit-for-bit, so gaps are either rounding noise (<1e-15) or
# a genuine treatment effect (macroscopic); 1e-12 cleanly separates them.
EPS_CAL = 1e-12


@dataclass(frozen=True)
class DiscriminationMetrics:
    sens: float
    spec: float
    auc: float
    operating_threshold: float


@dataclass(frozen=True)
class CalibrationLevel:
    """One prediction level: its value alpha, the conditional outcome mean
    E[Y | f(X)=alpha] under the evaluated distribution, and its mass."""

    alpha: float
    conditional_mean: float
    mass: float

    @property
    def gap(self) -> float:
        return abs(self.conditional_mean - self.alpha)


@dataclass(frozen=True)
class CalibrationReport:
    levels: tuple[CalibrationLevel, ...]
    max_gap: float
    is_calibrated: bool


def discrimination(opm: Opm, dist: ObservedDistribution) -> DiscriminationMetrics:
    """Sens/spec/AUC of the (fixed) predictor against a distribution.

    The operating point is tau = max_x f(x): predictions at or above tau are
    called positive, which selects exactly the higher-predicted group when f
    is injective. With a = argmax_x f(x):

        sens = p(X=a | Y=1)      spec = p(X=1-a | Y=0)

    and AUC = (sens + spec) / 2.
    """
    if abs(opm.f[0] - opm.f[1]) <= EPS_EQ:
        raise DegenerateScenario(
            f"constant predictor f={opm.f!r} has no interior ROC point"
        )
    if not EPS_EQ < dist.p_y1 < 1.0 - EPS_EQ:
        raise DegenerateOutcome(
            f"p(Y=1)={dist.p_y1!r}: sensitivity/specificity undefined"
        )
    a = 1 if opm.f[1] > opm.f[0] else 0
    sens = dist.joint[a][1] / dist.p_y1
    spec = dist.joint[1 - a][0] / (1.0 - dist.p_y1)
    return DiscriminationMetrics(
        sens=sens,
        spec=spec,
        auc=0.5 * (sens + spec),
        operating_threshold=max(opm.f),
    )


def is_self_fulfilling(delta: float) -> bool:
    """Deployment kept or improved discrimination (weak inequality)."""
    return delta >= -EPS_EQ


def auc_shift_sign(delta: float) -> int:
    """Three-valued sign of the AUC change with a +/-eps zero band, so the
    no-change case stays separable from genuine shifts."""
    return sign_with_band(delta)


def calibration(opm: Opm, dist: ObservedDistribution, p_x: float) -> CalibrationReport:
    """Per-level calibration of the predictor against a distribution.

    One level per distinct predicted value. When f is injective the level at
    f(x) has conditional mean mu(x) and mass p(X=x); a constant predictor
    has the single level (f, p(Y=1), 1).
    """
    if abs(opm.f[0] - opm.f[1]) <= EPS_EQ:
        levels = (
            CalibrationLevel(alpha=opm.f[0], conditional_mean=dist.p_y1, mass=1.0),
        )
    else:
        levels = (
            CalibrationLevel(
                alpha=opm.f[0], conditional_mean=dist.mu[0], mass=1.0 - p_x
            ),
            CalibrationLevel(alpha=opm.f[1], conditional_mean=dist.mu[1], mass=p_x),
        )
    max_gap = max(level.gap for level in levels)
    return CalibrationReport(
        levels=levels, max_gap=max_gap, is_calibrated=max_gap <= EPS_CAL
    )
