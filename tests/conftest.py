import math

import numpy as np
import pytest

from opmdeploy import OutcomePolarity, ScenarioParams
from opmdeploy.scenario import deployment_signs, zero_step_error

LN25 = math.log(2.5)


def random_params(rng: np.random.Generator) -> ScenarioParams:
    """One random scenario: betas uniform on ln[1/3, 3], p_x on (0.05, 0.95),
    either historic policy, either polarity."""
    lo, hi = -math.log(3.0), math.log(3.0)
    return ScenarioParams(
        p_x=float(rng.uniform(0.05, 0.95)),
        pi0=int(rng.integers(0, 2)),
        beta0=float(rng.uniform(lo, hi)),
        beta_x=float(rng.uniform(lo, hi)),
        beta_t=float(rng.uniform(lo, hi)),
        beta_xt=float(rng.uniform(lo, hi)),
        polarity=OutcomePolarity.DESIRABLE
        if rng.integers(0, 2) == 0
        else OutcomePolarity.UNDESIRABLE,
    )


def top_group(params: ScenarioParams) -> int:
    """The group the fitted predictor ranks higher: the ROC operating point
    and the group the deployed policy treats.

    Raises DegenerateScenario when the historic step is zero.
    """
    step, top, _, _ = deployment_signs(params)
    if step == 0:
        raise zero_step_error(params)
    return top


@pytest.fixture
def baseline_params():
    """The worked single-scenario example used throughout the metric tests."""
    return ScenarioParams(
        p_x=0.5,
        pi0=0,
        beta0=-0.5,
        beta_x=LN25,
        beta_t=LN25,
        beta_xt=0.0,
        polarity=OutcomePolarity.DESIRABLE,
    )


def exact_rank_auc(p_x: float, mu, f) -> float:
    """Independent AUC oracle: tie-adjusted rank statistic by exact
    enumeration of the four-cell joint (X drawn from cases vs controls)."""
    joint = {
        (x, y): (p_x if x == 1 else 1.0 - p_x) * (mu[x] if y == 1 else 1.0 - mu[x])
        for x in (0, 1)
        for y in (0, 1)
    }
    p1 = joint[(0, 1)] + joint[(1, 1)]
    p0 = 1.0 - p1
    total = 0.0
    for xp in (0, 1):
        for xn in (0, 1):
            w = (joint[(xp, 1)] / p1) * (joint[(xn, 0)] / p0)
            if f[xp] > f[xn]:
                total += w
            elif f[xp] == f[xn]:
                total += 0.5 * w
    return total
