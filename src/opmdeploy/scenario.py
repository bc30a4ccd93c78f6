"""Worlds, policies, and predictors for the binary-covariate setting.

A scenario is a joint distribution over a binary feature X, a binary
treatment T, and a binary outcome Y, parameterized on the log-odds scale:

    log-odds p(Y=1 | T=t, X=x) = beta0 + beta_x*x + beta_t*t + beta_xt*x*t

The historic treatment policy is constant and deterministic (treat everyone
or treat no one). An outcome prediction model (OPM) fitted on data from the
historic policy predicts f(x) = p(Y=1 | X=x) under that policy; deploying it
as a threshold rule ("treat exactly those with predicted outcome above
lambda") induces a new observable distribution. Everything downstream
(discrimination, calibration, harm) is computed from these closed forms.

All values are immutable after construction; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, fields
from enum import Enum

from .errors import ConfigError, DegenerateScenario

# Zero band for log-odds coefficients (historic steps, per-group effects).
# Every discrete outcome is the sign of such a coefficient; the band absorbs
# the rounding of sums like ln(v) + ln(1/v), which are structurally zero.
# The sweep's avg_treatment_beneficial flag also applies it to a
# probability: that flag only selects the subset the figures plot.
EPS_EQ = 1e-12


def logistic(eta: float) -> float:
    """Standard logistic function, stable for large |eta|."""
    if eta >= 0:
        return 1.0 / (1.0 + math.exp(-eta))
    z = math.exp(eta)
    return z / (1.0 + z)


def sign_with_band(value: float) -> int:
    """Three-valued sign with a +/-EPS_EQ zero band."""
    if value > EPS_EQ:
        return 1
    if value < -EPS_EQ:
        return -1
    return 0


class OutcomePolarity(Enum):
    """Whether Y=1 is the preferable outcome (e.g. survival) or the
    undesirable one (e.g. a heart attack). Polarity flips the direction of
    every harm comparison and nothing else."""

    DESIRABLE = "desirable"
    UNDESIRABLE = "undesirable"

    @property
    def favorable_sign(self) -> float:
        """+1 if a higher p(Y=1) is good, -1 if it is bad."""
        return 1.0 if self is OutcomePolarity.DESIRABLE else -1.0


def parse_polarity(value) -> OutcomePolarity:
    try:
        return OutcomePolarity(str(value).strip().lower())
    except ValueError:
        raise ConfigError(
            [f"polarity: expected 'desirable' or 'undesirable', got {value!r}"]
        ) from None


@dataclass(frozen=True)
class ScenarioParams:
    """Full parameterization of a pre/post-deployment world.

    p_x is the prevalence of X=1; pi0 the constant historic assignment
    (0 = treat no one, 1 = treat everyone); the betas are log-odds
    coefficients of the outcome model.
    """

    p_x: float
    pi0: int
    beta0: float
    beta_x: float
    beta_t: float
    beta_xt: float
    polarity: OutcomePolarity

    def __post_init__(self):
        problems = field_problems(zip(PARAM_FIELDS, param_values(self)))
        if problems:
            raise ConfigError(problems)
        # coerce only what needs it: a frozen field write costs about as
        # much as checking every field
        for name in ("p_x", "beta0", "beta_x", "beta_t", "beta_xt"):
            v = getattr(self, name)
            if type(v) is not float:
                object.__setattr__(self, name, float(v))
        if type(self.pi0) is not int:
            object.__setattr__(self, "pi0", int(self.pi0))


PARAM_FIELDS = tuple(f.name for f in fields(ScenarioParams))
# The PARAM_FIELDS values of a scenario, or of anything with those fields.
param_values = operator.attrgetter(*PARAM_FIELDS)
_FLOAT_MAX = sys.float_info.max


def field_problems(pairs) -> list[str]:
    """Why each (field name, value) pair cannot be that `ScenarioParams`
    field; empty when every one can. Type is checked before value, so no
    arithmetic ever reads a bad input."""
    problems = []
    for name, value in pairs:
        if name == "pi0":
            if value not in (0, 1) or isinstance(value, bool):
                problems.append(f"pi0: must be 0 or 1, got {value!r}")
        elif name == "polarity":
            if not isinstance(value, OutcomePolarity):
                problems.append(f"polarity: got {value!r}")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}: must be a real number, got {value!r}")
        elif not abs(value) <= _FLOAT_MAX:  # NaN, inf, ints too large for a float
            problems.append(f"{name}: must be finite, got {value!r}")
        elif name == "p_x" and not 0.0 < value < 1.0:
            problems.append(f"p_x: must lie strictly in (0,1), got {value!r}")
    return problems


@dataclass(frozen=True)
class PotentialOutcomes:
    """The four outcome probabilities q[t][x] = p(Y_t=1 | X=x)."""

    q: tuple[tuple[float, float], tuple[float, float]]

    @property
    def cate(self) -> tuple[float, float]:
        """Per-group treatment effect q[1][x] - q[0][x] on the probability scale."""
        return (self.q[1][0] - self.q[0][0], self.q[1][1] - self.q[0][1])


@dataclass(frozen=True)
class Policy:
    """Deterministic treatment assignment per group."""

    assign: tuple[int, int]


def historic_policy(pi0: int) -> Policy:
    return Policy(assign=(pi0, pi0))


@dataclass(frozen=True)
class Opm:
    """A fitted predictor: one predicted probability per group, plus the
    decision threshold "treat group x iff f(x) > lam" that deploys it, or
    None where rounding leaves the midpoint of f outside [f(other), f(top))."""

    f: tuple[float, float]
    lam: float | None


@dataclass(frozen=True)
class ObservedDistribution:
    """The observable (X, Y) distribution induced by a policy.

    mu[x] = p(Y=1|X=x) under the policy, p_y1 the outcome marginal, and
    joint[x][y] the full four-cell joint.
    """

    mu: tuple[float, float]
    p_y1: float
    joint: tuple[tuple[float, float], tuple[float, float]]


def potential_outcomes(params: ScenarioParams) -> PotentialOutcomes:
    """Evaluate the log-odds model at all four (t, x) cells."""
    q = tuple(
        tuple(
            logistic(
                params.beta0
                + params.beta_x * x
                + params.beta_t * t
                + params.beta_xt * x * t
            )
            for x in (0, 1)
        )
        for t in (0, 1)
    )
    return PotentialOutcomes(q=q)


def observed_distribution(
    po: PotentialOutcomes, policy: Policy, p_x: float
) -> ObservedDistribution:
    """Distribution of (X, Y) when treatment is assigned by `policy`.

    mu[x] is the convex combination of the two potential outcomes with the
    (deterministic, 0/1) assignment weight, so it picks q[assign[x]][x]
    exactly; p_x is unchanged by deployment.
    """
    a0, a1 = policy.assign
    mu = (
        (1 - a0) * po.q[0][0] + a0 * po.q[1][0],
        (1 - a1) * po.q[0][1] + a1 * po.q[1][1],
    )
    p_y1 = (1.0 - p_x) * mu[0] + p_x * mu[1]
    joint = (
        ((1.0 - p_x) * (1.0 - mu[0]), (1.0 - p_x) * mu[0]),
        (p_x * (1.0 - mu[1]), p_x * mu[1]),
    )
    return ObservedDistribution(mu=mu, p_y1=p_y1, joint=joint)


def historic_step_sign(pi0: int, beta_x: float, beta_xt: float) -> int:
    """Sign of the historic log-odds step from X=0 to X=1: beta_x under
    treat no one, beta_x + beta_xt under treat everyone. By logistic
    monotonicity it orders the fitted values f(0) and f(1); 0 means they
    coincide."""
    return sign_with_band(beta_x + beta_xt * pi0)


def effect_sign(params: ScenarioParams, x: int) -> int:
    """Sign of group x's treatment effect q[1][x] - q[0][x], read off its
    log-odds effect beta_t + beta_xt*x (logistic monotonicity)."""
    return sign_with_band(params.beta_t + params.beta_xt * x)


def top_group(params: ScenarioParams) -> int:
    """The group the fitted predictor ranks higher: the ROC operating point
    and the group the deployed policy treats.

    Raises DegenerateScenario when the historic step is zero: a constant
    predictor admits no nonconstant threshold policy.
    """
    step = historic_step_sign(params.pi0, params.beta_x, params.beta_xt)
    if step == 0:
        raise DegenerateScenario(
            f"historic conditionals coincide: zero log-odds step from X=0 to "
            f"X=1 under pi0={params.pi0}"
        )
    return int(step > 0)


def fit_opm(historic: ObservedDistribution, top: int) -> Opm:
    """Fit the predictor that perfectly matches the historic conditionals.

    f(x) = mu_historic(x). The threshold is only reported: the midpoint of
    the two fitted values where it lies in [f(1-top), f(top)), so that
    "treat f(x) > lam" treats exactly `top`; None where rounding ties f(0)
    and f(1), swaps their order or puts the midpoint on f(top). The
    deployed policy treats `top` either way.
    """
    f = (historic.mu[0], historic.mu[1])
    lam = 0.5 * (f[0] + f[1])
    return Opm(f=f, lam=lam if f[1 - top] <= lam < f[top] else None)

