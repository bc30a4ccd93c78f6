"""Worlds, policies, and predictors for the binary-covariate setting.

A scenario is a joint distribution over a binary feature X, a binary
treatment T, and a binary outcome Y, parameterized on the log-odds scale:

    log-odds p(Y=1 | T=t, X=x) = beta0 + beta_x*x + beta_t*t + beta_xt*x*t

A treatment policy is a tuple (a0, a1): the 0/1 assignment of group X=0
and of group X=1. The historic policy is constant, (pi0, pi0): treat everyone
or treat no one. An outcome prediction model (OPM) fitted on data from the
historic policy predicts f(x) = p(Y=1 | X=x) under that policy; deploying it
as a threshold rule ("treat exactly those with predicted outcome above
lambda") treats the higher-predicted group `top`, (1 - top, top), and
induces a new observable distribution. Everything downstream
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

# Zero band for log-odds coefficients (historic steps, per-group effects),
# and for nothing else. Every discrete outcome is the sign of such a
# coefficient; the band absorbs the rounding of sums like ln(v) + ln(1/v),
# which are structurally zero.
EPS_EQ = 1e-12


def logistic(eta):
    """Standard logistic function, stable for large |eta|. On an array, this
    function of each distinct value: numpy's exp differs from libm's in the
    last ulp."""
    if not isinstance(eta, (int, float)):
        # Imported here, not with the package: numpy loaded before the
        # modules a command imports raises the process's peak RSS by ~1 MB.
        import numpy as np

        distinct, where = np.unique(eta, return_inverse=True)
        return np.array([logistic(e) for e in distinct.tolist()])[where]
    if eta >= 0:
        return 1.0 / (1.0 + math.exp(-eta))
    z = math.exp(eta)
    return z / (1.0 + z)


def sign_with_band(value):
    """Three-valued sign with a +/-EPS_EQ zero band: an int for a float,
    elementwise for an array."""
    return (value > EPS_EQ) * 1 - (value < -EPS_EQ) * 1


class OutcomePolarity(Enum):
    """Whether Y=1 is the preferable outcome (e.g. survival) or the
    undesirable one (e.g. a heart attack). Polarity flips the direction of
    every harm comparison and nothing else. Declared in the order of the
    harm table's rows and the figures' panel rows."""

    UNDESIRABLE = "undesirable"
    DESIRABLE = "desirable"

    @property
    def favorable_sign(self) -> int:
        """+1 if a higher p(Y=1) is good, -1 if it is bad."""
        return 1 if self is OutcomePolarity.DESIRABLE else -1


def parse_polarity(value):
    """The member a config's text names ('desirable' or 'undesirable', in
    any case, blanks around it aside), or else the value itself, which
    `field_problems` then refuses beside every other field's problem."""
    try:
        return OutcomePolarity(str(value).strip().lower())
    except ValueError:
        return value


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
                member = parse_polarity(value)  # the member that text names, which is not one
                expected = "'desirable' or 'undesirable'" if member is value else f"{member}, not its text"
                problems.append(f"polarity: got {value!r}, expected {expected}")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}: must be a real number, got {value!r}")
        elif not abs(value) <= _FLOAT_MAX:  # NaN, inf, ints too large for a float
            problems.append(f"{name}: must be finite, got {value!r}")
        elif name == "p_x" and not 0.0 < value < 1.0:
            problems.append(f"p_x: must lie strictly in (0,1), got {value!r}")
    return problems


def frozen_record(cls):
    """`dataclass(frozen=True)` whose `__init__` stores every field at once,
    with one `object.__setattr__` of the instance's `__dict__`, where the
    dataclass's stores each field with its own. Its signature is the
    dataclass's; equality, hashing, repr, `fields`, `replace`, pickling and
    FrozenInstanceError are the dataclass's own. For the result records
    built on every call, whose fields have no defaults; a validated input
    keeps the dataclass's `__init__` and `__post_init__`."""
    cls = dataclass(frozen=True)(cls)
    given = fields(cls)
    namespace = {}
    params = ", ".join(f.name for f in given)
    stored = ", ".join(f"{f.name!r}: {f.name}" for f in given)
    exec(f"def __init__(self, {params}):\n"
         f"    object.__setattr__(self, '__dict__', {{{stored}}})", namespace)
    init = namespace["__init__"]
    init.__annotations__ = {**{f.name: f.type for f in given}, "return": None}
    init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__
    cls.__init__ = init
    return cls


@frozen_record
class PotentialOutcomes:
    """The four outcome probabilities q[t][x] = p(Y_t=1 | X=x)."""

    q: tuple[tuple[float, float], tuple[float, float]]

    @property
    def cate(self) -> tuple[float, float]:
        """Per-group treatment effect q[1][x] - q[0][x] on the probability scale."""
        return (self.q[1][0] - self.q[0][0], self.q[1][1] - self.q[0][1])


@frozen_record
class Opm:
    """A fitted predictor: one predicted probability per group, plus the
    decision threshold "treat group x iff f(x) > lam" that deploys it, or
    None where rounding leaves the midpoint of f outside [f(other), f(top))."""

    f: tuple[float, float]
    lam: float | None


@frozen_record
class ObservedDistribution:
    """The observable (X, Y) distribution induced by a policy.

    mu[x] = p(Y=1|X=x) under the policy, p_y1 the outcome marginal, and
    joint[x][y] the full four-cell joint.
    """

    mu: tuple[float, float]
    p_y1: float
    joint: tuple[tuple[float, float], tuple[float, float]]


def log_odds(params, t: int, x: int):
    """log-odds p(Y=1 | T=t, X=x) of a scenario, or of columns of them."""
    return params.beta0 + params.beta_x * x + params.beta_t * t + params.beta_xt * x * t


def potential_outcomes(params: ScenarioParams) -> PotentialOutcomes:
    """Evaluate the log-odds model at all four (t, x) cells, of a scenario
    or of columns of them."""
    return PotentialOutcomes((
        (logistic(log_odds(params, 0, 0)), logistic(log_odds(params, 0, 1))),
        (logistic(log_odds(params, 1, 0)), logistic(log_odds(params, 1, 1))),
    ))


def observed_distribution(
    po: PotentialOutcomes, assign: tuple, p_x: float
) -> ObservedDistribution:
    """Distribution of (X, Y) when treatment is assigned by the policy
    `assign`, one 0/1 assignment per group (an int, or a column of them).

    mu[x] is the convex combination of the two potential outcomes with the
    (deterministic, 0/1) assignment weight, so it picks q[assign[x]][x]
    exactly; p_x is unchanged by deployment.
    """
    a0, a1 = assign
    (q00, q01), (q10, q11) = po.q
    mu0 = (1 - a0) * q00 + a0 * q10
    mu1 = (1 - a1) * q01 + a1 * q11
    w0 = 1.0 - p_x
    return ObservedDistribution(
        (mu0, mu1),
        w0 * mu0 + p_x * mu1,
        ((w0 * (1.0 - mu0), w0 * mu0), (p_x * (1.0 - mu1), p_x * mu1)),
    )


def historic_step_sign(pi0, beta_x, beta_xt):
    """Sign of the historic log-odds step from X=0 to X=1: beta_x under
    treat no one, beta_x + beta_xt under treat everyone. By logistic
    monotonicity it orders the fitted values f(0) and f(1); 0 means they
    coincide."""
    return sign_with_band(beta_x + beta_xt * pi0)


def effect_sign(params, x):
    """Sign of group x's treatment effect q[1][x] - q[0][x], read off its
    log-odds effect beta_t + beta_xt*x (logistic monotonicity)."""
    return sign_with_band(params.beta_t + params.beta_xt * x)


def deployment_signs(params):
    """Every decision a deployment turns on, as (step, top, changed, sign).

    `step` is the historic step sign (0: a constant predictor); `top`, the
    group the fitted predictor ranks higher, is the ROC operating point and
    the group the deployed policy treats; the changed group is `top` under
    treat no one and the other group under treat everyone; `sign` is the
    sign of its treatment effect. `params` is a scenario, or anything with
    its field names holding columns of them (the signs then are columns).
    """
    step = historic_step_sign(params.pi0, params.beta_x, params.beta_xt)
    top = (step > 0) * 1
    changed = top ^ params.pi0
    return step, top, changed, effect_sign(params, changed)


def zero_step_error(params: ScenarioParams) -> DegenerateScenario:
    """The refusal of a scenario whose historic step is zero: a constant
    predictor admits no nonconstant threshold policy."""
    return DegenerateScenario(
        f"historic conditionals coincide: zero log-odds step from X=0 to "
        f"X=1 under pi0={params.pi0}"
    )


def _sign(value):
    """Three-valued sign with no band, on a float or elementwise."""
    return (value > 0) * 1 - (value < 0) * 1


def avg_effect_sign(params, cate0, cate1):
    """Sign of the prevalence-weighted treatment effect
    p_x*cate1 + (1-p_x)*cate0. Where the two groups' effect signs do not
    oppose it is the sign of their sum, decided on the coefficients; where
    they oppose it is the sign of the float sum, with no band."""
    s0, s1 = effect_sign(params, 0), effect_sign(params, 1)
    avg = params.p_x * cate1 + (1.0 - params.p_x) * cate0
    return _sign(s0 + s1) + (s0 * s1 < 0) * _sign(avg)


def fit_opm(historic: ObservedDistribution, top: int) -> Opm:
    """Fit the predictor that perfectly matches the historic conditionals.

    f(x) = mu_historic(x). The threshold is only reported: the midpoint of
    the two fitted values where it lies in [f(1-top), f(top)), so that
    "treat f(x) > lam" treats exactly `top`; None where rounding ties f(0)
    and f(1), swaps their order or puts the midpoint on f(top). The
    deployed policy treats `top` either way.
    """
    f = historic.mu
    lam = 0.5 * (f[0] + f[1])
    return Opm(f, lam if f[1 - top] <= lam < f[top] else None)

