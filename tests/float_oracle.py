"""The sweep's derived float columns in exact arithmetic, from the model's
definition alone: a test oracle that reads no `opmdeploy` code.

A setting's parameters are floats, taken exactly. The log-odds of cell
(t, x) is beta0 + beta_x*x + beta_t*t + beta_xt*x*t, summed exactly and
rounded once to the working precision, so two cells whose sums are equal
get one value; p(Y=1 | T=t, X=x) is 1/(1 + exp(-eta)). The fitted predictor
reproduces the historic conditionals, f(x) = q[pi0][x]. The deployed
policy treats the group f ranks higher, `top`, and no other. A
distribution's AUC at that operating point is (sens + spec)/2, with sens
the share of Y=1 mass in `top` and spec the share of Y=0 mass in the other
group.
"""

import math

import mpmath

COLUMNS = ("cate0", "cate1", "auc_pre", "auc_post", "auc_delta")


def _exact_sum(*terms: float):
    """The sum of the floats, exact, rounded once to the working precision:
    each float is m * 2**e with m a 53-bit integer, so the sum is an
    integer times 2**(least e)."""
    parts = [(int(m * 2**53), e - 53) for m, e in map(math.frexp, terms)]
    low = min(e for _, e in parts)
    return mpmath.mpf((sum(m << (e - low) for m, e in parts), low))


def exact_columns(p_x, pi0, beta0, beta_x, beta_t, beta_xt, dps: int = 50) -> dict:
    """The setting's COLUMNS as mpf at `dps` digits, keyed by name; arithmetic
    on them keeps that precision inside `mpmath.workdps(dps)` only. The
    setting's historic step must not be zero: f(0) and f(1) must differ."""
    with mpmath.workdps(dps):
        q = [
            [1 / (1 + mpmath.exp(-_exact_sum(beta0, beta_x * x, beta_t * t, beta_xt * x * t)))
             for x in (0, 1)]
            for t in (0, 1)
        ]
        f = q[pi0]
        top = 1 if f[1] > f[0] else 0
        mass = (1 - mpmath.mpf(p_x), mpmath.mpf(p_x))

        def auc(mu):
            p_y1 = mass[0] * mu[0] + mass[1] * mu[1]
            sens = mass[top] * mu[top] / p_y1
            spec = mass[1 - top] * (1 - mu[1 - top]) / (1 - p_y1)
            return (sens + spec) / 2

        post = [q[1 if x == top else 0][x] for x in (0, 1)]
        auc_pre, auc_post = auc(f), auc(post)
        return {
            "cate0": q[1][0] - q[0][0],
            "cate1": q[1][1] - q[0][1],
            "auc_pre": auc_pre,
            "auc_post": auc_post,
            "auc_delta": auc_post - auc_pre,
        }
