"""The published reference tabulation of the default grid, reproduced by
emulation in plain Python floats.

The emulation departs from this tool in four ways, and together they give
every count and every harm fraction the reference prints:
- no structural filter: a setting is dropped only where its two fitted
  values f(0) and f(1) are equal as floats (`beta_xt` is built as exact
  negations, as `sweep.default_grid` builds it);
- the linear predictor is summed treatment terms first,
  `beta_t*t + beta_xt*x*t + beta_x*x + beta0`, and the logistic taken as
  `1/(1 + exp(-eta))`;
- the deployed policy treats the group with the larger float f;
- the sign table's first column counts AUC strictly decreasing.
This is a fit to the published numbers, not the reference's code. The
twelve settings it keeps past this tool's 4620 have a zero log-odds step,
a constant predictor that this tool removes as degenerate: rounding in the
sum leaves f(1) - f(0) at about 1e-16.
"""

import itertools
import math

from opmdeploy import sweep
from opmdeploy.scenario import OutcomePolarity
from test_cli import EXPECTED_HARM_ROWS

GRID = sweep.default_grid()


def treatment_first(beta0, beta_x, beta_t, beta_xt, t, x):
    return beta_t * t + beta_xt * x * t + beta_x * x + beta0


def natural(beta0, beta_x, beta_t, beta_xt, t, x):
    return beta0 + beta_x * x + beta_t * t + beta_xt * x * t


def sign(v):
    return (v > 0) - (v < 0)


def auc(p_x, mu, top):
    """The AUC of a predictor that ranks group `top` higher: the mean of
    its sensitivity and specificity."""
    cases = ((1 - p_x) * mu[0], p_x * mu[1])
    controls = ((1 - p_x) * (1 - mu[0]), p_x * (1 - mu[1]))
    return (cases[top] / sum(cases) + controls[1 - top] / sum(controls)) / 2


def emulate(eta) -> dict:
    """Each default-grid setting the emulation keeps, as a `ScenarioParams`
    field tuple, with its AUC change and its changed group's outcome shift."""
    kept = {}
    for setting in itertools.product(*GRID.lists()):
        p_x, pi0, beta0, beta_x, beta_t, beta_xt, _ = setting

        def mu(assign):
            return [1 / (1 + math.exp(-eta(beta0, beta_x, beta_t, beta_xt, assign[x], x)))
                    for x in (0, 1)]

        f = mu((pi0, pi0))
        if f[0] == f[1]:
            continue
        top = int(f[1] > f[0])
        post, changed = mu((1 - top, top)), top ^ pi0
        kept[setting] = (auc(p_x, post, top) - auc(p_x, f, top), post[changed] - f[changed])
    return kept


def sign_table(kept) -> dict:
    table = dict.fromkeys(sweep.SIGN_CELLS, (0, 0))
    for (*_, beta_t, beta_xt, _), (delta, _) in kept.items():
        cell = (sign(beta_t), sign(beta_t + beta_xt))
        falls, rest = table[cell]
        table[cell] = (falls + (delta < 0), rest + (delta >= 0))
    return table


KEPT = emulate(treatment_first)


def retained_here() -> set:
    """The settings `sweep._settings` keeps, as field tuples."""
    settings, _ = sweep._settings(GRID, 0, GRID.cardinality)
    *numbers, codes = (column.tolist() for column in settings.values())
    return set(zip(*numbers, (sweep._POLARITIES[c] for c in codes)))


def test_the_emulation_gives_the_published_sign_table():
    assert len(KEPT) == sweep.REFERENCE_SIGN_TOTAL == 4632
    assert sign_table(KEPT) == sweep.REFERENCE_SIGN_TABLE


def test_the_emulation_gives_the_published_harm_fractions():
    counts = {}
    for (_, pi0, *_, polarity), (delta, shift) in KEPT.items():
        if shift != 0:  # no change is no harm table row
            key = (polarity, pi0, delta >= 0)
            harmed, n = counts.get(key, (0, 0))
            counts[key] = (harmed + (polarity.favorable_sign * shift < 0), n + 1)
    word = {"worse": OutcomePolarity.UNDESIRABLE, "better": OutcomePolarity.DESIRABLE}
    published = {
        (word[higher_y_is], int(pi0), sf == "true"): float(fraction)
        for higher_y_is, pi0, sf, fraction in EXPECTED_HARM_ROWS
    }
    assert {key: harmed / n for key, (harmed, n) in counts.items()} == published


def test_the_twelve_extra_settings_are_structural_exclusions_here():
    here = retained_here()
    assert len(here) == sweep.DEFAULT_RETAINED and here <= KEPT.keys()
    extra = KEPT.keys() - here
    assert len(extra) == 12 == sweep.REFERENCE_SIGN_TOTAL - sweep.DEFAULT_RETAINED
    for _, pi0, _, beta_x, beta_t, beta_xt, _ in extra:
        # a zero log-odds step under treat everyone: beta_xt = -beta_x exactly
        assert pi0 == 1 and beta_x + beta_xt == 0.0
    by_cell = [(sign(s[4]), sign(s[4] + s[5])) for s in extra]
    assert sorted(by_cell) == [(-1, -1)] * 8 + [(1, -1)] * 4


def test_the_natural_summation_order_keeps_four_of_the_twelve():
    kept = emulate(natural)
    assert len(kept) == 4624
    assert len(kept.keys() - retained_here()) == 4
    assert sign_table(kept) != sweep.REFERENCE_SIGN_TABLE
