import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import LN25, random_params, top_group
from opmdeploy.errors import ConfigError, DegenerateScenario
from opmdeploy.report import evaluate_scenario
from opmdeploy.scenario import (
    ObservedDistribution,
    OutcomePolarity,
    ScenarioParams,
    fit_opm,
    logistic,
    observed_distribution,
    potential_outcomes,
)

# Frozen oracle values (high-precision logistic, 40 digits, rounded to double).
SIG_M05 = 0.3775406687981454  # logistic(-0.5)
SIG_M05_LN25 = 0.6025953147674599  # logistic(-0.5 + ln 2.5)
SIG_M05_2LN25 = 0.7912673185701629  # logistic(-0.5 + 2 ln 2.5)

betas = st.floats(-3.0, 3.0)
p_xs = st.floats(0.05, 0.95)
scenario_st = st.builds(
    ScenarioParams,
    p_x=p_xs,
    pi0=st.sampled_from([0, 1]),
    beta0=betas,
    beta_x=betas,
    beta_t=betas,
    beta_xt=betas,
    polarity=st.sampled_from(list(OutcomePolarity)),
)


def params_with(**overrides):
    base = dict(
        p_x=0.5, pi0=0, beta0=-0.5, beta_x=0.0, beta_t=0.0, beta_xt=0.0,
        polarity=OutcomePolarity.DESIRABLE,
    )
    base.update(overrides)
    return ScenarioParams(**base)


class TestScenarioParams:
    def test_rejects_p_x_outside_unit_interval(self):
        for bad in (0.0, 1.0, 1.2, -0.1):
            with pytest.raises(ConfigError):
                params_with(p_x=bad)

    def test_rejects_nonbinary_pi0(self):
        with pytest.raises(ConfigError):
            params_with(pi0=2)

    def test_rejects_nonfinite_betas(self):
        with pytest.raises(ConfigError):
            params_with(beta_t=float("inf"))
        with pytest.raises(ConfigError):
            params_with(beta_x=float("nan"))

    def test_rejects_a_polarity_that_is_not_the_enum(self):
        with pytest.raises(ConfigError, match="polarity: got 'desirable'"):
            params_with(polarity="desirable")

    @pytest.mark.parametrize("text, member", [
        ("desirable", "OutcomePolarity.DESIRABLE"),
        (" Undesirable ", "OutcomePolarity.UNDESIRABLE"),
    ])
    def test_text_naming_a_member_is_told_to_pass_the_member(self, text, member):
        with pytest.raises(ConfigError) as err:
            params_with(polarity=text)
        assert err.value.problems == [f"polarity: got {text!r}, expected {member}, not its text"]

    @pytest.mark.parametrize("value", ["bogus", 7, None])
    def test_other_polarities_are_told_the_config_texts(self, value):
        with pytest.raises(ConfigError) as err:
            params_with(polarity=value)
        assert err.value.problems == [
            f"polarity: got {value!r}, expected 'desirable' or 'undesirable'"
        ]

    def test_coerces_integer_inputs(self):
        p = params_with(beta_t=1, beta_x=2, pi0=1.0)
        assert p.beta_t == 1.0 and isinstance(p.beta_t, float)
        assert p.pi0 == 1 and type(p.pi0) is int


class TestPotentialOutcomes:
    def test_intercept_only_cell(self):
        po = potential_outcomes(params_with())
        assert po.q[0][0] == pytest.approx(SIG_M05, abs=1e-15)
        # 6 d.p. value quoted for this cell
        assert round(po.q[0][0], 6) == 0.377541

    def test_zero_treatment_terms_give_zero_effect(self):
        po = potential_outcomes(params_with(beta_x=0.7))
        assert po.cate == (0.0, 0.0)

    def test_treated_interaction_cell(self):
        po = potential_outcomes(params_with(beta_x=LN25, beta_t=LN25))
        assert po.q[1][1] == pytest.approx(SIG_M05_2LN25, abs=1e-15)

    @given(scenario_st)
    def test_probabilities_strictly_interior(self, params):
        po = potential_outcomes(params)
        for t in (0, 1):
            for x in (0, 1):
                assert 0.0 < po.q[t][x] < 1.0

    @given(scenario_st)
    def test_cate_is_exact_difference(self, params):
        po = potential_outcomes(params)
        assert po.cate[0] == po.q[1][0] - po.q[0][0]
        assert po.cate[1] == po.q[1][1] - po.q[0][1]


class TestObservedDistribution:
    def test_treat_no_one_selects_control_arm(self):
        po = potential_outcomes(params_with(beta_x=LN25, beta_t=0.9, beta_xt=-0.3))
        dist = observed_distribution(po, (0, 0), 0.5)
        assert dist.mu == (po.q[0][0], po.q[0][1])

    def test_historic_example_values(self):
        po = potential_outcomes(params_with(beta_x=LN25))
        dist = observed_distribution(po, (0, 0), 0.5)
        assert dist.mu[0] == pytest.approx(SIG_M05, abs=1e-15)
        assert dist.mu[1] == pytest.approx(SIG_M05_LN25, abs=1e-15)
        assert dist.p_y1 == pytest.approx(0.4900679917828027, abs=1e-15)

    def test_joint_sums_to_one_and_matches_mu(self):
        po = potential_outcomes(params_with(beta_x=0.4, beta_t=-0.2))
        dist = observed_distribution(po, (1, 1), 0.2)
        total = sum(dist.joint[x][y] for x in (0, 1) for y in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-15)
        assert dist.joint[1][1] == pytest.approx(0.2 * dist.mu[1], abs=1e-16)

    @given(scenario_st, st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
    def test_mixture_identity_exact(self, params, assign):
        po = potential_outcomes(params)
        dist = observed_distribution(po, assign, params.p_x)
        for x in (0, 1):
            assert dist.mu[x] == po.q[assign[x]][x]

    @given(scenario_st)
    def test_swapping_arms_and_policy_leaves_mu_unchanged(self, params):
        po = potential_outcomes(params)
        swapped = type(po)(q=(po.q[1], po.q[0]))
        d1 = observed_distribution(po, (0, 1), params.p_x)
        d2 = observed_distribution(swapped, (1, 0), params.p_x)
        assert d1.mu == d2.mu


class TestFitOpm:
    def test_fits_historic_conditionals_with_midpoint_threshold(self):
        po = potential_outcomes(params_with(beta_x=LN25))
        dist = observed_distribution(po, (0, 0), 0.5)
        opm = fit_opm(dist, 1)
        assert opm.f == dist.mu
        assert opm.lam == pytest.approx(0.4900679917828027, abs=1e-15)

    def test_midpoint_of_symmetric_predictions(self):
        dist = ObservedDistribution(
            mu=(0.2, 0.8), p_y1=0.5, joint=((0.4, 0.1), (0.1, 0.4))
        )
        assert fit_opm(dist, 1).lam == 0.5

    def test_equal_conditionals_degenerate(self):
        # the historic conditionals coincide iff the historic log-odds step
        # is zero: beta_x under treat no one, beta_x + beta_xt under treat
        # everyone
        with pytest.raises(DegenerateScenario):
            evaluate_scenario(params_with(beta_x=0.0, beta_xt=0.6))
        with pytest.raises(DegenerateScenario):
            evaluate_scenario(params_with(pi0=1, beta_x=0.6, beta_xt=-0.6))

    @pytest.mark.parametrize("mu, top", [
        ((0.2, 0.8), 0),  # rounding swapped the order of the fitted values
        ((0.4, 0.4), 1),  # rounding tied them
        ((0.3, math.nextafter(0.3, 1.0)), 1),  # the midpoint rounds onto f(top)
    ], ids=["swapped", "tied", "neighbours"])
    def test_no_threshold_where_the_midpoint_does_not_separate(self, mu, top):
        dist = ObservedDistribution(mu=mu, p_y1=0.5, joint=((0.25, 0.25), (0.25, 0.25)))
        opm = fit_opm(dist, top)
        assert opm.f == mu and opm.lam is None


class TestDerivePolicy:
    """The deployed policy treats the higher-predicted group `top`."""

    def test_treats_group_above_threshold(self):
        # f = (0.3775, 0.6026) with group 1 on top, and the mirror image
        up = evaluate_scenario(params_with(beta_x=LN25))
        assert up.top == 1 and up.policy_post == (0, 1)
        down = evaluate_scenario(params_with(beta0=-0.5 + LN25, beta_x=-LN25))
        assert down.top == 0 and down.policy_post == (1, 0)
        for r in (up, down):
            assert r.opm.lam == 0.5 * (r.opm.f[0] + r.opm.f[1])

    @given(scenario_st)
    def test_deterministic_and_total_on_nondegenerate(self, params):
        try:
            top = top_group(params)
        except DegenerateScenario:
            return
        r = evaluate_scenario(params)
        assert r.policy_post == evaluate_scenario(params).policy_post
        assert r.policy_post == (1 - top, top)
        assert r.policy_pre == (params.pi0, params.pi0)
        for policy in (r.policy_pre, r.policy_post):  # plain tuples of ints
            assert type(policy) is tuple
            assert [type(a) for a in policy] == [int, int]


class TestIdentities:
    @given(scenario_st)
    def test_policy_change_identity_exact(self, params):
        po = potential_outcomes(params)
        pre_policy = (params.pi0, params.pi0)
        post_policy = (1 - params.pi0, params.pi0)
        pre = observed_distribution(po, pre_policy, params.p_x)
        post = observed_distribution(po, post_policy, params.p_x)
        for x in (0, 1):
            dpi = post_policy[x] - pre_policy[x]
            assert post.mu[x] - pre.mu[x] == dpi * po.cate[x]

    @given(scenario_st, st.sampled_from([0, 1]))
    def test_marginal_shift_identity(self, params, changed):
        po = potential_outcomes(params)
        pre_policy = (params.pi0, params.pi0)
        assign = list(pre_policy)
        assign[changed] = 1 - assign[changed]
        post_policy = tuple(assign)
        pre = observed_distribution(po, pre_policy, params.p_x)
        post = observed_distribution(po, post_policy, params.p_x)
        delta = post.mu[changed] - pre.mu[changed]
        p_changed = params.p_x if changed == 1 else 1.0 - params.p_x
        assert post.p_y1 - pre.p_y1 == pytest.approx(p_changed * delta, abs=1e-14)


def test_logistic_matches_reference_points():
    assert logistic(0.0) == 0.5
    assert logistic(-0.5) == pytest.approx(SIG_M05, abs=1e-15)
    assert logistic(30.0) < 1.0 and logistic(-30.0) > 0.0


# The log-odds a kernel can reach: signed zeros, exp's underflow edge, and
# sums of |beta| near the float range, which overflow to +-inf.
EDGE_ETAS = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, math.inf, -math.inf]


@given(st.lists(st.floats(allow_nan=False) | st.sampled_from(EDGE_ETAS), max_size=12))
@example(EDGE_ETAS)
@example([0.0, -0.0, 0.0, 1.5, -0.0, 1.5])
def test_logistic_of_an_array_is_the_scalar_of_each_element(etas):
    got = logistic(np.array(etas, dtype=np.float64))
    want = np.array([logistic(eta) for eta in etas], dtype=np.float64)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_random_params_helper_is_reproducible():
    a = random_params(np.random.default_rng(7))
    b = random_params(np.random.default_rng(7))
    assert a == b
