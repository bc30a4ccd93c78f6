import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import LN25, exact_rank_auc, top_group
from opmdeploy.errors import DegenerateOutcome, DegenerateScenario
from opmdeploy.metrics import calibration, discrimination
from opmdeploy.report import evaluate_scenario
from opmdeploy.scenario import (
    ObservedDistribution,
    Opm,
    OutcomePolarity,
    ScenarioParams,
    fit_opm,
    observed_distribution,
    potential_outcomes,
    sign_with_band,
)
from test_scenario import scenario_st

# Frozen from the exact four-cell enumeration (p_x=0.5, beta0=-0.5,
# beta_x=ln 2.5, historic policy: treat no one).
PRE_SENS = 0.6148078683687315
PRE_SPEC = 0.6103356145244446
PRE_AUC = 0.6125717414465881
POST_AUC_UP = 0.7129310367968095  # beta_t = ln 2.5 deployed on group 1
DELTA_UP = 0.1003592953502214
DELTA_DOWN = -0.1125717414465881  # beta_t = ln(1/2.5): post AUC exactly 0.5
CAL_GAP_UP = 0.1886720038027030  # |cate(1)| for beta_t = ln 2.5


def _example(beta_t: float):
    params = ScenarioParams(
        p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=beta_t, beta_xt=0.0,
        polarity=OutcomePolarity.DESIRABLE,
    )
    return evaluate_scenario(params)


DEGENERATE_ONE = ObservedDistribution(
    mu=(1.0, 1.0), p_y1=1.0, joint=((0.0, 0.5), (0.0, 0.5))
)
DEGENERATE_ZERO = ObservedDistribution(
    mu=(0.0, 0.0), p_y1=0.0, joint=((0.5, 0.0), (0.5, 0.0))
)


def stack(dists) -> ObservedDistribution:
    """Distributions as one distribution of columns."""
    return ObservedDistribution(
        mu=tuple(np.array([d.mu[x] for d in dists]) for x in (0, 1)),
        p_y1=np.array([d.p_y1 for d in dists]),
        joint=tuple(
            tuple(np.array([d.joint[x][y] for d in dists]) for y in (0, 1)) for x in (0, 1)
        ),
    )


# Scenarios whose p(Y=1) can round to 0 or 1, under any assignment.
wide = st.floats(-40.0, 40.0) | st.sampled_from([0.0, -0.0, 745.0, -745.0, 1e308, -1e308])
wide_rows = st.tuples(
    st.builds(
        ScenarioParams, p_x=st.floats(0.01, 0.99), pi0=st.just(0), beta0=wide,
        beta_x=wide, beta_t=wide, beta_xt=wide, polarity=st.just(OutcomePolarity.DESIRABLE),
    ),
    st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1])),
    st.sampled_from([0, 1]),
)


class TestDiscriminationOnColumns:
    @settings(deadline=None)
    @given(st.lists(wide_rows, min_size=1, max_size=8))
    @example([
        (ScenarioParams(0.5, 0, -0.5, LN25, 0.4, 0.0, OutcomePolarity.DESIRABLE), (0, 1), 1),
        (ScenarioParams(0.2, 0, 40.0, 1.0, 0.0, 0.0, OutcomePolarity.DESIRABLE), (0, 0), 0),
        (ScenarioParams(0.3, 0, -0.5, -1.0, 2.0, 0.0, OutcomePolarity.DESIRABLE), (1, 0), 0),
    ])
    def test_columns_are_the_rows(self, rows):
        """Each row of the columns holds what one call on its floats gives,
        bit for bit, and the rows a float call refuses are not finite."""
        dists = [observed_distribution(potential_outcomes(p), policy, p.p_x) for p, policy, _ in rows]
        tops = [top for _, _, top in rows]
        with np.errstate(all="ignore"):
            got = discrimination(stack(dists), np.array(tops))
        for i, (dist, top) in enumerate(zip(dists, tops)):
            try:
                want = discrimination(dist, top)
            except DegenerateOutcome:
                assert not np.isfinite(got.auc[i])
                continue
            for name in ("sens", "spec", "auc"):
                assert np.float64(getattr(want, name)).tobytes() == getattr(got, name)[i].tobytes()

    def test_degenerate_rows_are_not_finite(self):
        good = observed_distribution(
            potential_outcomes(ScenarioParams(0.5, 0, -0.5, LN25, 0.4, 0.0, OutcomePolarity.DESIRABLE)),
            (0, 1), 0.5,
        )
        with np.errstate(all="ignore"):
            got = discrimination(stack([DEGENERATE_ONE, DEGENERATE_ZERO, good]), np.array([1, 0, 1]))
        assert np.isfinite(got.auc).tolist() == [False, False, True]


class TestDiscrimination:
    def test_historic_values(self):
        r = _example(LN25)
        d = r.discrimination_pre
        assert d.sens == pytest.approx(PRE_SENS, abs=1e-12)
        assert d.spec == pytest.approx(PRE_SPEC, abs=1e-12)
        assert d.auc == pytest.approx(PRE_AUC, abs=1e-12)

    def test_post_deployment_value(self):
        r = _example(LN25)
        assert r.discrimination_post.auc == pytest.approx(POST_AUC_UP, abs=1e-12)

    def test_auc_is_exact_half_sum(self):
        d = _example(0.4).discrimination_post
        assert d.auc == 0.5 * (d.sens + d.spec)

    def test_post_auc_exactly_half_when_group_means_collapse(self):
        # beta_t = -ln 2.5 cancels beta_x's lift for the treated group, so
        # post-deployment X carries no information about Y.
        r = _example(-LN25)
        assert r.post.mu[1] == pytest.approx(r.post.mu[0], abs=1e-15)
        assert r.discrimination_post.auc == pytest.approx(0.5, abs=1e-12)

    def test_constant_predictor_rejected(self):
        # a zero historic log-odds step fits a constant predictor, which has
        # no interior ROC point
        with pytest.raises(DegenerateScenario):
            evaluate_scenario(ScenarioParams(
                p_x=0.5, pi0=0, beta0=-0.5, beta_x=0.0, beta_t=0.3,
                beta_xt=0.2, polarity=OutcomePolarity.DESIRABLE,
            ))
        with pytest.raises(DegenerateScenario):
            evaluate_scenario(ScenarioParams(
                p_x=0.5, pi0=1, beta0=-0.5, beta_x=0.4, beta_t=0.3,
                beta_xt=-0.4, polarity=OutcomePolarity.DESIRABLE,
            ))

    @pytest.mark.parametrize("dist", [DEGENERATE_ONE, DEGENERATE_ZERO], ids=["one", "zero"])
    @pytest.mark.parametrize("top", [0, 1])
    def test_degenerate_outcome_rejected(self, dist, top):
        message = f"p(Y=1)={dist.p_y1!r}: sensitivity/specificity undefined"
        with pytest.raises(DegenerateOutcome, match=re.escape(message)):
            discrimination(dist, top)

    @given(scenario_st)
    def test_rank_oracle_equivalence(self, params):
        po = potential_outcomes(params)
        pre = observed_distribution(po, (params.pi0, params.pi0), params.p_x)
        try:
            top = top_group(params)
        except DegenerateScenario:
            return
        d = discrimination(pre, top)
        assert d.auc == pytest.approx(
            exact_rank_auc(params.p_x, pre.mu, fit_opm(pre, top).f), abs=1e-12
        )

    @given(scenario_st)
    def test_three_point_trapezoid_area(self, params):
        po = potential_outcomes(params)
        pre = observed_distribution(po, (params.pi0, params.pi0), params.p_x)
        try:
            top = top_group(params)
        except DegenerateScenario:
            return
        d = discrimination(pre, top)
        # trapezoids under (0,0) -> (1-spec, sens) -> (1,1)
        x1, y1 = 1.0 - d.spec, d.sens
        area = 0.5 * x1 * y1 + 0.5 * (1.0 - x1) * (y1 + 1.0)
        assert area == pytest.approx(d.auc, abs=1e-12)

    @given(scenario_st)
    def test_fitted_predictor_never_below_chance_on_historic(self, params):
        po = potential_outcomes(params)
        pre = observed_distribution(po, (params.pi0, params.pi0), params.p_x)
        try:
            top = top_group(params)
        except DegenerateScenario:
            return
        assert discrimination(pre, top).auc >= 0.5 - 1e-12


class TestAucDelta:
    def test_no_distribution_change_gives_zero(self):
        r = _example(0.0)
        assert r.auc_delta == 0.0
        assert sign_with_band(r.auc_delta) == 0

    def test_positive_and_negative_shifts(self):
        assert _example(LN25).auc_delta == pytest.approx(DELTA_UP, abs=1e-12)
        assert _example(-LN25).auc_delta == pytest.approx(DELTA_DOWN, abs=1e-12)

    def test_delta_is_post_minus_pre(self):
        r = _example(0.3)
        assert r.auc_delta == r.discrimination_post.auc - r.discrimination_pre.auc


class TestSelfFulfilling:
    def test_weak_inequality(self):
        assert _example(LN25).self_fulfilling
        assert _example(0.0).self_fulfilling
        assert not _example(-LN25).self_fulfilling

    def test_sign_band_separates_no_change(self):
        # the zero band sits on the changed group's log-odds effect
        assert _example(1e-15).auc_sign == 0
        assert _example(1e-15).self_fulfilling
        assert _example(1e-9).auc_sign == 1
        assert _example(-1e-9).auc_sign == -1
        assert not _example(-1e-9).self_fulfilling


class TestCalibration:
    def test_fitted_opm_calibrated_on_historic(self):
        r = _example(LN25)
        assert r.calibration_pre.max_gap == 0.0
        assert r.calibration_pre.is_calibrated

    def test_zero_effect_stays_calibrated_post(self):
        r = _example(0.0)
        assert r.calibration_post.is_calibrated

    def test_effect_at_treated_group_breaks_calibration(self):
        r = _example(LN25)
        assert not r.calibration_post.is_calibrated
        assert r.calibration_post.max_gap == pytest.approx(CAL_GAP_UP, abs=1e-12)
        assert r.calibration_post.max_gap == pytest.approx(
            abs(r.po.cate[1]), abs=1e-15
        )

    def test_levels_carry_masses_and_conditional_means(self):
        r = _example(LN25)
        levels = r.calibration_post.levels
        assert [l.mass for l in levels] == [0.5, 0.5]
        assert levels[0].conditional_mean == r.post.mu[0]
        assert levels[1].conditional_mean == r.post.mu[1]

    def test_constant_predictor_single_level(self):
        dist = ObservedDistribution(
            mu=(0.3, 0.5), p_y1=0.4, joint=((0.35, 0.15), (0.25, 0.25))
        )
        report = calibration(Opm(f=(0.4, 0.4), lam=0.4), dist, 0.5, is_calibrated=True)
        assert len(report.levels) == 1
        assert report.levels[0].conditional_mean == dist.p_y1
        assert report.levels[0].mass == 1.0

    @given(scenario_st)
    def test_calibrated_iff_distribution_matches_fit(self, params):
        po = potential_outcomes(params)
        pre = observed_distribution(po, (params.pi0, params.pi0), params.p_x)
        try:
            r = evaluate_scenario(params)
        except DegenerateScenario:
            return
        # the deployed distribution matches the fit where the group's
        # conditional is unchanged or its log-odds effect is zero
        matches = all(
            r.post.mu[x] == r.opm.f[x]
            or abs(params.beta_t + params.beta_xt * x) <= 1e-12
            for x in (0, 1)
        )
        assert r.calibration_post.is_calibrated == matches
        assert pre.mu == r.opm.f
