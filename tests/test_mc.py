import math

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from conftest import LN25, random_params
from opmdeploy.errors import ConfigError, DegenerateScenario
from opmdeploy.mc import MAX_SAMPLES, McConfig, empirical_metrics, sample, write_sample_csv
from opmdeploy.report import evaluate_scenario
from opmdeploy.scenario import OutcomePolarity, ScenarioParams, historic_policy
from opmdeploy.sweep import default_grid, expand_and_filter

BASE = ScenarioParams(
    p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=LN25, beta_xt=0.0,
    polarity=OutcomePolarity.DESIRABLE,
)


class TestConfig:
    def test_rejects_nonpositive_sample_count(self):
        with pytest.raises(ConfigError):
            McConfig(n_samples=0, master_seed=1)

    @pytest.mark.parametrize("n", [MAX_SAMPLES + 1, 10**20])
    def test_rejects_a_sample_count_past_the_cap(self, n):
        # refused before any array is allocated (10**20 raised ValueError
        # from numpy, 10**13 MemoryError)
        with pytest.raises(ConfigError, match=f"n_samples: must be an integer from 1 to {MAX_SAMPLES}"):
            McConfig(n_samples=n, master_seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError):
            McConfig(n_samples=1, master_seed=-1)
        with pytest.raises(ConfigError, match="scenario_index: must be a nonnegative integer"):
            McConfig(n_samples=1, master_seed=1, scenario_index=-1)


class TestSample:
    def test_policy_applied_deterministically(self):
        cfg = McConfig(n_samples=1, master_seed=42)
        table = sample(BASE, historic_policy(1), cfg)
        assert table.shape == (1, 3)
        x, t, y = table[0]
        assert t == 1
        table0 = sample(BASE, historic_policy(0), cfg)
        assert table0[0, 1] == 0

    def test_same_config_replays_identical_tables(self):
        cfg = McConfig(n_samples=5000, master_seed=7, scenario_index=3)
        a = sample(BASE, historic_policy(0), cfg)
        b = sample(BASE, historic_policy(0), cfg)
        assert np.array_equal(a, b)

    def test_distinct_substreams_differ(self):
        a = sample(BASE, historic_policy(0), McConfig(5000, 7, 0))
        b = sample(BASE, historic_policy(0), McConfig(5000, 7, 1))
        assert not np.array_equal(a, b)

    def test_covariate_mean_within_binomial_error(self):
        n = 1_000_000
        cfg = McConfig(n_samples=n, master_seed=2024)
        table = sample(BASE, historic_policy(0), cfg)
        se = math.sqrt(BASE.p_x * (1 - BASE.p_x) / n)
        assert abs(table[:, 0].mean() - BASE.p_x) <= 4 * se

    def test_group_means_within_binomial_error(self):
        n = 1_000_000
        cfg = McConfig(n_samples=n, master_seed=11)
        r = evaluate_scenario(BASE)
        table = sample(BASE, r.policy_post, cfg)
        m = empirical_metrics(table, r.top)
        for x in (0, 1):
            n_x = int((table[:, 0] == x).sum())
            se = math.sqrt(r.post.mu[x] * (1 - r.post.mu[x]) / n_x)
            assert abs(m.mu_hat[x] - r.post.mu[x]) <= 4 * se

    def test_sample_dump_columns(self, tmp_path):
        cfg = McConfig(n_samples=3, master_seed=5)
        table = sample(BASE, historic_policy(0), cfg)
        path = tmp_path / "s.csv"
        write_sample_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,t,y"
        assert len(lines) == 4


class TestEmpiricalMetrics:
    def test_perfect_separation_gives_auc_one(self):
        table = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 1], [1, 0, 1]], dtype=np.uint8)
        m = empirical_metrics(table, 1)
        assert m.auc_hat == 1.0
        assert m.sens_hat == 1.0 and m.spec_hat == 1.0

    def test_missing_class_signaled_not_fatal(self):
        table = np.array([[0, 0, 1], [1, 0, 1]], dtype=np.uint8)
        m = empirical_metrics(table, 1)
        assert m.insufficient_cases
        assert m.auc_hat is None and m.sens_hat is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_rank_statistic_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        x = (rng.random(n) < 0.4).astype(np.uint8)
        y = (rng.random(n) < 0.3 + 0.3 * x).astype(np.uint8)
        table = np.column_stack([x, np.zeros(n, dtype=np.uint8), y])
        top = 1 if seed % 2 == 0 else 0
        f = (0.3, 0.7) if top == 1 else (0.7, 0.3)
        m = empirical_metrics(table, top)
        scores = np.where(x == 1, f[1], f[0])
        if y.min() == y.max():
            assert m.insufficient_cases
            return
        u, _ = mannwhitneyu(scores[y == 1], scores[y == 0])
        assert m.auc_hat == pytest.approx(u / (m.n_pos * m.n_neg), abs=1e-12)


class TestOracleAgreement:
    def test_auc_agreement_at_a_million_samples(self):
        r = evaluate_scenario(BASE)
        cfg = McConfig(n_samples=1_000_000, master_seed=314159)
        table = sample(BASE, r.policy_post, cfg)
        m = empirical_metrics(table, r.top)
        assert abs(m.auc_hat - r.discrimination_post.auc) <= 0.005

    def test_classification_agreement_on_grid_scenarios(self):
        # 20 seeded draws from the retained grid: empirical AUC-shift sign
        # and empirical harm direction must match the closed-form booleans
        # whenever the closed-form magnitudes are macroscopic.
        retained = expand_and_filter(default_grid())
        rng = np.random.default_rng(90210)
        picks = rng.choice(len(retained), size=20, replace=False)
        n = 1_000_000
        for idx in sorted(int(i) for i in picks):
            params = retained[idx]
            r = evaluate_scenario(params)
            cfg = McConfig(n_samples=n, master_seed=77, scenario_index=idx)
            pre = empirical_metrics(sample(params, r.policy_pre, cfg), r.top)
            post = empirical_metrics(sample(params, r.policy_post, cfg), r.top)
            if abs(r.auc_delta) > 0.01:
                emp_delta = post.auc_hat - pre.auc_hat
                assert (emp_delta > 0) == (r.auc_delta > 0)
            c = r.harm.changed_group
            shift = r.harm.outcome_shift[c]
            if abs(shift) > 0.01:
                emp_shift = post.mu_hat[c] - pre.mu_hat[c]
                assert (emp_shift > 0) == (shift > 0)
                favorable = params.polarity.favorable_sign * emp_shift
                assert (favorable < 0) == r.harm.harmful_marginal

    def test_random_scenarios_group_mean_rate(self):
        rng = np.random.default_rng(555)
        n = 200_000
        for i in range(5):
            params = random_params(rng)
            try:
                r = evaluate_scenario(params)
            except DegenerateScenario:
                continue
            cfg = McConfig(n_samples=n, master_seed=888, scenario_index=i)
            m = empirical_metrics(sample(params, r.policy_post, cfg), r.top)
            assert abs(m.auc_hat - r.discrimination_post.auc) <= 6 * 0.5 / math.sqrt(n)
