import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from conftest import LN25, random_params
from opmdeploy.errors import ConfigError, DegenerateScenario
from opmdeploy.mc import (
    CHUNK,
    MAX_SAMPLES,
    McConfig,
    cell_counts,
    empirical_metrics,
    sample,
    write_sample_csv,
)
from opmdeploy.report import evaluate_scenario
from opmdeploy.scenario import (
    OutcomePolarity,
    ScenarioParams,
    parse_polarity,
    potential_outcomes,
)
from opmdeploy.sweep import default_grid, expand_and_filter

BASE = ScenarioParams(
    p_x=0.5, pi0=0, beta0=-0.5, beta_x=LN25, beta_t=LN25, beta_xt=0.0,
    polarity=OutcomePolarity.DESIRABLE,
)
CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def load_params(path: Path) -> ScenarioParams:
    raw = json.loads(path.read_text())
    return ScenarioParams(**{**raw, "polarity": parse_polarity(raw["polarity"])})


def whole_table(params: ScenarioParams, assign: tuple[int, int], cfg: McConfig) -> np.ndarray:
    """The oracle for `sample` and `cell_counts`: the (n, 3) uint8 table of
    (x, t, y) drawn at once, x from the config's stream and then y from the
    same stream."""
    q = np.array(potential_outcomes(params).q)
    rng = cfg.rng()
    n = cfg.n_samples
    x = (rng.random(n) < params.p_x).astype(np.uint8)
    t = np.array(assign, dtype=np.uint8)[x]
    y = (rng.random(n) < q[t, x]).astype(np.uint8)
    return np.column_stack([x, t, y])


def table_counts(table: np.ndarray) -> np.ndarray:
    """The oracle for `cell_counts`: counts[2*x + y] of a whole table."""
    return np.bincount(2 * table[:, 0] + table[:, 2], minlength=4)


def deployed_counts(params: ScenarioParams, cfg: McConfig):
    """The report and its (pre, post) cell counts, as `simulate` draws them."""
    r = evaluate_scenario(params)
    return r, cell_counts(params, (r.policy_pre, r.policy_post), cfg)


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

    def test_rejects_booleans(self):
        # each would pass as an int and echo as `true`/`false` in the JSON
        with pytest.raises(ConfigError) as exc:
            McConfig(n_samples=True, master_seed=False, scenario_index=True)
        assert [p.split(":")[0] for p in exc.value.problems] == [
            "n_samples", "master_seed", "scenario_index",
        ]
        assert all(p.endswith(("got True", "got False")) for p in exc.value.problems)


class TestSample:
    def test_policy_applied_deterministically(self):
        cfg = McConfig(n_samples=1, master_seed=42)
        table = np.concatenate(list(sample(BASE, (1, 1), cfg)))
        assert table.shape == (1, 3)
        x, t, y = table[0]
        assert t == 1
        table0 = np.concatenate(list(sample(BASE, (0, 0), cfg)))
        assert table0[0, 1] == 0

    def test_same_config_replays_identical_tables(self):
        cfg = McConfig(n_samples=5000, master_seed=7, scenario_index=3)
        a = np.concatenate(list(sample(BASE, (0, 0), cfg)))
        b = np.concatenate(list(sample(BASE, (0, 0), cfg)))
        assert np.array_equal(a, b)

    def test_distinct_substreams_differ(self):
        a = np.concatenate(list(sample(BASE, (0, 0), McConfig(5000, 7, 0))))
        b = np.concatenate(list(sample(BASE, (0, 0), McConfig(5000, 7, 1))))
        assert not np.array_equal(a, b)

    def test_covariate_mean_within_binomial_error(self):
        n = 1_000_000
        cfg = McConfig(n_samples=n, master_seed=2024)
        table = np.concatenate(list(sample(BASE, (0, 0), cfg)))
        se = math.sqrt(BASE.p_x * (1 - BASE.p_x) / n)
        assert abs(table[:, 0].mean() - BASE.p_x) <= 4 * se

    def test_group_means_within_binomial_error(self):
        n = 1_000_000
        cfg = McConfig(n_samples=n, master_seed=11)
        r, (_, post) = deployed_counts(BASE, cfg)
        m = empirical_metrics(post, r.top)
        for x in (0, 1):
            n_x = int(post[2 * x] + post[2 * x + 1])
            se = math.sqrt(r.post.mu[x] * (1 - r.post.mu[x]) / n_x)
            assert abs(m.mu_hat[x] - r.post.mu[x]) <= 4 * se

    def test_sample_dump_columns(self, tmp_path):
        cfg = McConfig(n_samples=3, master_seed=5)
        path = tmp_path / "s.csv"
        write_sample_csv(sample(BASE, (0, 0), cfg), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,t,y"
        assert len(lines) == 4

    @pytest.mark.parametrize("n", [1, 2, 999, CHUNK + 1])
    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    def test_dump_bytes_match_a_csv_writer(self, tmp_path, n, seed):
        # both values of t: the historic policies treat everyone or no one,
        # the deployed one treats one group
        for policy in ((0, 0), (1, 1), evaluate_scenario(BASE).policy_post):
            cfg = McConfig(n_samples=n, master_seed=seed)
            table = np.concatenate(list(sample(BASE, policy, cfg)))
            path = tmp_path / "s.csv"
            write_sample_csv(sample(BASE, policy, cfg), path)
            oracle = tmp_path / "oracle.csv"
            with open(oracle, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["x", "t", "y"])
                writer.writerows(table.tolist())
            assert path.read_bytes() == oracle.read_bytes()


class TestCellCounts:
    @pytest.mark.parametrize("n", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (2**63, 5)])
    @pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
    def test_streamed_counts_equal_the_tables(self, config, seed, index, n):
        params = load_params(config)
        cfg = McConfig(n_samples=n, master_seed=seed, scenario_index=index)
        r, counts = deployed_counts(params, cfg)
        for policy, cells in zip((r.policy_pre, r.policy_post), counts):
            table = np.concatenate(list(sample(params, policy, cfg)))
            assert cells.tolist() == table_counts(table).tolist()


class TestOneDraw:
    """`sample` and `cell_counts` read the same chunked draw, which is the
    whole-table draw bit for bit."""

    ASSIGNMENTS = ((0, 0), (0, 1), (1, 0), (1, 1))

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (2**63, 5)])
    @pytest.mark.parametrize("params", [BASE, *map(load_params, CONFIGS)],
                             ids=["base", *(c.stem for c in CONFIGS)])
    def test_sample_and_counts_equal_the_whole_table(self, params, seed, index, n):
        cfg = McConfig(n_samples=n, master_seed=seed, scenario_index=index)
        counts = cell_counts(params, self.ASSIGNMENTS, cfg)
        for assign, cells in zip(self.ASSIGNMENTS, counts):
            want = whole_table(params, assign, cfg)
            got = np.concatenate(list(sample(params, assign, cfg)))
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)
            assert cells.tolist() == table_counts(want).tolist()

    @pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_sample_yields_tables_of_at_most_chunk_rows(self, n):
        cfg = McConfig(n_samples=n, master_seed=3)
        tables = list(sample(BASE, (0, 1), cfg))
        assert all(t.ndim == 2 and t.shape[1] == 3 for t in tables)
        assert max(len(t) for t in tables) <= CHUNK
        assert sum(len(t) for t in tables) == n


class TestEmpiricalMetrics:
    def test_perfect_separation_gives_auc_one(self):
        # counts[2*x + y]: two (x=0, y=0) and two (x=1, y=1) patients
        m = empirical_metrics(np.array([2, 0, 0, 2]), 1)
        assert m.auc_hat == 1.0
        assert m.sens_hat == 1.0 and m.spec_hat == 1.0

    def test_missing_class_signaled_not_fatal(self):
        # one (x=0, y=1) and one (x=1, y=1) patient: no negatives
        m = empirical_metrics(np.array([0, 1, 0, 1]), 1)
        assert m.insufficient_cases
        assert m.auc_hat is None and m.sens_hat is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_rank_statistic_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        x = (rng.random(n) < 0.4).astype(np.uint8)
        y = (rng.random(n) < 0.3 + 0.3 * x).astype(np.uint8)
        top = 1 if seed % 2 == 0 else 0
        f = (0.3, 0.7) if top == 1 else (0.7, 0.3)
        m = empirical_metrics(np.bincount(2 * x + y, minlength=4), top)
        scores = np.where(x == 1, f[1], f[0])
        if y.min() == y.max():
            assert m.insufficient_cases
            return
        u, _ = mannwhitneyu(scores[y == 1], scores[y == 0])
        assert m.auc_hat == pytest.approx(u / (m.n_pos * m.n_neg), abs=1e-12)


class TestOracleAgreement:
    def test_auc_agreement_at_a_million_samples(self):
        cfg = McConfig(n_samples=1_000_000, master_seed=314159)
        r, (_, post) = deployed_counts(BASE, cfg)
        m = empirical_metrics(post, r.top)
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
            cfg = McConfig(n_samples=n, master_seed=77, scenario_index=idx)
            r, counts = deployed_counts(params, cfg)
            pre, post = (empirical_metrics(c, r.top) for c in counts)
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
            cfg = McConfig(n_samples=n, master_seed=888, scenario_index=i)
            try:
                r, (_, post) = deployed_counts(params, cfg)
            except DegenerateScenario:
                continue
            m = empirical_metrics(post, r.top)
            assert abs(m.auc_hat - r.discrimination_post.auc) <= 6 * 0.5 / math.sqrt(n)
