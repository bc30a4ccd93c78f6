import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, mannwhitneyu, norm

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
        with open(path, "w", newline="") as fh:
            write_sample_csv(sample(BASE, (0, 0), cfg), fh)
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
            with open(path, "w", newline="") as fh:
                write_sample_csv(sample(BASE, policy, cfg), fh)
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


GRID_N = 20_000
# The tail probability of a 5 SE normal deviation, both sides.
FIVE_SE_TAIL = 2 * norm.sf(5.0)


@pytest.fixture(scope="module")
def grid_draws():
    """Every retained default-grid setting drawn once through `cell_counts`
    (its own substream, `scenario_index` = row), under the policies the
    closed form deploys, next to the values those draws estimate.

    The expected values come from `potential_outcomes` alone (q and cate)
    and the model's definition: the fitted predictor ranks the group with
    the higher historic q on top, the deployed policy treats that group,
    and the changed group's outcome moves by its treatment effect, granted
    (pi0 = 0) or withdrawn (pi0 = 1). Each standard error is the binomial
    one given the realised group and class sizes, so each standardised
    error is close to N(0, 1).
    """
    est, exp, se = {}, {}, {}

    def add(name, estimate, expected, error):
        est.setdefault(name, []).append(estimate)
        exp.setdefault(name, []).append(expected)
        se.setdefault(name, []).append(error)

    decisions = []
    for row, params in enumerate(expand_and_filter(default_grid())):
        r = evaluate_scenario(params)
        cfg = McConfig(n_samples=GRID_N, master_seed=20261019, scenario_index=row)
        counts = cell_counts(params, (r.policy_pre, r.policy_post), cfg)
        po = potential_outcomes(params)
        q, pi0, p_x = po.q, params.pi0, params.p_x
        top = int(q[pi0][1] > q[pi0][0])
        changed = top if pi0 == 0 else 1 - top
        add("p_x", (counts[0][2] + counts[0][3]) / GRID_N, p_x,
            math.sqrt(p_x * (1 - p_x) / GRID_N))
        auc = []
        for which, assign, cells in zip(("pre", "post"), ((pi0, pi0), (1 - top, top)), counts):
            m = empirical_metrics(cells, top)
            mu = [q[assign[0]][0], q[assign[1]][1]]
            for x in (0, 1):
                n_x = int(cells[2 * x] + cells[2 * x + 1])
                add(f"mu_{which}{x}", m.mu_hat[x], mu[x], math.sqrt(mu[x] * (1 - mu[x]) / n_x))
            w = (1 - p_x, p_x)
            p_y1 = w[0] * mu[0] + w[1] * mu[1]
            sens = w[top] * mu[top] / p_y1
            spec = w[1 - top] * (1 - mu[1 - top]) / (1 - p_y1)
            var_sens, var_spec = sens * (1 - sens) / m.n_pos, spec * (1 - spec) / m.n_neg
            add(f"sens_{which}", m.sens_hat, sens, math.sqrt(var_sens))
            add(f"spec_{which}", m.spec_hat, spec, math.sqrt(var_spec))
            add(f"auc_{which}", m.auc_hat, 0.5 * (sens + spec), 0.5 * math.sqrt(var_sens + var_spec))
            auc.append((m.auc_hat, 0.5 * (sens + spec), se["auc_" + which][-1]))
        # pre and post share the patients: the changed group's shift counts
        # those whose u_y falls between its two thresholds, a binomial
        shift = (1 - 2 * pi0) * po.cate[changed]
        n_c = int(counts[0][2 * changed] + counts[0][2 * changed + 1])
        emp_shift = est[f"mu_post{changed}"][-1] - est[f"mu_pre{changed}"][-1]
        add("shift", emp_shift, shift, math.sqrt(abs(shift) * (1 - abs(shift)) / n_c))
        (pre_hat, pre, pre_se), (post_hat, post, post_se) = auc
        decisions.append({
            "report": r,
            "changed": changed,
            # the two AUCs are correlated: the sum of their SEs bounds the
            # SE of their difference whatever the correlation
            "auc_delta": (post_hat - pre_hat, post - pre, pre_se + post_se),
            "shift": (emp_shift, shift, se["shift"][-1]),
        })
    arrays = {k: (np.array(est[k]), np.array(exp[k]), np.array(se[k])) for k in est}
    return arrays, decisions


class TestWholeGridAgreement:
    """The seeded Monte Carlo draws of every retained default-grid setting
    agree with the closed form: each estimate, each estimate pooled over the
    grid, the standardised errors' mean and spread, and the AUC-change sign
    and harm direction wherever the sample decides them."""

    def test_the_grid_is_whole(self, grid_draws):
        arrays, decisions = grid_draws
        assert len(decisions) == 4620
        assert len(arrays) == 12

    def test_each_estimate_within_6_se(self, grid_draws):
        arrays, _ = grid_draws
        for name, (est, exp, se) in arrays.items():
            bad = np.flatnonzero(np.abs(est - exp) > 6 * se)
            assert bad.size == 0, (name, bad[:5], est[bad[:5]], exp[bad[:5]])

    def test_each_estimate_pooled_over_the_grid_within_5_se(self, grid_draws):
        arrays, _ = grid_draws
        for name, (est, exp, se) in arrays.items():
            pooled_se = math.sqrt(np.sum(se**2)) / se.size
            assert abs(np.mean(est - exp)) <= 5 * pooled_se, name

    def test_standardised_errors_are_standard(self, grid_draws):
        arrays, _ = grid_draws
        for name, (est, exp, se) in arrays.items():
            kept = se > 0  # a zero shift has a zero SE, and is exact above
            z = (est[kept] - exp[kept]) / se[kept]
            n = z.size
            assert n > 3000, name
            assert abs(np.mean(z)) <= 5 / math.sqrt(n), name
            assert chi2.ppf(FIVE_SE_TAIL, n) <= np.sum(z**2) <= chi2.isf(FIVE_SE_TAIL, n), name

    def test_decided_signs_match_the_closed_form(self, grid_draws):
        _, decisions = grid_draws
        decided_auc = decided_shift = 0
        for d in decisions:
            r = d["report"]
            emp, exp, se = d["auc_delta"]
            if abs(exp) > 6 * se:
                decided_auc += 1
                assert np.sign(emp) == r.auc_sign
            emp, exp, se = d["shift"]
            if abs(exp) > 6 * se:
                decided_shift += 1
                assert r.harm.changed_group == d["changed"]
                assert np.sign(emp) == np.sign(r.harm.outcome_shift[d["changed"]])
                favorable = r.params.polarity.favorable_sign * emp
                assert (favorable < 0) == r.harm.harmful_marginal
        assert decided_auc > 2500 and decided_shift > 4000  # most settings decide both
