"""The four benchmark workloads: their seeded inputs, one operation each,
and the correctness gates that check every operation's output.

A workload is built from (root, seed): the constructor generates every
input, so the time to build one is part of the benchmark's set-up time. The
program is reached only through public names: `cli.main`,
`evaluate_scenario`, `DeploymentReport.checks`, `cli.report_to_json` and,
in the gates, `sweep`'s grid and CSV functions. Module attributes are
looked up at call time, so the traced run's wrappers are seen.

- default-experiment: sweep -> tables --csv -> plot --csv on the default
  grid, as scripts/run_experiment.py chains them. Fixed input; outputs are
  checked byte for byte against digests recorded from the reference run.
- wide-grid: sweep --grid <seeded JSON> -> tables --csv on a custom grid of
  4000 settings whose beta_t and beta_xt values are seeded in |beta| <= 3.
- mc-simulate: simulate --samples 1000000 over the three shipped configs,
  master seeds derived from the workload seed.
- eval-stream: a seeded stream of 20 000 random scenarios, one at a time
  through evaluate_scenario -> checks() -> report_to_json.

Every operation writes its outputs afresh: `clear()` removes them after each
operation has been checked (and once when the workload is built), so a step
that exits 0 without writing a file fails its gate instead of passing on an
earlier operation's file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

import mpmath

from opmdeploy import cli, report, sweep
from opmdeploy.classify import CheckResult, CheckStatus, verdict_from_signs
from opmdeploy.scenario import OutcomePolarity, ScenarioParams, sign_with_band

WORK_DIR = ".perfbench-out"
HERE = Path(__file__).resolve().parent


class OpFailed(Exception):
    """The program refused an operation (nonzero exit)."""


def call_cli(argv: list[str]) -> str:
    """Run `opmdeploy <argv>` in-process; return what it printed."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code
    if rc != 0:
        raise OpFailed(f"opmdeploy {' '.join(argv)} exited with {rc}")
    return sink.getvalue()


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def missing(paths) -> list[str]:
    return [f"{p}: not written" for p in paths if not Path(p).is_file()]


def remove(paths) -> None:
    """Delete files and directory trees that an operation writes."""
    for p in map(Path, paths):
        if p.is_dir():
            shutil.rmtree(p)
        else:
            p.unlink(missing_ok=True)


class DefaultExperiment:
    """The published artefact: the only workload that renders figures."""

    name = "default-experiment"
    DIGESTS = HERE / "experiment_digests.json"

    def __init__(self, root: Path, seed: int):
        # The default grid is the input; the seed has nothing to vary. The
        # CSV path is relative and fixed because every SVG embeds it.
        self.dir = Path(WORK_DIR) / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.csv = str(self.dir / "sweep.csv")
        self.digests = json.loads(self.DIGESTS.read_text())
        self.items_per_op = sweep.default_grid().cardinality
        self.clear()

    def op(self, i: int) -> None:
        call_cli(["sweep", "--out", self.csv])
        call_cli(["tables", "--csv", self.csv, "--out", str(self.dir / "tables")])
        call_cli(["plot", "--csv", self.csv, "--out", str(self.dir / "figures")])

    def check(self, i: int, out) -> list[str]:
        absent = missing(self.dir / name for name in self.digests)
        if absent:
            return absent
        return [
            f"{name}: sha256 {got} != recorded {want}"
            for name, want in self.digests.items()
            if (got := sha256(self.dir / name)) != want
        ]

    def clear(self) -> None:
        remove([self.csv, self.csv + ".manifest.json", self.dir / "tables", self.dir / "figures"])

    def finish(self) -> dict[int, list[str]]:
        return {}


def wide_grid_spec(seed: int, n_bt: int = 10, n_bxt: int = 5) -> dict:
    """The default grid with its beta_t/beta_xt lists replaced by seeded
    values in [-3, 3], where the program's float bands are exact. beta_xt
    also holds every -beta_x, so the structural filter still removes
    settings.

    4000 settings by default, so that an operation takes about 0.4 s and a
    run holds dozens: at 5 * 10^4 settings a run held 3 to 5 operations and
    their minimum moved with the host's load by 30% between sets of runs."""
    g = sweep.default_grid()
    rng = random.Random(seed)
    return {
        "p_x_values": list(g.p_x_values),
        "pi0_values": list(g.pi0_values),
        "beta0_values": list(g.beta0_values),
        "beta_x_values": list(g.beta_x_values),
        "beta_t_values": [rng.uniform(-3.0, 3.0) for _ in range(n_bt)],
        "beta_xt_values": [-bx for bx in g.beta_x_values]
        + [rng.uniform(-3.0, 3.0) for _ in range(n_bxt)],
        "polarities": [p.value for p in g.polarities],
    }


def _logistic(eta: float) -> float:
    return 1.0 / (1.0 + math.exp(-eta))


def grid_exclusions(spec: dict) -> tuple[int, int]:
    """(structural, numeric tie) exclusion counts, counted here from the
    grid lists rather than taken from the program. Structural: the historic
    conditionals coincide by the coefficients (beta_x = 0 under treat no
    one, beta_x + beta_xt = 0 under treat everyone, within 1e-12). Numeric
    tie: the other settings whose fitted values still differ by at most
    1e-12."""
    structural = tie = 0
    for pi0 in spec["pi0_values"]:
        for b0 in spec["beta0_values"]:
            for bx in spec["beta_x_values"]:
                for bt in spec["beta_t_values"]:
                    for bxt in spec["beta_xt_values"]:
                        step = bx if pi0 == 0 else bx + bxt
                        if abs(step) <= 1e-12:
                            structural += 1
                            continue
                        base = b0 + pi0 * bt
                        if abs(_logistic(base + step) - _logistic(base)) <= 1e-12:
                            tie += 1
    scale = len(spec["p_x_values"]) * len(spec["polarities"])  # neither matters
    return structural * scale, tie * scale


class WideGrid:
    """A seeded custom grid, as `sweep --grid` takes one; no figures."""

    name = "wide-grid"

    def __init__(self, root: Path, seed: int, n_bt: int = 10, n_bxt: int = 5):
        self.dir = Path(WORK_DIR) / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spec = wide_grid_spec(seed, n_bt, n_bxt)
        self.grid = str(self.dir / "grid.json")
        with open(self.grid, "w") as fh:
            json.dump(self.spec, fh)
        self.csv = str(self.dir / "sweep.csv")
        self.tables = self.dir / "tables"
        self.items_per_op = math.prod(len(v) for v in self.spec.values())
        self.outputs = None  # digests of the first operation's outputs
        self.clear()

    def op(self, i: int) -> None:
        call_cli(["sweep", "--grid", self.grid, "--out", self.csv])
        call_cli(["tables", "--csv", self.csv, "--out", str(self.tables)])

    def _outputs(self) -> list:
        return [self.csv, self.tables / "sign_table.csv", self.tables / "harm_table.csv"]

    def check(self, i: int, out) -> list[str]:
        absent = missing(self._outputs() + [self.csv + ".manifest.json"])
        if absent:
            return absent
        digests = {str(p): sha256(p) for p in self._outputs()}
        if self.outputs is None:
            self.outputs = digests
            return self.full_check()
        return [
            f"{p}: differs from the first operation's output"
            for p, d in digests.items()
            if d != self.outputs[p]
        ]

    def full_check(self) -> list[str]:
        """Grid accounting, verdict re-derivation on every row, and the CSV
        round trip."""
        problems = []
        with open(self.csv + ".manifest.json") as fh:
            counts = json.load(fh)["counts"]
        records = sweep.read_records_csv(self.csv)
        structural, tie = grid_exclusions(self.spec)
        if self.items_per_op != structural + tie + len(records):
            problems.append(
                f"cardinality {self.items_per_op} != structural {structural} + "
                f"numeric tie {tie} + retained {len(records)}"
            )
        want = {
            "cardinality": self.items_per_op,
            "removed_degenerate": structural + tie,
            "retained": len(records),
        }
        if counts != want:
            problems.append(f"manifest counts {counts} != {want}")
        wrong = sum(
            r.verdict
            is not verdict_from_signs(r.polarity, r.pi0, sign_with_band(r.auc_delta))
            for r in records
        )
        if wrong:
            problems.append(f"{wrong} rows' verdict disagrees with the sign lookup")
        again = self.dir / "roundtrip.csv"
        sweep.write_records_csv(records, again)
        if sha256(again) != sha256(self.csv):
            problems.append("CSV does not round-trip through read_records_csv")
        again.unlink()
        return problems

    def clear(self) -> None:
        remove([self.csv, self.csv + ".manifest.json", self.tables])

    def finish(self) -> dict[int, list[str]]:
        return {}


MC_SAMPLES = 1_000_000
# A correct program's error on one estimate exceeds z binomial standard
# errors with probability erfc(z / sqrt(2)): 5.7e-7 at z = 5, 2.0e-9 at
# z = 6. A 20 s run checks some 1800 estimates and a check of the benchmark
# makes some 25 runs of this workload, so a limit of 5 on each estimate
# fails a correct program about once in 40 checks (one draw put x 4.6 SE
# from p_x and its post sens_hat 5.01 SE from the closed form). Each
# estimate is held to MC_OP_SE_LIMIT, and the run's pooled error for each
# (config, estimate) to MC_RUN_SE_LIMIT, which catches a systematic bias of
# MC_RUN_SE_LIMIT / sqrt(operations on that config) standard errors.
MC_OP_SE_LIMIT = 6.0
MC_RUN_SE_LIMIT = 5.0


def mc_problems(text: str, p_x: float, pooled: dict | None = None) -> list[str]:
    """Gate for one `simulate` report: class counts add up, the reported
    errors are the estimates' distances from the closed form, and every
    estimate lies within MC_OP_SE_LIMIT binomial standard errors of it.
    With `pooled`, each estimate's signed error and variance are added to
    pooled[(which, key)] for the run-level test in McSimulate.finish."""
    payload = json.loads(text)
    n = payload["mc"]["n_samples"]
    problems = []
    for which in ("pre", "post"):
        cf = payload[which]["closed_form"]
        emp = payload[which]["empirical"]
        agree = payload[which]["agreement"]
        n_pos, n_neg = emp["n_pos"], emp["n_neg"]
        if n_pos + n_neg != n or emp["insufficient_cases"]:
            problems.append(f"{which}: n_pos {n_pos} + n_neg {n_neg} != {n}")
            continue
        var = {
            "mu0": cf["mu"][0] * (1 - cf["mu"][0]) / (n * (1 - p_x)),
            "mu1": cf["mu"][1] * (1 - cf["mu"][1]) / (n * p_x),
            "sens": cf["sens"] * (1 - cf["sens"]) / n_pos,
            "spec": cf["spec"] * (1 - cf["spec"]) / n_neg,
        }
        var["auc"] = (var["sens"] + var["spec"]) / 4
        est = {
            "mu0": (emp["mu_hat"][0], cf["mu"][0]),
            "mu1": (emp["mu_hat"][1], cf["mu"][1]),
            "sens": (emp["sens_hat"], cf["sens"]),
            "spec": (emp["spec_hat"], cf["spec"]),
            "auc": (emp["auc_hat"], cf["auc"]),
        }
        for key, (hat, exact) in est.items():
            err = abs(hat - exact)
            if agree[f"{key}_abs_err"] != err:
                problems.append(f"{which}.{key}_abs_err {agree[f'{key}_abs_err']} != {err}")
            if err > MC_OP_SE_LIMIT * math.sqrt(var[key]):
                problems.append(
                    f"{which}.{key}: error {err:.3g} exceeds {MC_OP_SE_LIMIT} standard "
                    f"errors ({math.sqrt(var[key]):.3g})"
                )
            if pooled is not None:
                total = pooled.setdefault((which, key), [0.0, 0.0])
                total[0] += hat - exact
                total[1] += var[key]
    return problems


class McSimulate:
    """The Monte Carlo cross-check at n = 10^6, cycling the shipped configs."""

    name = "mc-simulate"

    def __init__(self, root: Path, seed: int):
        self.configs = sorted(str(p.relative_to(root)) for p in (root / "configs").glob("*.json"))
        if not self.configs:
            raise FileNotFoundError("no scenario configs under configs/")
        self.p_x = [json.loads(Path(c).read_text())["p_x"] for c in self.configs]
        self.base_seed = random.Random(seed).getrandbits(48)
        self.items_per_op = 2 * MC_SAMPLES  # patients drawn: pre and post
        self.first = None
        self.pooled = [{} for _ in self.configs]

    def argv(self, i: int) -> list[str]:
        return [
            "simulate", "--config", self.configs[i % len(self.configs)],
            "--seed", str(self.base_seed + i), "--samples", str(MC_SAMPLES),
        ]

    def op(self, i: int) -> str:
        return call_cli(self.argv(i))

    def check(self, i: int, out: str) -> list[str]:
        if i == 0:
            self.first = out
        c = i % len(self.configs)
        return mc_problems(out, self.p_x[c], self.pooled[c])

    def finish(self) -> dict[int, list[str]]:
        """Each config's errors pooled over the run lie within MC_RUN_SE_LIMIT
        standard errors (reported against the config's first operation), and
        replaying (seed, index) of the first operation gives identical JSON."""
        failures = {}
        for c, pooled in enumerate(self.pooled):
            for (which, key), (err, var) in sorted(pooled.items()):
                if abs(err) > MC_RUN_SE_LIMIT * math.sqrt(var):
                    failures.setdefault(c, []).append(
                        f"{self.configs[c]} {which}.{key}: pooled error "
                        f"{err / math.sqrt(var):.2f} exceeds {MC_RUN_SE_LIMIT} standard errors"
                    )
        if self.first is not None and call_cli(self.argv(0)) != self.first:
            failures.setdefault(0, []).append("replaying the first simulate call gave different JSON")
        return failures

    def clear(self) -> None:
        pass  # the report comes back as text; no files are written


EVAL_STREAM = 20_000
ORACLE_SUBSET = 200
ORACLE_TOL = 1e-12


def random_scenario(rng: random.Random) -> dict:
    return {
        "p_x": rng.uniform(0.05, 0.95),
        "pi0": rng.randrange(2),
        "beta0": rng.uniform(-3.0, 3.0),
        "beta_x": rng.uniform(-3.0, 3.0),
        "beta_t": rng.uniform(-3.0, 3.0),
        "beta_xt": rng.uniform(-3.0, 3.0),
        "polarity": rng.choice(("desirable", "undesirable")),
    }


def oracle(raw: dict) -> dict:
    """q, auc_pre, auc_post and the AUC change's sign in 50-digit
    arithmetic, derived from the model's definition with no program code:
    the fitted predictor reproduces the historic conditionals, the deployed
    policy treats the higher-predicted group, and AUC = (sens + spec) / 2
    at that operating point."""
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        p_x, b0, bx, bt, bxt = (
            mpf(raw[k]) for k in ("p_x", "beta0", "beta_x", "beta_t", "beta_xt")
        )
        q = [
            [1 / (1 + mpmath.exp(-(b0 + bx * x + bt * t + bxt * x * t))) for x in (0, 1)]
            for t in (0, 1)
        ]
        f = q[raw["pi0"]]
        a = 1 if f[1] > f[0] else 0
        mass = (1 - p_x, p_x)

        def auc(mu):
            p_y1 = mass[0] * mu[0] + mass[1] * mu[1]
            sens = mass[a] * mu[a] / p_y1
            spec = mass[1 - a] * (1 - mu[1 - a]) / (1 - p_y1)
            return (sens + spec) / 2

        post = [q[1 if x == a else 0][x] for x in (0, 1)]
        pre_auc, post_auc = auc(f), auc(post)
        return {
            "q": [[float(v) for v in row] for row in q],
            "auc_pre": float(pre_auc),
            "auc_post": float(post_auc),
            "auc_sign": int(mpmath.sign(post_auc - pre_auc)),
        }


def oracle_problems(raw: dict, payload: dict) -> list[str]:
    want = oracle(raw)
    got = {
        "q": payload["potential_outcomes"]["q"],
        "auc_pre": payload["pre"]["auc"],
        "auc_post": payload["post"]["auc"],
    }
    problems = [
        f"{key}: {g!r} vs 50-digit {w!r}"
        for key, g, w in (
            [(f"q[{t}][{x}]", got["q"][t][x], want["q"][t][x]) for t in (0, 1) for x in (0, 1)]
            + [("auc_pre", got["auc_pre"], want["auc_pre"]),
               ("auc_post", got["auc_post"], want["auc_post"])]
        )
        if abs(g - w) > ORACLE_TOL
    ]
    if payload["auc_sign"] != want["auc_sign"]:
        problems.append(f"auc_sign {payload['auc_sign']} vs 50-digit {want['auc_sign']}")
    return problems


class EvalStream:
    """Library traffic: one scenario per call, the only workload that runs
    the consistency checkers and the JSON encoder."""

    name = "eval-stream"

    def __init__(self, root: Path, seed: int, size: int = EVAL_STREAM):
        rng = random.Random(seed)
        self.raw = [random_scenario(rng) for _ in range(size)]
        self.params = [
            ScenarioParams(**{**r, "polarity": OutcomePolarity(r["polarity"])})
            for r in self.raw
        ]
        self.items_per_op = 1
        self.kept = {}  # payloads of the oracle subset, by stream position

    def op(self, i: int):
        s = i % len(self.params)
        r = report.evaluate_scenario(self.params[s])
        checks = r.checks()
        return checks, cli.report_to_json(r, self.raw[s])

    def check(self, i: int, out) -> list[str]:
        checks, payload = out
        problems = [
            f"{name}: {c.status.value} {c.detail}"
            for name, c in checks.items()
            if isinstance(c, CheckResult) and c.status is CheckStatus.FAIL
        ]
        if not checks["shift_subcase"].consistent:
            problems.append(f"shift_subcase inconsistent: {checks['shift_subcase']}")
        if payload["verdict"] != payload["sign_verdict"]:
            problems.append(
                f"verdict {payload['verdict']} != sign_verdict {payload['sign_verdict']}"
            )
        if i < ORACLE_SUBSET:
            self.kept[i] = payload
        return problems

    def finish(self) -> dict[int, list[str]]:
        found = {}
        for i, payload in self.kept.items():
            problems = oracle_problems(self.raw[i], payload)
            if problems:
                found[i] = problems
        return found

    def clear(self) -> None:
        pass  # nothing is written to files


WORKLOADS = {
    w.name: w for w in (DefaultExperiment, WideGrid, McSimulate, EvalStream)
}
