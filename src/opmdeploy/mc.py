"""Seeded Monte Carlo sampler: an independent, finite-sample check on the
closed-form engine.

Streams are derived as PCG64(SeedSequence((master_seed, scenario_index))),
a documented, platform-stable scheme: identical (master_seed,
scenario_index) pairs replay identical samples, and distinct scenario
indices give independent substreams safe for parallel sweeps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scenario import Policy, ScenarioParams, potential_outcomes


# Patients per draw at most. Drawing and counting peak near 20 bytes per
# patient, so this keeps a run near 2 GB; larger counts are refused before
# any array is allocated (numpy raised ValueError or MemoryError on them).
MAX_SAMPLES = 10**8


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    master_seed: int
    scenario_index: int = 0

    def __post_init__(self):
        problems = []
        if not (isinstance(self.n_samples, int) and 1 <= self.n_samples <= MAX_SAMPLES):
            problems.append(
                f"n_samples: must be an integer from 1 to {MAX_SAMPLES}, got {self.n_samples!r}"
            )
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < 2**64):
            problems.append(f"master_seed: must be a 64-bit unsigned integer, got {self.master_seed!r}")
        if not (isinstance(self.scenario_index, int) and self.scenario_index >= 0):
            problems.append(f"scenario_index: must be a nonnegative integer, got {self.scenario_index!r}")
        if problems:
            raise ConfigError(problems)

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence((self.master_seed, self.scenario_index))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class EmpiricalMetrics:
    """Plug-in metrics on a finite sample. auc_hat is the tie-adjusted
    rank statistic (ties count one half), evaluated at the same operating
    point as the closed form; None when a class is empty."""

    auc_hat: float | None
    sens_hat: float | None
    spec_hat: float | None
    mu_hat: tuple[float | None, float | None]
    n_pos: int
    n_neg: int

    @property
    def insufficient_cases(self) -> bool:
        return self.n_pos == 0 or self.n_neg == 0


def sample(params: ScenarioParams, policy: Policy, cfg: McConfig) -> np.ndarray:
    """Draw (x, t, y) rows: x ~ Bernoulli(p_x), t = assign(x), y ~
    Bernoulli(q[t][x]). Returns an (n, 3) uint8 array.

    Uniform draws happen in a fixed order (all x, then all y), so a given
    config replays the same patients under any policy.
    """
    q = np.array(potential_outcomes(params).q)
    rng = cfg.rng()
    n = cfg.n_samples
    x = (rng.random(n) < params.p_x).astype(np.uint8)
    t = np.array(policy.assign, dtype=np.uint8)[x]
    y = (rng.random(n) < q[t, x]).astype(np.uint8)
    return np.column_stack([x, t, y])


def empirical_metrics(table: np.ndarray, top: int) -> EmpiricalMetrics:
    """Rank-based AUC plus plug-in sens/spec/group means for a sample.

    The predictor ranks group `top` above the other, so the rank statistic
    reduces to cell counts: P(f+ > f-) + P(f+ = f-)/2 over
    positive/negative pairs, where pairs from one group tie.
    """
    # counts[2*x + y]: patients with X=x and Y=y, in one pass
    counts = np.bincount(2 * table[:, 0] + table[:, 2], minlength=4).tolist()
    n = len(table)
    n_x1 = counts[2] + counts[3]
    n_pos = counts[1] + counts[3]
    n_neg = n - n_pos

    mu_hat = (
        counts[1] / (n - n_x1) if n - n_x1 > 0 else None,
        counts[3] / n_x1 if n_x1 > 0 else None,
    )
    if n_pos == 0 or n_neg == 0:
        return EmpiricalMetrics(
            auc_hat=None, sens_hat=None, spec_hat=None,
            mu_hat=mu_hat, n_pos=n_pos, n_neg=n_neg,
        )

    pos_top, pos_other = counts[2 * top + 1], counts[3 - 2 * top]
    neg_top, neg_other = counts[2 * top], counts[2 - 2 * top]
    auc_hat = (
        pos_top * neg_other + 0.5 * (pos_top * neg_top + pos_other * neg_other)
    ) / (n_pos * n_neg)
    return EmpiricalMetrics(
        auc_hat=auc_hat,
        sens_hat=pos_top / n_pos,
        spec_hat=neg_other / n_neg,
        mu_hat=mu_hat,
        n_pos=n_pos,
        n_neg=n_neg,
    )


def write_sample_csv(table: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "t", "y"])
        writer.writerows(table.tolist())
