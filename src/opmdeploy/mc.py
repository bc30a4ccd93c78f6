"""Seeded Monte Carlo sampler: an independent, finite-sample check on the
closed-form engine.

Streams are derived as PCG64(SeedSequence((master_seed, scenario_index))),
a documented, platform-stable scheme: identical (master_seed,
scenario_index) pairs replay identical samples, and distinct scenario
indices give independent substreams safe for parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scenario import ScenarioParams, frozen_record, potential_outcomes


# Patients per run at most. Counting and dumping both stream them CHUNK at
# a time, so memory is flat in the count; the cap bounds time (1.5 s to
# count at the cap on a 2-core VM) and the size of the dump, a 600 MB CSV
# per policy at the cap. Larger counts exit 2 before any draw.
MAX_SAMPLES = 10**8

# Patients drawn per step of `_draws`: two float64 buffers of this length
# are all the memory a draw holds.
CHUNK = 1 << 16


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    master_seed: int
    scenario_index: int = 0

    def __post_init__(self):
        problems = []  # `type() is int` refuses a bool, which would echo as `true`
        if not (type(self.n_samples) is int and 1 <= self.n_samples <= MAX_SAMPLES):
            problems.append(
                f"n_samples: must be an integer from 1 to {MAX_SAMPLES}, got {self.n_samples!r}"
            )
        if not (type(self.master_seed) is int and 0 <= self.master_seed < 2**64):
            problems.append(f"master_seed: must be a 64-bit unsigned integer, got {self.master_seed!r}")
        if not (type(self.scenario_index) is int and self.scenario_index >= 0):
            problems.append(f"scenario_index: must be a nonnegative integer, got {self.scenario_index!r}")
        if problems:
            raise ConfigError(problems)

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence((self.master_seed, self.scenario_index))
        return np.random.Generator(np.random.PCG64(seq))


@frozen_record
class EmpiricalMetrics:
    """Plug-in metrics on a finite sample. auc_hat is the tie-adjusted
    rank statistic (ties count one half), evaluated at the same operating
    point as the closed form; None when a class is empty."""

    mu_hat: tuple[float | None, float | None]
    sens_hat: float | None
    spec_hat: float | None
    auc_hat: float | None
    n_pos: int
    n_neg: int

    @property
    def insufficient_cases(self) -> bool:
        return self.n_pos == 0 or self.n_neg == 0


def _draws(params: ScenarioParams, cfg: McConfig):
    """The config's patients, CHUNK at a time: x (a boolean column, X=1)
    and u_y, the uniform that decides Y (Y=1 when u_y < q[t][x]).

    x reads the config's PCG64 at [0, n) and u_y the same stream advanced
    by n, at [n, 2n), one 64-bit output per float64, so a config replays the
    same patients under any policy. u_y is a view of a buffer that the next
    chunk overwrites.
    """
    n = cfg.n_samples
    x_rng = cfg.rng()
    y_rng = np.random.Generator(cfg.rng().bit_generator.advance(n))
    x_buf, y_buf = np.empty(CHUNK), np.empty(CHUNK)
    for start in range(0, n, CHUNK):
        k = min(CHUNK, n - start)
        yield x_rng.random(k, out=x_buf[:k]) < params.p_x, y_rng.random(k, out=y_buf[:k])


def sample(params: ScenarioParams, assign: tuple[int, int], cfg: McConfig):
    """Draw (x, t, y) rows: x ~ Bernoulli(p_x), t = assign[x], y ~
    Bernoulli(q[t][x]). Yields (k, 3) uint8 tables of at most CHUNK rows,
    the patients of `_draws` in order."""
    q = np.array(potential_outcomes(params).q)
    assign = np.array(assign, dtype=np.uint8)
    for x, u_y in _draws(params, cfg):
        x = x.view(np.uint8)
        t = assign[x]
        yield np.column_stack([x, t, (u_y < q[t, x]).view(np.uint8)])


def cell_counts(
    params: ScenarioParams, policies: tuple[tuple[int, int], ...], cfg: McConfig
) -> list[np.ndarray]:
    """counts[2*x + y] of the patients `_draws` makes, for each policy, in
    one streamed pass and without a patient table. Every policy sees the
    same patients; under one, group x has Y=1 when u_y < q[assign[x]][x].
    """
    q = potential_outcomes(params).q
    thresholds = [(q[a0][0], q[a1][1]) for a0, a1 in policies]
    n_x1 = 0
    y1 = [[0, 0] for _ in policies]  # Y=1 patients of each policy, by group
    for x, u_y in _draws(params, cfg):
        n_x1 += np.count_nonzero(x)
        for counts, (q0, q1) in zip(y1, thresholds):
            below = u_y < q0
            counts[0] += np.count_nonzero(below) - np.count_nonzero(below & x)
            counts[1] += np.count_nonzero(x & (u_y < q1))
    n_x0 = cfg.n_samples - n_x1
    return [np.array([n_x0 - c0, c0, n_x1 - c1, c1]) for c0, c1 in y1]


def empirical_metrics(counts: np.ndarray, top: int) -> EmpiricalMetrics:
    """Rank-based AUC plus plug-in sens/spec/group means for a sample, from
    its cell counts: counts[2*x + y] patients with X=x and Y=y.

    The predictor ranks group `top` above the other, so the rank statistic
    reduces to cell counts: P(f+ > f-) + P(f+ = f-)/2 over
    positive/negative pairs, where pairs from one group tie.
    """
    counts = counts.tolist()
    n = sum(counts)
    n_x1 = counts[2] + counts[3]
    n_pos = counts[1] + counts[3]
    n_neg = n - n_pos

    mu_hat = (
        counts[1] / (n - n_x1) if n - n_x1 > 0 else None,
        counts[3] / n_x1 if n_x1 > 0 else None,
    )
    sens_hat = spec_hat = auc_hat = None  # without a case or a control
    if n_pos and n_neg:
        pos_top, pos_other = counts[2 * top + 1], counts[3 - 2 * top]
        neg_top, neg_other = counts[2 * top], counts[2 - 2 * top]
        sens_hat, spec_hat = pos_top / n_pos, neg_other / n_neg
        auc_hat = (
            pos_top * neg_other + 0.5 * (pos_top * neg_top + pos_other * neg_other)
        ) / (n_pos * n_neg)
    return EmpiricalMetrics(mu_hat, sens_hat, spec_hat, auc_hat, n_pos, n_neg)


# The CSV text of each (x, t, y) row, indexed by its code 4*x + 2*t + y.
_ROW_TEXT = np.array(
    [f"{x},{t},{y}\n" for x in (0, 1) for t in (0, 1) for y in (0, 1)], dtype=object
)


def write_sample_csv(tables, fh) -> None:
    """Write `sample`'s tables as one x,t,y CSV, a table at a time, to a
    text file opened with newline=""."""
    fh.write("x,t,y\n")
    for rows in tables:
        fh.writelines(_ROW_TEXT[4 * rows[:, 0] + 2 * rows[:, 1] + rows[:, 2]])
