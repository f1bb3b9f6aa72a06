"""Seeded Monte Carlo emulation of the experimental sampling procedure.

Each shot mimics the experiment: the input basis state is drawn from the
diagonal of rho_0 (the duty-cycle mixing of the state preparation), the
collapsed state evolves under the gate, and the second measurement outcome
is drawn from the conditional transition probabilities.  A shot therefore
lands in joint cell (in, fin) with probability j[in, fin], independently of
the other shots, so the counts of n shots are exactly Multinomial(n, j) over
the 16 joint cells.  They are drawn in one call from one PCG64 generator per
seed, at a cost that does not depend on n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tpm import joint_table


@dataclass(frozen=True)
class SampleConfig:
    """Shot count and RNG seed of one Monte Carlo run."""

    n_samples: int = 10**6
    seed: int = 42

    def __post_init__(self):
        # Generator.multinomial counts in int64
        if not 1 <= self.n_samples < 2**63:
            raise ValueError(f"n_samples must be in [1, 2**63), got {self.n_samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit non-negative integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class EmpiricalTable:
    """Joint outcome counts[in, fin] from n two-point-measurement shots."""

    counts: np.ndarray
    n: int

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.n


def sample_tpm(rho0: np.ndarray, u, cfg: SampleConfig) -> EmpiricalTable:
    """Sample cfg.n_samples two-point-measurement shots; deterministic per seed."""
    j = joint_table(rho0, u).ravel()
    # multinomial rejects pvals whose sum exceeds 1 by float noise
    counts = np.random.default_rng(cfg.seed).multinomial(cfg.n_samples, j / j.sum())
    return EmpiricalTable(counts=counts.reshape(4, 4), n=cfg.n_samples)


class TVResult(NamedTuple):
    tv: float
    max_cell: float


def tv_distance(e: EmpiricalTable, j: np.ndarray) -> TVResult:
    """Total-variation distance and largest per-cell error between counts/n and j."""
    if e.n == 0:
        raise ValueError("empirical table holds no samples")
    j = np.asarray(j, dtype=float)
    if j.shape != e.counts.shape:
        raise ValueError(f"shape mismatch: {e.counts.shape} vs {j.shape}")
    diff = np.abs(e.frequencies - j)
    return TVResult(tv=0.5 * float(diff.sum()), max_cell=float(diff.max()))


def error_report(
    theory_times: np.ndarray,
    theory_values: np.ndarray,
    estimate_times: np.ndarray,
    estimate_values: np.ndarray,
) -> np.ndarray:
    """Per-time absolute errors |theory - estimate| on a shared time grid."""
    t_a = np.asarray(theory_times, dtype=float)
    t_b = np.asarray(estimate_times, dtype=float)
    if t_a.shape != t_b.shape or not np.array_equal(t_a, t_b):
        raise ValueError("time grids are not aligned")
    a = np.asarray(theory_values, dtype=float)
    b = np.asarray(estimate_values, dtype=float)
    if a.shape != b.shape or a.shape[0] != t_a.shape[0]:
        raise ValueError(f"value shapes {a.shape} and {b.shape} do not match the grid")
    return np.abs(a - b)
