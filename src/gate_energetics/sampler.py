"""Seeded Monte Carlo emulation of the experimental sampling procedure.

Each shot mimics the experiment: the input basis state is drawn from the
diagonal of rho_0 (the duty-cycle mixing of the state preparation), the
collapsed state evolves under the gate, and the second measurement outcome
is drawn from the conditional transition probabilities.

Shots are processed in fixed-size blocks, each with its own PCG64 stream
spawned from the 64-bit seed.  The block structure is independent of how
blocks are scheduled, so the counts are reproducible bit-for-bit no matter
how the work is partitioned across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tpm import conditional_matrix, initial_probs

BLOCK_SIZE = 1 << 20


@dataclass(frozen=True)
class SampleConfig:
    """Shot count, RNG seed and the evolution time the run belongs to."""

    n_samples: int = 10**6
    seed: int = 42
    t: float = 0.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {self.n_samples}")
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


def _cumulative(p: np.ndarray) -> np.ndarray:
    c = np.cumsum(p)
    c[-1] = 1.0  # uniform draws lie in [0, 1); the last edge must close the range
    return c


def sample_tpm(rho0: np.ndarray, u, cfg: SampleConfig) -> EmpiricalTable:
    """Sample cfg.n_samples two-point-measurement shots; deterministic per seed."""
    p_in = initial_probs(rho0)
    cond = conditional_matrix(u)
    cum_in = _cumulative(p_in)
    cum_fin = np.cumsum(cond, axis=0).T.copy()  # row per input state
    cum_fin[:, -1] = 1.0

    n = cfg.n_samples
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    streams = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    counts = np.zeros((4, 4), dtype=np.int64)
    remaining = n
    for block in range(n_blocks):
        size = min(BLOCK_SIZE, remaining)
        remaining -= size
        rng = np.random.default_rng(streams[block])
        ins = np.searchsorted(cum_in, rng.random(size), side="right")
        fins = (rng.random(size)[:, None] >= cum_fin[ins]).sum(axis=1)
        counts += np.bincount(ins * 4 + fins, minlength=16).reshape(4, 4)
    return EmpiricalTable(counts=counts, n=n)


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
