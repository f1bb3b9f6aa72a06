"""Seeded Monte Carlo emulation of the experimental sampling procedure.

Each shot mimics the experiment: the input basis state is drawn from the
diagonal of rho_0 (the duty-cycle mixing of the state preparation), the
collapsed state evolves under the gate, and the second measurement outcome
is drawn from the conditional transition probabilities.  A shot therefore
lands in joint cell (in, fin) with probability j[in, fin], independently of
the other shots, so the counts of n shots are exactly Multinomial(n, j) over
the 16 joint cells.  They are drawn in one ``Generator.multinomial`` call
from a PCG64 stream, at a cost that does not depend on n.

``sample_tpm`` draws from a joint table or from a (T, 4, 4) stack of them,
as ``compare`` passes the joint tables of its whole time grid, which
``sweep.evaluate_grid`` has already gated.  The rows of a stack are drawn in
order from the one PCG64 stream of ``np.random.default_rng(seed)``: row i is
the i-th multinomial draw of that stream, so row 0 equals the single-table
run at the same seed.  numpy fixes both PCG64 and its multinomial algorithm,
and its version pins the output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def sample_tpm(j: np.ndarray, cfg: SampleConfig) -> EmpiricalTable:
    """Sample cfg.n_samples two-point-measurement shots of the joint table j;
    deterministic per seed.

    ``j`` may be a (T, 4, 4) stack of joint tables: its rows are then drawn
    in order from the stream of ``cfg.seed``.  The tables are not checked here.
    """
    j = np.asarray(j, dtype=float)
    rows = j.reshape(-1, 16)
    # multinomial rejects pvals whose sum exceeds 1 by float noise
    pvals = rows / rows.sum(axis=1, keepdims=True)
    counts = np.random.default_rng(cfg.seed).multinomial(cfg.n_samples, pvals)
    return EmpiricalTable(counts=counts.reshape(j.shape), n=cfg.n_samples)
