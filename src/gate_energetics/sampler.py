"""Seeded Monte Carlo emulation of the experimental sampling procedure.

Each shot mimics the experiment: the input basis state is drawn from the
diagonal of rho_0 (the duty-cycle mixing of the state preparation), the
collapsed state evolves under the gate, and the second measurement outcome
is drawn from the conditional transition probabilities.  A shot therefore
lands in joint cell (in, fin) with probability j[in, fin], independently of
the other shots, so the counts of n shots are exactly Multinomial(n, j) over
the 16 joint cells.  They are drawn in one call from one PCG64 generator per
seed, at a cost that does not depend on n.

``sample_tpm`` also takes a (T, 4, 4) stack of unitaries, as ``compare``
passes its whole time grid: one ``joint_table`` call validates rho_0 and the
stack once, and row i is drawn from its own generator seeded ``seed + i``,
so each row equals the single-unitary run at that seed and the rows are
independent of each other.  A last seed of 2^64 or more is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Sample cfg.n_samples two-point-measurement shots; deterministic per seed.

    ``u`` may be a (T, 4, 4) stack of unitaries: row i is then drawn from seed
    ``cfg.seed + i`` and equals the single-unitary run at that seed.
    """
    j = joint_table(rho0, u)
    rows = j.reshape(-1, 16)
    last_seed = cfg.seed + len(rows) - 1
    if last_seed >= 2**64:
        raise ValueError(f"last seed {last_seed} of the stack is not a 64-bit integer")
    # multinomial rejects pvals whose sum exceeds 1 by float noise
    pvals = rows / rows.sum(axis=1, keepdims=True)
    counts = np.array(
        [
            np.random.default_rng(cfg.seed + i).multinomial(cfg.n_samples, p)
            for i, p in enumerate(pvals)
        ]
    )
    return EmpiricalTable(counts=counts.reshape(j.shape), n=cfg.n_samples)
