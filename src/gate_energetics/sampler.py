"""Seeded Monte Carlo emulation of the experimental sampling procedure.

Each shot mimics the experiment: the input basis state is drawn from the
diagonal of rho_0 (the duty-cycle mixing of the state preparation), the
collapsed state evolves under the gate, and the second measurement outcome
is drawn from the conditional transition probabilities.  A shot therefore
lands in joint cell (in, fin) with probability j[in, fin], independently of
the other shots, so the counts of n shots are exactly Multinomial(n, j) over
the 16 joint cells.  They are drawn in one ``Generator.multinomial`` call
from a PCG64 stream, at a cost that does not depend on n.

``sample_tpm`` draws the counts of a joint table or of a (T, 4, 4) stack of
them, which ``sweep._evaluate`` has gated, with the ``Generator`` it is
given, and returns them as a plain array of the table's shape.
``compare`` makes one, ``np.random.default_rng(seed)``, for all of its
blocks, so row i of the grid is the i-th multinomial draw of the one PCG64
stream of the seed, whatever the blocks, and row 0 equals the single-table
run at the same seed.  numpy fixes both PCG64 and its multinomial
algorithm, and its version pins the output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampleConfig:
    """Shot count of one Monte Carlo run; ``RunConfig.validate`` checks ``samples``."""

    n_samples: int = 10**6


def sample_tpm(j: np.ndarray, rng: np.random.Generator, cfg: SampleConfig) -> np.ndarray:
    """The joint outcome counts[in, fin] of cfg.n_samples two-point-measurement
    shots of the joint table j, drawn from ``rng``, which the caller seeds.

    ``j`` may be a (T, 4, 4) stack of joint tables: its rows are then drawn
    in order.  The int64 counts have the shape of ``j``; the frequencies are
    counts / cfg.n_samples.  The tables are not checked here.
    """
    j = np.asarray(j, dtype=float)
    rows = j.reshape(-1, 16)
    # multinomial rejects pvals whose sum exceeds 1 by float noise
    pvals = rows / rows.sum(axis=1, keepdims=True)
    counts = rng.multinomial(cfg.n_samples, pvals)
    return counts.reshape(j.shape)
