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
``sweep.evaluate_grid`` has already gated.  Row i is drawn from the PCG64
stream of seed ``seed + i``, so each row equals the single-table run at that
seed and the rows are independent of each other.  A last seed of 2^64 or
more is rejected.

Row i's stream is exactly that of ``np.random.default_rng(seed + i)``, but
no generator is built per row.  ``_pcg64_states`` computes every row's
``SeedSequence`` hash with uint32 arithmetic over the whole stack at once,
then PCG64's seeding step (O'Neill, PCG, HMC-CS-2014-0905) in 128-bit
integers; one PCG64 is set to each row's state in turn and draws that row.
Both algorithms are fixed by numpy, whose version pins the output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# numpy's SeedSequence: a pool of 4 uint32 words, filled by hashmix (with the
# INIT_A/MULT_A constant chain) and mix, read out by the INIT_B/MULT_B chain
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64 is seeded from 4 uint64 words, i.e. 8 uint32 words of the pool
_STATE_WORDS = 8
# PCG's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 hash constants init * mult^k mod 2^32, as a (n + 1, 1) column."""
    chain = [init]
    for _ in range(n):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


# hashmix call k xors with constant k and multiplies by constant k + 1; the
# pool takes _POOL calls to fill and _POOL * (_POOL - 1) to mix
_HASH_A = _hash_chain(_INIT_A, _MULT_A, _POOL * _POOL)
_HASH_B = _hash_chain(_INIT_B, _MULT_B, _STATE_WORDS)
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]
_READ_ORDER = np.arange(_STATE_WORDS) % _POOL


def _hashmix(value: np.ndarray, chain: np.ndarray, k: int, n: int) -> np.ndarray:
    """hashmix calls k .. k + n - 1 of a chain, one per row of the (n, T) result."""
    value = (value ^ chain[k : k + n]) * chain[k + 1 : k + n + 1]
    return value ^ value >> _XSHIFT


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(s)`` for each uint64 seed s.

    The seed's entropy words are its low and high 32 bits; a seed below 2^32
    has one word, and a missing word hashes the same as a zero word.
    """
    words = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
    words[:2] = seeds.astype("<u8").view("<u4").reshape(-1, 2).T
    pool = _hashmix(words, _HASH_A, 0, _POOL)
    k = _POOL
    for src, dst in enumerate(_OTHERS):
        # pool[src] is not among its own destinations, so its hashes for all
        # of them can be taken at once, with consecutive constants in dst order
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(pool[src], _HASH_A, k, len(dst))
        pool[dst] = mixed ^ mixed >> _XSHIFT
        k += len(dst)
    out = _hashmix(pool[_READ_ORDER], _HASH_B, 0, _STATE_WORDS)
    # generate_state(4, np.uint64) pairs the 8 words little-endian
    words64 = np.ascontiguousarray(out.T, dtype="<u4").view("<u8")
    states = []
    for s_hi, s_lo, q_hi, q_lo in words64.tolist():
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: a step from state 0 (giving inc), add
        # initstate, a second step
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


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

    ``j`` may be a (T, 4, 4) stack of joint tables: row i is then drawn from
    seed ``cfg.seed + i`` and equals the single-table run at that seed.  The
    tables are not checked here.
    """
    j = np.asarray(j, dtype=float)
    rows = j.reshape(-1, 16)
    last_seed = cfg.seed + len(rows) - 1
    if last_seed >= 2**64:
        raise ValueError(f"last seed {last_seed} of the stack is not a 64-bit integer")
    # multinomial rejects pvals whose sum exceeds 1 by float noise
    pvals = rows / rows.sum(axis=1, keepdims=True)
    seeds = np.uint64(cfg.seed) + np.arange(len(rows), dtype=np.uint64)
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    counts = np.empty(rows.shape, dtype=np.int64)
    for i, (state, inc) in enumerate(_pcg64_states(seeds)):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        counts[i] = gen.multinomial(cfg.n_samples, pvals[i])
    return EmpiricalTable(counts=counts.reshape(j.shape), n=cfg.n_samples)
