"""Two-point measurement statistics in the local energy basis.

Both qubits are measured projectively in the logical (local energy) basis
before and after the evolution.  Outcomes are tracked as bit pairs, not as
energy values: the energy label E = eps(psi_A) + eps(phi_B) with
eps(0) = -1, eps(1) = +1 is degenerate (01 and 10 both carry E = 0) and the
pair-level resolution is needed for the 16 entropy-production realizations.
Aggregation by energy happens only when a distribution is built.

Index conventions, kept consistently:

  * outcome index m = 2 psi_A + phi_B;
  * conditional probabilities  c[fin, in] = |<fin| U |in>|^2  (columns are
    inputs; doubly stochastic for unitary U);
  * joint probabilities        j[in, fin] = c[fin, in] * p_in[in]  (rows are
    inputs, so row sums reproduce p_in).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PROB_SUM_TOL,
    PROJ_0,
    PROJ_1,
    RATIO_GUARD,
    UNDEFINED_WEIGHT_TOL,
    UNITARY_TOL,
    VALUE_MERGE_TOL,
    is_unitary,
    tensor,
    validate_density,
)
from .model import Propagator


@dataclass(frozen=True)
class OutcomeLabel:
    """Local measurement outcome (psi_A, phi_B) with its energy label."""

    psi_a: int
    phi_b: int

    def __post_init__(self):
        if self.psi_a not in (0, 1) or self.phi_b not in (0, 1):
            raise ValueError("outcome bits must be 0 or 1")

    @property
    def index(self) -> int:
        return 2 * self.psi_a + self.phi_b

    @property
    def energy(self) -> int:
        """Energy label eps(psi_A) + eps(phi_B) in {-2, 0, +2}."""
        return (2 * self.psi_a - 1) + (2 * self.phi_b - 1)

    def __str__(self) -> str:
        return f"{self.psi_a}{self.phi_b}"


OUTCOMES = tuple(OutcomeLabel(a, b) for a in (0, 1) for b in (0, 1))
OUTCOME_ENERGIES = np.array([o.energy for o in OUTCOMES], dtype=float)


def projectors() -> tuple[np.ndarray, ...]:
    """The four local projectors |psi><psi|_A (x) |phi><phi|_B, in index order."""
    singles = (PROJ_0, PROJ_1)
    return tuple(tensor(singles[o.psi_a], singles[o.phi_b]) for o in OUTCOMES)


def initial_probs(rho0: np.ndarray) -> np.ndarray:
    """Outcome probabilities of the first measurement, p[n] = Tr[rho0 Pi_n].

    Only the diagonal of rho0 enters: the first projective measurement
    dephases any coherence in the measured basis.
    """
    rho0 = validate_density(rho0)
    return np.clip(np.diag(rho0).real, 0.0, None)


def _as_unitary(u) -> np.ndarray:
    mat = u.U if isinstance(u, Propagator) else np.asarray(u, dtype=complex)
    if not is_unitary(mat, UNITARY_TOL):
        raise ValueError(f"propagator is not unitary within {UNITARY_TOL:g}")
    return mat


def conditional_matrix(u) -> np.ndarray:
    """Transition probabilities c[fin, in] = |<fin|U|in>|^2 of the evolution.

    Accepts a Propagator or a raw 4x4 unitary.  For any unitary the result
    is doubly stochastic; for this gate the in = 00 and 01 columns are exact
    unit columns and the (10, 11) block is [[|h1|^2, |h2|^2], [|h2|^2, |h1|^2]].
    """
    return np.abs(_as_unitary(u)) ** 2


def joint_table_from_conditional(cond: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    """Joint table j[in, fin] = c[fin, in] * p_in[in] from any conditional model."""
    cond = np.asarray(cond, dtype=float)
    p_in = np.asarray(p_in, dtype=float)
    if cond.shape != (4, 4) or p_in.shape != (4,):
        raise ValueError("conditional matrix must be 4x4 and p_in length 4")
    return cond.T * p_in[:, None]


def joint_table(rho0: np.ndarray, u) -> np.ndarray:
    """Joint probabilities of the two measurements under unitary evolution."""
    return joint_table_from_conditional(conditional_matrix(u), initial_probs(rho0))


def final_probs(j: np.ndarray) -> np.ndarray:
    """Second-measurement marginal p_fin[m] = sum_n j[n, m]."""
    return _checked_table(j).sum(axis=0)


def _checked_table(j: np.ndarray) -> np.ndarray:
    j = np.asarray(j, dtype=float)
    if j.shape != (4, 4):
        raise ValueError(f"joint table must be 4x4, got shape {j.shape}")
    if j.min() < -PROB_SUM_TOL:
        raise ValueError(f"joint table has negative entry {j.min():.3e}")
    if abs(j.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"joint table sums to {j.sum():.12g}, not 1")
    return j


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finitely supported distribution as sorted (value, probability) atoms."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise ValueError("values and probs must be 1-d arrays of equal length")
        if np.any(np.diff(v) <= 0):
            raise ValueError("values must be strictly increasing")
        if p.min() < 0.0:
            raise ValueError(f"negative probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum():.12g}, not 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_atoms(cls, values, weights, merge_tol: float = VALUE_MERGE_TOL):
        """Aggregate raw (value, weight) atoms.

        Values equal within ``merge_tol`` are merged into one atom (weighted
        mean representative) so floating-point noise cannot split an atom;
        zero-weight atoms are dropped, which defines the support.
        """
        v = np.asarray(values, dtype=float).ravel()
        w = np.asarray(weights, dtype=float).ravel()
        order = np.argsort(v, kind="stable")
        merged_v: list[float] = []
        merged_w: list[float] = []
        anchor = None
        for val, wt in zip(v[order], w[order]):
            if anchor is not None and val - anchor <= merge_tol:
                if wt + merged_w[-1] > 0:
                    merged_v[-1] = (merged_v[-1] * merged_w[-1] + val * wt) / (merged_w[-1] + wt)
                merged_w[-1] += wt
            else:
                anchor = val
                merged_v.append(val)
                merged_w.append(wt)
        keep = [i for i, wt in enumerate(merged_w) if wt > 0.0]
        return cls(
            values=np.array([merged_v[i] for i in keep]),
            probs=np.array([merged_w[i] for i in keep]),
        )

    @property
    def mean(self) -> float:
        return float(np.dot(self.probs, self.values))

    def moment(self, h: int) -> float:
        """Raw moment sum_k p_k v_k^h."""
        return float(np.dot(self.probs, self.values**h))


def delta_e_distribution(j: np.ndarray) -> DiscreteDistribution:
    """Distribution of the energy change dE = E_fin - E_in.

    The support is a subset of {-4, -2, 0, +2, +4}; under the gate dynamics
    (which never flips the control) it collapses to {-2, 0, +2}.
    """
    j = _checked_table(j)
    de = OUTCOME_ENERGIES[None, :] - OUTCOME_ENERGIES[:, None]
    return DiscreteDistribution.from_atoms(de, j)


def entropy_realizations(p_in: np.ndarray, p_fin: np.ndarray) -> np.ndarray:
    """The 16 entropy-production realizations sigma[in, fin] = ln p_in - ln p_fin.

    Entries where either probability vanishes are undefined and returned as
    NaN; under the dynamics considered here they always carry zero joint
    probability.
    """
    p_in = np.asarray(p_in, dtype=float)
    p_fin = np.asarray(p_fin, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.log(p_in)[:, None] - np.log(p_fin)[None, :]
    sigma[p_in <= 0.0, :] = np.nan
    sigma[:, p_fin <= 0.0] = np.nan
    return sigma


def _defined_weights(j: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    if sigma.shape != (4, 4):
        raise ValueError(f"entropy realizations must be 4x4, got {sigma.shape}")
    defined = np.isfinite(sigma)
    stray = j[~defined]
    if stray.size and stray.max(initial=0.0) > UNDEFINED_WEIGHT_TOL:
        raise ValueError("undefined entropy realizations carry nonzero probability")
    return defined


def entropy_distribution(j: np.ndarray, sigma: np.ndarray) -> DiscreteDistribution:
    """Distribution of the entropy production, aggregated over equal values."""
    j = _checked_table(j)
    defined = _defined_weights(j, sigma)
    return DiscreteDistribution.from_atoms(sigma[defined], j[defined])


def moments(d: DiscreteDistribution, h_max: int = 5) -> np.ndarray:
    """Raw moments of orders 1..h_max."""
    if h_max < 1:
        raise ValueError(f"h_max must be at least 1, got {h_max}")
    return np.array([d.moment(h) for h in range(1, h_max + 1)])


@dataclass(frozen=True)
class ThermoReport:
    """Per-time thermodynamic summary of the two-point-measurement statistics.

    ``ratio`` is None when |<dsigma>| falls below the guard threshold: the
    energy-to-entropy ratio diverges there and has no stable numeric value.
    """

    de_mean: float
    ds_mean: float
    ift: float
    landauer_lhs: float
    landauer_slack: float
    ratio: float | None


def thermo_report(j: np.ndarray, sigma: np.ndarray, beta: float) -> ThermoReport:
    """Fluctuation-theorem and Landauer-bound bookkeeping at inverse temperature beta.

    ift is the exponential average <e^{-dsigma}>, equal to 1 for any doubly
    stochastic conditional model; landauer_slack = beta <dE> - <dsigma> is
    the margin of the Landauer-like bound.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    j = _checked_table(j)
    defined = _defined_weights(j, sigma)
    de_mean = delta_e_distribution(j).mean
    ds_mean = float(np.sum(j[defined] * sigma[defined]))
    ift = float(np.sum(j[defined] * np.exp(-sigma[defined])))
    lhs = beta * de_mean
    ratio = de_mean / ds_mean if abs(ds_mean) > RATIO_GUARD else None
    return ThermoReport(
        de_mean=de_mean,
        ds_mean=ds_mean,
        ift=ift,
        landauer_lhs=lhs,
        landauer_slack=lhs - ds_mean,
        ratio=ratio,
    )
