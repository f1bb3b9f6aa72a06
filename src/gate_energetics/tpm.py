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
# energy change dE[in, fin] = E_fin - E_in of each pair of outcomes
ENERGY_CHANGE = OUTCOME_ENERGIES[None, :] - OUTCOME_ENERGIES[:, None]


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

    Accepts a Propagator, a raw 4x4 unitary or a (T, 4, 4) stack of them.
    For any unitary the result is doubly stochastic; for this gate the
    in = 00 and 01 columns are exact unit columns and the (10, 11) block is
    [[|h1|^2, |h2|^2], [|h2|^2, |h1|^2]].
    """
    return np.abs(_as_unitary(u)) ** 2


def joint_table_from_conditional(cond: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    """Joint table j[in, fin] = c[fin, in] * p_in[in] from any conditional model.

    ``cond`` may be a (T, 4, 4) stack; each table gets the same ``p_in``.
    """
    cond = np.asarray(cond, dtype=float)
    p_in = np.asarray(p_in, dtype=float)
    if cond.ndim not in (2, 3) or cond.shape[-2:] != (4, 4) or p_in.shape != (4,):
        raise ValueError("conditional matrix must be 4x4 and p_in length 4")
    return np.swapaxes(cond, -1, -2) * p_in[:, None]


def joint_table(rho0: np.ndarray, u) -> np.ndarray:
    """Joint probabilities of the two measurements under unitary evolution."""
    return joint_table_from_conditional(conditional_matrix(u), initial_probs(rho0))


def final_probs(j: np.ndarray) -> np.ndarray:
    """Second-measurement marginal p_fin[m] = sum_n j[n, m], one row per table of a stack."""
    return _checked_table(j).sum(axis=-2)


def _checked_table(j: np.ndarray) -> np.ndarray:
    """A joint table, or a (T, 4, 4) stack of them, that is non-negative and
    sums to 1 within ``PROB_SUM_TOL``."""
    j = np.asarray(j, dtype=float)
    if j.ndim not in (2, 3) or j.shape[-2:] != (4, 4):
        raise ValueError(f"joint table must be 4x4, got shape {j.shape}")
    if j.min() < -PROB_SUM_TOL:
        raise ValueError(f"joint table has negative entry {j.min():.3e}")
    totals = j.sum(axis=(-2, -1))
    off = np.abs(totals - 1.0)
    if np.max(off) > PROB_SUM_TOL:
        raise ValueError(f"joint table sums to {totals.flat[np.argmax(off)]:.12g}, not 1")
    return j


def _check_atoms(values, probs, atoms, totals) -> None:
    """The checks of a distribution, on one or more rows of atoms.

    The cells under the mask ``atoms`` hold the atoms of each row: their
    values must increase strictly and their probabilities be non-negative,
    and each row's total (``totals``) must lie within PROB_SUM_TOL of 1.
    """
    if np.any((np.diff(values, axis=-1) <= 0) & atoms[..., 1:]):
        raise ValueError("values must be strictly increasing")
    lowest = np.min(probs, where=atoms, initial=np.inf)
    if lowest < 0.0:
        raise ValueError(f"negative probability {lowest:.3e}")
    totals = np.ravel(totals)
    off = np.abs(totals - 1.0)
    if np.max(off) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {totals[np.argmax(off)]:.12g}, not 1")


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
        _check_atoms(v, p, np.ones(v.shape, dtype=bool), p.sum())
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
    return DiscreteDistribution.from_atoms(ENERGY_CHANGE, _checked_table(j))


def entropy_realizations(p_in: np.ndarray, p_fin: np.ndarray) -> np.ndarray:
    """The 16 entropy-production realizations sigma[in, fin] = ln p_in - ln p_fin.

    Entries where either probability vanishes are undefined and returned as
    NaN; under the dynamics considered here they always carry zero joint
    probability.  ``p_fin`` may hold one row per time, giving a (T, 4, 4)
    stack.
    """
    p_in = np.asarray(p_in, dtype=float)
    p_fin = np.asarray(p_fin, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.log(p_in)[:, None] - np.log(p_fin)[..., None, :]
    sigma[..., p_in <= 0.0, :] = np.nan
    return np.where((p_fin <= 0.0)[..., None, :], np.nan, sigma)


def _defined_weights(j: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    if sigma.shape != j.shape:
        raise ValueError(f"entropy realizations must have shape {j.shape}, got {sigma.shape}")
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
    From ``thermo_report_grid`` every field is an array with one entry per
    time, and an undefined ratio is NaN.
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


# --- whole grids ---------------------------------------------------------
#
# The table functions above take one table or a (T, 4, 4) stack of them.
# Distributions of a stack have ragged supports and get a row-wise form: each
# function below equals its scalar counterpart above at every row, bit for
# bit, running the same float operations in the same order, with the same
# checks, over all rows at once.


@dataclass(frozen=True, eq=False)
class AtomRows:
    """One finitely supported distribution per row, checked as ``DiscreteDistribution``.

    Row i holds the increasing atoms values[i, :counts[i]] with probabilities
    probs[i, :counts[i]]; the cells after them are zero.
    """

    values: np.ndarray
    probs: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        atoms = self.atoms
        _check_atoms(self.values, self.probs, atoms, np.sum(self.probs, axis=1, where=atoms))

    @property
    def atoms(self) -> np.ndarray:
        """Mask of the cells that hold an atom."""
        return np.arange(self.values.shape[1]) < self.counts[:, None]

    def moments(self, h_max: int) -> np.ndarray:
        """``moments`` of each row, shape (T, h_max)."""
        if h_max < 1:
            raise ValueError(f"h_max must be at least 1, got {h_max}")
        out = np.empty((len(self.counts), h_max))
        for k in np.flatnonzero(np.bincount(self.counts)):
            rows = np.flatnonzero(self.counts == k)
            probs, values = self.probs[rows, None, :k], self.values[rows, :k, None]
            for h in range(1, h_max + 1):
                # a (1, k) @ (k, 1) product per row runs the BLAS dot product
                # that np.dot runs on one distribution; rows are grouped by k,
                # so none is padded and each adds its own k terms in order
                out[rows, h - 1] = (probs @ values**h)[:, 0, 0]
        return out


def merge_atom_rows(values, weights) -> AtomRows:
    """``DiscreteDistribution.from_atoms`` of each row of (T, K) values and weights.

    All rows go through from_atoms' loop together, one sorted column per
    step, with its anchor rule, its zero-weight guard and its arithmetic, so
    every row merges exactly as it would alone.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v, axis=1, kind="stable")
    # one contiguous row per sorted column: merged[k] holds the open atom once
    # atom k is in it, and an atom that starts a new one closes the one before
    v = np.take_along_axis(v, order, axis=1).T.copy()
    w = np.take_along_axis(w, order, axis=1).T.copy()
    merged_v, merged_w = v.copy(), w.copy()
    starts = np.ones(v.shape, dtype=bool)
    anchor = v[0]
    # a zero-weight pair divides by zero, but its mean is never selected; the
    # infinite values of entropy_grid give inf - inf, which compares false and
    # so starts a new atom of zero weight
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, len(v)):
            val, wt, last_v, last_w = v[k], w[k], merged_v[k - 1], merged_w[k - 1]
            merge = val - anchor <= VALUE_MERGE_TOL
            mean = (last_v * last_w + val * wt) / (last_w + wt)
            merged_v[k] = np.where(merge, np.where(wt + last_w > 0, mean, last_v), val)
            merged_w[k] = np.where(merge, last_w + wt, wt)
            anchor = np.where(merge, anchor, val)
            starts[k] = ~merge
    closes = np.ones(v.shape, dtype=bool)
    closes[:-1] = starts[1:]
    keep = (closes & (merged_w > 0.0)).T
    counts = keep.sum(axis=1)
    slot = np.arange(len(v)) < counts[:, None]
    out_v = np.zeros(slot.shape)
    out_p = np.zeros(slot.shape)
    out_v[slot] = merged_v.T[keep]
    out_p[slot] = merged_w.T[keep]
    return AtomRows(values=out_v, probs=out_p, counts=counts)


def delta_e_grid(j: np.ndarray) -> AtomRows:
    """``delta_e_distribution`` of each joint table in a (T, 4, 4) stack."""
    j = _checked_table(j)
    n = len(j)
    return merge_atom_rows(np.broadcast_to(ENERGY_CHANGE.ravel(), (n, 16)), j.reshape(n, 16))


def entropy_grid(j: np.ndarray, sigma: np.ndarray) -> AtomRows:
    """``entropy_distribution`` of each joint table and its realizations."""
    j = _checked_table(j)
    defined = _defined_weights(j, sigma)
    n = len(j)
    # an undefined realization sorts last with zero weight, which adds no
    # atom, the same as leaving it out
    values = np.where(defined, sigma, np.inf).reshape(n, 16)
    return merge_atom_rows(values, np.where(defined, j, 0.0).reshape(n, 16))


def thermo_report_grid(
    j: np.ndarray, sigma: np.ndarray, beta: float, de_mean: np.ndarray
) -> ThermoReport:
    """``thermo_report`` of each row, given the mean of each row's dE distribution.

    Every field is a (T,) array; an undefined ratio is NaN.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    j = _checked_table(j)
    defined = _defined_weights(j, sigma)
    n = len(j)
    cells, sigma, defined = j.reshape(n, 16), sigma.reshape(n, 16), defined.reshape(n, 16)
    with np.errstate(invalid="ignore"):
        ds_terms = cells * sigma
        ift_terms = cells * np.exp(-sigma)
    ds_mean = ds_terms.sum(axis=1)
    ift = ift_terms.sum(axis=1)
    for i in np.flatnonzero(~defined.all(axis=1)):
        # the scalar path sums only the defined terms, which groups them differently
        ds_mean[i] = ds_terms[i, defined[i]].sum()
        ift[i] = ift_terms[i, defined[i]].sum()
    lhs = beta * de_mean
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(ds_mean) > RATIO_GUARD, de_mean / ds_mean, np.nan)
    return ThermoReport(
        de_mean=de_mean,
        ds_mean=ds_mean,
        ift=ift,
        landauer_lhs=lhs,
        landauer_slack=lhs - ds_mean,
        ratio=ratio,
    )
