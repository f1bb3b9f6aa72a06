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

Every statistic reads the propagator only through |U|^2.  Nothing here
checks U, the tables built from it or the distributions built from those:
``sweep._evaluate`` gates each stack once, as soon as it is built, and
the builders below keep only atoms of positive weight, in increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RATIO_GUARD, VALUE_MERGE_TOL


# outcome m = 2 psi_A + phi_B, labelled by its bits, and its energy label
# eps(psi_A) + eps(phi_B) in {-2, 0, +2}
OUTCOME_LABELS = ("00", "01", "10", "11")
OUTCOME_ENERGIES = np.array([-2.0, 0.0, 0.0, 2.0])
# energy change dE[in, fin] = E_fin - E_in of each pair of outcomes
ENERGY_CHANGE = OUTCOME_ENERGIES[None, :] - OUTCOME_ENERGIES[:, None]
# the values dE can take, in increasing order, written out: deriving them with
# np.unique would import numpy.ma when the module loads
ENERGY_LATTICE = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
# the flat cells of a joint table at each lattice value, in index order
_LATTICE_CELLS = [np.flatnonzero(ENERGY_CHANGE.ravel() == v).tolist() for v in ENERGY_LATTICE]


def initial_probs(rho0: np.ndarray) -> np.ndarray:
    """Outcome probabilities of the first measurement, p[n] = Tr[rho0 Pi_n].

    Only the diagonal of rho0 enters: the first projective measurement
    dephases any coherence in the measured basis.  Nothing here checks the
    populations: ``sweep._evaluate`` gates the joint tables, whose row
    sums they are, to lie in [0, 1] and sum to 1.
    """
    return np.diag(rho0).real.copy()


def conditional_matrix(u) -> np.ndarray:
    """Transition probabilities c[fin, in] = |<fin|U|in>|^2 of the evolution.

    Accepts a 4x4 unitary or a (T, 4, 4) stack of them.
    For any unitary the result is doubly stochastic; for this gate the
    in = 00 and 01 columns are exact unit columns and the (10, 11) block is
    [[|h1|^2, |h2|^2], [|h2|^2, |h1|^2]].  U is not checked here:
    ``sweep._evaluate`` gates the row and column sums of these tables,
    the norms of U's rows and columns.
    """
    return np.abs(u) ** 2


def joint_table_from_conditional(cond: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    """Joint table j[in, fin] = c[fin, in] * p_in[in] from any conditional model.

    ``cond`` may be a (T, 4, 4) stack; each table gets the same ``p_in``.
    The table is C-contiguous, so that its rows of 16 cells are views.
    """
    cond = np.asarray(cond, dtype=float)
    p_in = np.asarray(p_in, dtype=float)
    if cond.ndim not in (2, 3) or cond.shape[-2:] != (4, 4) or p_in.shape != (4,):
        raise ValueError("conditional matrix must be 4x4 and p_in length 4")
    return np.multiply(np.swapaxes(cond, -1, -2), p_in[:, None], order="C")


def final_probs(j: np.ndarray) -> np.ndarray:
    """Second-measurement marginal p_fin[m] = sum_n j[n, m], one row per table of a stack."""
    return np.asarray(j, dtype=float).sum(axis=-2)


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


@dataclass(frozen=True)
class ThermoReport:
    """Thermodynamic summary of the two-point-measurement statistics.

    Every field is a (T,) array with one entry per time.  ``ratio`` is NaN
    where |<dsigma>| falls below ``RATIO_GUARD``: the energy-to-entropy ratio
    diverges there and has no stable numeric value.
    """

    de_mean: np.ndarray
    ds_mean: np.ndarray
    ift: np.ndarray
    landauer_lhs: np.ndarray
    landauer_slack: np.ndarray
    ratio: np.ndarray


# --- whole grids ---------------------------------------------------------
#
# The table functions above take one table or a (T, 4, 4) stack of them.
# Distributions of a stack have ragged supports and get a row-wise form.
# tests/reference.py keeps the one-table form of each function below: a
# Python merge loop per distribution, np.dot moments and sums over the
# defined cells.  Each function here equals it at every row, bit for bit.
# The dsigma functions run the same float operations in the same order over
# all rows at once.  The dE functions work on the weights of the five
# lattice values instead, one time-last row per value: on the lattice every
# product is exact, so the shorter path rounds the same (see
# ``delta_e_grid`` and ``delta_e_moments``).  Only ``hist`` writes the dE
# distribution, and only it builds its atoms (``delta_e_atoms``).


@dataclass(frozen=True, eq=False)
class AtomRows:
    """One finitely supported distribution per row.

    Row i holds the atoms values[i, :counts[i]] with probabilities
    probs[i, :counts[i]]; the cells after them are zero.  Nothing here checks
    them: ``merge_atom_rows`` and ``delta_e_atoms`` build rows whose values
    increase strictly and whose probabilities are positive, from tables that
    ``sweep._evaluate`` has gated.
    """

    values: np.ndarray
    probs: np.ndarray
    counts: np.ndarray

    @property
    def atoms(self) -> np.ndarray:
        """Mask of the cells that hold an atom."""
        return np.arange(self.values.shape[1]) < self.counts[:, None]

    def moments(self, h_max: int) -> np.ndarray:
        """Raw moments sum_k p_k v_k^h of orders h = 1..h_max of each row, shape (T, h_max).

        Each row's sum is the BLAS dot product np.dot runs on one
        distribution, whose rounding of inexact products an ordered sum does
        not reproduce; the dsigma moments take this path, the dE moments the
        exact ``delta_e_moments`` of the lattice weights.  The powers v^h are
        numpy's SIMD ``power``, most of the time here; it and the ``ddot``
        kernel OpenBLAS picks for the CPU both decide the bytes.
        """
        out = np.empty((len(self.counts), h_max))
        for k in np.flatnonzero(np.bincount(self.counts)):
            rows = np.flatnonzero(self.counts == k)
            probs, values = self.probs[rows, :k], self.values[rows, :k]
            for h in range(1, h_max + 1):
                # vecdot runs, per row, the BLAS dot product that np.dot runs
                # on one distribution; rows are grouped by k, so none is
                # padded and each adds its own k terms in order
                out[rows, h - 1] = np.vecdot(probs, values**h)
        return out


def merge_atom_rows(values, weights) -> AtomRows:
    """Aggregate raw (value, weight) atoms, one distribution per row of (T, K) arrays.

    Only atoms of positive weight enter: one that never occurs neither starts
    an atom nor moves one.  In each row, values equal within
    ``VALUE_MERGE_TOL`` of the first value of an atom are merged into it
    (weighted mean representative), so that floating-point noise cannot split
    an atom.  All rows go through the merge loop together, one sorted column
    per step up to the widest support, so every row merges exactly as it
    would alone.  Only ``entropy_grid`` needs it: dE lies on a fixed lattice.
    """
    w = np.asarray(weights, dtype=float)
    occurs = w > 0.0
    # an atom of no weight sorts last, as +inf, past every row's support
    v = np.where(occurs, values, np.inf)
    n, k = v.shape
    width = int(occurs.sum(axis=1).max())
    # the flat index of each row's atoms in sorted order; then one contiguous
    # row per sorted column: merged[i] holds the open atom once atom i is in
    # it, and an atom that starts a new one closes the one before
    order = np.argsort(v, axis=1, kind="stable")[:, :width] + np.arange(0, n * k, k)[:, None]
    v = v.take(order).T.copy()
    w = w.take(order).T.copy()
    merged_v, merged_w = v.copy(), w.copy()
    starts = np.ones(v.shape, dtype=bool)
    anchor = v[0]
    # past a row's support, inf - inf compares false and so starts an atom
    # of zero weight, which is dropped, and inf * 0 makes a mean that is
    # never selected
    with np.errstate(invalid="ignore"):
        for i in range(1, width):
            val, wt, last_v, last_w = v[i], w[i], merged_v[i - 1], merged_w[i - 1]
            merge = val - anchor <= VALUE_MERGE_TOL
            merged_v[i] = np.where(merge, (last_v * last_w + val * wt) / (last_w + wt), val)
            merged_w[i] = np.where(merge, last_w + wt, wt)
            anchor = np.where(merge, anchor, val)
            starts[i] = ~merge
    closes = np.ones(v.shape, dtype=bool)
    closes[:-1] = starts[1:]
    return _kept_atoms(merged_v, merged_w, closes & (merged_w > 0.0))


def _kept_atoms(values, weights, keep) -> AtomRows:
    """The cells of time-last (K, T) ``values`` and ``weights`` where ``keep``
    holds, as the atoms of each time in row order.

    The rows are returned as transposed views of time-last arrays, so that
    each step of the loop writes the times of equal count side by side; a
    time-first layout measured the same (``entropy_grid`` and the reads of
    ``sweep`` and ``hist``, 20 000 rows).
    """
    k, n = keep.shape
    counts = np.zeros(n, dtype=np.intp)
    out_v, out_p = np.zeros(k * n), np.zeros(k * n)
    for row in range(k):
        kept = np.flatnonzero(keep[row])
        cell = counts[kept] * n + kept  # the next free slot of each time
        out_v[cell] = values[row, kept]
        out_p[cell] = weights[row, kept]
        counts[kept] += 1
    return AtomRows(values=out_v.reshape(k, n).T, probs=out_p.reshape(k, n).T, counts=counts)


def delta_e_grid(j: np.ndarray) -> np.ndarray:
    """Weights of the energy change dE = E_fin - E_in of each joint table in a
    stack, one row per value of ``ENERGY_LATTICE`` and one column per table:
    shape (5, T).

    The lattice is {-4, -2, 0, +2, +4}; under the gate dynamics (which never
    flips the control) only {-2, 0, +2} carry weight.  Each value gets the
    sum of its cells, added in index order from the first one, as
    ``merge_atom_rows`` adds the weights of an atom of the 16 (dE, j) atoms.
    """
    cells = np.asarray(j, dtype=float).reshape(len(j), 16).T.copy()
    weights = np.empty((len(ENERGY_LATTICE), cells.shape[1]))
    for w, index in zip(weights, _LATTICE_CELLS):
        w[:] = cells[index[0]]
        for k in index[1:]:
            w += cells[k]
    return weights


def delta_e_atoms(weights: np.ndarray) -> AtomRows:
    """The dE distribution of each column of ``delta_e_grid`` weights: the
    lattice values of positive weight, in increasing order; rows hold at most
    five atoms.

    This equals ``merge_atom_rows`` on the 16 (dE, j) atoms bit for bit: the
    weights are its sums (which a cell of zero weight leaves as they are),
    and the weighted mean of equal values v that it takes as the atom's
    value is exactly v, because scaling by v = 0 or +-2^k rounds nothing.
    """
    lattice = np.broadcast_to(ENERGY_LATTICE[:, None], weights.shape)
    return _kept_atoms(lattice, weights, weights > 0.0)


def delta_e_moments(weights: np.ndarray, h_max: int) -> np.ndarray:
    """Raw moments of orders h = 1..h_max of each column of ``delta_e_grid``
    weights, shape (T, h_max).

    Each is the ordered sum 0.0 + w_1 v_1^h + ... + w_5 v_5^h over the five
    lattice values.  It equals ``AtomRows.moments`` of ``delta_e_atoms`` bit
    for bit: every v^h on the lattice is 0 or +-2^k, so every product is
    exact, the BLAS dot product over the atoms adds the same products in the
    same order from 0.0, and a value of zero weight adds +-0, which changes
    no sum.
    """
    out = np.zeros((h_max, weights.shape[1]))
    for h, acc in enumerate(out, start=1):
        for w, v in zip(weights, ENERGY_LATTICE):
            acc += w * v**h  # exact on the lattice
    return out.T


def entropy_grid(j: np.ndarray, sigma: np.ndarray) -> AtomRows:
    """Distribution of the entropy production of each joint table, aggregated over
    equal values of its realizations ``sigma``.

    Undefined (NaN) realizations are left out, as their weight is zeroed;
    ``sweep._evaluate`` has gated that weight to be negligible.
    """
    n = len(j)
    weights = np.where(np.isfinite(sigma), j, 0.0).reshape(n, 16)
    return merge_atom_rows(sigma.reshape(n, 16), weights)


def _sum_defined(terms: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """Row sums of (T, 16) ``terms`` over the cells where ``defined`` holds."""
    out = terms.sum(axis=1)
    for i in np.flatnonzero(~defined.all(axis=1)):
        # the reference sums only the defined terms, which groups them differently
        out[i] = terms[i, defined[i]].sum()
    return out


def ift_grid(j: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The exponential average <e^{-dsigma}> of each row, over its defined realizations.

    It is 1 for a doubly stochastic conditional model and an input of full
    support.  Where inputs of zero population make realizations undefined it
    is 1 - lambda, lambda the weight of absolutely irreversible outcomes
    (Murashita, Funo & Ueda, PRE 90, 042110 (2014)).
    """
    n = len(j)
    sigma = sigma.reshape(n, 16)
    with np.errstate(invalid="ignore"):
        terms = j.reshape(n, 16) * np.exp(-sigma)
    return _sum_defined(terms, np.isfinite(sigma))


def thermo_report_grid(
    j: np.ndarray, sigma: np.ndarray, beta: float, de_mean: np.ndarray, ift: np.ndarray
) -> ThermoReport:
    """Fluctuation-theorem and Landauer-bound bookkeeping of each row at inverse
    temperature beta, given the mean of each row's dE distribution and its
    ``ift_grid``.

    landauer_slack = beta <dE> - <dsigma> is the margin of the Landauer-like
    bound.  <dsigma> sums over the defined realizations only.
    """
    n = len(j)
    sigma = sigma.reshape(n, 16)
    with np.errstate(invalid="ignore"):
        ds_mean = _sum_defined(j.reshape(n, 16) * sigma, np.isfinite(sigma))
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
