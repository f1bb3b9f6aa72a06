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

Every statistic reads the propagator only through |U|^2, built from the
four non-trivial entries of U that ``model.propagator_grid`` returns.
Nothing here checks U, the tables built from it or the distributions built
from those: ``sweep._evaluate`` gates each stack once, as soon as it is
built, and the builders below keep only atoms of positive weight, in
increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import VALUE_MERGE_TOL


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


def conditional_matrix(u) -> np.ndarray:
    """Transition probabilities c[fin, in] = |<fin|U|in>|^2 of the evolution,
    one (4, 4) table per time: shape (T, 4, 4).

    ``u`` holds the rows U00, U22, U32 (= U23) and U33 of
    ``model.propagator_grid``, shape (4, T); U11 = 1 and every other entry
    of U is zero.  So the in = 00 and 01 columns are exact unit columns, the
    (10, 11) block is [[|h1|^2, |h2|^2], [|h2|^2, |h1|^2]], and every table
    equals numpy's |U|^2 of the dense U bit for bit.  U is not checked here:
    ``sweep._evaluate`` gates the row and column sums of these tables, the
    norms of U's rows and columns.
    """
    a = np.abs(u) ** 2
    c = np.zeros((a.shape[1], 4, 4))
    c[:, 0, 0] = a[0]
    c[:, 1, 1] = 1.0
    c[:, 2, 2] = a[1]
    c[:, 2, 3] = c[:, 3, 2] = a[2]
    c[:, 3, 3] = a[3]
    return c


def joint_table_from_conditional(cond: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    """Joint table j[in, fin] = c[fin, in] * p_in[in] from any conditional model.

    ``cond`` may be a (T, 4, 4) stack; each table gets the same ``p_in``.
    The table is C-contiguous, so that its rows of 16 cells are views.
    """
    cond = np.asarray(cond, dtype=float)
    p_in = np.asarray(p_in, dtype=float)
    return np.multiply(np.swapaxes(cond, -1, -2), p_in[:, None], order="C")


def final_probs(j: np.ndarray) -> np.ndarray:
    """Second-measurement marginal p_fin[m] = sum_n j[n, m], one row per table of a stack.

    The four rows are added in order, as numpy's sum over the axis adds them.
    """
    j = np.asarray(j, dtype=float)
    return j[..., 0, :] + j[..., 1, :] + j[..., 2, :] + j[..., 3, :]


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


# --- whole grids ---------------------------------------------------------
#
# The table functions above take one table or a (T, 4, 4) stack of them.
# The distributions of a stack are one flat record of atoms (``AtomRows``),
# each tagged with its time, in the order ``hist`` writes them.
# tests/reference.py keeps the one-table form of each function below: a
# Python merge loop per distribution, np.dot moments and sums over the
# defined cells.  Each function here equals it at every row, bit for bit.
# The dsigma functions run the same float operations in the same order over
# all rows at once; ``ift_grid`` and ``ds_mean_grid`` sum each row's 16 terms
# with the undefined ones set to 0.  The dE functions work on the weights of
# the five lattice values instead, one time-last row per value: on the
# lattice every product is exact, so the shorter path rounds the same (see
# ``delta_e_grid`` and ``delta_e_moments``); ``hist`` reads the dE
# distribution straight from the weights (``delta_e_rows``).


@dataclass(frozen=True, eq=False)
class AtomRows:
    """Finitely supported distributions, one per time, as flat atoms: atom i
    has the time index time[i], the value values[i] and the probability
    probs[i].

    The atoms are in time order and, within a time, in increasing value, as
    ``hist`` writes them.  Nothing here checks them: ``merge_atom_rows`` and
    ``delta_e_rows`` build values that increase strictly within a time and
    positive probabilities, from tables that ``sweep._evaluate`` has gated.
    """

    time: np.ndarray
    values: np.ndarray
    probs: np.ndarray

    def moments(self, n: int, h_max: int) -> np.ndarray:
        """Raw moments sum_k p_k v_k^h of orders h = 1..h_max of each of the
        ``n`` times, shape (n, h_max); a time without atoms has moments 0.

        Each time's sum is the BLAS dot product np.dot runs on one
        distribution, whose rounding of inexact products an ordered sum does
        not reproduce; the dsigma moments take this path, the dE moments the
        exact ``delta_e_moments`` of the lattice weights.  The powers v^h are
        numpy's SIMD ``power``, most of the time here; it and the ``ddot``
        kernel OpenBLAS picks for the CPU both decide the bytes.
        """
        counts = np.bincount(self.time, minlength=n)
        first = np.cumsum(counts) - counts  # each time's first atom
        out = np.empty((len(counts), h_max))
        for k in np.flatnonzero(np.bincount(counts)):
            rows = np.flatnonzero(counts == k)
            atoms = first[rows, None] + np.arange(k)
            probs, values = self.probs[atoms], self.values[atoms]
            for h in range(1, h_max + 1):
                # vecdot runs, per time, the BLAS dot product that np.dot runs
                # on one distribution; times are grouped by k, so none is
                # padded and each adds its own k terms in order
                out[rows, h - 1] = np.vecdot(probs, values**h)
        return out


def merge_atom_rows(values, weights) -> AtomRows:
    """Aggregate raw (value, weight) atoms, one distribution per row of (T, K)
    arrays, into the flat ``AtomRows`` of the T rows.

    Only atoms of positive weight enter: one that never occurs neither starts
    an atom nor moves one.  In each row, values equal within
    ``VALUE_MERGE_TOL`` of the first value of an atom are merged into it
    (weighted mean representative), so that floating-point noise cannot split
    an atom.  All rows go through the merge loop together, one sorted column
    per step up to the widest support, so every row merges exactly as it
    would alone.  Only the dsigma distribution (``sweep.SweepGrid.ds_dist``)
    needs it: dE lies on a fixed lattice.

    Only the columns where some row has an atom are sorted (6 of the 16
    cells of the gate's joint tables); the rest would sort last in every row
    and are never read, and the stable sort keeps the order of equal values.
    """
    w = np.asarray(weights, dtype=float)
    cols = np.flatnonzero((w > 0.0).any(axis=0))
    w = w[:, cols]
    occurs = w > 0.0
    # an atom of no weight sorts last, as +inf, past every row's support
    v = np.where(occurs, np.asarray(values, dtype=float)[:, cols], np.inf)
    n, k = v.shape
    width = int(occurs.sum(axis=1).max())
    # the flat index of each row's atoms in sorted order; then one contiguous
    # row per sorted column: merged[i] holds the open atom once atom i is in
    # it, and an atom that starts a new one closes the one before
    order = np.argsort(v, axis=1, kind="stable")[:, :width] + k * np.arange(n)[:, None]
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
    # the kept atoms of the time-first views come in time order and, within
    # a time, in sorted order
    time, slot = np.nonzero((closes & (merged_w > 0.0)).T)
    return AtomRows(time=time, values=merged_v[slot, time], probs=merged_w[slot, time])


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


def delta_e_rows(weights: np.ndarray) -> AtomRows:
    """The dE distribution of every column of ``delta_e_grid`` weights as
    ``AtomRows``: the lattice values of positive weight, in time order and,
    within a time, in increasing order.

    This equals ``merge_atom_rows`` on the 16 (dE, j) atoms bit for bit: the
    weights are its sums (which a cell of zero weight leaves as they are),
    and the weighted mean of equal values v that it takes as the atom's
    value is exactly v, because scaling by v = 0 or +-2^k rounds nothing.
    """
    time, value = np.nonzero(weights.T > 0.0)
    return AtomRows(time=time, values=ENERGY_LATTICE[value], probs=weights[value, time])


def delta_e_moments(weights: np.ndarray, h_max: int) -> np.ndarray:
    """Raw moments of orders h = 1..h_max of each column of ``delta_e_grid``
    weights, shape (T, h_max).

    Each is the ordered sum 0.0 + w_1 v_1^h + ... + w_5 v_5^h over the five
    lattice values.  It equals ``AtomRows.moments`` of ``merge_atom_rows`` on
    the 16 (dE, j) atoms bit for bit: every v^h on the lattice is 0 or +-2^k,
    so every product is exact, the BLAS dot product over the atoms adds the
    same products in the same order from 0.0, and a value of zero weight adds
    +-0, which changes no sum.
    """
    out = np.zeros((h_max, weights.shape[1]))
    for h, acc in enumerate(out, start=1):
        for w, v in zip(weights, ENERGY_LATTICE):
            acc += w * v**h  # exact on the lattice
    return out.T


def ift_grid(j: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The exponential average <e^{-dsigma}> of each row, over its defined realizations.

    It is 1 for a doubly stochastic conditional model and an input of full
    support.  Where inputs of zero population make realizations undefined it
    is 1 - lambda, lambda the weight of absolutely irreversible outcomes
    (Murashita, Funo & Ueda, PRE 90, 042110 (2014)).  Each row is numpy's
    sum of its 16 terms with the undefined ones set to 0.
    """
    n = len(j)
    sigma = sigma.reshape(n, 16)
    with np.errstate(invalid="ignore"):
        terms = j.reshape(n, 16) * np.exp(-sigma)
    return np.where(np.isfinite(sigma), terms, 0.0).sum(axis=1)


def ds_mean_grid(j: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The mean <dsigma> of each row over its defined realizations, summed as ``ift_grid``."""
    n = len(j)
    sigma = sigma.reshape(n, 16)
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(sigma), j.reshape(n, 16) * sigma, 0.0).sum(axis=1)
