"""Dense complex linear algebra for 2x2 and 4x4 operators.

Basis convention used throughout the package: single-qubit states are
ordered (|0>, |1>) with

    sigma_z = diag(-1, +1),    i.e.  sigma_z |1> = +|1>.

This sign choice makes exp(-i H t) with H = (omega/2) sigma_z advance the
phase of |0> as e^{+i omega t / 2}, which is the convention the rest of the
package relies on.  Two-qubit amplitudes are indexed by i = 2a + b for
qubit values (a, b), so the order is |00>, |01>, |10>, |11>.

Every numeric tolerance of the package is defined here, once.
"""

from __future__ import annotations

import numpy as np

# Hermiticity, unit trace and positivity of an operator
HERMITIAN_TOL = 1e-10
# largest entry of U^dag U - 1 for a propagator
UNITARY_TOL = 1e-10
# |sum - 1| of a probability group, the cell range [-tol, 1 + tol], the row and
# column sums of a doubly stochastic table and |<e^{-dsigma}> - 1|
PROB_SUM_TOL = 1e-12
# distribution atoms closer than this are merged; decides output bytes
VALUE_MERGE_TOL = 1e-12
# |<dsigma>| below this leaves the energy-to-entropy ratio undefined; decides
# output bytes
RATIO_GUARD = 1e-9
# probability allowed to sit on an undefined entropy realization before the
# inputs are considered inconsistent
UNDEFINED_WEIGHT_TOL = 1e-14
# post-selection success probability treated as zero
SUCCESS_FLOOR = 1e-15

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)
PROJ_1 = np.diag([0.0, 1.0]).astype(complex)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b, so out[2i+k, 2j+l] = a[i,j] * b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def op_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest absolute entrywise difference between two operators."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Whether a matrix, or every matrix of a (..., n, n) stack, is Hermitian within ``tol``."""
    a = np.asarray(a)
    return bool(np.max(np.abs(a - np.swapaxes(a, -1, -2).conj())) <= tol)


def is_unitary(a: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Whether a matrix, or every matrix of a (..., n, n) stack, is unitary within ``tol``."""
    a = np.asarray(a)
    n = a.shape[-1]
    if a.ndim == 2:
        return op_distance(a.conj().T @ a, np.eye(n)) <= tol
    # a stack: row i of U^dag U from its entry j >= i on, with
    # (U^dag U)[i, j] = sum_k conj(U[k, i]) U[k, j], over one contiguous
    # time-last copy instead of one matrix product per table; U^dag U is
    # Hermitian, so these entries hold its largest deviation
    c = np.moveaxis(a.reshape(-1, n, n), 0, -1).copy()
    for i in range(n):
        g = c[0, i].conj() * c[0, i:]
        for k in range(1, n):
            g += c[k, i].conj() * c[k, i:]
        g[0] -= 1.0  # the diagonal entry
        if not np.abs(g).max(initial=0.0) <= tol:  # NaN fails too
            return False
    return True


def eigh_hermitian(h: np.ndarray, tol: float = HERMITIAN_TOL):
    """Eigendecomposition (w, v) of a Hermitian matrix, v columns orthonormal.

    Raises ValueError if the input is not Hermitian within ``tol``.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol):
        raise ValueError(f"matrix is not Hermitian within {tol:g}")
    return np.linalg.eigh(h)


def expm_hermitian(h: np.ndarray, s: float, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """exp(i s h) for Hermitian h, computed by eigendecomposition.

    The result is unitary to the accuracy of the eigensolver.  Use
    s = -t to obtain the time-t propagator of a Hamiltonian h.
    """
    w, v = eigh_hermitian(h, tol)
    return (v * np.exp(1j * s * w)) @ v.conj().T


def validate_density(r: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate a density operator, or a (..., n, n) stack of them, and return it as a complex array.

    Checks, in order: Hermiticity within ``tol``, unit trace within ``tol``
    and positivity (smallest eigenvalue >= -tol).  Raises ValueError naming
    the violated invariant, with the worst value of a stack.
    """
    r = np.asarray(r, dtype=complex)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise ValueError(f"density operator must be square, got shape {r.shape}")
    if not is_hermitian(r, tol):
        raise ValueError(f"density operator is not Hermitian within {tol:g}")
    traces = np.trace(r, axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0)
    if np.max(off) > tol:
        trace = traces.flat[np.argmax(off)]
        raise ValueError(f"density operator trace is {trace.real:.12g}, not 1")
    lowest = float(np.linalg.eigvalsh(r)[..., 0].min())
    if lowest < -tol:
        raise ValueError(f"density operator has negative eigenvalue {lowest:.3e}")
    return r
