"""The package's tolerance table, and the Hermitian exponential.

Every numeric tolerance of the package is defined here, once.  No density
operator is checked: outputs read only the input state's populations, which
the joint-table gate of ``sweep._evaluate`` checks.

``expm_hermitian`` is the eigendecomposition oracle that
``benchmarks/checks.py`` compares the closed-form propagator with; the
program itself builds no operator from it.
"""

from __future__ import annotations

import numpy as np

# Hermiticity of an operator
HERMITIAN_TOL = 1e-10
# |sum - 1| of a probability group, the cell range [0, 1 + tol], the row and
# column sums of a doubly stochastic table and |<e^{-dsigma}> - 1|; read only
# by the gates in sweep
PROB_SUM_TOL = 1e-12
# distribution atoms closer than this are merged; decides output bytes
VALUE_MERGE_TOL = 1e-12
# |<dsigma>| below this leaves the energy-to-entropy ratio undefined; decides
# output bytes
RATIO_GUARD = 1e-9
# post-selection success probability treated as zero
SUCCESS_FLOOR = 1e-15


def expm_hermitian(h: np.ndarray, s: float) -> np.ndarray:
    """exp(i s h) for Hermitian h, computed by eigendecomposition.

    The result is unitary to the accuracy of the eigensolver.  Use
    s = -t to obtain the time-t propagator of a Hamiltonian h.  Raises
    ValueError if h is not Hermitian within ``HERMITIAN_TOL``.
    """
    h = np.asarray(h, dtype=complex)
    if not np.max(np.abs(h - h.conj().T)) <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian within {HERMITIAN_TOL:g}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * s * w)) @ v.conj().T
