"""Physical model of the controlled-rotation gate.

Basis convention used throughout the package: single-qubit states are
ordered (|0>, |1>) with sz = diag(-1, +1), i.e. sz |1> = +|1>, so that
exp(-i H t) with H = (omega/2) sz advances the phase of |0> as
e^{+i omega t / 2}.  Two-qubit amplitudes are indexed by i = 2a + b for
qubit values (a, b): |00>, |01>, |10>, |11>.  hbar = 1 and omega_L = 1 are
the natural units used everywhere.

The two qubits A (control) and B (target) evolve under the time-independent
Hamiltonian

    H_tot = (omega_L / 2) (sz (x) 1 + 1 (x) sz)  +  (omega_int / 2) |1><1|_A (x) sx_B

The propagator exp(-i H_tot t) leaves |00> and |01> invariant up to phases
and rotates the (|10>, |11>) block with amplitudes

    h1(t) = cos(Delta t) + i (omega_L / 2 Delta) sin(Delta t),
    h2(t) = -i (omega_int / 2 Delta) sin(Delta t),
    Delta = sqrt(omega_L^2 + omega_int^2) / 2,

so |h1|^2 + |h2|^2 = 1 at all times.  Conditioned on the control being |1>,
the target undergoes a rotation by the angle phi = Delta t around the axis
(sin zeta, 0, cos zeta) with zeta = arccos(omega_L / 2 Delta).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


# below this, omega_L^2 + omega_int^2 in ``delta`` cannot overflow
MAX_FREQUENCY = math.sqrt(sys.float_info.max) / 2.0


@dataclass(frozen=True)
class ModelParams:
    """Angular frequencies of the local and interaction terms (omega_L = 1 units)."""

    omega_L: float = 1.0
    omega_int: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.omega_L < MAX_FREQUENCY:
            raise ValueError(f"omega_L must lie in (0, {MAX_FREQUENCY:.3g}), got {self.omega_L}")
        if not 0.0 <= self.omega_int < MAX_FREQUENCY:
            raise ValueError(
                f"omega_int must lie in [0, {MAX_FREQUENCY:.3g}), got {self.omega_int}"
            )

    @property
    def delta(self) -> float:
        """Half the generalized Rabi frequency, sqrt(omega_L^2 + omega_int^2) / 2."""
        return math.sqrt(self.omega_L**2 + self.omega_int**2) / 2.0


def hamiltonians(p: ModelParams):
    """Local, interaction and total Hamiltonians (H_L, H_int, H_tot), complex
    4x4: the operators ``benchmarks/checks.py`` exponentiates to check the
    closed-form propagator."""
    h_local = np.diag(0.5 * p.omega_L * np.array([-2.0, 0.0, 0.0, 2.0])).astype(complex)
    h_int = np.zeros((4, 4), dtype=complex)
    h_int[2, 3] = h_int[3, 2] = 0.5 * p.omega_int
    return h_local, h_int, h_local + h_int


def _complex_product(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai) (br + i bi)."""
    # numpy's vectorised complex multiply fuses these products with FMA, which
    # moves last bits; separate float operations round like Python's scalar
    # complex multiply
    return ar * br - ai * bi, ar * bi + ai * br


def propagator_grid(p: ModelParams, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form propagator exp(-i H_tot t) at every time: the amplitudes
    |h1| and |h2| of shape (T,) and U of shape (T, 4, 4).

    U acts as |00> -> e^{i omega_L t}|00>, |01> -> |01>, and on the
    (|10>, |11>) block as e^{-i omega_L t / 2} [[h1, h2], [h2, h1*]]; entries
    outside that pattern are exactly zero.  Each entry of U, and |h1| and
    |h2|, equal, bit for bit, the one-time propagator of tests/reference.py,
    which builds them with Python's complex arithmetic: |h1| is numpy's
    ``hypot`` of its parts, as Python's abs of a complex number, and h2 is
    purely imaginary.
    """
    t = np.asarray(times, dtype=float)
    d = p.delta
    sin = np.sin(d * t)
    h1 = np.cos(d * t), (p.omega_L / (2 * d)) * sin
    h2 = np.zeros_like(t), -(p.omega_int / (2 * d)) * sin
    phase = np.exp(1j * (-0.5 * p.omega_L * t))
    u = np.zeros((t.size, 4, 4), dtype=complex)
    u[:, 0, 0] = np.exp(1j * (p.omega_L * t))
    u[:, 1, 1] = 1.0
    for (row, col), (re, im) in (
        ((2, 2), _complex_product(phase.real, phase.imag, *h1)),
        ((3, 2), _complex_product(phase.real, phase.imag, *h2)),
        ((3, 3), _complex_product(phase.real, phase.imag, h1[0], -h1[1])),
    ):
        u[:, row, col].real = re
        u[:, row, col].imag = im
    u[:, 2, 3] = u[:, 3, 2]
    return np.hypot(*h1), np.abs(h2[1]), u


@dataclass(frozen=True)
class ThermalSpec:
    """Parameters of the product thermal input state.

    ``alpha`` fixes the inverse temperature of qubit A through
    beta_A = ln(alpha / (1 - alpha)) / (2 omega_L); alpha < 1/2 makes
    beta_A negative (population inversion of A).  ``beta_B`` is the
    inverse temperature of qubit B in 1/omega_L units.
    """

    alpha: float = 0.2
    beta_B: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not math.isfinite(self.beta_B):
            raise ValueError("beta_B must be finite")

    def beta_A(self, omega_L: float = 1.0) -> float:
        return math.log(self.alpha / (1.0 - self.alpha)) / (2.0 * omega_L)


def _single_qubit_gibbs(beta: float, omega_L: float) -> np.ndarray:
    # populations (p_0, p_1) of e^{-beta omega_L sigma_z} / Tr[...]
    # beta * omega_L may itself overflow to inf; past 1e300 the populations
    # are exactly 0 and 1 anyway, and the shifted exponents stay finite
    x = np.clip(-beta * omega_L * np.array([-1.0, 1.0]), -1e300, 1e300)
    # exp overflows above log(float max) ~ 709.78; shift only by the excess
    # over 700, so ordinary inputs (shift 0) keep their bits exactly
    weights = np.exp(x - max(x.max() - 700.0, 0.0))
    return weights / weights.sum()


def input_populations(spec: ThermalSpec, p: ModelParams) -> np.ndarray:
    """Populations p_in[2a + b] of the product thermal input state: all that
    any statistic reads of it, as the first measurement dephases it.

    With the defaults (alpha = 0.2, beta_B = 1/2) p(0_A) = alpha and
    p(1_A) = 1 - alpha on the control, p(1_B) = 1 / (1 + e) on the target.
    Not checked here: ``sweep._evaluate`` gates the joint tables, whose row
    sums they are.
    """
    p_a = _single_qubit_gibbs(spec.beta_A(p.omega_L), p.omega_L)
    p_b = _single_qubit_gibbs(spec.beta_B, p.omega_L)
    return (p_a[:, None] * p_b[None, :]).ravel()


def trajectory_coherence(u, outcome: int = 2):
    """l1-norm of coherence generated from the basis state ``outcome`` (default |10>).

    The sum of |rho_ij| over the off-diagonal entries of rho = psi psi^dag,
    psi = U|outcome>, for a 4x4 unitary or for each unitary of a (T, 4, 4)
    stack.  The unitaries are not checked here: ``sweep._evaluate`` has gated
    the row and column sums of the same stack's conditional tables, which
    hold the norms of U's columns and rows, before anything reads it.
    """
    psi = np.ascontiguousarray(np.asarray(u, dtype=complex)[..., :, outcome])
    rho = psi[..., :, None] * psi.conj()[..., None, :]
    total = np.abs(rho).sum(axis=(-2, -1))
    return total - np.abs(np.diagonal(rho, axis1=-2, axis2=-1)).sum(axis=-1)

