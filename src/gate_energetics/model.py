"""Physical model of the controlled-rotation gate.

The two qubits A (control) and B (target) evolve under the time-independent
Hamiltonian

    H_tot = (omega_L / 2) (sz (x) 1 + 1 (x) sz)  +  (omega_int / 2) |1><1|_A (x) sx_B

with sigma_z = diag(-1, +1) (see linalg).  hbar = 1 and omega_L = 1 are the
natural units used everywhere.  The propagator exp(-i H_tot t) leaves |00>
and |01> invariant up to phases and rotates the (|10>, |11>) block with
amplitudes

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

from .linalg import (
    IDENTITY_2,
    PROJ_1,
    SIGMA_X,
    SIGMA_Z,
    tensor,
)


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
    """Local, interaction and total Hamiltonians (H_L, H_int, H_tot)."""
    h_local = 0.5 * p.omega_L * (tensor(SIGMA_Z, IDENTITY_2) + tensor(IDENTITY_2, SIGMA_Z))
    h_int = 0.5 * p.omega_int * tensor(PROJ_1, SIGMA_X)
    return h_local, h_int, h_local + h_int


def _complex_product(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai) (br + i bi)."""
    # numpy's vectorised complex multiply fuses these products with FMA, which
    # moves last bits; separate float operations round like Python's scalar
    # complex multiply
    return ar * br - ai * bi, ar * bi + ai * br


def propagator_grid(p: ModelParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form propagator exp(-i H_tot t) at every time: h2 of shape (T,)
    and U of shape (T, 4, 4).

    U acts as |00> -> e^{i omega_L t}|00>, |01> -> |01>, and on the
    (|10>, |11>) block as e^{-i omega_L t / 2} [[h1, h2], [h2, h1*]]; entries
    outside that pattern are exactly zero.  Each entry equals, bit for bit,
    the one-time propagator of tests/reference.py, which builds it with
    Python's complex arithmetic.
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
    return h2[0] + 1j * h2[1], u


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
    # e^{-beta omega_L sigma_z} / Tr[...], diagonal in the logical basis
    # beta * omega_L may itself overflow to inf; past 1e300 the populations
    # are exactly 0 and 1 anyway, and the shifted exponents stay finite
    x = np.clip(-beta * omega_L * np.array([-1.0, 1.0]), -1e300, 1e300)
    # exp overflows above log(float max) ~ 709.78; shift only by the excess
    # over 700, so ordinary inputs (shift 0) keep their bits exactly
    weights = np.exp(x - max(x.max() - 700.0, 0.0))
    return np.diag(weights / weights.sum()).astype(complex)


def thermal_state(spec: ThermalSpec, p: ModelParams) -> np.ndarray:
    """Product thermal state of the two qubits, diagonal in the logical basis.

    With the defaults (alpha = 0.2, beta_B = 1/2) the populations are
    p(0_A) = alpha and p(1_A) = 1 - alpha on the control,
    p(1_B) = 1 / (1 + e) on the target.  Not checked here: outputs read only
    its diagonal, which ``sweep._evaluate`` gates through the joint tables.
    """
    return tensor(
        _single_qubit_gibbs(spec.beta_A(p.omega_L), p.omega_L),
        _single_qubit_gibbs(spec.beta_B, p.omega_L),
    )


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


def gate_angle(p: ModelParams, t):
    """Equivalent controlled-rotation angle gamma = atan2(|h2|, |h1|) in [0, pi/2].

    The conditional phases dropped here do not affect any of the local
    measurement statistics, so a gate implementing controlled-u_gamma
    reproduces the full two-point-measurement energetics of the propagator.
    An array of times gives the array of their angles.  |h1| and |h2| round
    as Python's abs of the complex amplitudes does (``hypot``); only atan2
    runs per time, in Python floats, since numpy's arctan2 may round
    differently in the last bit.
    """
    times = np.asarray(t, dtype=float)
    d = p.delta
    sin = np.sin(d * times)
    h1 = np.hypot(np.cos(d * times), (p.omega_L / (2 * d)) * sin)
    h2 = np.abs((p.omega_int / (2 * d)) * sin)
    gamma = [math.atan2(a, b) for a, b in zip(h2.ravel().tolist(), h1.ravel().tolist())]
    return np.array(gamma).reshape(times.shape) if times.ndim else gamma[0]
