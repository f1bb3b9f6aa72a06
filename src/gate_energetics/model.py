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

Of the 16 entries of U only U00 = e^{i omega_L t}, U11 = 1, U22, U23 = U32
and U33 are non-zero, so the package carries the four that vary,
``propagator_grid``'s (4, T) rows, and builds no dense (T, 4, 4) U.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


# the frequencies' upper bound: below it omega_L^2 + omega_int^2 is finite
MAX_FREQUENCY = math.sqrt(sys.float_info.max) / 2.0


@dataclass(frozen=True)
class ModelParams:
    """Angular frequencies of the local and interaction terms (omega_L = 1 units),
    unchecked: ``RunConfig.validate`` holds their ranges."""

    omega_L: float = 1.0
    omega_int: float = 5.0

    @property
    def delta(self) -> float:
        """Half the generalized Rabi frequency, hypot(omega_L, omega_int) / 2,
        whose squares cannot underflow."""
        return math.hypot(self.omega_L, self.omega_int) / 2.0


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
    |h1| and |h2| of shape (T,) and the non-trivial entries ``u`` of U, a
    contiguous complex (4, T) array with rows U00, U22, U32 and U33.

    U acts as |00> -> e^{i omega_L t}|00>, |01> -> |01>, and on the
    (|10>, |11>) block as e^{-i omega_L t / 2} [[h1, h2], [h2, h1*]], so
    U11 = 1, U23 = U32 and every other entry is exactly zero; no dense
    (T, 4, 4) stack is built.  Each row of ``u``, and |h1| and |h2|, equal,
    bit for bit, the entries of the one-time propagator of
    tests/reference.py, which builds them with Python's complex arithmetic
    (at omega_int = 0 a zero part of U32 may differ in sign, which |U|^2
    discards): |h1| is numpy's ``hypot`` of its parts, as Python's abs of a
    complex number, and h2 is purely imaginary.
    """
    t = np.asarray(times, dtype=float)
    d = p.delta
    sin = np.sin(d * t)
    h1 = np.cos(d * t), (p.omega_L / (2 * d)) * sin
    h2 = np.zeros_like(t), -(p.omega_int / (2 * d)) * sin
    phase = np.exp(1j * (-0.5 * p.omega_L * t))
    u = np.empty((4, t.size), dtype=complex)
    u[0] = np.exp(1j * (p.omega_L * t))
    for row, (re, im) in zip(u[1:], (
        _complex_product(phase.real, phase.imag, *h1),
        _complex_product(phase.real, phase.imag, *h2),
        _complex_product(phase.real, phase.imag, h1[0], -h1[1]),
    )):
        row.real = re
        row.imag = im
    return np.hypot(*h1), np.abs(h2[1]), u


@dataclass(frozen=True)
class ThermalSpec:
    """Parameters of the product thermal input state.

    ``alpha`` fixes the inverse temperature of qubit A through
    beta_A = ln(alpha / (1 - alpha)) / (2 omega_L); alpha < 1/2 makes
    beta_A negative (population inversion of A).  ``beta_B`` is the
    inverse temperature of qubit B in 1/omega_L units.  The fields are
    unchecked: ``RunConfig.validate`` holds their ranges.
    """

    alpha: float = 0.2
    beta_B: float = 0.5

    def beta_A(self, omega_L: float) -> float:
        return math.log(self.alpha / (1.0 - self.alpha)) / (2.0 * omega_L)


def _single_qubit_gibbs(beta: float, omega_L: float) -> np.ndarray:
    # populations (p_0, p_1) of e^{-beta omega_L sigma_z} / Tr[...]
    # beta * omega_L may itself overflow to inf; past 1e300 the populations
    # are exactly 0 and 1 anyway, and the shifted exponents stay finite
    x = np.clip(-beta * omega_L * np.array([-1.0, 1.0]), -1e300, 1e300)
    # exp overflows above log(float max) ~ 709.78: an exponent above 700 is
    # shifted to exactly 0 (x = (b, -b): the other weight underflows anyway),
    # and ordinary inputs (no shift) keep their bits exactly
    weights = np.exp(x - (x.max() if x.max() > 700.0 else 0.0))
    return weights / weights.sum()


def input_populations(spec: ThermalSpec, p: ModelParams) -> np.ndarray:
    """Populations p_in[2a + b] of the product thermal input state: all that
    any statistic reads of it, as the first measurement dephases it.

    With the defaults (alpha = 0.2, beta_B = 1/2) p(0_A) = alpha and
    p(1_A) = 1 - alpha on the control, p(1_B) = 1 / (1 + e) on the target.
    Not checked here: ``sweep._evaluate`` gates the joint tables, whose row
    sums they are.

    A population below ``np.finfo(float).tiny`` is set to exactly 0.  Such
    a subnormal population (the target's excited one for beta_B omega_L
    between about 354.3 and 372.5, above which it underflows to 0, or a
    product with alpha below about 3e-308 at the default beta_B) keeps
    fewer than 53 bits, and its dsigma = ln p_in - ln p_fin may fall below
    -709.78, where e^{-dsigma} overflows.  As 0, its outcomes are
    absolutely irreversible, as they are once the population underflows.
    """
    p_a = _single_qubit_gibbs(spec.beta_A(p.omega_L), p.omega_L)
    p_b = _single_qubit_gibbs(spec.beta_B, p.omega_L)
    p_in = (p_a[:, None] * p_b[None, :]).ravel()
    p_in[p_in < np.finfo(float).tiny] = 0.0
    return p_in


def trajectory_coherence(u) -> np.ndarray:
    """l1-norm of coherence generated from |10>, one value per time.

    The sum of |rho_ij| over the off-diagonal entries of rho = psi psi^dag,
    psi = U|10>, from the (4, T) rows ``u`` of ``propagator_grid``: psi has
    only two non-zero amplitudes, U22 and U32, so r = |psi_i psi_j*| is a
    (T, 2, 2) product.  The sum is grouped as numpy's pairwise sum groups
    the 16 cells of the dense rho, whose other 12 cells are zero, so it
    equals the dense form of tests/reference.py bit for bit.  The
    amplitudes are not checked here: ``sweep._evaluate`` has gated the row
    and column sums of the same block's conditional tables, which hold the
    norms of U's columns and rows, before anything reads them.
    """
    psi = np.ascontiguousarray(u[1:3].T)
    r = np.abs(psi[:, :, None] * psi.conj()[:, None, :])
    r00, r01, r10, r11 = r[:, 0, 0], r[:, 0, 1], r[:, 1, 0], r[:, 1, 1]
    return (r00 + r01) + (r10 + r11) - (r00 + r11)
