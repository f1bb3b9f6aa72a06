"""Linear-optical model of the physical two-qubit gate.

One photon travels in each of two spatial arms, a (control) and b (target),
with the qubit encoded in polarisation: |0> = |H>, |1> = |V>.  The four
optical modes are ordered

    (a,H) = 0,  (a,V) = 1,  (b,H) = 2,  (b,V) = 3.

The gate is a partially polarising beam splitter (transmittivities T_H, T_V)
sandwiched between half-wave plates on the target arm, with extra H
attenuators on each output arm that equalise the polarisation losses.  The
attenuators sit directly after the beam splitter, inside the wave-plate
conjugation; only there does the post-selected gate reduce to the ideal
controlled rotation for every plate setting.  Keeping only coincidences
with one photon per output arm leaves the effective two-qubit amplitude
operator G, whose entries are two-photon permanents of the mode transform.

Beam-splitter convention: symmetric, phase i on reflection.  Any other
fixed convention changes only unobservable phases of G.  On (H, V) the
wave-plate identities use sigma_z = diag(+1, -1), the standard
polarisation ordering (note this differs from the logical-qubit sigma_z
in linalg).  A plate at physical angle chi implements u at angle 2 chi.

The gate's only input from the model is the controlled rotation of the
propagator, through its amplitudes |h1| and |h2| (``model.propagator_grid``):
its angle gamma = atan2(|h2|, |h1|) runs per time in Python floats, as
numpy's arctan2 may round differently in the last bit.  Every later step
takes one angle or an array of T angles and returns (T, 4, 4) stacks, equal
row for row to the one-time results: the 16 permanents are taken over
fixed index arrays and their products go through ``model._complex_product``.
The plate's ``np.cos`` and ``np.sin`` equal ``math.cos`` and ``math.sin`` bit
for bit on every plate angle of the 2000- and 20 000-point default grids,
natively and at numpy's X86_V3 dispatch.  A stack that blocks an input raises
at its first blocked row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SUCCESS_FLOOR
from .model import _complex_product

_ARMS = ((0, 1), (2, 3))  # (H, V) mode indices of arm a and arm b


@dataclass(frozen=True)
class OpticalParams:
    """Hardware parameters of the optical gate.

    ``eps`` is the weight of a uniform accidental-coincidence background
    mixed into the conditional probabilities.
    """

    T_H: float = 1.0
    T_V: float = 1.0 / 3.0
    atten_H: float = 1.0 / math.sqrt(3.0)
    eps: float = 0.0

    def __post_init__(self):
        for name in ("T_H", "T_V", "atten_H"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")


def ppbs_transform(t_h: float, t_v: float) -> np.ndarray:
    """Mode transform of the partially polarising beam splitter.

    Each polarisation couples the two arms independently:
    a_p -> sqrt(T_p) a_p + i sqrt(1 - T_p) b_p and symmetrically for b_p.
    """
    m = np.zeros((4, 4), dtype=complex)
    for pol, T in ((0, t_h), (1, t_v)):
        a, b = _ARMS[0][pol], _ARMS[1][pol]
        m[a, a] = m[b, b] = math.sqrt(T)
        m[a, b] = m[b, a] = 1j * math.sqrt(1.0 - T)
    return m


def hwp_u(theta) -> np.ndarray:
    """Polarisation action u_theta = [[cos, sin], [sin, -cos]] of a half-wave plate.

    An array of T angles gives a (T, 2, 2) stack.  Satisfies u_theta u_theta
    = 1 and u_theta sigma_z u_theta = u_{2 theta} (sigma_z = diag(+1, -1) on
    (H, V)).
    """
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    u = np.empty(theta.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = c
    u[..., 0, 1] = u[..., 1, 0] = s
    u[..., 1, 1] = -c
    return u


def _on_arm_b(u2: np.ndarray) -> np.ndarray:
    m = np.zeros(u2.shape[:-2] + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = 1.0
    m[..., 2:, 2:] = u2
    return m


def _equalizers(atten_h: float) -> np.ndarray:
    return np.diag([atten_h, 1.0, atten_h, 1.0]).astype(complex)


def compose_circuit(params: OpticalParams, gamma) -> np.ndarray:
    """Full mode transform of the gate targeting a controlled-u_gamma rotation.

    Composition (rightmost first): plate u_{gamma/2} on arm b, beam
    splitter, H equalizers on both arms, plate u_{gamma/2} on arm b.  The
    transform is unitary without attenuation and sub-unitary otherwise.  An
    array of T angles gives a (T, 4, 4) stack.
    """
    plate = np.asarray(gamma, dtype=float) / 4.0  # physical plate angle
    wave_plate = _on_arm_b(hwp_u(2.0 * plate))
    return (
        wave_plate
        @ _equalizers(params.atten_H)
        @ ppbs_transform(params.T_H, params.T_V)
        @ wave_plate
    )


@dataclass(frozen=True, eq=False)
class PostselectedGate:
    """Effective coincidence amplitudes G[fin, in] and per-input success probability."""

    G: np.ndarray
    success: np.ndarray


# the modes (a,p) and (b,q) that hold the photons of basis state 2 p + q
_MODE_A = np.array([0, 0, 1, 1])
_MODE_B = np.array([2, 3, 2, 3])


def _entries(m: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Real and imaginary parts of m[..., rows[k], cols[l]] as (..., 4, 4) arrays."""
    return m.real[..., rows[:, None], cols], m.imag[..., rows[:, None], cols]


def postselect(m: np.ndarray) -> PostselectedGate:
    """Two-photon coincidence amplitudes of the mode transform.

    G[(p', q'), (p, q)] is the permanent of the 2x2 submatrix connecting the
    input modes ((a,p), (b,q)) to the output modes ((a,p'), (b,q')): the
    direct term keeps each photon in its arm, the exchange term swaps them.
    A (T, 4, 4) stack of transforms gives a stack of gates.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise ValueError(f"mode transform must be 4x4, got shape {m.shape}")
    a, b = _MODE_A, _MODE_B
    direct = _complex_product(*_entries(m, a, a), *_entries(m, b, b))
    exchange = _complex_product(*_entries(m, a, b), *_entries(m, b, a))
    g = np.empty(m.shape, dtype=complex)
    g.real = direct[0] + exchange[0]
    g.imag = direct[1] + exchange[1]
    return PostselectedGate(G=g, success=(np.abs(g) ** 2).sum(axis=-2))


def photonic_conditional_matrix(gate: PostselectedGate, eps: float, t) -> np.ndarray:
    """Conditional outcome probabilities of the post-selected gate at time(s) ``t``.

    c[fin, in] = (1 - eps) |G[fin, in]|^2 / success[in] + eps / 4: the
    coincidence statistics renormalized by the per-input success
    probability, mixed with a uniform accidental background of weight eps.
    Columns sum to 1 by construction.  A stack of gates gives a stack of
    matrices; the first gate that blocks an input raises, named by its time.
    """
    blocked = (gate.success <= SUCCESS_FLOOR).reshape(-1, 4)
    rows = np.flatnonzero(blocked.any(axis=1))
    if rows.size:
        i = rows[0]
        labels = ", ".join(format(k, "02b") for k in np.flatnonzero(blocked[i]))
        raise ValueError(
            f"gate blocks basis input(s) {labels}: post-selection never succeeds"
            f" at omega_L_t={np.ravel(t)[i]:.6g}"
        )
    return (1.0 - eps) * np.abs(gate.G) ** 2 / gate.success[..., None, :] + eps / 4.0


def conditional_for_time(params: OpticalParams, h1, h2, t) -> np.ndarray:
    """Conditional matrix of the optical gate realizing the controlled rotation
    of amplitudes |h1|, |h2| at time t, or the (T, 4, 4) stack of them for
    arrays of T amplitudes and times."""
    gamma = [math.atan2(b, a) for a, b in zip(np.ravel(h1).tolist(), np.ravel(h2).tolist())]
    gate = postselect(compose_circuit(params, np.reshape(gamma, np.shape(h1))))
    return photonic_conditional_matrix(gate, params.eps, t)
