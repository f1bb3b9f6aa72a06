"""Per-point reference of the grid path, for the tests.

``evaluate_point`` computes the statistics of one time with scalar code: the
propagator from Python's complex arithmetic, one distribution per table
merged by a Python loop, and the report's sums as numpy sums over all 16
cells, the undefined ones set to 0 (numpy groups a sum's terms by their
place, so a sum over the defined cells alone may round differently).
The grid path, ``gate_energetics.sweep._evaluate``, must equal it at every
time, bit for bit, so each function here runs the float operations that the
grid path runs, in the same order.  The checks that the grid path makes
(double stochasticity, table sums, atoms, weight on undefined realizations)
are not repeated here.  ``evaluate_grid`` runs the grid path itself on a
whole grid at once, for the tests that compare it with this reference.
``gate_angle`` is the oracle of the angle that the photonic gate takes from
the propagator's |h1| and |h2|, and ``success_probability`` the per-input
success of a post-selected gate G, which ``photonic`` keeps to its
conditional table.

The grid path builds the propagator from its four non-trivial entries only.
``dense_unitary`` puts them back into the full 4x4 form, and
``conditional_dense``, ``final_probs_dense`` and ``coherence_dense`` are the
forms over all 16 entries that the sparse tables of ``tpm`` and ``model``
must equal bit for bit.

The dense operators live here only, as oracles: the Pauli matrices and their
tensor products, the Hamiltonians built from them (the oracle of
``model.hamiltonians``) and the thermal density operator whose diagonal
``initial_probs`` reads (the oracle of ``model.input_populations``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gate_energetics.config import RunConfig
from gate_energetics.linalg import HERMITIAN_TOL, RATIO_GUARD, VALUE_MERGE_TOL
from gate_energetics.model import (
    ModelParams,
    ThermalSpec,
    _single_qubit_gibbs,
    input_populations,
)
from gate_energetics.sweep import SweepGrid, _evaluate
from gate_energetics.tpm import (
    ENERGY_CHANGE,
    entropy_realizations,
    joint_table_from_conditional,
)

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)
PROJ_0 = np.diag([1.0, 0.0]).astype(complex)
PROJ_1 = np.diag([0.0, 1.0]).astype(complex)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b, so out[2i+k, 2j+l] = a[i,j] * b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Whether a matrix, or every matrix of a (..., n, n) stack, is Hermitian within ``tol``."""
    a = np.asarray(a)
    return bool(np.max(np.abs(a - np.swapaxes(a, -1, -2).conj())) <= tol)


def eigh_hermitian(h: np.ndarray, tol: float = HERMITIAN_TOL):
    """Eigendecomposition (w, v) of a Hermitian matrix, v columns orthonormal.

    Raises ValueError if the input is not Hermitian within ``tol``.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol):
        raise ValueError(f"matrix is not Hermitian within {tol:g}")
    return np.linalg.eigh(h)


def hamiltonians(p: ModelParams):
    """(H_L, H_int, H_tot) built from tensor products of Pauli matrices, the
    oracle of the entry-by-entry ``model.hamiltonians``."""
    h_local = 0.5 * p.omega_L * (tensor(SIGMA_Z, IDENTITY_2) + tensor(IDENTITY_2, SIGMA_Z))
    h_int = 0.5 * p.omega_int * tensor(PROJ_1, SIGMA_X)
    return h_local, h_int, h_local + h_int


def thermal_state(spec: ThermalSpec, p: ModelParams) -> np.ndarray:
    """Product thermal density operator rho_0 = rho_A (x) rho_B, each factor
    the diagonal 2x2 Gibbs matrix of ``model._single_qubit_gibbs``."""
    return tensor(
        np.diag(_single_qubit_gibbs(spec.beta_A(p.omega_L), p.omega_L)),
        np.diag(_single_qubit_gibbs(spec.beta_B, p.omega_L)),
    )


def initial_probs(rho0: np.ndarray) -> np.ndarray:
    """Outcome probabilities of the first measurement, p[n] = Tr[rho0 Pi_n]:
    the diagonal of rho0, which the measurement dephases, with every
    subnormal population set to 0 (the rule of ``model.input_populations``)."""
    p = np.diag(rho0).real.copy()
    p[p < np.finfo(float).tiny] = 0.0
    return p


def h_coeffs(p: ModelParams, t: float) -> tuple[complex, complex]:
    """Block amplitudes (h1, h2) of the conditioned target rotation at time t."""
    d = p.delta
    h1 = math.cos(d * t) + 1j * (p.omega_L / (2 * d)) * math.sin(d * t)
    h2 = -1j * (p.omega_int / (2 * d)) * math.sin(d * t)
    return h1, h2


def gate_angle(p: ModelParams, t: float) -> float:
    """Equivalent controlled-rotation angle gamma = atan2(|h2|, |h1|) in [0, pi/2].

    The conditional phases dropped here do not affect any local measurement
    statistic, so a gate implementing controlled-u_gamma reproduces the full
    two-point-measurement energetics of the propagator.
    """
    h1, h2 = h_coeffs(p, t)
    return math.atan2(abs(h2), abs(h1))


def success_probability(g: np.ndarray) -> np.ndarray:
    """Per-input post-selection success probability sum_fin |G[fin, in]|^2 of
    the coincidence amplitudes G, or of each gate of a stack."""
    return (np.abs(g) ** 2).sum(axis=-2)


@dataclass(frozen=True, eq=False)
class Propagator:
    """Time-t unitary together with the block amplitudes that parametrize it."""

    t: float
    h1: complex
    h2: complex
    U: np.ndarray


def propagator_analytic(p: ModelParams, t: float) -> Propagator:
    """Closed-form propagator exp(-i H_tot t) of one time."""
    h1, h2 = h_coeffs(p, t)
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = np.exp(1j * p.omega_L * t)
    u[1, 1] = 1.0
    phase = np.exp(-0.5j * p.omega_L * t)
    u[2, 2] = phase * h1
    u[3, 2] = phase * h2
    u[2, 3] = phase * h2
    u[3, 3] = phase * np.conj(h1)
    return Propagator(t=t, h1=h1, h2=h2, U=u)


def dense_unitary(u) -> np.ndarray:
    """The (T, 4, 4) stack of unitaries whose non-trivial entries are the
    (4, T) rows U00, U22, U32 (= U23) and U33 of ``model.propagator_grid``:
    U11 = 1 and every other entry zero."""
    u = np.asarray(u, dtype=complex)
    dense = np.zeros((u.shape[1], 4, 4), dtype=complex)
    dense[:, 1, 1] = 1.0
    for (row, col), entry in zip(((0, 0), (2, 2), (3, 2), (3, 3)), u):
        dense[:, row, col] = entry
    dense[:, 2, 3] = u[2]
    return dense


def conditional_dense(u) -> np.ndarray:
    """c[fin, in] = |U[fin, in]|^2 over all 16 entries of a 4x4 unitary or a
    (T, 4, 4) stack: the dense form of ``tpm.conditional_matrix``."""
    return np.abs(u) ** 2


def final_probs_dense(j) -> np.ndarray:
    """p_fin[m] = sum_n j[n, m] by numpy's reduction: the dense form of
    ``tpm.final_probs``."""
    return np.asarray(j, dtype=float).sum(axis=-2)


def coherence_dense(u, outcome: int = 2):
    """l1-norm of coherence of rho = psi psi^dag, psi = U|outcome>, over all
    16 entries of rho, for a 4x4 unitary or a (T, 4, 4) stack: the dense form
    of ``model.trajectory_coherence`` (outcome |10>)."""
    psi = np.ascontiguousarray(np.asarray(u, dtype=complex)[..., :, outcome])
    return coherence_l1(psi[..., :, None] * psi.conj()[..., None, :])


@dataclass(frozen=True, eq=False)
class RotationDecomposition:
    """Axis-angle form of the conditioned target rotation."""

    zeta: float
    phi: float
    axis: np.ndarray

    def rotation(self) -> np.ndarray:
        """Reconstruct the 2x2 rotation cos(phi) 1 - i sin(phi) (n . sigma)."""
        n_sigma = self.axis[0] * SIGMA_X + self.axis[1] * SIGMA_Y + self.axis[2] * SIGMA_Z
        return math.cos(self.phi) * IDENTITY_2 - 1j * math.sin(self.phi) * n_sigma


def rotation_decomposition(p: ModelParams, t: float) -> RotationDecomposition:
    """Axis and angle of the target rotation conditioned on the control in |1>.

    The reconstructed rotation equals the (|10>, |11>) block of the
    propagator up to the e^{-i omega_L t / 2} prefactor.  Requires
    omega_int > 0; the axis is degenerate otherwise.
    """
    if p.omega_int <= 0:
        raise ValueError("rotation axis is degenerate for omega_int = 0")
    zeta = math.acos(p.omega_L / (2 * p.delta))
    axis = np.array([math.sin(zeta), 0.0, math.cos(zeta)])
    return RotationDecomposition(zeta=zeta, phi=p.delta * t, axis=axis)


def coherence_l1(rho: np.ndarray):
    """l1-norm of coherence: sum of |rho_ij| over all off-diagonal entries."""
    total = np.abs(rho).sum(axis=(-2, -1))
    return total - np.abs(np.diagonal(rho, axis1=-2, axis2=-1)).sum(axis=-1)


def projectors() -> tuple[np.ndarray, ...]:
    """The four local projectors |psi><psi|_A (x) |phi><phi|_B, in index order."""
    singles = (PROJ_0, PROJ_1)
    return tuple(tensor(*(singles[bit] for bit in divmod(m, 2))) for m in range(4))


def joint_table(rho0: np.ndarray, u) -> np.ndarray:
    """Joint probabilities of the two measurements under a unitary or a stack of them."""
    return joint_table_from_conditional(conditional_dense(u), initial_probs(rho0))


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finitely supported distribution as sorted (value, probability) atoms."""

    values: np.ndarray
    probs: np.ndarray

    @classmethod
    def from_atoms(cls, values, weights):
        """Aggregate raw (value, weight) atoms as ``tpm.merge_atom_rows`` does one
        row: only the atoms of positive weight enter."""
        v = np.asarray(values, dtype=float).ravel()
        w = np.asarray(weights, dtype=float).ravel()
        occurs = w > 0.0
        v, w = v[occurs], w[occurs]
        order = np.argsort(v, kind="stable")
        merged_v: list[float] = []
        merged_w: list[float] = []
        anchor = None
        for val, wt in zip(v[order], w[order]):
            if anchor is not None and val - anchor <= VALUE_MERGE_TOL:
                merged_v[-1] = (merged_v[-1] * merged_w[-1] + val * wt) / (merged_w[-1] + wt)
                merged_w[-1] += wt
            else:
                anchor = val
                merged_v.append(val)
                merged_w.append(wt)
        return cls(values=np.array(merged_v), probs=np.array(merged_w))

    @property
    def mean(self) -> float:
        return float(np.dot(self.probs, self.values))

    def moment(self, h: int) -> float:
        """Raw moment sum_k p_k v_k^h."""
        return float(np.dot(self.probs, self.values**h))


def delta_e_distribution(j: np.ndarray) -> DiscreteDistribution:
    """Distribution of the energy change dE = E_fin - E_in of one joint table."""
    return DiscreteDistribution.from_atoms(ENERGY_CHANGE, j)


def entropy_distribution(j: np.ndarray, sigma: np.ndarray) -> DiscreteDistribution:
    """Distribution of the entropy production over the defined realizations."""
    defined = np.isfinite(sigma)
    return DiscreteDistribution.from_atoms(sigma[defined], np.asarray(j, dtype=float)[defined])


def moments(d: DiscreteDistribution, h_max: int = 5) -> np.ndarray:
    """Raw moments of orders 1..h_max."""
    return np.array([d.moment(h) for h in range(1, h_max + 1)])


class ThermoReport(NamedTuple):
    """Fluctuation-theorem and Landauer bookkeeping of one joint table: the
    per-time values of ``SweepGrid.de_moments[:, 0]``, ``ds_mean``, ``ift``,
    ``landauer_lhs`` and ``ratio``.  The Landauer slack is
    ``landauer_lhs - ds_mean``."""

    de_mean: float
    ds_mean: float
    ift: float
    landauer_lhs: float
    ratio: float


def thermo_report(j: np.ndarray, sigma: np.ndarray, beta: float) -> ThermoReport:
    """The ``ThermoReport`` of one joint table."""
    j = np.asarray(j, dtype=float)
    defined = np.isfinite(sigma)
    de_mean = delta_e_distribution(j).mean
    ds_mean = float(np.sum(np.where(defined, j * sigma, 0.0)))
    ift = float(np.sum(np.where(defined, j * np.exp(-sigma), 0.0)))
    return ThermoReport(
        de_mean=de_mean,
        ds_mean=ds_mean,
        ift=ift,
        landauer_lhs=beta * de_mean,
        ratio=de_mean / ds_mean if abs(ds_mean) > RATIO_GUARD else math.nan,
    )


@dataclass(eq=False)
class SweepPoint:
    """The fields and statistics of ``sweep.SweepGrid`` at one time, with the
    input and final populations that ``sweep._evaluate`` keeps as locals."""

    t: float
    p_in: np.ndarray
    p_fin: np.ndarray
    cond: np.ndarray
    joint: np.ndarray
    sigma: np.ndarray
    de_dist: DiscreteDistribution
    ds_dist: DiscreteDistribution
    de_moments: np.ndarray
    ds_moments: np.ndarray
    coherence: float
    h2_sq: float
    report: ThermoReport


def evaluate_point(cfg: RunConfig, t: float) -> SweepPoint:
    """Exact two-point-measurement statistics of the gate at time t."""
    rho0 = thermal_state(cfg.thermal, cfg.model)
    prop = propagator_analytic(cfg.model, t)
    p_in = initial_probs(rho0)
    cond = conditional_dense(prop.U)
    joint = joint_table_from_conditional(cond, p_in)
    p_fin = final_probs_dense(joint)
    sigma = entropy_realizations(p_in, p_fin)
    de_dist = delta_e_distribution(joint)
    ds_dist = entropy_distribution(joint, sigma)
    return SweepPoint(
        t=t,
        p_in=p_in,
        p_fin=p_fin,
        cond=cond,
        joint=joint,
        sigma=sigma,
        de_dist=de_dist,
        ds_dist=ds_dist,
        de_moments=moments(de_dist, cfg.moments_max),
        ds_moments=moments(ds_dist, cfg.moments_max),
        coherence=coherence_dense(prop.U),
        h2_sq=abs(prop.h2) ** 2,
        report=thermo_report(joint, sigma, beta=cfg.thermal.beta_B * cfg.model.omega_L),
    )


def evaluate_grid(cfg: RunConfig, times) -> SweepGrid:
    """The gated tables of every time of ``times``, as one block of the grid path."""
    p_in = input_populations(cfg.thermal, cfg.model)
    return _evaluate(cfg, np.asarray(times, dtype=float), p_in)


class TVResult(NamedTuple):
    tv: float
    max_cell: float


def tv_distance(counts: np.ndarray, n: int, j: np.ndarray) -> TVResult:
    """Total-variation distance and largest per-cell error between counts/n and j."""
    if n == 0:
        raise ValueError("empirical table holds no samples")
    diff = np.abs(counts / n - np.asarray(j, dtype=float))
    return TVResult(tv=0.5 * float(diff.sum()), max_cell=float(diff.max()))
