import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gate_energetics.linalg import expm_hermitian
from gate_energetics.model import (
    ModelParams,
    ThermalSpec,
    hamiltonians,
    input_populations,
    trajectory_coherence,
)

import reference
from conftest import T_STAR, op_distance
from reference import (
    coherence_l1,
    gate_angle,
    h_coeffs,
    is_hermitian,
    propagator_analytic,
    rotation_decomposition,
)

# derandomized, as in test_config_properties: every run draws the same cases
ORACLE = settings(derandomize=True, max_examples=300, deadline=None, database=None)
# a positive float over 12 decades, 1e-6 to 1e6
DECADES = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega_L=0.0)
    with pytest.raises(ValueError):
        ModelParams(omega_int=-1.0)


def test_delta_formula(params):
    assert params.delta == pytest.approx(math.sqrt(26.0) / 2.0, abs=1e-14)


def test_hamiltonians_no_interaction():
    _, h_int, h_tot = hamiltonians(ModelParams(omega_int=0.0))
    assert op_distance(h_int, np.zeros((4, 4))) == 0.0
    assert op_distance(h_tot, np.diag([-1.0, 0.0, 0.0, 1.0])) <= 1e-15


def test_hamiltonians_interaction_block(params):
    _, _, h_tot = hamiltonians(params)
    assert op_distance(h_tot[2:, 2:], np.array([[0.0, 2.5], [2.5, 1.0]])) <= 1e-15


def test_local_hamiltonian_eigenvalues(params):
    h_local, _, _ = hamiltonians(params)
    assert np.allclose(np.linalg.eigvalsh(h_local), [-1.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_hamiltonians_hermitian(params):
    for h in hamiltonians(params):
        assert is_hermitian(h, 1e-14)


@ORACLE
@given(
    omega_L=st.floats(0.0, 1e6, exclude_min=True),
    omega_int=st.floats(0.0, 1e6),
)
@example(omega_L=1.0, omega_int=5.0)
@example(omega_L=0.3, omega_int=7.0)
@example(omega_L=5e-324, omega_int=0.0)  # 0.5 * omega_L rounds to 0
@example(omega_L=1e-310, omega_int=5e-324)
def test_hamiltonians_equal_the_tensor_built_form(omega_L, omega_int):
    # benchmarks/checks.py exponentiates model.hamiltonians as its propagator
    # oracle: the entries written out must keep every bit of the Pauli form,
    # signed zeros included
    p = ModelParams(omega_L, omega_int)
    for h, oracle in zip(hamiltonians(p), reference.hamiltonians(p), strict=True):
        assert h.dtype == oracle.dtype and h.shape == oracle.shape
        assert h.tobytes() == oracle.tobytes()


def test_h_coeffs_at_zero(params):
    h1, h2 = h_coeffs(params, 0.0)
    assert h1 == 1.0 and h2 == 0.0


def test_h_coeffs_quarter_period(params):
    # Delta * t = pi/2 at t = pi / sqrt(26)
    h1, h2 = h_coeffs(params, T_STAR)
    assert h1 == pytest.approx(1j / math.sqrt(26.0), abs=1e-12)
    assert h2 == pytest.approx(-5j / math.sqrt(26.0), abs=1e-12)


def test_h_coeffs_normalized(params, sweep_grid):
    for t in sweep_grid:
        h1, h2 = h_coeffs(params, t)
        assert abs(abs(h1) ** 2 + abs(h2) ** 2 - 1.0) <= 1e-12


def test_h_coeffs_periodic_in_delta_t(params, sweep_grid):
    period = math.pi / params.delta
    for t in sweep_grid[::10]:
        _, h2_a = h_coeffs(params, t)
        _, h2_b = h_coeffs(params, t + period)
        assert abs(abs(h2_a) ** 2 - abs(h2_b) ** 2) <= 1e-12


def test_propagator_at_zero(params):
    assert op_distance(propagator_analytic(params, 0.0).U, np.eye(4)) <= 1e-15


def test_propagator_matches_expm_oracle(params, sweep_grid):
    _, _, h_tot = hamiltonians(params)
    worst = max(
        op_distance(propagator_analytic(params, t).U, expm_hermitian(h_tot, -t))
        for t in sweep_grid
    )
    assert worst <= 1e-10


def test_propagator_structural_zeros(params, sweep_grid):
    pattern = np.zeros((4, 4), dtype=bool)
    pattern[0, 0] = pattern[1, 1] = True
    pattern[2:, 2:] = True
    for t in sweep_grid[::20]:
        u = propagator_analytic(params, t).U
        assert np.all(u[~pattern] == 0.0)


def test_propagator_block_is_h_pattern(params):
    prop = propagator_analytic(params, 0.4)
    phase = np.exp(-0.5j * params.omega_L * 0.4)
    block = np.array([[prop.h1, prop.h2], [prop.h2, np.conj(prop.h1)]])
    assert op_distance(prop.U[2:, 2:], phase * block) <= 1e-15


def test_propagator_unitary(params, sweep_grid):
    for t in sweep_grid[::10]:
        u = propagator_analytic(params, t).U
        assert op_distance(u.conj().T @ u, np.eye(4)) <= 1e-12


def test_propagator_transition_probability_quarter(params):
    u = propagator_analytic(params, T_STAR).U
    assert abs(u[3, 2]) ** 2 == pytest.approx(25.0 / 26.0, abs=1e-12)


def test_rotation_zeta(params):
    dec = rotation_decomposition(params, 0.3)
    assert dec.zeta == pytest.approx(math.acos(1.0 / math.sqrt(26.0)), abs=1e-14)
    assert dec.zeta == pytest.approx(1.373400766945016, abs=1e-12)
    assert np.linalg.norm(dec.axis) == pytest.approx(1.0, abs=1e-12)


def test_rotation_reconstruction_matches_block(params, sweep_grid):
    for t in sweep_grid[::10]:
        dec = rotation_decomposition(params, t)
        block = propagator_analytic(params, t).U[2:, 2:]
        phase = np.exp(-0.5j * params.omega_L * t)
        assert op_distance(dec.rotation(), block / phase) <= 1e-10


def test_rotation_identity_at_zero(params):
    assert op_distance(rotation_decomposition(params, 0.0).rotation(), np.eye(2)) <= 1e-14


def test_rotation_quarter_is_pure_axis(params):
    dec = rotation_decomposition(params, T_STAR)
    assert dec.phi == pytest.approx(math.pi / 2.0, abs=1e-12)
    # cos(phi) = 0 leaves only the -i (n . sigma) part
    reconstructed = dec.rotation()
    assert abs(np.trace(reconstructed)) <= 1e-12


def test_rotation_rejects_zero_interaction():
    with pytest.raises(ValueError, match="degenerate"):
        rotation_decomposition(ModelParams(omega_int=0.0), 0.1)


def test_thermal_spec_validation():
    for alpha in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            ThermalSpec(alpha=alpha)


def test_thermal_beta_a_sign():
    assert ThermalSpec(alpha=0.2).beta_A() < 0.0
    assert ThermalSpec(alpha=0.8).beta_A() > 0.0
    assert ThermalSpec(alpha=0.5).beta_A() == 0.0


def test_thermal_default_populations(params):
    p = input_populations(ThermalSpec(), params)
    # independent oracle: closed-form single-qubit populations
    p_a = np.array([0.2, 0.8])
    p_b = np.array([np.e / (1.0 + np.e), 1.0 / (1.0 + np.e)])
    assert p.dtype == float and p.shape == (4,)
    assert np.allclose(p, np.kron(p_a, p_b), atol=1e-14)


def test_thermal_default_marginals(params):
    p = input_populations(ThermalSpec(), params)
    assert p[2] + p[3] == pytest.approx(0.8, abs=1e-12)
    assert p[1] + p[3] == pytest.approx(1.0 / (1.0 + np.e), abs=1e-12)


def test_thermal_infinite_temperature_limit(params):
    p = input_populations(ThermalSpec(alpha=0.5, beta_B=0.0), params)
    assert op_distance(p, np.full(4, 0.25)) <= 1e-14


@ORACLE
@given(alpha=st.floats(1e-9, 1.0 - 1e-9), beta_B=DECADES, omega_L=DECADES)
@example(alpha=0.2, beta_B=0.5, omega_L=1.0)  # the default
@example(alpha=0.2, beta_B=0.5, omega_L=0.3)  # ModelParams(0.3, 7)
@example(alpha=0.2, beta_B=0.5, omega_L=2000.0)  # a target population underflows
@example(alpha=1e-9, beta_B=3.0, omega_L=1.0)
@example(alpha=0.2, beta_B=400.0, omega_L=2.0)  # beta_B omega_L > 709.78: shifted
@example(alpha=0.2, beta_B=1e300, omega_L=1.0)  # clipped
def test_input_populations_equal_the_diagonal_of_the_tensor_built_state(
    alpha, beta_B, omega_L
):
    # the product of the two 2-vectors keeps every bit of the diagonal of
    # the complex 4x4 rho_A (x) rho_B
    spec, p = ThermalSpec(alpha, beta_B), ModelParams(omega_L=omega_L)
    oracle = reference.initial_probs(reference.thermal_state(spec, p))
    assert input_populations(spec, p).tobytes() == oracle.tobytes()


def test_coherence_zero_for_diagonal():
    assert coherence_l1(np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)) == 0.0


def test_coherence_matches_closed_form(params, sweep_grid):
    for t in sweep_grid[::5]:
        prop = propagator_analytic(params, t)
        # oracle: build the evolved projector directly from the state vector
        psi = prop.U[:, 2]
        rho = np.outer(psi, psi.conj())
        assert coherence_l1(rho) == pytest.approx(
            2.0 * abs(prop.h1) * abs(prop.h2), abs=1e-12
        )


def test_coherence_value_at_quarter(params):
    prop = propagator_analytic(params, T_STAR)
    assert trajectory_coherence(prop.U) == pytest.approx(5.0 / 13.0, abs=1e-12)


def test_coherence_same_for_both_rotating_trajectories(params, sweep_grid):
    for t in sweep_grid[::10]:
        prop = propagator_analytic(params, t)
        assert abs(trajectory_coherence(prop.U, 2) - trajectory_coherence(prop.U, 3)) <= 1e-12


def test_coherence_stationary_points(params):
    def c_of(t):
        h1, h2 = h_coeffs(params, t)
        return 2.0 * abs(h1) * abs(h2)

    for k in (1, 2, 3):
        t_k = k * math.pi / math.sqrt(26.0)
        derivative = (c_of(t_k + 1e-5) - c_of(t_k - 1e-5)) / 2e-5
        assert abs(derivative) <= 1e-6


def test_gate_angle_zero(params):
    assert gate_angle(params, 0.0) == 0.0


def test_gate_angle_quarter(params):
    assert gate_angle(params, T_STAR) == pytest.approx(math.atan(5.0), abs=1e-12)


def test_gate_angle_range_and_identity(params, sweep_grid):
    for t in sweep_grid[::10]:
        gamma = gate_angle(params, t)
        assert 0.0 <= gamma <= math.pi / 2.0
        assert abs(math.cos(gamma) ** 2 + math.sin(gamma) ** 2 - 1.0) <= 1e-15
