import math

import numpy as np
import pytest

from gate_energetics.config import RunConfig
from gate_energetics.model import propagator_grid
from gate_energetics.photonic import (
    OpticalParams,
    compose_circuit,
    conditional_for_time,
    hwp_u,
    photonic_conditional_matrix,
    postselect,
    ppbs_transform,
)
from gate_energetics.tpm import (
    conditional_matrix,
    entropy_realizations,
    final_probs,
    joint_table_from_conditional,
)

from conftest import T_STAR, op_distance
from reference import (
    delta_e_distribution,
    gate_angle,
    h_coeffs,
    initial_probs,
    moments,
    success_probability,
    thermo_report,
)

CZ_OVER_3 = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex) / 3.0
SIGMA_Z_HV = np.diag([1.0, -1.0]).astype(complex)


def photonic_conditional(optical, p, t):
    """The table of ``conditional_for_time`` at one time, from the amplitudes of ``h_coeffs``."""
    h1, h2 = h_coeffs(p, t)
    return conditional_for_time(optical, abs(h1), abs(h2))[0]


def test_ppbs_identity_for_full_transmission():
    assert op_distance(ppbs_transform(1.0, 1.0), np.eye(4)) == 0.0


def test_ppbs_one_third_block():
    m = ppbs_transform(1.0, 1.0 / 3.0)
    assert m[1, 1] == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)
    assert m[1, 3] == pytest.approx(1j * math.sqrt(2.0 / 3.0), abs=1e-15)
    assert m[3, 1] == pytest.approx(1j * math.sqrt(2.0 / 3.0), abs=1e-15)
    assert m[3, 3] == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)


def test_ppbs_unitary():
    for t_h, t_v in ((1.0, 1.0 / 3.0), (0.985, 1.0 / 3.0), (0.5, 0.25)):
        m = ppbs_transform(t_h, t_v)
        assert op_distance(m.conj().T @ m, np.eye(4)) <= 1e-12


def test_hwp_at_zero():
    assert op_distance(hwp_u(0.0), SIGMA_Z_HV) == 0.0


def test_hwp_at_quarter_turn_is_flip():
    assert op_distance(hwp_u(math.pi / 2.0), np.array([[0, 1], [1, 0]])) <= 1e-15


def test_hwp_involution():
    for theta in (0.1, 0.3, 1.2):
        u = hwp_u(theta)
        assert op_distance(u @ u, np.eye(2)) <= 1e-15


def test_hwp_conjugation_doubles_angle():
    u = hwp_u(0.3)
    assert op_distance(u @ SIGMA_Z_HV @ u, hwp_u(0.6)) <= 1e-12


def test_compose_ideal_gamma0_attenuates_h():
    m = compose_circuit(OpticalParams(), 0.0)
    scale = 1.0 / math.sqrt(3.0)
    assert m[0, 0] == pytest.approx(scale, abs=1e-15)
    assert abs(m[2, 2]) == pytest.approx(scale, abs=1e-15)
    assert abs(m[1, 1]) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)


def test_compose_trivial_circuit_is_identity():
    params = OpticalParams(T_H=1.0, T_V=1.0, atten_H=1.0)
    assert op_distance(compose_circuit(params, 0.0), np.eye(4)) <= 1e-15


def test_compose_subunitary_with_attenuation():
    singular = np.linalg.svd(compose_circuit(OpticalParams(), 0.8), compute_uv=False)
    assert singular.max() <= 1.0 + 1e-12
    assert singular.min() < 1.0


def test_postselect_ideal_control_sigma_z():
    g = postselect(compose_circuit(OpticalParams(), 0.0))
    assert op_distance(3.0 * g, 3.0 * CZ_OVER_3) <= 1e-12
    assert np.allclose(success_probability(g), 1.0 / 9.0, atol=1e-12)


def test_postselect_bare_interferometer_is_control_sigma_z():
    # the beam splitter plus equalizers alone already post-select to the phase flip
    m = np.diag([1 / math.sqrt(3.0), 1.0, 1 / math.sqrt(3.0), 1.0]) @ ppbs_transform(1.0, 1.0 / 3.0)
    g = postselect(m)
    assert op_distance(3.0 * g, np.diag([1.0, 1.0, 1.0, -1.0])) <= 1e-12


def test_postselect_identity_transform():
    g = postselect(np.eye(4, dtype=complex))
    assert op_distance(g, np.eye(4)) == 0.0
    assert np.allclose(success_probability(g), 1.0, atol=1e-15)


def test_postselect_imperfect_transmission_amplitude():
    g = postselect(compose_circuit(OpticalParams(T_H=0.985), 0.0))
    # both-transmit minus both-reflect interference, scaled by the equalizers
    assert abs(g[0, 0]) == pytest.approx((2.0 * 0.985 - 1.0) / 3.0, abs=1e-12)


def test_conditional_matches_hamiltonian_model(params):
    optical = OpticalParams()
    t_max = 3.0 * math.pi / math.sqrt(26.0)
    worst = 0.0
    for t in np.linspace(0.0, t_max, 50):
        photonic_cond = photonic_conditional(optical, params, float(t))
        exact_cond = conditional_matrix(propagator_grid(params, [t])[2])[0]
        worst = max(worst, op_distance(photonic_cond, exact_cond))
    assert worst <= 1e-10


def test_conditional_uniform_at_full_background(params):
    g = postselect(compose_circuit(OpticalParams(), gate_angle(params, T_STAR)))
    cond, _ = photonic_conditional_matrix(g, 0.999999999)
    assert np.allclose(cond, 0.25, atol=1e-8)


def test_conditional_columns_sum_to_one(params):
    for optical in (
        OpticalParams(),
        OpticalParams(T_H=0.985),
        OpticalParams(T_H=0.9, T_V=0.4, atten_H=0.7, eps=0.1),
    ):
        cond = photonic_conditional(optical, params, 0.47)
        assert np.max(np.abs(cond.sum(axis=0) - 1.0)) <= 1e-12
        assert cond.min() >= 0.0


def test_a_blocked_input_has_zero_success_and_an_undefined_column(params):
    # with the H equalizers closed, a control photon in H never reaches a
    # coincidence: inputs 00 and 01 have success 0 and a NaN column.  The
    # photonic model only reports this; compare refuses such a gate (exit 2)
    h1, h2 = h_coeffs(params, T_STAR)
    cond, success = conditional_for_time(OpticalParams(atten_H=0.0), abs(h1), abs(h2))
    assert not success[:2].any() and (success[2:] > 0.0).all()
    assert np.isnan(cond[:, :2]).all() and np.isfinite(cond[:, 2:]).all()


# the smallest per-input success probability over the default grid
SMALLEST_SUCCESS = {
    "ideal": (OpticalParams(), 1.0 / 9.0, 1e-15),
    "T_H-0.985": (OpticalParams(T_H=0.985), 0.10454444, 5e-9),
    "lossy-asymmetric": (OpticalParams(T_H=0.9, T_V=0.4, atten_H=0.7), 0.04, 1e-15),
}


@pytest.mark.parametrize("name", sorted(SMALLEST_SUCCESS))
def test_smallest_success_over_the_default_grid(name):
    optical, expected, tol = SMALLEST_SUCCESS[name]
    cfg = RunConfig()
    h1, h2, _ = propagator_grid(cfg.model, cfg.time_grid())
    _, success = conditional_for_time(optical, h1, h2)
    assert success.shape == (cfg.n_points, 4)
    assert abs(success.min() - expected) <= tol


def test_imperfect_peak_transition_below_ideal(params):
    cond = photonic_conditional(OpticalParams(T_H=0.985), params, T_STAR)
    assert cond[3, 2] < 25.0 / 26.0


def test_imperfect_high_moment_reduced_at_peak(params, rho0):
    p_in = initial_probs(rho0)
    ideal = conditional_matrix(propagator_grid(params, [T_STAR])[2])[0]
    imperfect = photonic_conditional(OpticalParams(T_H=0.985), params, T_STAR)
    m5_ideal = moments(delta_e_distribution(joint_table_from_conditional(ideal, p_in)), 5)[4]
    m5_imp = moments(delta_e_distribution(joint_table_from_conditional(imperfect, p_in)), 5)[4]
    assert m5_imp < m5_ideal


def _imperfect_slack(params, p_in, t):
    cond = photonic_conditional(OpticalParams(T_H=0.985), params, t)
    j = joint_table_from_conditional(cond, p_in)
    sigma = entropy_realizations(p_in, final_probs(j))
    rep = thermo_report(j, sigma, beta=0.5)
    return rep.landauer_lhs - rep.ds_mean


@pytest.mark.xfail(
    strict=True,
    reason="the leaky gate produces entropy with no energy flow near the idle "
    "times (t ~ 0 and Delta t ~ pi), so the energy-entropy bound fails there; "
    "see the imperfect-pipeline note in the README",
)
def test_imperfect_landauer_slack_over_full_sweep(params, rho0, sweep_grid):
    p_in = initial_probs(rho0)
    assert all(_imperfect_slack(params, p_in, float(t)) >= -1e-12 for t in sweep_grid[::5])


def test_imperfect_landauer_slack_at_working_point(params, rho0):
    # at the transition peak the bound holds with a wide margin even for T_H = 0.985
    slack = _imperfect_slack(params, initial_probs(rho0), T_STAR)
    assert slack == pytest.approx(0.3126192247099001, abs=1e-9)
    assert slack > 0.3
