import math
import re

import numpy as np
import pytest
import scipy.stats

from gate_energetics import sweep, tpm
from gate_energetics.config import RunConfig
from gate_energetics.model import hamiltonians
from gate_energetics.sweep import NumericInvariantError, _require_defined_weights
from gate_energetics.tpm import (
    OUTCOME_ENERGIES,
    OUTCOME_LABELS,
    conditional_matrix,
    entropy_realizations,
    final_probs,
    joint_table_from_conditional,
)

from conftest import T_STAR, op_distance
from reference import (
    DiscreteDistribution,
    delta_e_distribution,
    entropy_distribution,
    evaluate_grid,
    initial_probs,
    joint_table,
    moments,
    projectors,
    propagator_analytic,
    thermo_report,
)

# frozen from the closed-form oracles:
#   p_in = (alpha, 1-alpha) (x) (e/(1+e), 1/(1+e)) at alpha = 0.2, beta_B = 1/2
#   block transition probability |h2|^2 = 25/26 at Delta t = pi/2
J_10_11 = 0.5623527527923118
J_11_10 = 0.2068780164384579
P_FIN_STAR = (0.14621171572600097, 0.05378828427399904, 0.22937212655015038, 0.5706278734498501)
SIGMA_10_11 = 0.024612753194574122
SIGMA_11_10 = -0.06399565127886597
DS_MEAN_STAR = 0.013584893845524686


def random_unitary(rng, n=4):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return q


def test_outcome_labels():
    assert OUTCOME_LABELS == ("00", "01", "10", "11")
    assert OUTCOME_ENERGIES.tolist() == [-2, 0, 0, 2]
    # outcome m = 2 psi_A + phi_B carries eps(psi_A) + eps(phi_B), eps(b) = 2b - 1
    for m, label in enumerate(OUTCOME_LABELS):
        psi_a, phi_b = divmod(m, 2)
        assert label == f"{psi_a}{phi_b}"
        assert OUTCOME_ENERGIES[m] == (2 * psi_a - 1) + (2 * phi_b - 1)


def test_equal_energy_outcomes_stay_distinguishable():
    assert OUTCOME_ENERGIES[1] == OUTCOME_ENERGIES[2]
    assert OUTCOME_LABELS[1] != OUTCOME_LABELS[2]


def test_projectors_complete_and_orthogonal():
    pis = projectors()
    assert op_distance(sum(pis), np.eye(4)) == 0.0
    for i, a in enumerate(pis):
        assert np.linalg.matrix_rank(a) == 1
        for j, b in enumerate(pis):
            expected = a if i == j else np.zeros((4, 4))
            assert op_distance(a @ b, expected) == 0.0


def test_projector_energy_contraction(params):
    h_local, _, _ = hamiltonians(params)
    assert abs(np.trace(projectors()[2] @ h_local)) <= 1e-15


def test_initial_probs_uniform():
    assert np.allclose(initial_probs(np.eye(4) / 4), np.full(4, 0.25), atol=1e-15)


def test_initial_probs_thermal(rho0):
    expected = np.kron([0.2, 0.8], [np.e / (1 + np.e), 1 / (1 + np.e)])
    assert np.allclose(initial_probs(rho0), expected, atol=1e-14)


def test_initial_probs_ignore_coherences(rho0):
    coherent = rho0.copy()
    coherent[0, 3] = coherent[3, 0] = 0.05
    assert np.array_equal(initial_probs(coherent), initial_probs(rho0))


def test_conditional_identity_at_zero(params):
    cond = conditional_matrix(propagator_analytic(params, 0.0).U)
    assert op_distance(cond, np.eye(4)) <= 1e-15


def test_conditional_block_values_quarter(params):
    cond = conditional_matrix(propagator_analytic(params, T_STAR).U)
    assert cond[2, 2] == pytest.approx(1.0 / 26.0, abs=1e-12)
    assert cond[3, 2] == pytest.approx(25.0 / 26.0, abs=1e-12)
    assert cond[2, 3] == pytest.approx(25.0 / 26.0, abs=1e-12)
    assert cond[3, 3] == pytest.approx(1.0 / 26.0, abs=1e-12)


def test_conditional_control_preserving_rows(params, sweep_grid):
    for t in sweep_grid[::5]:
        cond = conditional_matrix(propagator_analytic(params, t).U)
        for k in (0, 1):
            assert abs(cond[k, k] - 1.0) <= 1e-14
            assert np.all(np.delete(cond[k, :], k) == 0.0)
            assert np.all(np.delete(cond[:, k], k) == 0.0)


def test_conditional_doubly_stochastic_for_random_unitaries():
    rng = np.random.default_rng(21)
    for _ in range(25):
        cond = conditional_matrix(random_unitary(rng))
        assert np.max(np.abs(cond.sum(axis=0) - 1.0)) <= 1e-10
        assert np.max(np.abs(cond.sum(axis=1) - 1.0)) <= 1e-10


def test_conditional_rejects_non_unitary(monkeypatch):
    # conditional_matrix trusts U: the grid path's double-stochasticity gate
    # stops a propagator whose norms are off, naming its time
    cfg = RunConfig(n_points=3)
    times = cfg.time_grid()
    u = np.stack([np.eye(4, dtype=complex)] * 3)
    u[1] = np.diag([1.0, 1.0, 1.0, 0.9])
    monkeypatch.setattr(sweep, "propagator_grid", lambda p, t: (np.zeros(3), np.zeros(3), u))
    message = re.escape(f"conditional table at omega_L_t={times[1]:.6g}: a row or column sum")
    with pytest.raises(NumericInvariantError, match=message):
        evaluate_grid(cfg, times)


def test_joint_diagonal_at_zero(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, 0.0).U)
    assert np.allclose(np.diag(j), initial_probs(rho0), atol=1e-14)
    assert np.all(j[~np.eye(4, dtype=bool)] == 0.0)


def test_joint_values_quarter(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    assert j[2, 3] == pytest.approx(J_10_11, abs=1e-12)
    assert j[3, 2] == pytest.approx(J_11_10, abs=1e-12)


def test_joint_matches_projector_sandwich(params, rho0):
    # independent oracle: the literal two-measurement construction
    pis = projectors()
    for t in (0.17, 0.31, T_STAR, 1.1):
        u = propagator_analytic(params, t).U
        j = joint_table(rho0, u)
        for n, pi_in in enumerate(pis):
            collapsed = pi_in @ rho0 @ pi_in
            evolved = u @ collapsed @ u.conj().T
            for m, pi_fin in enumerate(pis):
                assert j[n, m] == pytest.approx(np.trace(pi_fin @ evolved).real, abs=1e-14)


def test_joint_row_marginals(params, rho0, sweep_grid):
    p_in = initial_probs(rho0)
    for t in sweep_grid[::10]:
        j = joint_table(rho0, propagator_analytic(params, t).U)
        assert np.max(np.abs(j.sum(axis=1) - p_in)) <= 1e-12


def test_final_probs_at_zero(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, 0.0).U)
    assert np.allclose(final_probs(j), initial_probs(rho0), atol=1e-14)


def test_final_probs_quarter(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    assert np.allclose(final_probs(j), P_FIN_STAR, atol=1e-12)


def test_final_probs_control_sector_constant(params, rho0, sweep_grid):
    p_in = initial_probs(rho0)
    for t in sweep_grid[::10]:
        p_fin = final_probs(joint_table(rho0, propagator_analytic(params, t).U))
        assert abs(p_fin[0] - p_in[0]) <= 1e-12
        assert abs(p_fin[1] - p_in[1]) <= 1e-12


def test_delta_e_point_mass_at_zero_time(params, rho0):
    d = delta_e_distribution(joint_table(rho0, propagator_analytic(params, 0.0).U))
    assert np.array_equal(d.values, [0.0])
    assert d.probs[0] == pytest.approx(1.0, abs=1e-14)


def test_delta_e_quarter(params, rho0):
    d = delta_e_distribution(joint_table(rho0, propagator_analytic(params, T_STAR).U))
    assert np.array_equal(d.values, [-2.0, 0.0, 2.0])
    assert np.allclose(d.probs, [J_11_10, 0.2307692307692308, J_10_11], atol=1e-12)


def test_delta_e_right_tail_dominates(params, rho0, sweep_grid):
    # p_in(10) > p_in(11) tilts the energy flow upward whenever |h2| > 0
    for t in sweep_grid[1::20]:
        d = delta_e_distribution(joint_table(rho0, propagator_analytic(params, t).U))
        up = d.probs[d.values == 2.0].sum()
        down = d.probs[d.values == -2.0].sum()
        assert up > down


def test_delta_e_support_with_mixing(params, rho0, sweep_grid):
    for t in sweep_grid[::10]:
        prop = propagator_analytic(params, t)
        d = delta_e_distribution(joint_table(rho0, prop.U))
        if abs(prop.h2) > 1e-8:
            assert np.array_equal(d.values, [-2.0, 0.0, 2.0])
        else:
            assert np.array_equal(d.values, [0.0])


def test_distribution_atoms_merge_within_tolerance():
    d = DiscreteDistribution.from_atoms([1.0, 1.0 + 5e-13, 2.0], [0.25, 0.25, 0.5])
    assert len(d.values) == 2
    assert d.probs[0] == pytest.approx(0.5, abs=1e-15)


def test_entropy_realizations_diagonal_zero_at_t0(params, rho0):
    p_in = initial_probs(rho0)
    p_fin = final_probs(joint_table(rho0, propagator_analytic(params, 0.0).U))
    sigma = entropy_realizations(p_in, p_fin)
    assert np.max(np.abs(np.diag(sigma))) <= 1e-14


def test_entropy_realizations_quarter(params, rho0):
    p_in = initial_probs(rho0)
    p_fin = final_probs(joint_table(rho0, propagator_analytic(params, T_STAR).U))
    sigma = entropy_realizations(p_in, p_fin)
    assert sigma[2, 3] == pytest.approx(SIGMA_10_11, abs=1e-12)
    assert sigma[3, 2] == pytest.approx(SIGMA_11_10, abs=1e-12)


def test_entropy_realizations_undefined_entries():
    p_pure = np.array([1.0, 0.0, 0.0, 0.0])
    sigma = entropy_realizations(p_pure, p_pure)
    assert np.isnan(sigma[1:, :]).all()
    assert np.isnan(sigma[:, 1:]).all()
    assert sigma[0, 0] == 0.0


def test_entropy_realizations_constancy_pattern(params, rho0, sweep_grid):
    # the 8 realizations ending in the control-preserving outcomes are flat in t
    p_in = initial_probs(rho0)
    stack = np.array(
        [
            entropy_realizations(
                p_in, final_probs(joint_table(rho0, propagator_analytic(params, t).U))
            )
            for t in sweep_grid[::10]
        ]
    )
    spread = stack.max(axis=0) - stack.min(axis=0)
    assert np.all(spread[:, :2] <= 1e-12)
    assert np.all(spread[:, 2:] > 1e-3)


def test_entropy_distribution_point_mass_at_zero_time(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, 0.0).U)
    sigma = entropy_realizations(initial_probs(rho0), final_probs(j))
    d = entropy_distribution(j, sigma)
    assert np.array_equal(d.values, [0.0])
    assert d.probs[0] == pytest.approx(1.0, abs=1e-14)


def test_entropy_distribution_mean_quarter(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    sigma = entropy_realizations(initial_probs(rho0), final_probs(j))
    d = entropy_distribution(j, sigma)
    assert d.mean == pytest.approx(DS_MEAN_STAR, abs=1e-12)


def test_entropy_mean_equals_shannon_difference(params, rho0, sweep_grid):
    # independent oracle: <dsigma> = H(p_fin) - H(p_in) for this construction
    p_in = initial_probs(rho0)
    for t in sweep_grid[::10]:
        j = joint_table(rho0, propagator_analytic(params, t).U)
        p_fin = final_probs(j)
        d = entropy_distribution(j, entropy_realizations(p_in, p_fin))
        expected = scipy.stats.entropy(p_fin) - scipy.stats.entropy(p_in)
        assert d.mean == pytest.approx(expected, abs=1e-12)


def test_entropy_distribution_rejects_weight_on_undefined():
    # the statistics leave NaN realizations out, so a table that puts weight
    # on one, however small, is refused by the gate the grid path runs before
    # any statistic
    sigma = np.zeros((1, 4, 4))
    sigma[0, 0, 0] = np.nan
    for weight in (1.0 / 16.0, 1e-300):
        j = np.full((1, 4, 4), 1.0 / 16.0)
        j[0, 0, 0] = weight
        with pytest.raises(NumericInvariantError, match="undefined"):
            _require_defined_weights(j, sigma, np.zeros(1))
    j[0, 0, 0] = 0.0
    _require_defined_weights(j, sigma, np.zeros(1))


@pytest.mark.parametrize("ds_mean, defined", [
    (1e-7, True), (-1e-7, True), (1e-10, False), (-1e-10, False), (0.0, False),
])
def test_ratio_guard(ds_mean, defined):
    # the ratio <dE>/<dsigma> is written only where |<dsigma>| > RATIO_GUARD
    j = np.zeros((1, 4, 4))
    j[0, 0, 0] = 1.0
    sigma = np.full((1, 4, 4), ds_mean)
    report = tpm.thermo_report_grid(j, sigma, 0.5, np.array([2.0]), np.ones(1))
    assert report.ds_mean[0] == ds_mean
    if defined:
        assert report.ratio[0] == 2.0 / ds_mean
    else:
        assert np.isnan(report.ratio[0])


def test_moments_zero_at_t0(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, 0.0).U)
    sigma = entropy_realizations(initial_probs(rho0), final_probs(j))
    assert np.allclose(moments(delta_e_distribution(j), 5), 0.0, atol=1e-14)
    assert np.allclose(moments(entropy_distribution(j, sigma), 5), 0.0, atol=1e-14)


def test_moments_closed_forms_quarter(params, rho0):
    p_in = initial_probs(rho0)
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    got = moments(delta_e_distribution(j), 5)
    h2_sq = 25.0 / 26.0
    # <dE^h> = 2^h |h2|^2 (p10 + (-1)^h p11): only the block transitions move energy
    for h in range(1, 6):
        expected = 2.0**h * h2_sq * (p_in[2] + (-1) ** h * p_in[3])
        assert got[h - 1] == pytest.approx(expected, abs=1e-12)


def test_moments_peak_tracks_mixing_probability(params, rho0, sweep_grid):
    table = []
    h2_sq = []
    for t in sweep_grid:
        prop = propagator_analytic(params, t)
        table.append(moments(delta_e_distribution(joint_table(rho0, prop.U)), 5))
        h2_sq.append(abs(prop.h2) ** 2)
    table = np.array(table)
    idx = int(np.argmax(h2_sq))
    for h in range(5):
        assert int(np.argmax(table[:, h])) == idx


def _report_at(params, rho0, t, beta=0.5):
    j = joint_table(rho0, propagator_analytic(params, t).U)
    sigma = entropy_realizations(initial_probs(rho0), final_probs(j))
    return thermo_report(j, sigma, beta)


def test_thermo_report_at_zero(params, rho0):
    rep = _report_at(params, rho0, 0.0)
    assert rep.ift == pytest.approx(1.0, abs=1e-12)
    assert rep.landauer_slack == pytest.approx(0.0, abs=1e-14)
    assert math.isnan(rep.ratio)


def test_thermo_ift_unit_over_sweep(params, rho0, sweep_grid):
    for t in sweep_grid[::5]:
        assert abs(_report_at(params, rho0, t).ift - 1.0) <= 1e-10


def test_thermo_entropy_non_negative_over_sweep(params, rho0, sweep_grid):
    for t in sweep_grid[::5]:
        assert _report_at(params, rho0, t).ds_mean >= -1e-12


def test_thermo_landauer_over_sweep(params, rho0, sweep_grid):
    for t in sweep_grid[::5]:
        assert _report_at(params, rho0, t).landauer_slack >= -1e-12


def test_thermo_values_quarter(params, rho0):
    rep = _report_at(params, rho0, T_STAR)
    assert rep.de_mean == pytest.approx(0.7109494727077077, abs=1e-12)
    assert rep.ds_mean == pytest.approx(DS_MEAN_STAR, abs=1e-12)
    assert rep.landauer_slack == pytest.approx(0.34188984250832916, abs=1e-9)
    assert rep.ratio == pytest.approx(52.333826144833516, abs=1e-6)


@pytest.mark.parametrize("beta, lhs", [(1e308, [np.inf, 0.0]), (np.inf, [np.inf, np.nan])])
def test_an_overflowing_landauer_lhs_is_not_finite_without_a_warning(beta, lhs):
    # beta_B * omega_L may overflow, or beta <dE> may; every warning is an error here
    j = np.zeros((2, 4, 4))
    j[:, 3, 3] = 1.0
    report = tpm.thermo_report_grid(j, np.zeros((2, 4, 4)), beta, np.array([2.0, 0.0]), np.ones(2))
    np.testing.assert_array_equal(report.landauer_lhs, lhs)


def test_joint_from_conditional_shape_checks():
    with pytest.raises(ValueError):
        joint_table_from_conditional(np.eye(3), np.full(4, 0.25))


def test_energy_change_supports_full_range():
    # a control-flipping conditional model reaches dE = +-4
    cond = np.zeros((4, 4))
    cond[3, 0] = 1.0
    cond[0, 3] = 1.0
    cond[1, 1] = cond[2, 2] = 1.0
    j = joint_table_from_conditional(cond, np.full(4, 0.25))
    d = delta_e_distribution(j)
    assert np.array_equal(d.values, [-4.0, 0.0, 4.0])
    assert OUTCOME_ENERGIES[3] - OUTCOME_ENERGIES[0] == 4.0
