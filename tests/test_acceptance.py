"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Expected numbers marked "frozen" were computed once from the
independent closed-form oracles in this file and pinned.
"""

import math

import numpy as np

from gate_energetics.config import RunConfig
from gate_energetics.linalg import expm_hermitian
from gate_energetics.model import (
    ModelParams,
    ThermalSpec,
    hamiltonians,
    propagator_grid,
    trajectory_coherence,
)
from gate_energetics.photonic import (
    OpticalParams,
    compose_circuit,
    conditional_for_time,
    postselect,
)
from gate_energetics.sampler import SampleConfig, sample_tpm
from gate_energetics.sweep import run_compare
from gate_energetics.tpm import (
    conditional_matrix,
    entropy_realizations,
    final_probs,
    joint_table_from_conditional,
)

from conftest import op_distance
from reference import (
    delta_e_distribution,
    h_coeffs,
    initial_probs,
    joint_table,
    moments,
    propagator_analytic,
    thermal_state,
    success_probability,
    thermo_report,
    tv_distance,
)

PARAMS = ModelParams()
RHO0 = thermal_state(ThermalSpec(), PARAMS)
P_IN = initial_probs(RHO0)
BETA = 0.5
T_STAR = math.pi / math.sqrt(26.0)
GRID = RunConfig().time_grid()
STEP = float(GRID[1] - GRID[0])

# frozen closed-form oracle values (alpha = 0.2, beta_B = 1/2, omega_int = 5):
# de_mean peak = 2 |h2|^2 (p10 - p11) with |h2|^2 = 25/26 at Delta t = pi/2
DE_MEAN_PEAK = 0.7109494727077077
DE_ATOMS_PEAK = (0.2068780164384579, 0.2307692307692308, 0.5623527527923118)


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def points_on(grid):
    for t in grid:
        j = joint_table(RHO0, propagator_analytic(PARAMS, float(t)).U)
        sigma = entropy_realizations(P_IN, final_probs(j))
        yield float(t), j, sigma


def test_c01_oracle_equivalence():
    _, _, h_tot = hamiltonians(PARAMS)
    worst = max(
        op_distance(propagator_analytic(PARAMS, float(t)).U, expm_hermitian(h_tot, -float(t)))
        for t in GRID
    )
    report(1, "oracle-equivalence", worst <= 1e-10, f"max entry diff {worst:.3e}")


def test_c02_trajectory_normalization():
    worst = max(
        abs(abs(h1) ** 2 + abs(h2) ** 2 - 1.0)
        for h1, h2 in (h_coeffs(PARAMS, float(t)) for t in GRID)
    )
    report(2, "trajectory-normalization", worst <= 1e-12, f"max |norm - 1| {worst:.3e}")


def test_c03_conditional_structure():
    unit_rows_ok = True
    worst_sum = 0.0
    for cond in conditional_matrix(propagator_grid(PARAMS, GRID)[2]):
        for k in (0, 1):
            unit_rows_ok &= abs(cond[k, k] - 1.0) <= 1e-14
            unit_rows_ok &= bool(np.all(np.delete(cond[k, :], k) == 0.0))
            unit_rows_ok &= bool(np.all(np.delete(cond[:, k], k) == 0.0))
        worst_sum = max(
            worst_sum,
            np.max(np.abs(cond.sum(axis=0) - 1.0)),
            np.max(np.abs(cond.sum(axis=1) - 1.0)),
        )
    report(
        3,
        "conditional-structure",
        unit_rows_ok and worst_sum <= 1e-10,
        f"unit rows {unit_rows_ok}, max stochasticity defect {worst_sum:.3e}",
    )


def test_c04_peak_location_and_value():
    de_means = []
    h2_sq = []
    for t, j, sigma in points_on(GRID):
        de_means.append(delta_e_distribution(j).mean)
        h2_sq.append(abs(h_coeffs(PARAMS, t)[1]) ** 2)
    t_de = float(GRID[int(np.argmax(de_means))])
    t_h2 = float(GRID[int(np.argmax(h2_sq))])
    location_ok = abs(t_de - T_STAR) <= STEP and abs(t_h2 - T_STAR) <= STEP

    # peak value against the closed-form oracle 2 |h2|^2 (p10 - p11)
    pipeline_peak = delta_e_distribution(
        joint_table(RHO0, propagator_analytic(PARAMS, T_STAR).U)
    ).mean
    h2_peak = abs(h_coeffs(PARAMS, T_STAR)[1]) ** 2
    oracle_peak = 2.0 * h2_peak * (P_IN[2] - P_IN[3])
    value_ok = (
        abs(pipeline_peak - oracle_peak) <= 1e-6
        and abs(pipeline_peak - DE_MEAN_PEAK) <= 1e-6
    )
    report(
        4,
        "peak-location",
        location_ok and value_ok,
        f"argmax at {t_de:.4f} (target {T_STAR:.4f} +- {STEP:.4f}), "
        f"peak {pipeline_peak:.9f} vs oracle {oracle_peak:.9f}",
    )


def test_c05_fluctuation_theorem():
    worst_ift = 0.0
    worst_ds = math.inf
    for t, j, sigma in points_on(GRID):
        rep = thermo_report(j, sigma, BETA)
        worst_ift = max(worst_ift, abs(rep.ift - 1.0))
        worst_ds = min(worst_ds, rep.ds_mean)
    report(
        5,
        "fluctuation-theorem",
        worst_ift <= 1e-10 and worst_ds >= -1e-12,
        f"max |<e^-ds> - 1| {worst_ift:.3e}, min <ds> {worst_ds:.3e}",
    )


def test_c06_landauer_bound():
    worst_slack = math.inf
    for t, j, sigma in points_on(GRID):
        rep = thermo_report(j, sigma, BETA)
        worst_slack = min(worst_slack, rep.landauer_lhs - rep.ds_mean)
    j_peak = joint_table(RHO0, propagator_analytic(PARAMS, T_STAR).U)
    ds_peak = thermo_report(
        j_peak, entropy_realizations(P_IN, final_probs(j_peak)), BETA
    ).ds_mean
    report(
        6,
        "landauer-bound",
        worst_slack >= -1e-12 and ds_peak <= 0.02,
        f"min slack {worst_slack:.3e}, <ds> at peak {ds_peak:.4f}",
    )


def test_c07_realization_structure():
    stack = np.array([sigma for _, _, sigma in points_on(GRID)])
    spread = stack.max(axis=0) - stack.min(axis=0)
    constant = spread <= 1e-12
    eight_constant = (
        int(constant.sum()) == 8
        and bool(np.all(constant[:, :2]))
        and not np.any(constant[:, 2:])
    )
    zero_diag = float(np.max(np.abs(stack[:, 0, 0])))
    report(
        7,
        "realization-structure",
        eight_constant and zero_diag <= 1e-14,
        f"{int(constant.sum())} constant realizations, |dsigma(00->00)| <= {zero_diag:.3e}",
    )


def test_c08_coherence():
    h1, h2, u = propagator_grid(PARAMS, GRID)
    worst = float(np.max(np.abs(trajectory_coherence(u) - 2.0 * h1 * h2)))
    closed_form_ok = worst <= 1e-12

    def c_of(t):
        h1, h2 = h_coeffs(PARAMS, t)
        return 2.0 * abs(h1) * abs(h2)

    derivatives = [
        abs(c_of(k * T_STAR + 1e-5) - c_of(k * T_STAR - 1e-5)) / 2e-5 for k in (1, 2, 3)
    ]
    stationary_ok = max(derivatives) <= 1e-6
    value = trajectory_coherence(propagator_grid(PARAMS, [T_STAR])[2])[0]
    value_ok = abs(value - 5.0 / 13.0) <= 1e-12
    report(
        8,
        "coherence",
        closed_form_ok and stationary_ok and value_ok,
        f"max closed-form diff {worst:.3e}, max |dC/dt| {max(derivatives):.3e}, "
        f"C(t*) = {value:.9f}",
    )


def test_c09_photonic_ideal_gate():
    g = postselect(compose_circuit(OpticalParams(), 0.0))
    gate_ok = op_distance(3.0 * g, np.diag([1.0, 1.0, 1.0, -1.0])) <= 1e-12
    success_ok = bool(np.all(np.abs(success_probability(g) - 1.0 / 9.0) <= 1e-12))
    times = RunConfig(n_points=50).time_grid()
    h1, h2, u = propagator_grid(PARAMS, times)
    worst = op_distance(conditional_for_time(OpticalParams(), h1, h2)[0], conditional_matrix(u))
    report(
        9,
        "photonic-ideal-gate",
        gate_ok and success_ok and worst <= 1e-10,
        f"|3G - CZ| ok {gate_ok}, success 1/9 ok {success_ok}, "
        f"max conditional diff {worst:.3e}",
    )


def test_c10_photonic_imperfection():
    ideal = conditional_matrix(propagator_grid(PARAMS, [T_STAR])[2])[0]
    h1, h2 = h_coeffs(PARAMS, T_STAR)
    imperfect, _ = conditional_for_time(OpticalParams(T_H=0.985), abs(h1), abs(h2))
    m5_ideal = moments(delta_e_distribution(joint_table_from_conditional(ideal, P_IN)), 5)[4]
    m5_imp = moments(delta_e_distribution(joint_table_from_conditional(imperfect, P_IN)), 5)[4]
    report(
        10,
        "photonic-imperfection",
        m5_imp < m5_ideal,
        f"5th moment {m5_imp:.6f} < ideal {m5_ideal:.6f}",
    )


def test_c11_monte_carlo_convergence(tmp_path):
    prop = propagator_analytic(PARAMS, T_STAR)
    j = joint_table(RHO0, prop.U)
    counts = sample_tpm(j, np.random.default_rng(42), SampleConfig(10**6))
    tv, max_cell = tv_distance(counts, 10**6, j)
    sampling_ok = max_cell <= 0.005 and tv <= 0.01

    cfg = RunConfig(n_points=5, samples=10**6)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    path_a = run_compare(cfg, out_a)["mc_error"]
    path_b = run_compare(cfg, out_b)["mc_error"]
    rerun_ok = path_a.read_bytes() == path_b.read_bytes()
    report(
        11,
        "monte-carlo-convergence",
        sampling_ok and rerun_ok,
        f"max cell err {max_cell:.5f}, tv {tv:.5f}, byte-identical rerun {rerun_ok}",
    )


def test_c12_distribution_shape():
    dist = delta_e_distribution(joint_table(RHO0, propagator_analytic(PARAMS, T_STAR).U))
    support_ok = np.array_equal(dist.values, [-2.0, 0.0, 2.0])
    frozen_ok = bool(np.all(np.abs(dist.probs - DE_ATOMS_PEAK) <= 1e-9))
    rounded_ok = bool(np.all(np.abs(dist.probs - (0.2069, 0.2308, 0.5624)) <= 1e-3))
    skew_ok = dist.probs[2] > dist.probs[0]
    report(
        12,
        "distribution-shape",
        support_ok and frozen_ok and rounded_ok and skew_ok,
        f"atoms {np.round(dist.probs, 5).tolist()} on {dist.values.tolist()}, "
        f"right tail dominates {skew_ok}",
    )
