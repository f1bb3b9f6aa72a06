import numpy as np
import pytest
import scipy.stats

from gate_energetics.linalg import PROB_SUM_TOL
from gate_energetics.sampler import SampleConfig, sample_tpm
from gate_energetics.sweep import NumericInvariantError, _require_prob_group

from conftest import T_STAR
from reference import (
    delta_e_distribution,
    initial_probs,
    joint_table,
    moments,
    propagator_analytic,
    tv_distance,
)

J_10_11 = 0.5623527527923118


def test_all_counts_diagonal_at_zero_time(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, 0.0).U)
    counts = sample_tpm(j, np.random.default_rng(7), SampleConfig(10_000))
    assert counts.shape == j.shape
    assert counts.sum() == 10_000
    assert np.trace(counts) == 10_000


def test_same_seed_same_counts(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    cfg = SampleConfig(50_000)
    a = sample_tpm(j, np.random.default_rng(42), cfg)
    b = sample_tpm(j, np.random.default_rng(42), cfg)
    assert np.array_equal(a, b)


def test_different_seeds_differ(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    a = sample_tpm(j, np.random.default_rng(1), SampleConfig(50_000))
    b = sample_tpm(j, np.random.default_rng(2), SampleConfig(50_000))
    assert not np.array_equal(a, b)


def test_trillion_shot_run_is_deterministic(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, 0.4).U)
    cfg = SampleConfig(10**12 + 12_345)
    a = sample_tpm(j, np.random.default_rng(11), cfg)
    b = sample_tpm(j, np.random.default_rng(11), cfg)
    assert a.sum() == cfg.n_samples
    assert np.array_equal(a, b)


def test_million_shot_convergence(params, rho0):
    prop = propagator_analytic(params, T_STAR)
    j = joint_table(rho0, prop.U)
    counts = sample_tpm(j, np.random.default_rng(42), SampleConfig(10**6))
    assert abs(counts[2, 3] / 10**6 - J_10_11) <= 0.005
    tv, max_cell = tv_distance(counts, 10**6, j)
    assert max_cell <= 0.005
    assert tv <= 0.01


def test_row_marginals_converge(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    p_in = initial_probs(rho0)
    for n in (10**4, 10**5, 10**6):
        counts = sample_tpm(j, np.random.default_rng(42), SampleConfig(n))
        err = np.max(np.abs(counts.sum(axis=1) / n - p_in))
        assert err <= 5.0 * np.sqrt(0.25 / n)


def test_ten_million_shot_concentration(params, rho0):
    prop = propagator_analytic(params, T_STAR)
    j = joint_table(rho0, prop.U)
    counts = sample_tpm(j, np.random.default_rng(42), SampleConfig(10**7))
    assert tv_distance(counts, 10**7, j).max_cell <= 0.002


def test_two_stage_matches_joint_chi_square(params, rho0):
    # goodness-of-fit of the sampled counts against the exact joint table
    n = 10**5
    prop = propagator_analytic(params, T_STAR)
    j = joint_table(rho0, prop.U)
    counts = sample_tpm(j, np.random.default_rng(42), SampleConfig(n))
    support = j > 0
    expected = n * j[support]
    statistic = float((((counts[support] - expected) ** 2) / expected).sum())
    quantile = scipy.stats.chi2.ppf(0.999, int(support.sum()) - 1)
    assert statistic < quantile


def test_draws_depend_on_the_table_only_up_to_its_scale(params, rho0, sweep_grid):
    # sample_tpm renormalises each row of the stack, and halving is exact, so
    # the halved tables draw the same pvals, and the same counts, from a seed
    j = np.stack([joint_table(rho0, propagator_analytic(params, t).U) for t in sweep_grid[::20]])
    cfg = SampleConfig(10**6)
    for seed in range(5):
        halved = sample_tpm(0.5 * j, np.random.default_rng(seed), cfg=cfg)
        assert np.array_equal(halved, sample_tpm(j, np.random.default_rng(seed), cfg=cfg))


def _at_the_joint_gate_edge(j: np.ndarray) -> np.ndarray:
    """``j`` scaled as far past a sum of 1 as the joint gate of sweep allows."""
    scale = 1.0 + PROB_SUM_TOL
    while True:
        try:
            _require_prob_group(scale * j[None], "joint table", np.zeros(1))
            return scale * j
        except NumericInvariantError:
            scale = np.nextafter(scale, 0.0)


def test_tables_at_the_joint_gate_edge_draw(params, rho0):
    # the joint gate lets a cell exceed 1, and a sum exceed 1, by PROB_SUM_TOL;
    # numpy's multinomial rejects any pval above 1, so only the row
    # renormalisation lets the point mass draw
    point_mass = np.zeros((4, 4))
    point_mass[0, 0] = 1.0
    peak = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    peak[3, 2] += peak[3, 3]  # the last cell empty: the sum is all in pvals[:-1]
    peak[3, 3] = 0.0
    n = 10**6
    for j in (point_mass, peak):
        edge = _at_the_joint_gate_edge(j)
        assert edge.sum() - 1.0 > 0.99 * PROB_SUM_TOL
        counts = sample_tpm(edge, np.random.default_rng(3), cfg=SampleConfig(n))
        assert counts.sum() == n
        assert (counts[edge == 0.0] == 0).all()


def test_tv_distance_of_rounded_exact_table(params, rho0):
    n = 10**6
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    assert tv_distance(np.rint(j * n).astype(np.int64), n, j).tv <= 1e-5


def test_tv_distance_disjoint_supports():
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 0] = 100
    j = np.zeros((4, 4))
    j[1, 1] = 1.0
    assert tv_distance(counts, 100, j).tv == pytest.approx(1.0)


def test_tv_distance_rejects_empty_table():
    with pytest.raises(ValueError, match="no samples"):
        tv_distance(np.zeros((4, 4), dtype=np.int64), 0, np.eye(4) / 4)


def test_sampled_moment_error_grows_with_order(params, rho0):
    # at the transition peak the 5th moment amplifies the sampling noise
    n = 10**6
    prop = propagator_analytic(params, T_STAR)
    j = joint_table(rho0, prop.U)
    exact = moments(delta_e_distribution(j), 5)
    freq = sample_tpm(j, np.random.default_rng(123), SampleConfig(n)) / n
    sampled = moments(delta_e_distribution(freq), 5)
    errors = np.abs(exact - sampled)
    assert errors[4] >= errors[0]
