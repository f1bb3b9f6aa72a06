import numpy as np
import pytest
import scipy.stats

from gate_energetics.sampler import EmpiricalTable, SampleConfig, sample_tpm
from gate_energetics.tpm import initial_probs

from conftest import T_STAR
from reference import (
    delta_e_distribution,
    joint_table,
    moments,
    propagator_analytic,
    tv_distance,
)

J_10_11 = 0.5623527527923118


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(n_samples=0)
    with pytest.raises(ValueError):
        SampleConfig(n_samples=2**63)
    with pytest.raises(ValueError):
        SampleConfig(seed=-1)
    with pytest.raises(ValueError):
        SampleConfig(seed=2**64)


def test_all_counts_diagonal_at_zero_time(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, 0.0).U)
    table = sample_tpm(j, np.random.default_rng(7), SampleConfig(10_000, 7))
    assert table.n == 10_000
    assert table.counts.sum() == 10_000
    assert np.trace(table.counts) == 10_000


def test_same_seed_same_counts(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    cfg = SampleConfig(50_000, 42)
    a = sample_tpm(j, np.random.default_rng(cfg.seed), cfg)
    b = sample_tpm(j, np.random.default_rng(cfg.seed), cfg)
    assert np.array_equal(a.counts, b.counts)


def test_different_seeds_differ(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    a = sample_tpm(j, np.random.default_rng(1), SampleConfig(50_000, 1))
    b = sample_tpm(j, np.random.default_rng(2), SampleConfig(50_000, 2))
    assert not np.array_equal(a.counts, b.counts)


def test_trillion_shot_run_is_deterministic(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, 0.4).U)
    cfg = SampleConfig(10**12 + 12_345, 11)
    a = sample_tpm(j, np.random.default_rng(cfg.seed), cfg)
    b = sample_tpm(j, np.random.default_rng(cfg.seed), cfg)
    assert a.counts.sum() == cfg.n_samples
    assert np.array_equal(a.counts, b.counts)


def test_million_shot_convergence(params, rho0):
    prop = propagator_analytic(params, T_STAR)
    j = joint_table(rho0, prop.U)
    table = sample_tpm(j, np.random.default_rng(42), SampleConfig(10**6, 42))
    assert abs(table.frequencies[2, 3] - J_10_11) <= 0.005
    tv, max_cell = tv_distance(table, j)
    assert max_cell <= 0.005
    assert tv <= 0.01


def test_row_marginals_converge(params, rho0):
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    p_in = initial_probs(rho0)
    for n in (10**4, 10**5, 10**6):
        table = sample_tpm(j, np.random.default_rng(42), SampleConfig(n, 42))
        err = np.max(np.abs(table.counts.sum(axis=1) / n - p_in))
        assert err <= 5.0 * np.sqrt(0.25 / n)


def test_ten_million_shot_concentration(params, rho0):
    prop = propagator_analytic(params, T_STAR)
    j = joint_table(rho0, prop.U)
    table = sample_tpm(j, np.random.default_rng(42), SampleConfig(10**7, 42))
    assert tv_distance(table, j).max_cell <= 0.002


def test_two_stage_matches_joint_chi_square(params, rho0):
    # goodness-of-fit of the sampled counts against the exact joint table
    n = 10**5
    prop = propagator_analytic(params, T_STAR)
    j = joint_table(rho0, prop.U)
    counts = sample_tpm(j, np.random.default_rng(42), SampleConfig(n, 42)).counts
    support = j > 0
    expected = n * j[support]
    statistic = float((((counts[support] - expected) ** 2) / expected).sum())
    quantile = scipy.stats.chi2.ppf(0.999, int(support.sum()) - 1)
    assert statistic < quantile


def test_tv_distance_of_rounded_exact_table(params, rho0):
    n = 10**6
    j = joint_table(rho0, propagator_analytic(params, T_STAR).U)
    table = EmpiricalTable(counts=np.rint(j * n).astype(np.int64), n=n)
    assert tv_distance(table, j).tv <= 1e-5


def test_tv_distance_disjoint_supports():
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 0] = 100
    j = np.zeros((4, 4))
    j[1, 1] = 1.0
    assert tv_distance(EmpiricalTable(counts, 100), j).tv == pytest.approx(1.0)


def test_tv_distance_rejects_empty_table():
    with pytest.raises(ValueError, match="no samples"):
        tv_distance(EmpiricalTable(np.zeros((4, 4), dtype=np.int64), 0), np.eye(4) / 4)


def test_sampled_moment_error_grows_with_order(params, rho0):
    # at the transition peak the 5th moment amplifies the sampling noise
    n = 10**6
    prop = propagator_analytic(params, T_STAR)
    j = joint_table(rho0, prop.U)
    exact = moments(delta_e_distribution(j), 5)
    freq = sample_tpm(j, np.random.default_rng(123), SampleConfig(n, 123)).frequencies
    sampled = moments(delta_e_distribution(freq), 5)
    errors = np.abs(exact - sampled)
    assert errors[4] >= errors[0]
