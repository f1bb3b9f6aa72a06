"""Physical invariants of the grid engine over random parameters.

The ranges are fixed here, before any run, and are not tuned to the results:
omega_L in [0.1, 10], omega_int in [0, 20], alpha in [0.01, 0.99], beta_B in
[0.01, 5] and t in [0, 50].  They keep beta_B * omega_L <= 50 and
|beta_A| * omega_L <= 2.3, far below the 709.78 where the Gibbs weights
overflow.  The two-point-measurement definitions follow Talkner, Lutz and
Hänggi, PRE 75, 050102 (2007).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_energetics.config import RunConfig
from gate_energetics.linalg import PROB_SUM_TOL, UNITARY_TOL, expm_hermitian, op_distance
from gate_energetics.model import ModelParams, ThermalSpec, hamiltonians
from gate_energetics.sampler import SampleConfig, sample_tpm
from gate_energetics.sweep import evaluate_grid

PHYSICS = dict(
    omega_L=st.floats(0.1, 10.0),
    omega_int=st.floats(0.0, 20.0),
    alpha=st.floats(0.01, 0.99),
    beta_B=st.floats(0.01, 5.0),
    t=st.floats(0.0, 50.0),
)
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


def _grid(omega_L, omega_int, alpha, beta_B, t):
    cfg = RunConfig(
        model=ModelParams(omega_L=omega_L, omega_int=omega_int),
        thermal=ThermalSpec(alpha=alpha, beta_B=beta_B),
    )
    return cfg, evaluate_grid(cfg, t * np.linspace(0.0, 1.0, 5))


@PROPERTY
@given(**PHYSICS)
def test_conditional_table_is_doubly_stochastic(omega_L, omega_int, alpha, beta_B, t):
    _, g = _grid(omega_L, omega_int, alpha, beta_B, t)
    assert np.all(np.abs(g.cond.sum(axis=1) - 1.0) <= PROB_SUM_TOL)
    assert np.all(np.abs(g.cond.sum(axis=2) - 1.0) <= PROB_SUM_TOL)


@PROPERTY
@given(**PHYSICS)
def test_integral_fluctuation_theorem(omega_L, omega_int, alpha, beta_B, t):
    _, g = _grid(omega_L, omega_int, alpha, beta_B, t)
    assert np.all(np.abs(g.report.ift - 1.0) <= PROB_SUM_TOL)


@PROPERTY
@given(**PHYSICS)
def test_propagator_matches_eigendecomposition(omega_L, omega_int, alpha, beta_B, t):
    cfg, g = _grid(omega_L, omega_int, alpha, beta_B, t)
    h_tot = hamiltonians(cfg.model)[2]
    for time, u in zip(g.t, g.U):
        assert op_distance(u, expm_hermitian(h_tot, -time)) <= UNITARY_TOL


@PROPERTY
@given(**PHYSICS, n=st.integers(1, 5000), seed=st.integers(0, 2**64 - 1))
def test_sampler_counts(omega_L, omega_int, alpha, beta_B, t, n, seed):
    _, g = _grid(omega_L, omega_int, alpha, beta_B, t)
    table = sample_tpm(g.rho0, g.U[-1], SampleConfig(n, seed, float(g.t[-1])))
    assert table.counts.sum() == n
    assert np.all(table.counts[g.joint[-1] == 0.0] == 0)
