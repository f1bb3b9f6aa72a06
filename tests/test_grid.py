"""The grid engine against its per-point reference, compared exactly.

``evaluate_grid`` must equal ``evaluate_point`` at every time bit for bit:
the output bytes depend on it, so every field is compared with
``np.array_equal``, never within a tolerance.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_energetics import cli, sweep, tpm
from gate_energetics.config import RunConfig
from gate_energetics.linalg import validate_density
from gate_energetics.model import (
    ModelParams,
    ThermalSpec,
    propagator_analytic,
    trajectory_coherence,
)
from gate_energetics.sweep import evaluate_grid, evaluate_point
from gate_energetics.tpm import DiscreteDistribution, merge_atom_rows

DEFAULT = RunConfig()
PERTURBED = RunConfig(t_min=0.0123, model=ModelParams(omega_int=5.0 * 1.0037))
CASES = {
    "default-grid": (DEFAULT, DEFAULT.time_grid()),
    "t_min-and-omega_int-perturbed": (PERTURBED, PERTURBED.time_grid()),
    # h2 vanishes: no transitions, zero-weight atoms in every distribution
    "omega_int-zero": (RunConfig(model=ModelParams(omega_int=0.0)), DEFAULT.time_grid()),
    # alpha < 1/2 makes beta_A negative; far from 1/2 the populations span decades
    "extreme-alpha": (
        RunConfig(thermal=ThermalSpec(alpha=1e-6, beta_B=3.0)),
        np.linspace(0.0, 25.0, 400),
    ),
    # <dsigma> vanishes at t = 0, where the ratio is undefined
    "contains-zero": (DEFAULT, np.array([0.31, 0.0, 0.62, 1e-9])),
}


def _same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


def _same_dist(rows, i, ref) -> bool:
    """Whether row i of an ``AtomRows`` holds the atoms of ``ref``."""
    k = rows.counts[i]
    return _same(rows.values[i, :k], ref.values) and _same(rows.probs[i, :k], ref.probs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_equals_point_exactly(name):
    cfg, times = CASES[name]
    g = evaluate_grid(cfg, times)
    assert _same(g.t, times)
    for i, t in enumerate(np.asarray(times, dtype=float).tolist()):
        pt = evaluate_point(cfg, t)
        assert _same(g.U[i], propagator_analytic(cfg.model, t).U), (name, t, "U")
        assert _same(g.p_in, pt.p_in)
        for field in ("p_fin", "cond", "joint", "sigma", "de_moments", "ds_moments",
                      "coherence", "h2_sq"):
            assert _same(getattr(g, field)[i], getattr(pt, field)), (name, t, field)
        for field in ("de_dist", "ds_dist"):
            assert _same_dist(getattr(g, field), i, getattr(pt, field)), (name, t, field)
        for field in ("de_mean", "ds_mean", "ift", "landauer_lhs", "landauer_slack"):
            assert _same(getattr(g.report, field)[i], getattr(pt.report, field)), (name, t, field)
        ratio = np.nan if pt.report.ratio is None else pt.report.ratio
        assert _same(g.report.ratio[i], ratio), (name, t, "ratio")


def test_contains_zero_case_has_an_undefined_ratio():
    cfg, times = CASES["contains-zero"]
    assert evaluate_point(cfg, 0.0).report.ratio is None
    assert np.isnan(evaluate_grid(cfg, times).report.ratio[1])


def test_undefined_realizations_match_the_scalar_tables():
    # an empty input outcome leaves sigma undefined on its row and, with the
    # identity as conditional table, on its column; the Gibbs inputs of the
    # model never get there, so the tables are built directly
    p_in = np.array([0.5, 0.3, 0.2, 0.0])
    conds = np.stack([np.eye(4), tpm.conditional_matrix(propagator_analytic(ModelParams(), 0.7))])
    joint = tpm.joint_table_from_conditional(conds, p_in)
    sigma = tpm.entropy_realizations(p_in, tpm.final_probs(joint))
    ds_rows = tpm.entropy_grid(joint, sigma)
    report = tpm.thermo_report_grid(joint, sigma, 0.5, tpm.delta_e_grid(joint).moments(1)[:, 0])
    for i, cond in enumerate(conds):
        j = tpm.joint_table_from_conditional(cond, p_in)
        s = tpm.entropy_realizations(p_in, tpm.final_probs(j))
        assert np.isnan(s).any()
        assert _same(sigma[i], s)
        assert _same_dist(ds_rows, i, tpm.entropy_distribution(j, s))
        scalar = tpm.thermo_report(j, s, 0.5)
        for field in ("de_mean", "ds_mean", "ift", "landauer_slack"):
            assert _same(getattr(report, field)[i], getattr(scalar, field)), field


# values on a coarse lattice plus offsets below, at and above the merge
# tolerance, so that atoms merge, chain and stay apart; some weights are zero
_atom = st.tuples(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, 4e-13, 1e-12, 3e-12, -6e-13]),
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.0]),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.lists(_atom, min_size=16, max_size=16), min_size=1, max_size=6))
def test_merged_rows_equal_from_atoms(rows):
    values = np.array([[v + dv for v, dv, _ in row] for row in rows])
    weights = np.array([[w for _, _, w in row] for row in rows])
    weights[:, 0] += 1.0  # at least one atom of positive weight per row
    weights /= weights.sum(axis=1, keepdims=True)
    merged = merge_atom_rows(values, weights)
    for i in range(len(rows)):
        ref = DiscreteDistribution.from_atoms(values[i], weights[i])
        assert _same_dist(merged, i, ref)
        assert _same(merged.moments(3)[i], [ref.moment(h) for h in (1, 2, 3)])


def test_commands_never_take_the_per_point_path(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-point path called")

    monkeypatch.setattr(sweep, "evaluate_point", forbidden)
    monkeypatch.setattr(DiscreteDistribution, "from_atoms", classmethod(forbidden))
    config = tmp_path / "small.cfg"
    config.write_text("n_points = 6\nsamples = 500\nhist_times = 0.0, 0.62\n")
    for command in ("sweep", "hist", "compare"):
        argv = [command, "--config", str(config), "--out", str(tmp_path / command), "--photonic"]
        assert cli.main(argv) == 0


SMALL = dataclasses.replace(DEFAULT, n_points=8)


def _grid_array(field, index, change):
    """One array of a small grid, copied, with ``change`` applied to one cell."""
    a = getattr(evaluate_grid(SMALL, SMALL.time_grid()), field).copy()
    a[index] = change(a[index])
    return a


def _atom_rows(values, probs):
    return tpm.AtomRows(values=np.array(values), probs=np.array(probs), counts=np.array([2, 2]))


# each check of the scalar path, failed by one row of a stack
STACKED_CHECKS = {
    "unitarity": (
        lambda: tpm.conditional_matrix(_grid_array("U", (3, 2, 2), lambda x: 1.001 * x)),
        "propagator is not unitary",
    ),
    "joint-sum": (
        lambda: tpm.final_probs(_grid_array("joint", (2, 0, 0), lambda x: x + 1e-9)),
        "sums to",
    ),
    "joint-negative": (
        lambda: tpm.final_probs(_grid_array("joint", (2, 2, 3), lambda x: -x)),
        "negative entry",
    ),
    "undefined-weight": (
        lambda: tpm.entropy_grid(
            evaluate_grid(SMALL, SMALL.time_grid()).joint,
            _grid_array("sigma", (4, 2, 3), lambda x: np.nan),
        ),
        "undefined entropy realizations",
    ),
    "coherence-density": (
        lambda: trajectory_coherence(_grid_array("U", (5, 3, 2), lambda x: 1.01 * x)),
        "trace",
    ),
    "density-positivity": (
        lambda: validate_density(np.stack([np.eye(2) / 2, np.diag([1.5, -0.5])])),
        "negative eigenvalue",
    ),
    "atoms-increasing": (
        lambda: _atom_rows([[0.0, 1.0], [1.0, 1.0]], [[0.5, 0.5]] * 2),
        "strictly increasing",
    ),
    "atoms-negative": (
        lambda: _atom_rows([[0.0, 1.0]] * 2, [[0.5, 0.5], [1.5, -0.5]]),
        "negative probability",
    ),
    "atoms-sum": (
        lambda: _atom_rows([[0.0, 1.0]] * 2, [[0.5, 0.5], [0.5, 0.6]]),
        "sum to 1.1",
    ),
}


@pytest.mark.parametrize("name", sorted(STACKED_CHECKS))
def test_grid_keeps_every_scalar_check(name):
    call, message = STACKED_CHECKS[name]
    with pytest.raises(ValueError, match=message):
        call()
