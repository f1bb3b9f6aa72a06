"""The grid engine against its per-point reference, compared exactly.

The grid path, ``sweep._evaluate`` (run on a whole grid by ``evaluate_grid`` of
tests/reference.py), must equal ``evaluate_point`` of tests/reference.py at
every time bit for bit: the output bytes depend on it, so every field is compared
with ``np.array_equal``, never within a tolerance.
"""

import ast
import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gate_energetics
from gate_energetics import sweep, tpm
from gate_energetics.config import RunConfig
from gate_energetics.linalg import PROB_SUM_TOL, VALUE_MERGE_TOL
from gate_energetics.model import (
    ModelParams,
    ThermalSpec,
    input_populations,
    propagator_grid,
    trajectory_coherence,
)
from gate_energetics.photonic import (
    OpticalParams,
    compose_circuit,
    conditional_for_time,
    postselect,
    ppbs_transform,
)
from gate_energetics.sampler import SampleConfig, sample_tpm
from gate_energetics.sweep import NumericInvariantError
from gate_energetics.tpm import merge_atom_rows

from reference import (
    DiscreteDistribution,
    coherence_dense,
    conditional_dense,
    dense_unitary,
    entropy_distribution,
    evaluate_grid,
    evaluate_point,
    final_probs_dense,
    gate_angle,
    h_coeffs,
    propagator_analytic,
    thermo_report,
)

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
    # the Landauer beta is beta_B * omega_L, not beta_B alone
    "omega_L-three": (RunConfig(model=ModelParams(omega_L=3.0)), DEFAULT.time_grid()),
    # a target population underflows to 0: every row has undefined
    # realizations, and ds_mean and ift sum over the defined cells only
    "omega_L-2000": (RunConfig(model=ModelParams(omega_L=2000.0)), DEFAULT.time_grid()),
}


# the entries U00, U22, U32 and U33 of a dense 4x4 U: the rows of
# propagator_grid's u, in order
NONTRIVIAL = ([0, 2, 3, 3], [0, 2, 2, 3])


def _same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


def _bits(a) -> np.ndarray:
    """The IEEE bits of a float array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _same_dist(rows, i, ref) -> bool:
    """Whether the atoms of time i of an ``AtomRows`` are those of ``ref``."""
    at = rows.time == i
    return _same(rows.values[at], ref.values) and _same(rows.probs[at], ref.probs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_equals_point_exactly(name):
    cfg, times = CASES[name]
    g = evaluate_grid(cfg, times)
    assert _same(g.t, times)
    de_rows = tpm.delta_e_rows(g.de_weights)
    for i, t in enumerate(np.asarray(times, dtype=float).tolist()):
        pt = evaluate_point(cfg, t)
        assert _same(g.u[:, i], propagator_analytic(cfg.model, t).U[NONTRIVIAL]), (name, t, "u")
        assert _same(input_populations(cfg.thermal, cfg.model), pt.p_in)
        assert _same(tpm.final_probs(g.joint)[i], pt.p_fin), (name, t, "p_fin")
        for field in ("cond", "joint", "sigma", "de_moments", "ds_moments",
                      "coherence", "h2_sq"):
            assert _same(getattr(g, field)[i], getattr(pt, field)), (name, t, field)
        assert _same_dist(de_rows, i, pt.de_dist), (name, t, "de_dist")
        assert _same_dist(g.ds_dist, i, pt.ds_dist), (name, t, "ds_dist")
        assert _same(g.de_moments[i, 0], pt.report.de_mean), (name, t, "de_mean")
        for field in ("ds_mean", "ift", "landauer_lhs", "ratio"):
            assert _same(getattr(g, field)[i], getattr(pt.report, field)), (name, t, field)
        slack = pt.report.landauer_lhs - pt.report.ds_mean
        assert _same(g.landauer_lhs[i] - g.ds_mean[i], slack), (name, t, "slack")


def _assert_rows_equal_reference(model, times):
    """The four rows of ``propagator_grid`` are U00, U22, U32 and U33 of the
    one-time reference U, bit for bit, and that U has no other entry than
    them, U23 = U32 and U11 = 1.

    Only the sign of a zero part may differ (U32 at omega_int = 0, where the
    reference multiplies Python's -1j by 0.0): adding +0.0 clears it, as
    every reader of U, through |U|^2, discards it."""
    _, _, u = propagator_grid(model, times)
    assert u.shape == (4, len(times)) and u.flags.c_contiguous
    dense = np.stack([propagator_analytic(model, t).U for t in np.asarray(times).tolist()])
    for part in ("real", "imag"):
        rows = getattr(u, part) + 0.0
        entries = getattr(dense[(slice(None), *NONTRIVIAL)].T, part) + 0.0
        assert np.array_equal(_bits(rows), _bits(entries)), part
    assert np.array_equal(_bits(dense[:, 2, 3].real), _bits(dense[:, 3, 2].real))
    assert np.array_equal(_bits(dense[:, 2, 3].imag), _bits(dense[:, 3, 2].imag))
    assert np.all(dense[:, 1, 1] == 1.0)
    others = np.ones((4, 4), dtype=bool)
    others[NONTRIVIAL] = others[2, 3] = others[1, 1] = False
    assert np.all(dense[:, others] == 0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_propagator_rows_equal_the_reference_entries(name):
    cfg, times = CASES[name]
    _assert_rows_equal_reference(cfg.model, times)


def assert_sparse_tables_equal_dense(cfg, times):
    """``conditional_matrix``, ``final_probs`` and ``trajectory_coherence``
    from the four rows of U equal their forms over all 16 entries of the
    dense U, bit for bit."""
    _, _, u = propagator_grid(cfg.model, times)
    dense = dense_unitary(u)
    cond = tpm.conditional_matrix(u)
    assert np.array_equal(_bits(cond), _bits(conditional_dense(dense)))
    joint = tpm.joint_table_from_conditional(cond, input_populations(cfg.thermal, cfg.model))
    assert np.array_equal(_bits(tpm.final_probs(joint)), _bits(final_probs_dense(joint)))
    assert np.array_equal(_bits(trajectory_coherence(u)), _bits(coherence_dense(dense)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_sparse_tables_equal_their_dense_forms(name):
    assert_sparse_tables_equal_dense(*CASES[name])


def test_final_probs_adds_rows_as_numpy_reduces_them():
    # every cell non-zero and no structure: the four rows added in order
    # are numpy's reduction over the axis
    joint = _random_joint_stack(np.random.default_rng(3), 500)
    joint += np.random.default_rng(4).random(joint.shape) * 10.0 ** -np.arange(16).reshape(4, 4)
    assert np.array_equal(_bits(tpm.final_probs(joint)), _bits(final_probs_dense(joint)))
    assert np.array_equal(_bits(tpm.final_probs(joint[7])), _bits(final_probs_dense(joint[7])))


# numpy's dispatch capped at X86_V3 (AVX2, FMA3): complex abs, complex
# multiply and the sums take their AVX2 loops, which must round the (4, T)
# rows as they round the dense (T, 4, 4) stack
AVX2_NUMPY = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
_SPARSE_AT_AVX2 = """
from numpy._core._multiarray_umath import __cpu_features__
import test_grid
assert not __cpu_features__["X86_V4"], "the dispatch level was not capped"
for cfg, times in test_grid.CASES.values():
    test_grid.assert_sparse_tables_equal_dense(cfg, times)
"""


def test_sparse_tables_equal_their_dense_forms_at_the_avx2_dispatch_level():
    # the setting acts when numpy loads, so it needs a fresh interpreter
    path = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(gate_energetics.__file__))]
    env = dict(os.environ, **AVX2_NUMPY, PYTHONPATH=os.pathsep.join(path + sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _SPARSE_AT_AVX2], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_a_block_of_evaluation_and_coherence_stays_below_its_traced_peak():
    """numpy reports its data buffers to tracemalloc.  One block of
    ``_GRID_ROWS`` times, evaluated and gated with its coherence built, must
    peak below 2000 KiB (the bound was fixed before the first run).  The
    four rows of U take 128 KiB; a dense complex (T, 4, 4) stack of U takes
    512 KiB, and with its 16-cell |U|^2 and coherence temporaries it brought
    the peak to about 2419 KiB."""
    cfg = RunConfig(n_points=20_000)
    t = cfg.time_grid()[:sweep._GRID_ROWS]
    p_in = input_populations(cfg.thermal, cfg.model)
    sweep._evaluate(cfg, t, p_in).coherence  # any first-call allocation is not the block's
    tracemalloc.start()
    try:
        sweep._evaluate(cfg, t, p_in).coherence
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 1024, f"{peak / 1024:.0f} KiB"


def test_contains_zero_case_has_an_undefined_ratio():
    cfg, times = CASES["contains-zero"]
    assert np.isnan(evaluate_point(cfg, 0.0).report.ratio)
    assert np.isnan(evaluate_grid(cfg, times).ratio[1])


def test_undefined_realizations_match_the_scalar_tables():
    # an empty input outcome leaves sigma undefined on its row and, with the
    # identity as conditional table, on its column; the Gibbs inputs of the
    # model never get there, so the tables are built directly
    p_in = np.array([0.5, 0.3, 0.2, 0.0])
    _, _, u = propagator_grid(ModelParams(), [0.7])
    conds = np.concatenate([np.eye(4)[None], tpm.conditional_matrix(u)])
    joint = tpm.joint_table_from_conditional(conds, p_in)
    sigma = tpm.entropy_realizations(p_in, tpm.final_probs(joint))
    g = dataclasses.replace(
        evaluate_grid(DEFAULT, [0.0, 0.7]),
        joint=joint, sigma=sigma, ift=tpm.ift_grid(joint, sigma), beta=0.5,
    )
    ds_rows = g.ds_dist
    for i, cond in enumerate(conds):
        j = tpm.joint_table_from_conditional(cond, p_in)
        s = tpm.entropy_realizations(p_in, tpm.final_probs(j))
        assert np.isnan(s).any()
        assert _same(sigma[i], s)
        assert _same_dist(ds_rows, i, entropy_distribution(j, s))
        scalar = thermo_report(j, s, 0.5)
        assert _same(g.de_moments[i, 0], scalar.de_mean)
        for field in ("ds_mean", "ift"):
            assert _same(getattr(g, field)[i], getattr(scalar, field)), field
        slack = scalar.landauer_lhs - scalar.ds_mean
        assert _same(g.landauer_lhs[i] - g.ds_mean[i], slack)


def test_sums_over_defined_cells_equal_per_row_sums():
    # one block of fully defined rows between rows of five patterns of
    # undefined cells, 15 to 3 defined, so that each pairwise sum of 8 or more
    # terms is grouped; an undefined cell has a NaN realization and no
    # weight, and the weights span 16 decades, so that any other grouping
    # moves bits
    rng = np.random.default_rng(7)
    j = rng.random((60, 16)) * 10.0 ** rng.integers(-8, 8, size=(60, 16))
    sigma = rng.normal(size=(60, 16))
    defined = np.ones((60, 16), dtype=bool)
    for k, n_defined in enumerate((15, 12, 9, 8, 3)):
        cells = rng.permutation(16)[n_defined:]
        defined[np.arange(k, 60, 7)[:, None], cells] = False
    assert len(np.unique(defined, axis=0)) == 6
    j[~defined], sigma[~defined] = 0.0, np.nan
    for grid, terms in ((tpm.ift_grid, j * np.exp(-sigma)), (tpm.ds_mean_grid, j * sigma)):
        expected = [np.sum(np.where(defined[i], terms[i], 0.0)) for i in range(60)]
        got = grid(j.reshape(60, 4, 4), sigma.reshape(60, 4, 4))
        assert np.array_equal(_bits(got), _bits(expected)), grid.__name__
        # a sum over the defined terms alone groups them otherwise: the test
        # pins the grouping
        subset = [np.sum(terms[i][defined[i]]) for i in range(60)]
        assert not np.array_equal(_bits(got), _bits(subset)), grid.__name__


def test_ift_of_an_input_without_full_support_is_one_minus_lambda():
    # at omega_L = 2000 the target population 1/(1 + e^2000) underflows to 0;
    # lambda, the weight of the final outcomes reached from the empty inputs,
    # is what the average over the defined realizations misses
    cfg = RunConfig(model=ModelParams(omega_L=2000.0))
    g = evaluate_grid(cfg, cfg.time_grid())
    empty = input_populations(cfg.thermal, cfg.model) == 0.0
    assert empty.any()
    lam = (tpm.final_probs(g.joint) * g.cond[:, :, empty].sum(axis=2)).sum(axis=1)
    assert np.abs(g.ift - 1.0).max() > 1e-6
    assert np.abs(g.ift - (1.0 - lam)).max() <= 1e-14


def test_ift_gate_holds_a_full_support_input_to_one():
    # the imperfect optical gate's table is column-stochastic but not doubly
    # stochastic: ift equals the closed form sum_fin p_fin sum_in c, yet is off
    # 1 by about 1e-3, and with every input populated the gate wants 1
    t = SMALL_TIMES
    h1, h2, _ = propagator_grid(SMALL.model, t)
    cond, _ = conditional_for_time(OpticalParams(T_H=0.985), h1, h2)
    p_in = input_populations(SMALL.thermal, SMALL.model)
    joint = tpm.joint_table_from_conditional(cond, p_in)
    p_fin = tpm.final_probs(joint)
    ift = tpm.ift_grid(joint, tpm.entropy_realizations(p_in, p_fin))
    assert (p_in > 0.0).all()
    assert np.abs(ift - (p_fin * cond.sum(axis=2)).sum(axis=1)).max() <= 1e-15
    assert np.abs(ift - 1.0).max() > 1e-4
    first = np.flatnonzero(np.abs(ift - 1.0) > PROB_SUM_TOL)[0]
    message = re.escape(f"ift at omega_L_t={t[first]:.6g}: ")
    with pytest.raises(NumericInvariantError, match=message):
        sweep._require_ift(ift, cond, p_in, p_fin, t)


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
        assert _same(merged.moments(len(rows), 3)[i], [ref.moment(h) for h in (1, 2, 3)])
    # a value of zero weight neither starts an atom nor moves one: wherever it
    # goes, below a row's lowest atom or within the merge tolerance of another
    # value, the merge keeps every bit
    empty = weights == 0.0
    lowest = np.where(empty, np.inf, values).min(axis=1, keepdims=True)
    near = (lowest - 0.5 * VALUE_MERGE_TOL, values[:, ::-1] + 0.9 * VALUE_MERGE_TOL)
    for moved in (values - 7.0, *near):
        shifted = merge_atom_rows(np.where(empty, moved, values), weights)
        assert np.array_equal(shifted.time, merged.time)
        assert np.array_equal(_bits(shifted.values), _bits(merged.values))
        assert np.array_equal(_bits(shifted.probs), _bits(merged.probs))


def test_times_without_atoms_have_zero_moments():
    # a row of no positive weight has no atoms, so the record's times do not
    # end at its last time: the first and the last of three rows are empty
    values = np.arange(48.0).reshape(3, 16)
    weights = np.zeros((3, 16))
    weights[1, [2, 5]] = 0.5
    merged = merge_atom_rows(values, weights)
    assert merged.time.tolist() == [1, 1]
    assert merged.values.tolist() == [18.0, 21.0]
    assert _same(merged.moments(3, 2), [[0.0, 0.0], [19.5, 382.5], [0.0, 0.0]])


# the dE distribution on its lattice against the generic merge of its 16
# atoms: the sweep grids of many shapes, then random joint tables with empty
# cells and empty inputs, then sampled frequencies
LATTICE_GRIDS = {
    "default-20000": RunConfig(n_points=20_000),
    "slow-local": RunConfig(model=ModelParams(0.3, 7.0)),
    "extreme-alpha": RunConfig(thermal=ThermalSpec(alpha=1e-6, beta_B=3.0)),
    "omega_int-zero": RunConfig(model=ModelParams(omega_int=0.0)),
}


def _assert_lattice_equals_merge(j):
    n = len(j)
    merged = merge_atom_rows(np.broadcast_to(tpm.ENERGY_CHANGE.ravel(), (n, 16)), j.reshape(n, 16))
    weights = tpm.delta_e_grid(j)
    rows = tpm.delta_e_rows(weights)
    assert np.array_equal(rows.time, merged.time)
    assert np.array_equal(_bits(rows.values), _bits(merged.values))
    assert np.array_equal(_bits(rows.probs), _bits(merged.probs))
    assert np.array_equal(_bits(tpm.delta_e_moments(weights, 5)), _bits(merged.moments(n, 5)))


@pytest.mark.parametrize("name", sorted(LATTICE_GRIDS))
def test_delta_e_lattice_equals_merge_on_sweep_grids(name):
    cfg = LATTICE_GRIDS[name]
    _assert_lattice_equals_merge(evaluate_grid(cfg, cfg.time_grid()).joint)


def _random_joint_stack(rng, rows):
    """Joint tables of random column-stochastic tables with empty cells, at an
    input with one or two empty outcomes."""
    cond = rng.random((rows, 4, 4)) * (rng.random((rows, 4, 4)) < 0.6)
    cond[:, np.arange(4), np.arange(4)] += 0.1  # no empty column
    cond /= cond.sum(axis=1, keepdims=True)
    p_in = rng.random(4)
    p_in[rng.choice(4, size=rng.integers(1, 3), replace=False)] = 0.0
    return tpm.joint_table_from_conditional(cond, p_in / p_in.sum())


@pytest.mark.parametrize("seed", range(20))
def test_delta_e_lattice_equals_merge_on_random_joint_stacks(seed):
    _assert_lattice_equals_merge(_random_joint_stack(np.random.default_rng(seed), 200))


@pytest.mark.parametrize("seed", range(20))
def test_delta_e_lattice_equals_merge_on_frequency_tables(seed):
    rng = np.random.default_rng(1000 + seed)
    pvals = _random_joint_stack(rng, 1).reshape(16)
    shots = int(rng.choice([1, 7, 100, 10**6, 10**12]))
    counts = rng.multinomial(shots, pvals / pvals.sum(), size=200)
    _assert_lattice_equals_merge((counts / shots).reshape(200, 4, 4))


# benchmarks/checks.py builds its propagator oracle from model.hamiltonians
# and linalg.expm_hermitian: it is the only reason the two stay in src/, as
# the program itself evolves with the closed form.  cli.run is the console
# script
CALLED_FROM_OUTSIDE = {"linalg.expm_hermitian", "model.hamiltonians", "cli.run"}


def _names_used(node) -> list[str]:
    """Every name and attribute that ``node`` reads or writes."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def test_src_defines_nothing_only_the_tests_use():
    package = Path(gate_energetics.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    used = [name for tree in trees.values() for name in _names_used(tree)]
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and used.count(node.name) == _names_used(node).count(node.name)
        and f"{module}.{node.name}" not in CALLED_FROM_OUTSIDE
        and node.name not in gate_energetics.__all__
    ]
    assert not unused, f"referenced nowhere in src but in their own definition: {unused}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def test_src_reads_every_dataclass_field_it_declares():
    """A field that src/ never reads, as an attribute or through ``getattr``
    with a literal name, is carried for the tests alone."""
    package = Path(gate_energetics.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            read.add(node.args[1].value)
    unread = [
        f"{module}.{node.name}.{field.target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]
    assert not unread, f"dataclass fields that src never reads: {unread}"


def _all_names(tree) -> set[str]:
    """The names a module's ``__all__`` exports."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def test_src_imports_nothing_it_never_reads():
    package = Path(gate_energetics.__file__).parent
    unread = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _all_names(tree)
        unread += [
            f"{path.stem}.{alias.asname or alias.name.split('.')[0]}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read
        ]
    assert not unread, f"imported but never read: {unread}"


SMALL = dataclasses.replace(DEFAULT, n_points=8)
SMALL_TIMES = SMALL.time_grid()


def _evaluate_with_changed(name, index, change):
    """``evaluate_grid`` on the small grid, with ``change`` applied to one cell
    of the stack that ``sweep.<name>`` builds."""
    real = getattr(sweep, name)

    def changed(*args):
        a = real(*args).copy()
        a[index] = change(a[index])
        return a

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, name, changed)
        evaluate_grid(SMALL, SMALL_TIMES)


def _at(row, message):
    """The pattern of a gate's message about the small grid's row ``row``."""
    return re.escape(f" at omega_L_t={SMALL_TIMES[row]:.6g}") + ".*" + message


def _evaluate_with_scaled_propagator(row, entry, factor):
    """``evaluate_grid`` on propagator rows with one entry of time ``row``
    scaled, so that the norms of one of U's rows and one of its columns are
    off; ``entry`` is the (fin, in) index of a non-trivial entry of U."""
    h1, h2, u = propagator_grid(SMALL.model, SMALL_TIMES)
    u[list(zip(*NONTRIVIAL)).index(entry), row] *= factor
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "propagator_grid", lambda p, times: (h1, h2, u))
        evaluate_grid(SMALL, SMALL_TIMES)


# each check of the grid path, failed by one row of a stack; the
# conditional and joint tables are gated once, in sweep._evaluate, before any
# statistic is built, and the double-stochasticity gate is the only check
# of the propagator
STACKED_CHECKS = {
    "unitarity": (
        lambda: _evaluate_with_scaled_propagator(3, (2, 2), 1.001),
        NumericInvariantError,
        _at(3, "a row or column sum is off"),
    ),
    "joint-sum": (
        lambda: _evaluate_with_changed(
            "joint_table_from_conditional", (2, 0, 0), lambda x: x + 1e-9
        ),
        NumericInvariantError,
        _at(2, "sum to"),
    ),
    "joint-negative": (
        lambda: _evaluate_with_changed("joint_table_from_conditional", (2, 2, 3), lambda x: -x),
        NumericInvariantError,
        _at(2, r"probability -\S+ outside \[0, 1\]"),
    ),
    # NaN fails every comparison of a gate
    "conditional-nan": (
        lambda: _evaluate_with_changed("conditional_matrix", (3, 1, 2), lambda x: np.nan),
        NumericInvariantError,
        "conditional table" + _at(3, "off by nan"),
    ),
    "joint-nan": (
        lambda: _evaluate_with_changed(
            "joint_table_from_conditional", (2, 1, 1), lambda x: np.nan
        ),
        NumericInvariantError,
        "joint table" + _at(2, r"probability nan\.\.nan outside"),
    ),
    "ift-nan": (
        lambda: _evaluate_with_changed("ift_grid", (4,), lambda x: np.nan),
        NumericInvariantError,
        "ift" + _at(4, "nan, not"),
    ),
    "undefined-weight": (
        lambda: _evaluate_with_changed("entropy_realizations", (4, 2, 3), lambda x: np.nan),
        NumericInvariantError,
        "undefined entropy realizations" + _at(4, "carry probability"),
    ),
    # trajectory_coherence trusts its stack: a bad one must stop before it
    "unitarity-before-coherence": (
        lambda: _evaluate_with_scaled_propagator(5, (3, 2), 1.01),
        NumericInvariantError,
        _at(5, "a row or column sum is off"),
    ),
}


@pytest.mark.parametrize("name", sorted(STACKED_CHECKS))
def test_grid_keeps_every_scalar_check(name):
    call, error, message = STACKED_CHECKS[name]
    with pytest.raises(error, match=message):
        call()


GATE_TIMES = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.25])


def test_double_stochasticity_gate_names_the_earlier_of_two_failing_times():
    cond = np.tile(np.eye(4), (len(GATE_TIMES), 1, 1))
    cond[4, 1, 1] += 1e-6
    cond[2, 0, 0] += 1e-9
    with pytest.raises(NumericInvariantError) as failed:
        sweep._require_doubly_stochastic(cond, GATE_TIMES)
    assert str(failed.value) == (
        "conditional table at omega_L_t=0.5: a row or column sum is off by 1.000e-09"
    )


@pytest.mark.parametrize("kind", ["column", "row"])
@pytest.mark.parametrize("where", [0, 5, 10])
def test_double_stochasticity_gate_passes_a_stack_iff_every_table(kind, where):
    """The gate passes a stack of |U|^2 tables iff it passes each of them, with
    one column or row of U scaled just inside the tolerance in one table and
    just outside it in another, first, in the middle and last."""
    rng = np.random.default_rng(where)
    u = np.linalg.qr(rng.normal(size=(11, 4, 4)) + 1j * rng.normal(size=(11, 4, 4)))[0]
    times = 0.25 * np.arange(11)

    def off_by(table, deviation):
        # the norm squared of the column or row, a sum of the conditional table
        line = (table, slice(None), 1) if kind == "column" else (table, 1)
        u[line] *= np.sqrt(1.0 + deviation)

    def passes(i):
        try:
            sweep._require_doubly_stochastic(conditional_dense(u[i:i + 1]), times[i:i + 1])
        except NumericInvariantError:
            return False
        return True

    off_by((where + 3) % 11, 0.9 * PROB_SUM_TOL)
    sweep._require_doubly_stochastic(conditional_dense(u), times)
    off_by(where, 1.1 * PROB_SUM_TOL)
    with pytest.raises(NumericInvariantError, match=f"at omega_L_t={times[where]:.6g}:"):
        sweep._require_doubly_stochastic(conditional_dense(u), times)
    assert [passes(i) for i in range(11)] == [i != where for i in range(11)]


def _uniform_groups() -> np.ndarray:
    return np.full((len(GATE_TIMES), 4, 4), 1 / 16)


def test_prob_group_gate_names_the_earlier_of_two_cells_outside():
    cells = _uniform_groups()
    cells[3, 0, :2] = [-0.5, 0.5 + 1 / 16]
    cells[1, 2, 2:] = [1.5, -1.5 + 1 / 16]
    with pytest.raises(NumericInvariantError) as failed:
        sweep._require_prob_group(cells, "joint table", GATE_TIMES)
    assert str(failed.value) == (
        "joint table at omega_L_t=0.25: probability -1.437500e+00..1.500000e+00 outside [0, 1]"
    )


def test_prob_group_gate_names_the_earlier_of_two_bad_sums():
    cells = _uniform_groups()
    cells[4, 3, 3] += 1e-6
    cells[1, 0, 0] += 1e-9
    with pytest.raises(NumericInvariantError) as failed:
        sweep._require_prob_group(cells, "empirical table", GATE_TIMES)
    assert str(failed.value) == (
        "empirical table at omega_L_t=0.25: probabilities sum to 1.000000001000e+00, not 1"
    )


def test_prob_group_gate_names_the_earliest_failure_of_either_kind():
    cells = _uniform_groups()
    cells[2, 1, :2] = [-0.5, 0.5 + 1 / 16]
    cells[1, 0, 0] += 1e-9
    message = re.escape("at omega_L_t=0.25: probabilities sum")
    with pytest.raises(NumericInvariantError, match=message):
        sweep._require_prob_group(cells, "joint table", GATE_TIMES)


# the photonic layer one time at a time: a 4x4 mode transform per time and
# four nested loops over the two-photon permanents
_ARMS = ((0, 1), (2, 3))  # (H, V) mode indices of arm a and arm b


def _postselect_loops(m):
    g = np.zeros((4, 4), dtype=complex)
    for p_out in (0, 1):
        for q_out in (0, 1):
            row_a, row_b = _ARMS[0][p_out], _ARMS[1][q_out]
            for p in (0, 1):
                for q in (0, 1):
                    col_a, col_b = _ARMS[0][p], _ARMS[1][q]
                    g[2 * p_out + q_out, 2 * p + q] = (
                        m[row_a, col_a] * m[row_b, col_b] + m[row_a, col_b] * m[row_b, col_a]
                    )
    return g


def _gate_per_time(optical, model, t):
    theta = 2.0 * (gate_angle(model, t) / 4.0)
    c, s = math.cos(theta), math.sin(theta)
    plate = np.eye(4, dtype=complex)
    plate[2:, 2:] = [[c, s], [s, -c]]
    equalizers = np.diag([optical.atten_H, 1.0, optical.atten_H, 1.0]).astype(complex)
    return _postselect_loops(plate @ equalizers @ ppbs_transform(optical.T_H, optical.T_V) @ plate)


def _conditional_per_time(optical, g):
    success = (np.abs(g) ** 2).sum(axis=0)
    return (1.0 - optical.eps) * np.abs(g) ** 2 / success[None, :] + optical.eps / 4.0


IMPERFECT = OpticalParams(T_H=0.985, eps=0.01)
COMPARE_PHOTONIC = RunConfig(n_points=2000)
# optics and a grid case above
PHOTONIC_CASES = {
    "default-optics": (OpticalParams(), CASES["default-grid"]),
    "imperfect-transmission": (IMPERFECT, CASES["default-grid"]),
    "lossy-asymmetric": (
        OpticalParams(T_H=0.9, T_V=0.4, atten_H=0.7, eps=0.1),
        CASES["default-grid"],
    ),
    "contains-zero": (IMPERFECT, CASES["contains-zero"]),
    "t_min-and-omega_int-perturbed": (IMPERFECT, CASES["t_min-and-omega_int-perturbed"]),
    # the shape of the compare_photonic benchmark: one block of 2000 times
    "compare-photonic": (IMPERFECT, (COMPARE_PHOTONIC, COMPARE_PHOTONIC.time_grid())),
}


ANGLE_MODELS = {
    "default": ModelParams(),
    "slow-local": ModelParams(0.3, 7.0),
    "no-interaction": ModelParams(1.0, 0.0),
    "fast-local": ModelParams(2000.0, 5.0),
}
ANGLE_TIMES = np.linspace(-40.0, 40.0, 20_001)


@pytest.mark.parametrize("name", sorted(ANGLE_MODELS))
def test_gate_angle_of_a_grid_equals_per_time_reference(name):
    # the photonic gate's angle atan2(|h2|, |h1|) reads the grid's amplitudes
    model, times = ANGLE_MODELS[name], ANGLE_TIMES
    h1, h2, _ = propagator_grid(model, times)
    expected = [h_coeffs(model, t) for t in times.tolist()]
    assert np.array_equal(_bits(h1), _bits([abs(a) for a, _ in expected]))
    assert np.array_equal(_bits(h2), _bits([abs(b) for _, b in expected]))
    angles = [math.atan2(b, a) for a, b in zip(h1.tolist(), h2.tolist())]
    assert angles == [gate_angle(model, t) for t in times.tolist()]


@pytest.mark.parametrize("name", sorted(ANGLE_MODELS))
def test_propagator_rows_equal_the_reference_entries_over_the_angle_grid(name):
    _assert_rows_equal_reference(ANGLE_MODELS[name], ANGLE_TIMES)


@pytest.mark.parametrize("name", sorted(PHOTONIC_CASES))
def test_stacked_photonic_equals_per_time_loops_exactly(name):
    optical, (cfg, times) = PHOTONIC_CASES[name]
    per_time = np.asarray(times, dtype=float).tolist()
    gates = postselect(compose_circuit(optical, [gate_angle(cfg.model, t) for t in per_time]))
    h1, h2, _ = propagator_grid(cfg.model, times)
    cond, success = conditional_for_time(optical, h1, h2)
    assert cond.shape == (len(times), 4, 4)
    assert success.shape == (len(times), 4)
    for i, t in enumerate(per_time):
        g = _gate_per_time(optical, cfg.model, t)
        assert _same(gates[i], g), (name, t, "G")
        assert _same(cond[i], _conditional_per_time(optical, g)), (name, t, "cond")
        # the success probability is the column sum of |G|^2, bit for bit
        assert _same(success[i], (np.abs(g) ** 2).sum(axis=0)), (name, t, "success")


@pytest.mark.parametrize("n_samples", [1000, 10**12])
def test_stacked_sampler_rows_equal_single_calls(n_samples):
    # the rows are drawn in order from the one stream of the seed: row i is
    # the i-th 1-D multinomial draw of numpy's own default_rng(seed), at
    # seeds of one and of two 32-bit words up to the last 64-bit seed, in
    # one draw of the stack and in blocks of 3 + 5 rows from one generator,
    # as compare draws its blocks
    g = evaluate_grid(SMALL, SMALL_TIMES)
    rows = g.joint.reshape(8, 16)
    pvals = rows / rows.sum(axis=1, keepdims=True)
    cfg = SampleConfig(n_samples)
    for seed in (42, 2**32 - 4, 2**64 - 8, 2**64 - 1):
        counts = sample_tpm(g.joint, np.random.default_rng(seed), cfg)
        assert counts.shape == (8, 4, 4)
        blocks = np.random.default_rng(seed)
        walked = [sample_tpm(block, blocks, cfg) for block in (g.joint[:3], g.joint[3:])]
        assert np.array_equal(np.concatenate(walked), counts), seed
        rng = np.random.default_rng(seed)
        for i in range(8):
            expected = rng.multinomial(n_samples, pvals[i])
            assert np.array_equal(counts[i].ravel(), expected), (seed, i)
