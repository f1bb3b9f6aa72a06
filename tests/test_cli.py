import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gate_energetics import cli, sweep
from gate_energetics.config import DEFAULT_T_MAX, ConfigError, RunConfig, parse_config
from gate_energetics.sweep import NumericInvariantError, _require_prob_group


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name):
    idx = header.index(name)
    return [row[idx] for row in rows]


# --- configuration -------------------------------------------------------


def test_default_config_values():
    cfg = RunConfig()
    assert cfg.model.omega_int == 5.0
    assert cfg.thermal.alpha == 0.2
    assert cfg.thermal.beta_B == 0.5
    assert cfg.t_max == pytest.approx(3.0 * math.pi / math.sqrt(26.0))
    assert cfg.n_points == 200
    assert cfg.hist_times == (0.31, 0.62)
    assert cfg.samples == 10**6
    assert cfg.seed == 42
    assert not cfg.photonic
    cfg.validate()


def test_time_grid_is_half_open():
    grid = RunConfig(n_points=10).time_grid()
    assert len(grid) == 10
    assert grid[0] == 0.0
    assert grid[-1] < DEFAULT_T_MAX


def test_parse_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "omega_int = 4.0\n"
        "n_points = 16\n"
        "hist_times = 0.1, 0.2\n"
        "photonic.enabled = true\n"
        "photonic.T_H = 0.985\n"
        "\n"
    )
    cfg = parse_config(path)
    assert cfg.model.omega_int == 4.0
    assert cfg.n_points == 16
    assert cfg.hist_times == (0.1, 0.2)
    assert cfg.photonic
    assert cfg.optical.T_H == 0.985
    assert cfg.thermal.alpha == 0.2  # untouched default


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("omega_intt = 4.0\n")
    with pytest.raises(ConfigError, match="omega_intt"):
        parse_config(path)


def test_parse_config_rejects_unknown_photonic_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("photonic.tv = 0.2\n")
    with pytest.raises(ConfigError, match="photonic.tv"):
        parse_config(path)


def test_parse_config_rejects_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_points = many\n")
    with pytest.raises(ConfigError, match="n_points"):
        parse_config(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("omega_L", 0.0),
        ("alpha", 1.0),
        ("beta_B", 0.0),
        ("n_points", 1),
        ("moments_max", 0),
        ("moments_max", 512),
        ("samples", 0),
        ("samples", 2**63),
        ("seed", -1),
    ],
)
def test_validate_rejects_bad_fields(tmp_path, field, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"{field} = {value}\n")
    with pytest.raises(ConfigError, match=field):
        parse_config(path).validate()


def test_the_largest_moments_max_writes_finite_moments(tmp_path):
    # 4.0**511 = 2^1022 is the largest finite power of the dE lattice; past it
    # a value of zero weight would make its moment inf * 0, a NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([
            "sweep", "--config", _config(tmp_path, "n_points = 4\nmoments_max = 511\n"),
            "--out", str(tmp_path / "out"),
        ])
    assert code == 0
    header, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert all(math.isfinite(float(x)) for x in column(header, rows, "dE_m511"))
    assert float(column(header, rows, "dE_m511")[1]) > 0.0


def test_overflowing_dsigma_moments_exit_3_without_a_warning(tmp_path, capsys):
    # at omega_L = 2000 the largest |dsigma| at the second time is 14.59, so
    # its powers overflow from order 265 on (at t = 0 every one is 0); the
    # gate names the first failing time and its lowest failing order, and
    # no numpy warning escapes on the way
    out = tmp_path / "out"
    config = _config(tmp_path, "n_points = 4\nomega_L = 2000\nmoments_max = 511\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["sweep", "--config", config, "--out", str(out)])
    assert code == 3
    t1 = RunConfig(n_points=4).time_grid()[1]
    err = capsys.readouterr().err
    assert err == f"numeric invariant violated: ds_m265 at omega_L_t={t1:.6g}: inf is not finite\n"
    assert not list(out.glob("*"))


def test_validate_rejects_inverted_time_window(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t_min = 2.0\nt_max = 1.0\n")
    with pytest.raises(ConfigError, match="t_min"):
        parse_config(path).validate()


def test_validate_rejects_bad_photonic_ranges(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("photonic.T_V = 1.5\n")
    with pytest.raises(ConfigError, match="photonic.T_V"):
        parse_config(path).validate()


def test_prob_group_guard():
    t = np.array([0.25])
    _require_prob_group(np.array([0.5, 0.5]), "ok group", t)
    with pytest.raises(NumericInvariantError, match="at omega_L_t=0.25: .*sum"):
        _require_prob_group(np.array([0.5, 0.4]), "short group", t)
    with pytest.raises(NumericInvariantError, match="at omega_L_t=0.25: .*outside"):
        _require_prob_group(np.array([1.2, -0.2]), "wild group", t)
    # NaN fails every comparison of the gate, wherever it sits
    for cells in ([np.nan, 0.5], [0.5, np.nan]):
        with pytest.raises(NumericInvariantError, match="at omega_L_t=0.25: .*nan outside"):
            _require_prob_group(np.array(cells), "nan group", t)


# --- subcommands ---------------------------------------------------------


def small_config(tmp_path, extra=""):
    path = tmp_path / "small.cfg"
    path.write_text("n_points = 12\nsamples = 2000\n" + extra)
    return path


def test_sweep_outputs(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", str(small_config(tmp_path)), "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 12
    assert header[0] == "omega_L_t"

    # first row is the exact zero-time limit
    first = rows[0]
    assert float(first[0]) == 0.0
    joint = np.array([float(x) for x in first[1:17]]).reshape(4, 4)
    assert np.all(joint[~np.eye(4, dtype=bool)] == 0.0)
    for name in ("dE_m1", "ds_m5", "c_l1_10", "ds_mean"):
        assert float(column(header, rows, name)[0]) == 0.0
    assert column(header, rows, "ratio")[0] == ""

    for value in column(header, rows, "ift"):
        assert abs(float(value) - 1.0) <= 1e-10

    # probability columns stay inside [0, 1] and each joint row sums to 1
    for row in rows:
        cells = np.array([float(x) for x in row[1:17]])
        assert cells.min() >= -1e-12 and cells.max() <= 1.0 + 1e-12
        assert abs(cells.sum() - 1.0) <= 1e-10

    real_header, real_rows = read_csv(out / "realizations.csv")
    assert len(real_header) == 17
    assert len(real_rows) == 12
    assert float(column(real_header, real_rows, "dsig_00_00")[0]) == 0.0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["grid"]["n_points"] == 12
    assert set(summary) == {"grid", "de_mean", "h2_sq", "coherence_l1_10", "ratio"}


def test_sweep_summary_peak_location(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    t_star = math.pi / math.sqrt(26.0)
    step = summary["grid"]["step"]
    assert abs(summary["de_mean"]["argmax_omega_L_t"] - t_star) <= step
    assert abs(summary["h2_sq"]["argmax_omega_L_t"] - t_star) <= step
    assert abs(summary["ratio"]["argmax_omega_L_t"] - t_star) <= step


def test_summary_keeps_the_first_maximum_of_a_tie_across_blocks():
    peak = sweep._Peak()
    peak.update(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    peak.update(np.array([2.0, 3.0]), np.array([3.0, np.nan]))
    assert peak.peak == {"argmax_omega_L_t": 1.0, "max": 3.0}


def test_sweep_byte_identical_rerun(tmp_path):
    cfg = small_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out_b)]) == 0
    for name in ("sweep.csv", "realizations.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_hist_outputs(tmp_path):
    cfg = tmp_path / "hist.cfg"
    cfg.write_text("hist_times = 0.0, 0.62\n")
    out = tmp_path / "out"
    assert cli.main(["hist", "--config", str(cfg), "--out", str(out)]) == 0

    header, rows = read_csv(out / "hist_dE.csv")
    assert header == ["omega_L_t", "value", "probability"]
    zero_rows = [r for r in rows if float(r[0]) == 0.0]
    assert len(zero_rows) == 1
    assert float(zero_rows[0][1]) == 0.0 and float(zero_rows[0][2]) == 1.0

    peak_rows = [r for r in rows if float(r[0]) == 0.62]
    values = [float(r[1]) for r in peak_rows]
    probs = np.array([float(r[2]) for r in peak_rows])
    assert values == [-2.0, 0.0, 2.0]
    assert np.allclose(probs, [0.2069, 0.2308, 0.5624], atol=1e-3)
    assert abs(probs.sum() - 1.0) <= 1e-10

    ds_header, ds_rows = read_csv(out / "hist_ds.csv")
    ds_peak = [r for r in ds_rows if float(r[0]) == 0.62]
    mean = sum(float(r[1]) * float(r[2]) for r in ds_peak)
    assert abs(mean) <= 0.02


def test_hist_rejects_out_of_range_time(tmp_path, capsys):
    cfg = tmp_path / "hist.cfg"
    cfg.write_text("hist_times = 5.0\n")
    code = cli.main(["hist", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "hist_times" in capsys.readouterr().err


def test_compare_outputs(tmp_path):
    cfg = small_config(tmp_path, extra="photonic.enabled = true\n")
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0

    header, rows = read_csv(out / "mc_error.csv")
    assert len(rows) == 12
    assert header[1] == "err_j_00_00"
    assert header[-1] == "err_dE_m5"
    # zero-time sampling is deterministic: the empirical table is exact
    assert all(float(x) <= 0.05 for x in rows[0][1:17])

    ph_header, ph_rows = read_csv(out / "photonic_error.csv")
    assert len(ph_rows) == 12
    # ideal photonic parameters reproduce the exact conditional matrix
    worst = max(float(x) for row in ph_rows for x in row[1:])
    assert worst <= 1e-10


def test_compare_photonic_flag_controls_output(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    assert not (out / "photonic_error.csv").exists()
    out2 = tmp_path / "out2"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out2), "--photonic"]) == 0
    assert (out2 / "photonic_error.csv").exists()


def test_compare_byte_identical_rerun(tmp_path):
    cfg = small_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "mc_error.csv").read_bytes() == (out_b / "mc_error.csv").read_bytes()


def test_seed_override_changes_sampling(tmp_path):
    cfg = small_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out_a), "--seed", "1"]) == 0
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "mc_error.csv").read_bytes() != (out_b / "mc_error.csv").read_bytes()


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    code = cli.main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "mystery" in capsys.readouterr().err


def test_cli_maps_numeric_invariant_to_exit_3(tmp_path, monkeypatch, capsys):
    def broken(cfg, out_dir):
        raise NumericInvariantError("forced failure")

    monkeypatch.setitem(cli._COMMANDS, "sweep", (broken, ""))
    code = cli.main(["sweep", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "forced failure" in capsys.readouterr().err


SMALL = "n_points = 4\nsamples = 100\n"


@pytest.mark.parametrize(
    "command,config,flags,key",
    [
        (
            "compare",
            SMALL + "photonic.atten_H = 0\n",
            ["--photonic"],
            # the first grid time blocks: the error names it
            "photonic: gate blocks basis input(s) 00, 01, 10: post-selection never succeeds"
            " at omega_L_t=0\n",
        ),
        ("compare", SMALL + "photonic.T_H = 0.5\nphotonic.T_V = 0.5\n", ["--photonic"], "photonic"),
        ("sweep", "t_min = -1e308\nt_max = 1e308\n", [], "t_min"),
        ("sweep", "t_max = 1e308\n", [], "t_max"),
        ("sweep", "omega_int = 1e300\n", [], "omega_int"),
        ("compare", SMALL + "seed = 18446744073709551616\n", [], "seed"),
        ("compare", SMALL, ["--seed", "18446744073709551616"], "seed"),
        ("sweep", None, [], "--config"),
        ("sweep", "seed = 1\nseed = 2\n", [], "line 2: duplicate key 'seed'"),
        ("sweep", "n_points = 4\n", ["--out", os.path.join(os.devnull, "out")], "--out"),
        # a grid of 6.94 EiB, which numpy refuses at once on any host
        ("sweep", "n_points = 1000000000000000000\n", [], "config error: n_points: "),
        ("compare", "n_points = 1000000000000000000\n", [], "config error: n_points: "),
    ],
    ids=[
        "atten_H-blocks",
        "two-photon-interference-blocks",
        "step-overflow",
        "phase-overflow",
        "omega_int-overflow",
        "last-seed-from-file",
        "last-seed-from-flag",
        "missing-config",
        "duplicate-key",
        "unwritable-out",
        "unallocatable-grid-sweep",
        "unallocatable-grid-compare",
    ],
)
def test_invalid_input_exits_2(tmp_path, capsys, command, config, flags, key):
    path = tmp_path / "run.cfg"
    if config is not None:
        path.write_text(config)
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), *flags]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def test_compare_accepts_the_last_64_bit_seed_on_any_grid(tmp_path):
    # every point draws from the stream of the one seed, so no seed past it
    # needs to exist
    path = tmp_path / "run.cfg"
    path.write_text(SMALL)
    argv = ["compare", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--seed", str(2**64 - 1)]) == 0
    _, rows = read_csv(tmp_path / "out" / "mc_error.csv")
    assert len(rows) == 4


def _perturb_stack(monkeypatch, name, change):
    """Make ``sweep._evaluate`` see ``change`` applied to the stack ``sweep.<name>`` returns."""
    real = getattr(sweep, name)

    def changed(*args):
        a = real(*args).copy()
        change(a)
        return a

    monkeypatch.setattr(sweep, name, changed)


GATED_PHYSICS = {
    "default": "",
    # the target population 1/(1 + e^2000) underflows to 0: the input lacks
    # full support, and ift is gated against its closed form, not 1
    "absolutely-irreversible": "omega_L = 2000\n",
}
# six times for hist and for the other commands, so that rows 2 to 5 exist
SIX_TIMES = "n_points = 6\nsamples = 100\nhist_times = 0.05, 0.1, 0.15, 0.2, 0.25, 0.3\n"


def _gated_run(tmp_path, command, physics, grid=SIX_TIMES):
    """Run ``command`` on a small grid; its exit code and its grid's times."""
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / f"{command}.cfg"
    path.write_text(grid + physics)
    cfg = parse_config(path)
    times = cfg.hist_times if command == "hist" else cfg.time_grid()
    out = tmp_path / f"{command}-out"
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    assert not list(out.glob("*")), command
    return code, times


def test_cli_gates_ift_with_exit_3(tmp_path, monkeypatch, capsys):
    # every realization 1e-9 too large moves ift by about 1e-9 at every time
    def shift(sigma):
        sigma += 1e-9

    _perturb_stack(monkeypatch, "entropy_realizations", shift)
    for physics_name, physics in GATED_PHYSICS.items():
        for command in ("sweep", "hist", "compare"):
            code, times = _gated_run(tmp_path / physics_name, command, physics)
            err = capsys.readouterr().err
            assert code == 3, (physics_name, command)
            assert err.startswith(f"numeric invariant violated: ift at omega_L_t={times[0]:.6g}")
            assert "Traceback" not in err


def test_cli_gates_double_stochasticity_with_exit_3(tmp_path, monkeypatch, capsys):
    def leak(cond):
        cond[5, 3, 2] += 1e-9  # column and row sums of one table move off 1

    _perturb_stack(monkeypatch, "conditional_matrix", leak)
    for command in ("sweep", "hist", "compare"):
        code, times = _gated_run(tmp_path, command, "")
        err = capsys.readouterr().err
        assert code == 3, command
        assert err.startswith(
            f"numeric invariant violated: conditional table at omega_L_t={times[5]:.6g}"
        )
        assert "Traceback" not in err


def test_cli_gates_a_propagator_with_broken_norms_with_exit_3(tmp_path, monkeypatch, capsys):
    # the double-stochasticity gate is the only check of the propagator
    real = sweep.propagator_grid

    def scaled(p, times):
        h1, h2, u = real(p, times)
        u[5, 3, 2] *= 1.01  # one row and one column norm of a table move off 1
        return h1, h2, u

    monkeypatch.setattr(sweep, "propagator_grid", scaled)
    for command in ("sweep", "hist", "compare"):
        code, times = _gated_run(tmp_path, command, "")
        err = capsys.readouterr().err
        assert code == 3, command
        assert err.startswith(
            f"numeric invariant violated: conditional table at omega_L_t={times[5]:.6g}"
        )
        assert "Traceback" not in err


@pytest.mark.parametrize("physics", sorted(GATED_PHYSICS))
@pytest.mark.parametrize("command", ["sweep", "hist", "compare"])
def test_cli_gates_a_nan_conditional_cell_with_exit_3(
    tmp_path, monkeypatch, capsys, command, physics
):
    # NaN fails every comparison of the gates, so the first gate it reaches
    # names it, without a traceback from the sampler
    def poison(cond):
        cond[3, 1, 2] = np.nan

    _perturb_stack(monkeypatch, "conditional_matrix", poison)
    code, times = _gated_run(tmp_path, command, GATED_PHYSICS[physics])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(
        f"numeric invariant violated: conditional table at omega_L_t={times[3]:.6g}"
    )
    assert "Traceback" not in err


# the input populations broken by less than 1e-10, just past the joint gate's
# tolerance, and the message of the joint gate at t = 0, where each joint
# table is diag(p_in)
BROKEN_STATES = {
    # the mass of |01> moves to |10>, and 5e-12 more, so the sum stays 1
    "negative-population": (
        lambda p: p + np.array([0.0, -p[1] - 5e-12, p[1] + 5e-12, 0.0]),
        "probability -5.000000e-12..6.386351e-01 outside [0, 1]",
    ),
    "trace-off": (
        lambda p: p * (1.0 + 1e-11),
        "probabilities sum to 1.000000000010e+00, not 1",
    ),
    # |11> holds -9e-13 and |10> its mass and 1.8e-12 more: the sum is
    # 1 + 9e-13, within the tolerance, so only the cell range stops it before
    # a negative weight reaches a distribution or the sampler
    "negative-within-tolerance": (
        lambda p: np.array([p[0], p[1], p[2] + p[3] + 1.8e-12, -9e-13]),
        "probability -9.000000e-13..8.000000e-01 outside [0, 1]",
    ),
}
# six times from t = 0 for every command
SIX_FROM_ZERO = "n_points = 6\nsamples = 100\nhist_times = 0.0, 0.05, 0.1, 0.15, 0.2, 0.25\n"


@pytest.mark.parametrize("state", sorted(BROKEN_STATES))
@pytest.mark.parametrize("command", ["sweep", "hist", "compare"])
def test_joint_gate_is_the_only_check_of_the_input_state(
    tmp_path, monkeypatch, capsys, command, state
):
    change, message = BROKEN_STATES[state]
    real = sweep.input_populations
    monkeypatch.setattr(sweep, "input_populations", lambda spec, p: change(real(spec, p)))
    code, times = _gated_run(tmp_path, command, "", grid=SIX_FROM_ZERO)
    assert code == 3
    assert times[0] == 0.0
    err = capsys.readouterr().err
    assert err == f"numeric invariant violated: joint table at omega_L_t=0: {message}\n"


@pytest.mark.parametrize(
    "command,flag",
    [
        (command, flag)
        for command in ("sweep", "hist")
        for flag in ("--seed", "--samples", "--photonic", "--no-photonic")
    ],
)
def test_sampling_flags_belong_to_compare_only(tmp_path, capsys, command, flag):
    # sweep and hist neither sample nor run the photonic model
    argv = [command, "--out", str(tmp_path / "out"), flag]
    if not flag.endswith("photonic"):
        argv.append("1")
    with pytest.raises(SystemExit) as done:
        cli.main(argv)
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_loads_no_lazy_numpy_submodule():
    # numpy loads numpy.ma and numpy.random on first use; the CLI's start-up
    # must not pay for them (np.unique at import would load numpy.ma, and
    # only the sampler needs numpy.random)
    code = (
        "import sys, gate_energetics.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['numpy', 'ma'], ['numpy', 'random'])))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# a stack that sweep._evaluate builds, the change to rows 2 and 3 of it, and
# the message of the gate that must stop it
JOINT_GATES = {
    # two tables sum past 1
    "joint-sum": ("joint_table_from_conditional", lambda x: x + 1e-9, "joint table at"),
    # two tables put weight on a realization left undefined
    "undefined-weight": (
        "entropy_realizations",
        lambda x: np.nan,
        "undefined entropy realizations at",
    ),
}


@pytest.mark.parametrize(
    "command,gate",
    [(command, gate) for gate in JOINT_GATES for command in ("sweep", "hist", "compare")],
    ids=lambda value: value,
)
def test_cli_gates_joint_table_at_its_first_failing_time(
    tmp_path, monkeypatch, capsys, command, gate
):
    name, change, message = JOINT_GATES[gate]

    def changed(a):
        a[[2, 3], 2, 3] = change(a[[2, 3], 2, 3])

    _perturb_stack(monkeypatch, name, changed)
    code, times = _gated_run(tmp_path, command, "")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric invariant violated: {message} omega_L_t={times[2]:.6g}")
    assert "Traceback" not in err


# twenty times, which blocks of 7 split into 7 + 7 + 6
HIST_TWENTY = tuple(0.05 * k for k in range(1, 21))
TWENTY_TIMES = f"n_points = 20\nsamples = 100\nhist_times = {', '.join(map(repr, HIST_TWENTY))}\n"
# the gates that fail, by row of the grid: the first block that fails ends
# the run, and within it the double-stochasticity gate runs before the joint
# gate; the gate and row named, and the blocks propagator_grid sees
BLOCK_FAILURES = {
    "joint-early-ds-late": ({"joint": 2, "ds": 16}, ("joint", 2), [7]),
    "ds-late": ({"ds": 16}, ("ds", 16), [7, 7, 6]),
    "joint-and-ds-in-one-block": ({"joint": 2, "ds": 5}, ("ds", 5), [7]),
}
GATE_MESSAGES = {"joint": "joint table", "ds": "conditional table"}


@pytest.mark.parametrize("failure", sorted(BLOCK_FAILURES))
@pytest.mark.parametrize("command", ["sweep", "hist", "compare"])
def test_block_walk_reports_the_first_failing_blocks_first_failure(
    tmp_path, monkeypatch, capsys, command, failure
):
    monkeypatch.setattr(sweep, "_GRID_ROWS", 7)
    grid = HIST_TWENTY if command == "hist" else RunConfig(n_points=20).time_grid()
    failing, (gate, row), blocks = BLOCK_FAILURES[failure]
    rows = {name: grid[i] for name, i in failing.items()}
    block = {}  # the times of the block in evaluation, as propagator_grid saw them
    sizes = []  # the size of every block propagator_grid saw
    real = sweep.propagator_grid

    def seen(p, times):
        block["t"] = np.asarray(times)
        sizes.append(len(times))
        return real(p, times)

    def at(name):
        return block["t"] == rows[name] if name in rows else np.zeros(len(block["t"]), bool)

    def leak(cond):
        cond[at("ds"), 3, 2] += 1e-9

    def overfill(joint):
        joint[at("joint"), 2, 3] += 1e-9

    monkeypatch.setattr(sweep, "propagator_grid", seen)
    _perturb_stack(monkeypatch, "conditional_matrix", leak)
    _perturb_stack(monkeypatch, "joint_table_from_conditional", overfill)
    code, times = _gated_run(tmp_path, command, "", grid=TWENTY_TIMES)
    assert code == 3
    assert list(times) == list(grid)
    # no block after the failing one, and no evaluation of the whole grid
    assert sizes == blocks
    err = capsys.readouterr().err
    assert err.startswith(
        f"numeric invariant violated: {GATE_MESSAGES[gate]} at omega_L_t={grid[row]:.6g}"
    )
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "physics,command,code",
    [
        ("omega_L = 2000\n", "sweep", 0),
        ("omega_L = 2000\n", "hist", 0),
        ("omega_L = 2000\n", "compare", 0),
        ("omega_L = 1e10\nbeta_B = 1e300\n", "hist", 0),
        ("omega_L = 1e10\nbeta_B = 1e300\n", "sweep", 0),
    ],
    ids=["sweep", "hist", "compare", "product-overflow-hist", "product-overflow-sweep"],
)
def test_gibbs_weight_overflow_ends_without_traceback(tmp_path, capsys, physics, command, code):
    # beta_B * omega_L = 1000 is past the point where exp overflows (at 1e310
    # the product itself is inf, and so is every landauer_lhs with <dE> > 0,
    # which sweep leaves empty); the target population 1/(1 + e^2000)
    # underflows to 0, so ift = 1 - lambda with lambda ~ 1e-5 the weight of
    # the absolutely irreversible outcomes, which the IFT gate accepts
    path = tmp_path / "run.cfg"
    path.write_text(SMALL + physics)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("ift" in err) == (code == 3)


def test_compare_cost_does_not_grow_with_samples(tmp_path):
    # a per-shot sampler would not finish 10^12 shots per point
    path = tmp_path / "run.cfg"
    path.write_text("n_points = 4\nsamples = 1000000000000\n")
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(path), "--out", str(out)]) == 0
    _, rows = read_csv(out / "mc_error.csv")
    assert len(rows) == 4
    assert all(0.0 <= float(x) <= 1.0 for row in rows for x in row[1:])


# --- output files ----------------------------------------------------------

# the files of each command, in the order it prints their paths
PRINTED = {
    "sweep": ["sweep.csv", "realizations.csv", "summary.json"],
    "hist": ["hist_dE.csv", "hist_ds.csv"],
    "compare": ["mc_error.csv", "photonic_error.csv"],
}


@pytest.mark.parametrize("command", sorted(PRINTED))
def test_a_run_leaves_exactly_the_final_names(tmp_path, monkeypatch, capsys, command):
    # blocks of 7 times, so that sweep and hist write their files over
    # several blocks before they rename them
    monkeypatch.setattr(sweep, "_GRID_ROWS", 7)
    out = tmp_path / "out"
    argv = [command, "--config", _config(tmp_path, TWENTY_TIMES), "--out", str(out)]
    assert cli.main(argv + (["--photonic"] if command == "compare" else [])) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(PRINTED[command])
    assert capsys.readouterr().out.split() == [str(out / name) for name in PRINTED[command]]


def _config(tmp_path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", ["sweep", "hist", "compare"])
def test_any_error_in_a_later_block_leaves_no_file(tmp_path, monkeypatch, command):
    # an error other than a failed gate, after two blocks have been written
    # (by compare with the photonic model, so that both of its files are)
    monkeypatch.setattr(sweep, "_GRID_ROWS", 7)
    real, calls = sweep.propagator_grid, []

    def third_block_fails(p, times):
        calls.append(len(times))
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(p, times)

    monkeypatch.setattr(sweep, "propagator_grid", third_block_fails)
    out = tmp_path / "out"
    argv = [command, "--config", _config(tmp_path, TWENTY_TIMES), "--out", str(out)]
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv + (["--photonic"] if command == "compare" else []))
    assert calls == [7, 7, 6]
    assert not list(out.glob("*"))


_PEAK_MEMORY = """
import sys
from gate_energetics import cli, sweep
from gate_energetics.config import parse_config
config, out, code, argv = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
if code == 3:  # one table at the grid's last time fails the double-stochasticity gate
    last, real = parse_config(config).time_grid()[-1], sweep.propagator_grid
    def broken(p, times):
        h1, h2, u = real(p, times)
        u[times == last, 3, 2] *= 1.01
        return h1, h2, u
    sweep.propagator_grid = broken
assert cli.main([*argv, "--config", config, "--out", out]) == code
status = open("/proc/self/status").read().split("\\n")
print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""
# each run's argv, config lines and exit code; compare --photonic at the
# compare_photonic benchmark shape, and a sweep that fails in its last block
_GROWN_COMMANDS = {
    "sweep": (["sweep"], "", 0),
    "compare": (
        ["compare", "--photonic"],
        "samples = 1000\nphotonic.T_H = 0.985\nphotonic.eps = 0.01\n",
        0,
    ),
    "failing-sweep": (["sweep"], "", 3),
}


@pytest.mark.parametrize("command", sorted(_GROWN_COMMANDS))
def test_sweep_and_compare_memory_does_not_grow_with_the_grid(tmp_path, command):
    """The peak resident size of a fresh sweep or compare --photonic at
    200 000 points stays within 10 MiB of the one at 20 000: no block's
    tables or bytes are kept, and a sweep that fails in its last block
    evaluates no more than a block at once."""
    try:
        with open("/proc/self/status") as status:
            if not any(line.startswith("VmHWM:") for line in status):
                pytest.skip("no VmHWM in /proc/self/status")
    except OSError:
        pytest.skip("no /proc/self/status")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    peak_kib = {}
    argv, lines, code = _GROWN_COMMANDS[command]
    for n in (20_000, 200_000):
        config = tmp_path / f"{n}.cfg"
        config.write_text(f"n_points = {n}\n" + lines)
        out = tmp_path / f"out{n}"
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_MEMORY, str(config), str(out), str(code), *argv],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        if code:
            assert "numeric invariant violated: conditional table" in done.stderr
            assert not list(out.glob("*"))
        peak_kib[n] = int(done.stdout.split()[-1])
        shutil.rmtree(out)  # up to 170 MB at 200 000 points
    assert abs(peak_kib[200_000] - peak_kib[20_000]) < 10 * 1024, peak_kib
