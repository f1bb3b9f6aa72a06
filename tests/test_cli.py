import dataclasses
import json
import math
import os

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
        ("samples", 0),
        ("seed", -1),
    ],
)
def test_validate_rejects_bad_fields(tmp_path, field, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"{field} = {value}\n")
    with pytest.raises(ConfigError, match=field):
        parse_config(path).validate()


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
    _require_prob_group(np.array([0.5, 0.5]), "ok group")
    with pytest.raises(NumericInvariantError, match="sum"):
        _require_prob_group(np.array([0.5, 0.4]), "short group")
    with pytest.raises(NumericInvariantError, match="outside"):
        _require_prob_group(np.array([1.2, -0.2]), "wild group")


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
        ("compare", SMALL + "photonic.atten_H = 0\n", ["--photonic"], "photonic"),
        ("compare", SMALL + "photonic.T_H = 0.5\nphotonic.T_V = 0.5\n", ["--photonic"], "photonic"),
        ("sweep", "t_min = -1e308\nt_max = 1e308\n", [], "t_min"),
        ("sweep", "t_max = 1e308\n", [], "t_max"),
        ("sweep", "omega_int = 1e300\n", [], "omega_int"),
        ("compare", SMALL + "seed = 18446744073709551615\n", [], "seed"),
        ("compare", SMALL, ["--seed", "18446744073709551615"], "seed"),
        ("sweep", None, [], "--config"),
        ("sweep", "seed = 1\nseed = 2\n", [], "line 2: duplicate key 'seed'"),
        ("sweep", "n_points = 4\n", ["--out", os.path.join(os.devnull, "out")], "--out"),
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


def _perturb_grid(monkeypatch, change):
    """Make run_sweep see the grid ``change(grid)`` returns."""
    real = sweep.evaluate_grid
    monkeypatch.setattr(sweep, "evaluate_grid", lambda cfg, times: change(real(cfg, times)))


def test_cli_gates_ift_with_exit_3(tmp_path, monkeypatch, capsys):
    def off_by_a_little(grid):
        report = dataclasses.replace(grid.report, ift=grid.report.ift + 1e-9)
        return dataclasses.replace(grid, report=report)

    _perturb_grid(monkeypatch, off_by_a_little)
    code = cli.main(["sweep", "--config", str(small_config(tmp_path)), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "ift" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_cli_gates_double_stochasticity_with_exit_3(tmp_path, monkeypatch, capsys):
    def leaky(grid):
        cond = grid.cond.copy()
        cond[5, 3, 2] += 1e-9  # column and row sums of one table move off 1
        return dataclasses.replace(grid, cond=cond)

    _perturb_grid(monkeypatch, leaky)
    code = cli.main(["sweep", "--config", str(small_config(tmp_path)), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "conditional table" in err
    assert f"omega_L_t={RunConfig(n_points=12).time_grid()[5]:.6g}" in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_cli_gates_joint_table_at_its_first_failing_time(tmp_path, monkeypatch, capsys):
    def heavy(grid):
        joint = grid.joint.copy()
        joint[[7, 9], 2, 3] += 1e-9  # two tables sum past 1
        return dataclasses.replace(grid, joint=joint)

    _perturb_grid(monkeypatch, heavy)
    code = cli.main(["sweep", "--config", str(small_config(tmp_path)), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "joint table" in err and "sum to" in err
    assert f"omega_L_t={RunConfig(n_points=12).time_grid()[7]:.6g}:" in err
    assert not (tmp_path / "out" / "sweep.csv").exists()
