import errno
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
        "photonic.T_H = 0.985\n"
        "\n"
    )
    cfg = parse_config(path)
    assert cfg.model.omega_int == 4.0
    assert cfg.n_points == 16
    assert cfg.hist_times == (0.1, 0.2)
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


def test_overflowing_dsigma_moments_exit_3_without_a_warning(tmp_path, monkeypatch, capsys):
    # at omega_L = 2000 the largest |dsigma| at the second time is 14.59, so
    # its powers overflow from order 265 on (at t = 0 every one is 0); the
    # gate names the first failing time and its lowest failing order, and
    # no numpy warning escapes on the way.  In one block, then in blocks of
    # one time, where the writer has the first row when the second fails
    out = tmp_path / "out"
    config = _config(tmp_path, "n_points = 4\nomega_L = 2000\nmoments_max = 511\n")
    t1 = RunConfig(n_points=4).time_grid()[1]
    for rows in (None, 1):
        if rows:
            through_the_writer(monkeypatch, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["sweep", "--config", config, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"numeric invariant violated: ds_m265 at omega_L_t={t1:.6g}: inf is not finite\n"
        assert not list(out.glob("*"))


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


def through_the_writer(monkeypatch, rows=7):
    """Walk every grid in blocks of ``rows`` times, on two CPUs: each command
    of more than one block formats its rows in a writer process."""
    monkeypatch.setattr(sweep, "_GRID_ROWS", rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def walks(monkeypatch):
    """The blocks of six times that a gate test's grid spans: one, then two
    through the writer process.  The test changes the tables of every block
    alike, so the first block fails."""
    yield 1
    through_the_writer(monkeypatch, rows=6)
    yield 2


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
    cfg = small_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["compare", "--photonic", "--config", str(cfg), "--out", str(out)]) == 0

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
    # the config's seed overrides the default one
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for seed, out in ((1, out_a), (2, out_b)):
        cfg = small_config(tmp_path, extra=f"seed = {seed}\n")
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out_a / "mc_error.csv").read_bytes() != (out_b / "mc_error.csv").read_bytes()


@pytest.mark.parametrize(
    "flag", [["--seed", "1"], ["--samples", "1"], ["--no-photonic"]], ids=lambda f: f[0][2:]
)
def test_a_removed_flag_exits_2_naming_itself(tmp_path, capsys, flag):
    # seed and samples come from the config file alone, and the photonic
    # comparison from --photonic alone
    with pytest.raises(SystemExit) as done:
        cli.main(["compare", "--out", str(tmp_path / "out"), *flag])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
# a Delta whose square underflows (it divided by zero when Delta was the root
# of the squares) and a Delta that rounds to 0 even as hypot(omega_L, omega_int) / 2
TINY_FREQUENCIES = ("omega_L = 1e-162\nomega_int = 0\n", "omega_L = 5e-324\nomega_int = 0\n")
ALL_COMMANDS = [("sweep", []), ("hist", []), ("compare", []), ("compare", ["--photonic"])]
COMMAND_IDS = ["sweep", "hist", "compare", "compare-photonic"]
# the step rounds to 0, a step of 0.64 at times spaced 16 apart, and two
# times one float spacing apart, which '%.11e' prints alike
TOO_NARROW = (
    "t_max = 5e-324\nn_points = 2\n",
    "t_min = 1e17\nt_max = 100000000000000128\n",
    "t_min = 1\nt_max = 1.0000000000000004\nn_points = 2\n",
)
# id -> (config, key): range rules of RunConfig.validate, each refused by the
# CLI and by every command called from Python
RANGE_REFUSALS = {
    "omega_L-zero": ("omega_L = 0\n", "omega_L"),
    "omega_int-negative": ("omega_int = -1\n", "omega_int"),
    # omega_L / 2 Delta must stay at most 1: 0.75 at 1.5e-323, where Delta rounds up
    "subnormal-Delta-1.5e-323": ("omega_L = 1.5e-323\nomega_int = 0\n", "omega_L"),
    "subnormal-Delta-1e-308": ("omega_L = 1e-308\nomega_int = 0\n", "omega_L"),
    **{f"alpha-{a}": (f"alpha = {a}\n", "alpha") for a in ("0.0", "1.0", "-0.2", "1.3")},
    "samples-zero": ("samples = 0\n", "samples"),
    "samples-2**63": (f"samples = {2**63}\n", "samples"),
    "seed-negative": ("seed = -1\n", "seed"),
    "n_points-one": ("n_points = 1\n", "n_points"),
    "moments_max-zero": ("moments_max = 0\n", "moments_max"),
    # 4.0**512 overflows
    "moments_max-512": ("moments_max = 512\n", "moments_max"),
    "inverted-window": ("t_min = 2\nt_max = 1\n", "t_min, t_max"),
    "photonic.T_V-above-1": ("photonic.T_V = 1.5\n", "photonic.T_V"),
    # the physics fields are checked before the run-level rules
    "beta_B-before-n_points": ("beta_B = 0\nn_points = 1\n", "beta_B"),
}


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
        (
            "compare",
            SMALL + "photonic.T_H = 0.5\nphotonic.T_V = 0.5\n",
            ["--photonic"],
            # two-photon interference empties the HH and VV coincidences at t = 0
            "photonic: gate blocks basis input(s) 00, 11: post-selection never succeeds"
            " at omega_L_t=0\n",
        ),
        ("sweep", "t_min = -1e308\nt_max = 1e308\n", [], "t_min"),
        ("sweep", "t_max = 1e308\n", [], "t_max"),
        ("sweep", "omega_int = 1e300\n", [], "omega_int"),
        ("compare", SMALL + "seed = 18446744073709551616\n", [], "seed"),
        ("sweep", None, [], "--config"),
        ("sweep", "seed = 1\nseed = 2\n", [], "line 2: duplicate key 'seed'"),
        # the photonic comparison is compare --photonic alone
        ("compare", "photonic.enabled = true\n", [], "unknown config key: 'photonic.enabled'"),
        ("sweep", "n_points = 4\n", ["--out", os.path.join(os.devnull, "out")], "--out"),
        # above 2**53 the grid's indices are no longer exact doubles
        ("sweep", "n_points = 1000000000000000000\n", [], "config error: n_points: "),
        ("compare", "n_points = 1000000000000000000\n", [], "config error: n_points: "),
        # 2**62 made numpy raise ValueError; 2**63 - 1 and 2**63 gave an empty grid
        ("sweep", "n_points = 4611686018427387904\n", [], "config error: n_points: "),
        ("compare", "n_points = 4611686018427387904\n", [], "config error: n_points: "),
        ("sweep", "n_points = 9223372036854775807\n", [], "config error: n_points: "),
        ("compare", "n_points = 9223372036854775807\n", [], "config error: n_points: "),
        ("sweep", "n_points = 9223372036854775808\n", [], "config error: n_points: "),
        # a grid of 64 PiB at the bound, which numpy refuses at once on any host
        ("sweep", "n_points = 9007199254740992\n", [], "config error: n_points: "),
        ("hist", "hist_times = 0.1,,0.2,\n", [], "config error: hist_times: "),
        ("hist", "hist_times = ,\n", [], "config error: hist_times: "),
        # windows narrower than the float spacing of their times: the grid
        # repeats a time instead of increasing
        ("sweep", TOO_NARROW[0], [], "config error: t_min, t_max: "),
        ("compare", TOO_NARROW[0], [], "config error: t_min, t_max: "),
        ("sweep", TOO_NARROW[1], [], "config error: t_min, t_max: "),
        ("compare", TOO_NARROW[1], [], "config error: t_min, t_max: "),
        ("sweep", TOO_NARROW[2], [], "config error: t_min, t_max: "),
        ("compare", TOO_NARROW[2], [], "config error: t_min, t_max: "),
        # Delta = hypot(omega_L, omega_int) / 2 rounds to 0
        *[
            (command, TINY_FREQUENCIES[1], flags, "config error: omega_L: ")
            for command, flags in ALL_COMMANDS
        ],
        *[
            ("compare", config, [], f"config error: {key}: ")
            for config, key in RANGE_REFUSALS.values()
        ],
    ],
    ids=[
        "atten_H-blocks",
        "two-photon-interference-blocks",
        "step-overflow",
        "phase-overflow",
        "omega_int-overflow",
        "last-seed-from-file",
        "missing-config",
        "duplicate-key",
        "photonic-key",
        "unwritable-out",
        "unallocatable-grid-sweep",
        "unallocatable-grid-compare",
        "2**62-points-sweep",
        "2**62-points-compare",
        "2**63-1-points-sweep",
        "2**63-1-points-compare",
        "2**63-points-sweep",
        "unallocatable-grid-at-the-bound",
        "empty-hist-time",
        "bare-comma-hist-times",
        "zero-step-sweep",
        "zero-step-compare",
        "sub-spacing-step-sweep",
        "sub-spacing-step-compare",
        "printed-alike-sweep",
        "printed-alike-compare",
        *[f"zero-Delta-{name}" for name in COMMAND_IDS],
        *RANGE_REFUSALS,
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


@pytest.mark.parametrize("command", [sweep.run_sweep, sweep.emit_distributions, sweep.run_compare])
@pytest.mark.parametrize(
    "config,key",
    [*RANGE_REFUSALS.values(), (RunConfig(hist_times=()), "hist_times")],
    ids=[*RANGE_REFUSALS, "no-hist-times"],
)
def test_every_command_refuses_what_the_cli_refuses(tmp_path, command, config, key):
    # the library door: a caller that skips the CLI gets the same ConfigError,
    # before the command makes its output directory
    cfg = config if isinstance(config, RunConfig) else parse_config(_config(tmp_path, config))
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as refused:
        command(cfg, out)
    assert str(refused.value).startswith(f"{key}: ")
    assert not out.exists()


def test_a_step_above_the_printed_resolution_prints_every_time_apart(tmp_path):
    # 2e-11 at t = 1, where the 12th significant digit is 1e-11
    path = tmp_path / "run.cfg"
    path.write_text("t_min = 1\nt_max = 1.00000000004\nn_points = 2\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert column(header, rows, "omega_L_t") == ["1.00000000000e+00", "1.00000000002e+00"]


@pytest.mark.parametrize("command,flags", ALL_COMMANDS, ids=COMMAND_IDS)
def test_a_frequency_whose_square_underflows_runs(tmp_path, capsys, command, flags):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_FREQUENCIES[0])
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out), *flags]) == 0
    assert capsys.readouterr().err == ""
    assert len(os.listdir(out)) == {"sweep": 3, "hist": 2, "compare": 1 + len(flags)}[command]


def test_compare_accepts_the_last_64_bit_seed_on_any_grid(tmp_path):
    # every point draws from the stream of the one seed, so no seed past it
    # needs to exist
    path = tmp_path / "run.cfg"
    path.write_text(SMALL + f"seed = {2**64 - 1}\n")
    assert cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
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

def six_times(blocks, first=0.05):
    """Six times per block for hist, from ``first`` in steps of 0.05, and for
    the other commands, so that rows 2 to 5 of the first block exist."""
    hist = ", ".join(repr(round(first + 0.05 * k, 2)) for k in range(6 * blocks))
    return f"n_points = {6 * blocks}\nsamples = 100\nhist_times = {hist}\n"


def _gated_run(tmp_path, command, physics, grid):
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
    for blocks in walks(monkeypatch):
        for physics_name, physics in GATED_PHYSICS.items():
            for command in ("sweep", "hist", "compare"):
                grid = six_times(blocks)
                code, times = _gated_run(tmp_path / physics_name, command, physics, grid)
                err = capsys.readouterr().err
                assert code == 3, (physics_name, command)
                assert err.startswith(
                    f"numeric invariant violated: ift at omega_L_t={times[0]:.6g}"
                )
                assert "Traceback" not in err


def test_cli_gates_double_stochasticity_with_exit_3(tmp_path, monkeypatch, capsys):
    def leak(cond):
        cond[5, 3, 2] += 1e-9  # column and row sums of one table move off 1

    _perturb_stack(monkeypatch, "conditional_matrix", leak)
    for blocks in walks(monkeypatch):
        for command in ("sweep", "hist", "compare"):
            code, times = _gated_run(tmp_path, command, "", six_times(blocks))
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
        u[2, 5] *= 1.01  # U32: one row and one column norm of a table move off 1
        return h1, h2, u

    monkeypatch.setattr(sweep, "propagator_grid", scaled)
    for blocks in walks(monkeypatch):
        for command in ("sweep", "hist", "compare"):
            code, times = _gated_run(tmp_path, command, "", six_times(blocks))
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
    for blocks in walks(monkeypatch):
        code, times = _gated_run(tmp_path, command, GATED_PHYSICS[physics], six_times(blocks))
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


@pytest.mark.parametrize("state", sorted(BROKEN_STATES))
@pytest.mark.parametrize("command", ["sweep", "hist", "compare"])
def test_joint_gate_is_the_only_check_of_the_input_state(
    tmp_path, monkeypatch, capsys, command, state
):
    change, message = BROKEN_STATES[state]
    real = sweep.input_populations
    monkeypatch.setattr(sweep, "input_populations", lambda spec, p: change(real(spec, p)))
    for blocks in walks(monkeypatch):
        code, times = _gated_run(tmp_path, command, "", six_times(blocks, first=0.0))
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
    # sweep and hist neither sample nor run the photonic model; compare has
    # lost all of these but --photonic (test_a_removed_flag_exits_2_naming_itself)
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
    for blocks in walks(monkeypatch):
        code, times = _gated_run(tmp_path, command, "", six_times(blocks))
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
    through_the_writer(monkeypatch)
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
    code, times = _gated_run(tmp_path, command, "", TWENTY_TIMES)
    assert code == 3
    assert list(times) == list(grid)
    # no block after the failing one, and no evaluation of the whole grid
    assert sizes == blocks
    err = capsys.readouterr().err
    assert err.startswith(
        f"numeric invariant violated: {GATE_MESSAGES[gate]} at omega_L_t={grid[row]:.6g}"
    )
    assert "Traceback" not in err


COMMANDS = ("sweep", "hist", "compare")
# inputs whose population is subnormal: the target's excited one inside
# 354.3 < beta_B omega_L < 372.5, and the products with alpha = 1e-310
SUBNORMAL = {
    "beta_B-360": "beta_B = 360\n",
    "omega_L-360": "omega_L = 360\nbeta_B = 1\n",
    "alpha-1e-310": "alpha = 1e-310\n",
}


@pytest.mark.parametrize(
    "physics,command,code",
    [
        ("omega_L = 2000\n", "sweep", 0),
        ("omega_L = 2000\n", "hist", 0),
        ("omega_L = 2000\n", "compare", 0),
        ("omega_L = 1e10\nbeta_B = 1e300\n", "hist", 0),
        ("omega_L = 1e10\nbeta_B = 1e300\n", "sweep", 0),
        # beta_B omega_L of about 2^60: a shift of the exponent by its excess
        # over 700 rounded up by 68, and exp overflowed
        *(("omega_L = 2000\nbeta_B = 576460752303424\n", command, 0) for command in COMMANDS),
        # a subnormal population is set to 0: its e^{-dsigma} would overflow
        *((physics, command, 0) for physics in SUBNORMAL.values() for command in COMMANDS),
    ],
    ids=[
        "sweep", "hist", "compare", "product-overflow-hist", "product-overflow-sweep",
        *(f"shift-rounding-{command}" for command in COMMANDS),
        *(f"{name}-{command}" for name in SUBNORMAL for command in COMMANDS),
    ],
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
    # several blocks, through the writer, before they rename them
    through_the_writer(monkeypatch)
    out = tmp_path / "out"
    argv = [command, "--config", _config(tmp_path, TWENTY_TIMES), "--out", str(out)]
    assert cli.main(argv + (["--photonic"] if command == "compare" else [])) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(PRINTED[command])
    assert capsys.readouterr().out.split() == [str(out / name) for name in PRINTED[command]]


@pytest.fixture
def writers(monkeypatch):
    """The ``_WriterProcess`` of each command the test runs, in start order."""
    start, started = sweep._WriterProcess.__init__, []

    def recorded(self, csvs):
        start(self, csvs)
        started.append(self)

    monkeypatch.setattr(sweep._WriterProcess, "__init__", recorded)
    return started


@pytest.mark.parametrize("command", sorted(PRINTED))
def test_a_failed_rename_leaves_no_final_name(tmp_path, monkeypatch, capsys, writers, command):
    # a directory at the command's last output name fails its os.replace
    # after the other files have taken their final names, which are then
    # unlinked: the files were written over several blocks, through the
    # writer, and only the directory is left
    through_the_writer(monkeypatch)
    out = tmp_path / "out"
    last = PRINTED[command][-1]
    (out / last).mkdir(parents=True)
    argv = [command, "--config", _config(tmp_path, TWENTY_TIMES), "--out", str(out)]
    assert cli.main(argv + (["--photonic"] if command == "compare" else [])) == 2
    assert capsys.readouterr().err.startswith("config error: --out: ")
    assert len(writers) == 1
    assert [path.name for path in out.iterdir()] == [last]
    assert not list((out / last).iterdir())


def _config(tmp_path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", ["sweep", "hist", "compare"])
def test_any_error_in_a_later_block_leaves_no_file(tmp_path, monkeypatch, command):
    # an error other than a failed gate, after two blocks have been written
    # (by compare with the photonic model, so that both of its files are),
    # through the writer
    through_the_writer(monkeypatch)
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


def test_a_blocked_photonic_input_in_a_later_block_exits_2_and_leaves_no_file(
    tmp_path, monkeypatch, capsys, writers
):
    # thirty times in blocks of 7, through the writer: the gate blocks input
    # 01 at rows 16 and 18, both in the third block.  compare names the first
    # of them, evaluates no later block and leaves no file; the autouse
    # fixture no_child_process_left checks that the writer was reaped
    through_the_writer(monkeypatch)
    real_grid, real_gate, sizes = sweep.propagator_grid, sweep.conditional_for_time, []

    def evaluated(p, times):
        sizes.append(len(times))
        return real_grid(p, times)

    def blocking(optical, h1, h2):
        cond, success = real_gate(optical, h1, h2)
        if len(sizes) == 3:
            success[[2, 4], 1] = 0.0
        return cond, success

    monkeypatch.setattr(sweep, "propagator_grid", evaluated)
    monkeypatch.setattr(sweep, "conditional_for_time", blocking)
    out = tmp_path / "out"
    config = _config(tmp_path, "n_points = 30\nsamples = 100\n")
    assert cli.main(["compare", "--photonic", "--config", config, "--out", str(out)]) == 2
    assert sizes == [7, 7, 7]
    assert len(writers) == 1
    t16 = RunConfig(n_points=30).time_grid()[16]
    assert capsys.readouterr().err == (
        "config error: photonic: gate blocks basis input(s) 01: post-selection never succeeds"
        f" at omega_L_t={t16:.6g}\n"
    )
    assert not list(out.iterdir())


def _no_space_error():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _no_space(self, *columns):
    raise _no_space_error()


@pytest.mark.parametrize("path", ["in-process", "writer"])
@pytest.mark.parametrize("command", sorted(PRINTED))
def test_a_full_disk_exits_2_and_leaves_no_file(tmp_path, monkeypatch, capsys, command, path):
    # the writer's OSError comes back to the main process, which reports it
    # as any other failure to write --out, not as a broken pipe
    if path == "writer":
        through_the_writer(monkeypatch)
    monkeypatch.setattr(sweep._CsvWriter, "write", _no_space)
    out = tmp_path / "out"
    argv = [command, "--config", _config(tmp_path, TWENTY_TIMES), "--out", str(out)]
    assert cli.main(argv + (["--photonic"] if command == "compare" else [])) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --out: {_no_space_error()}\n"
    assert not list(out.iterdir())


def test_the_writers_failure_ends_the_command_at_its_next_send(
    tmp_path, monkeypatch, capsys, writers
):
    # the writer fails on the last write of the first block, realizations.csv
    # (a row of 17 cells), and has ended before the second block is sent:
    # that send raises the writer's error, and no third block is evaluated.
    # Failing on the first write instead raced the first block's second send
    through_the_writer(monkeypatch)
    write = sweep._CsvWriter.write

    def fails_on_realizations(self, cells):
        if cells.shape[1] == 17:
            _no_space(self)
        write(self, cells)

    monkeypatch.setattr(sweep._CsvWriter, "write", fails_on_realizations)
    real, sizes = sweep.propagator_grid, []

    def evaluated(p, times):
        sizes.append(len(times))
        if len(sizes) == 2:  # wait until the writer has ended, without reaping it
            os.waitid(os.P_PID, writers[0]._pid, os.WEXITED | os.WNOWAIT)
        return real(p, times)

    monkeypatch.setattr(sweep, "propagator_grid", evaluated)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", _config(tmp_path, TWENTY_TIMES), "--out", str(out)]) == 2
    assert sizes == [7, 7]
    assert capsys.readouterr().err == f"config error: --out: {_no_space_error()}\n"
    assert not list(out.iterdir())


def test_the_writer_keeps_every_byte_through_a_pipe_it_cannot_enlarge(tmp_path, monkeypatch):
    # F_SETPIPE_SZ refused, as above the user's pipe limit: each 2048-row
    # block of sweep.csv, 512 KiB of cells, crosses a pipe of the default
    # size in many short writes and reads, and the files equal those that
    # one CPU writes in the main process
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("no F_SETPIPE_SZ")
    real, start, sizes = fcntl.fcntl, sweep._WriterProcess.__init__, []

    def refused(fd, cmd, arg=0):
        if cmd == fcntl.F_SETPIPE_SZ:
            raise OSError(errno.EPERM, os.strerror(errno.EPERM))
        return real(fd, cmd, arg)

    def started(self, csvs):
        start(self, csvs)
        sizes.append(real(self._rows.fileno(), fcntl.F_GETPIPE_SZ))

    monkeypatch.setattr(fcntl, "fcntl", refused)
    monkeypatch.setattr(sweep._WriterProcess, "__init__", started)
    config = _config(tmp_path, "n_points = 5000\n")
    written = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        out = tmp_path / f"out{len(cpus)}"
        assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
        written.append([(out / name).read_bytes() for name in PRINTED["sweep"]])
    assert written[0] == written[1]
    assert len(sizes) == 1 and sizes[0] < sweep._GRID_ROWS * 32 * 8


_PEAK_MEMORY = """
import resource, sys
from gate_energetics import cli, sweep
from gate_energetics.config import parse_config
config, out, code, argv = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
if code == 3:  # one table at the grid's last time fails the double-stochasticity gate
    last, real = parse_config(config).time_grid()[-1], sweep.propagator_grid
    def broken(p, times):
        h1, h2, u = real(p, times)
        u[2, times == last] *= 1.01  # U32
        return h1, h2, u
    sweep.propagator_grid = broken
assert cli.main([*argv, "--config", config, "--out", out]) == code
status = open("/proc/self/status").read().split("\\n")
print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)  # the writer's peak, KiB
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
    200 000 points stays within 10 MiB of the one at 20 000, and so does the
    peak of its writer process, which runs at both sizes on two CPUs: no
    block's tables or bytes are kept, and a sweep that fails in its last
    block evaluates no more than a block at once."""
    try:
        with open("/proc/self/status") as status:
            if not any(line.startswith("VmHWM:") for line in status):
                pytest.skip("no VmHWM in /proc/self/status")
    except OSError:
        pytest.skip("no /proc/self/status")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    peak_kib, writer_kib = {}, {}
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
        peak_kib[n], writer_kib[n] = map(int, done.stdout.split()[-2:])
        shutil.rmtree(out)  # up to 170 MB at 200 000 points
    assert abs(peak_kib[200_000] - peak_kib[20_000]) < 10 * 1024, peak_kib
    assert abs(writer_kib[200_000] - writer_kib[20_000]) < 10 * 1024, writer_kib
