"""Byte-level output contract at small default-physics configs.

The SHA-256 digests below were recorded from the per-point evaluation path,
before the grid engine replaced it; every later version must reproduce them.
The one exception is ``mc_error.csv``, whose random counts for a given seed
were re-recorded twice: when the per-shot block sampler gave way to one
exact multinomial draw per point, and when the points stopped drawing from
the streams of seeds ``seed + i`` and drew in grid order from the one
stream of ``seed`` instead (row 0 is unchanged, the other rows move).
The digests at ``omega_L = 2000``, an input without full support, were
recorded from the grid path while it still summed each row's defined cells
alone; the 16-cell sums that replaced it write the same bytes at these
sizes.
Like ``benchmarks/digests.json`` they pin the bytes of the numpy/OpenBLAS
build they were recorded with: a different build may move the last digit of
a cell and needs a deliberate re-record, not a loosened check.

Recorded with CPython 3.11.7 and numpy 2.4.6 (its wheel bundles OpenBLAS
0.3.31.188.0, built with DYNAMIC_ARCH) on an x86-64 Intel Xeon with AVX-512.
OpenBLAS and numpy both pick their kernels by CPU at run time.  Both sets
of digests also hold with numpy's dispatch capped at X86_V3 (AVX2 and FMA3)
and OpenBLAS's Haswell kernels, the level of a host without AVX-512; a test
below runs the commands at that level.  Hosts below X86_V3 write different
``realizations.csv`` bytes: there ``np.log`` takes numpy's baseline path,
which rounds some values differently from its AVX2 and AVX-512 paths.
The photonic wave plates take ``np.cos`` and ``np.sin`` of their angles
(``photonic.hwp_u``); on every plate angle of the 2000- and 20 000-point
default grids they equal ``math.cos`` and ``math.sin`` bit for bit, both
natively and with numpy's dispatch capped at X86_V3.

At full size the AVX2 level does not hold.  Two run-time kernel choices
decide bytes of the dsigma moments ``ds_m1..ds_m5`` of ``sweep.csv``:
numpy's SIMD ``power``, which raises the realizations (many of them
negative) to each order, and OpenBLAS's ``ddot``, which adds each row's
products (its SkylakeX kernel fuses a multiply-add in its tail loop, its
Haswell kernel does not).  On the 20 000-point ``sweep_dense`` workload of
the benchmark, ``OPENBLAS_CORETYPE=Haswell`` changes 40 639 of the 100 000
dsigma-moment doubles and ``sweep.csv`` misses its digest in
``benchmarks/digests.json``; with numpy capped at X86_V3, ``np.log`` makes
``realizations.csv`` miss too.  The strict xfail at the end of this file
pins that.  A moment path that no host changes would change those bytes,
so it waits for a change that re-records ``benchmarks/digests.json``.
"""

import errno
import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import gate_energetics
from gate_energetics import cli, sweep, tpm

COMPARE_CONFIG = "n_points = 12\nsamples = 2000\nphotonic.T_H = 0.985\nphotonic.eps = 0.01\n"

GOLDEN = {
    "sweep": {
        "sweep.csv": "cee7252943cc6f5b787705fdc0465fa90af68866525d179e59c596895e301f96",
        "realizations.csv": "6b891385f1b5145a0db05bfbc8693562a4f8dc8065400b81af236b22b7561630",
        "summary.json": "550e00e9da5ac8843afd9b0b562038423690ee28efef35805f4823782921b0b7",
    },
    "hist": {
        "hist_dE.csv": "5856dbbbc47780fa0728b1dc2d2d8e52f32d7ec418b50d988325e674e0c2e9bd",
        "hist_ds.csv": "a8764b294f9ff13b7d50076c76ed154709485604a87caf1e86c7af314aa6bedd",
    },
    "compare": {
        "mc_error.csv": "3e4ebcbc7271a8ffda521456feddc0179f10fa67f01fe36545231e35abbe7f83",
        "photonic_error.csv": "121da78f79488ebfcd1526bcefff9b7535cc6f8a743cb6ac657cced6e6feaaac",
    },
}

# the same commands at omega_L = 2000, an input without full support: a target
# population underflows to 0, so every row has undefined realizations, which
# ift and ds_mean leave out of their sums
WITHOUT_FULL_SUPPORT = "omega_L = 2000\n"
GOLDEN_WITHOUT_FULL_SUPPORT = {
    "sweep": {
        "sweep.csv": "32e74bb9b2572e5031a18bd425a2e8e7f4f638c12daac758976ff05ed917d730",
        "realizations.csv": "09a663a365adc70832b1929cb899dde7003b70e49676b9aff81312965db0716f",
        "summary.json": "240326cb3f143ddad61b1b5ff67ac9ac63ff86bc12db907f9d942615aa08a6eb",
    },
    "hist": {
        "hist_dE.csv": "311c59197eb14ff0e3a979190fa5e9aa4e5c9c8140df689b2edee41231730b5d",
        "hist_ds.csv": "c45c509fc062b10084faa059cd2cc62adcfaea4c3c0dc17dfbff80cd6f1c29e5",
    },
    "compare": {
        "mc_error.csv": "c861246db0fab568da3d40e0e449ff5933ebf8f94d6a7703b7648bc77d510f0f",
        "photonic_error.csv": "f94455b4d14b3da0b2579cacdb69ba96fe77fdbc1048b166da3e13e694ed66e1",
    },
}


def _digests(command, tmp_path, extra="") -> dict[str, str]:
    """Run ``command`` at its golden config, with the config lines ``extra``
    on top; the SHA-256 of each golden file."""
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    text = (COMPARE_CONFIG if command == "compare" else "") + extra
    if text:
        config = tmp_path / f"{command}.cfg"
        config.write_text(text)
        argv += ["--config", str(config)]
    if command == "compare":
        argv.append("--photonic")
    assert cli.main(argv) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[command]}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_match_golden_digests(command, tmp_path):
    assert _digests(command, tmp_path) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_without_full_support_match_golden_digests(command, tmp_path):
    digests = _digests(command, tmp_path, WITHOUT_FULL_SUPPORT)
    assert digests == GOLDEN_WITHOUT_FULL_SUPPORT[command]


def _refuse(*args, **kwargs):
    raise AssertionError("a statistic the command does not write was built")


# what each command must not build: hist writes the two distributions,
# compare the joint and conditional tables and the dE moments, and sweep and
# compare take the dE moments from the lattice weights, never from dE rows;
# only compare samples or runs the photonic gate
_UNWRITTEN = {
    "compare": [
        (tpm.AtomRows, "moments"),
        (sweep, "trajectory_coherence"),
        (sweep, "delta_e_rows"),
        (sweep, "ds_mean_grid"),
        (sweep, "merge_atom_rows"),
    ],
    "hist": [
        (tpm.AtomRows, "moments"),
        (sweep, "trajectory_coherence"),
        (sweep, "ds_mean_grid"),
        (sweep, "sample_tpm"),
        (sweep, "conditional_for_time"),
    ],
    "sweep": [
        (sweep, "delta_e_rows"),
        (sweep, "sample_tpm"),
        (sweep, "conditional_for_time"),
    ],
}


@pytest.mark.parametrize("command", sorted(_UNWRITTEN))
def test_commands_build_only_the_statistics_they_write(command, tmp_path, monkeypatch):
    for owner, name in _UNWRITTEN[command]:
        monkeypatch.setattr(owner, name, _refuse)
    assert _digests(command, tmp_path) == GOLDEN[command]


@pytest.fixture
def forks(monkeypatch):
    """The forks of ``cli.main`` in the main process, on two CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls, real = [], os.fork

    def fork():
        calls.append(None)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.mark.parametrize("command", ["compare", "hist", "sweep"])
def test_block_walk_writes_the_golden_bytes(command, tmp_path, monkeypatch, forks):
    # the 200 sweep times go through sweep._evaluate in 28 blocks of 7 and one
    # of 4; the 12 compare times in blocks of 7 and 5, which draw in turn
    # from the one generator of the seed; the two hist times in one partial
    # block.  With full support and without.  Every run of more than one
    # block forks one writer process, which writes its rows
    monkeypatch.setattr(sweep, "_GRID_ROWS", 7)
    assert _digests(command, tmp_path / "full") == GOLDEN[command]
    digests = _digests(command, tmp_path / "partial", WITHOUT_FULL_SUPPORT)
    assert digests == GOLDEN_WITHOUT_FULL_SUPPORT[command]
    assert len(forks) == (0 if command == "hist" else 2)


def test_hist_blocks_write_the_bytes_of_one_block(tmp_path, monkeypatch, forks):
    # 30 times: four blocks of 7 and one of 2, through the writer process,
    # against one block of all 30, written in the main process
    config = tmp_path / "hist.cfg"
    config.write_text("hist_times = " + ", ".join(repr(0.05 * k) for k in range(1, 31)) + "\n")
    written = []
    for rows in (sweep._GRID_ROWS, 7):
        monkeypatch.setattr(sweep, "_GRID_ROWS", rows)
        out = tmp_path / f"out{rows}"
        assert cli.main(["hist", "--config", str(config), "--out", str(out)]) == 0
        written.append([(out / name).read_bytes() for name in GOLDEN["hist"]])
    assert written[0] == written[1]
    assert len(forks) == 1


def _no_fork():
    pytest.fail("a command forked a writer process")


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_one_block_or_one_cpu_writes_in_the_main_process(command, tmp_path, monkeypatch):
    # the golden configs walk one block; in blocks of 7, sweep and compare
    # walk several, but one CPU would run the writer beside the evaluation
    # and not in parallel with it
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _digests(command, tmp_path / "one-block") == GOLDEN[command]
    monkeypatch.setattr(sweep, "_GRID_ROWS", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _digests(command, tmp_path / "one-cpu") == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_a_refused_fork_writes_in_the_main_process(command, tmp_path, monkeypatch, forks):
    def refused():
        forks.append(None)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(sweep, "_GRID_ROWS", 1)  # two hist times are two blocks
    assert _digests(command, tmp_path) == GOLDEN[command]
    assert len(forks) == 1


# numpy's dispatch capped at X86_V3 (AVX2, FMA3) and OpenBLAS's Haswell
# kernels: a host without AVX-512
AVX2_HOST = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Haswell",
}
_RUN_GOLDEN = """
import json, sys
from pathlib import Path
from test_golden import GOLDEN, WITHOUT_FULL_SUPPORT, _digests
out = Path(sys.argv[1])
print(json.dumps([
    {c: _digests(c, out / "full" / c) for c in GOLDEN},
    {c: _digests(c, out / "partial" / c, WITHOUT_FULL_SUPPORT) for c in GOLDEN},
]))
"""


def test_golden_digests_hold_at_the_avx2_dispatch_level(tmp_path):
    # both settings act when numpy and OpenBLAS load, so they need a fresh
    # interpreter
    path = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(gate_energetics.__file__))]
    env = dict(os.environ, **AVX2_HOST, PYTHONPATH=os.pathsep.join(path + sys.path))
    for part in ("full", "partial"):
        (tmp_path / part).mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _RUN_GOLDEN, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [GOLDEN, GOLDEN_WITHOUT_FULL_SUPPORT]


# the full-size sweep_dense workload of the benchmark, run as it runs it,
# with the SHA-256 of each output file it has a recorded digest for
_RUN_SWEEP_DENSE = """
import hashlib, json, sys
from pathlib import Path
import workloads
from gate_energetics import cli
case = workloads.build("sweep_dense", workloads.DEFAULT_SEED)
out = Path(sys.argv[1])
(out / "sweep_dense.cfg").write_text(case.config_text())
assert cli.main(case.argv(str(out / "sweep_dense.cfg"), str(out / "out"))) == 0
names = json.loads(Path(sys.argv[2]).read_text())["sweep_dense"]
print(json.dumps({n: hashlib.sha256((out / "out" / n).read_bytes()).hexdigest() for n in names}))
"""


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="numpy's AVX2 and AVX-512 kernels of power and log, and OpenBLAS's Haswell "
    "and SkylakeX ddot, round some values differently: at 20 000 points sweep.csv "
    "(the dsigma moments) and realizations.csv (log) miss the AVX-512 digests",
)
def test_full_size_sweep_digests_hold_at_the_avx2_dispatch_level(tmp_path):
    src = os.path.dirname(os.path.dirname(gate_energetics.__file__))
    benchmarks = os.path.join(os.path.dirname(src), "benchmarks")
    digests = os.path.join(benchmarks, "digests.json")
    path = [benchmarks, src]
    env = dict(os.environ, **AVX2_HOST, PYTHONPATH=os.pathsep.join(path + sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _RUN_SWEEP_DENSE, str(tmp_path), digests],
        env=env, capture_output=True, text=True,
    )
    done.check_returncode()
    with open(digests) as recorded:
        assert json.loads(done.stdout.splitlines()[-1]) == json.load(recorded)["sweep_dense"]


@pytest.mark.parametrize("workload", ["sweep_dense", "compare_mc", "compare_photonic", "hist_many"])
def test_every_benchmark_workload_runs_through_the_cli(tmp_path, monkeypatch, workload):
    # each workload's config text and argv, at its tiny size: a change of the
    # command-line or config surface must not break one unseen
    src = os.path.dirname(os.path.dirname(gate_energetics.__file__))
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(src), "benchmarks"))
    checks, workloads = (importlib.import_module(name) for name in ("checks", "workloads"))
    case = workloads.build(workload, workloads.DEFAULT_SEED, tiny=True)
    config = tmp_path / f"{workload}.cfg"
    config.write_text(case.config_text())
    out = tmp_path / "out"
    assert cli.main(case.argv(str(config), str(out))) == 0
    assert sorted(os.listdir(out)) == sorted(checks.expected_files(case))
