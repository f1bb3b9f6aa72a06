"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest benchmarks/selftest.py``.
The file name does not match ``test_*.py``, so a bare ``pytest`` from the
root does not collect it with the package's tests.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = [f"{layer}.calls" for layer in tracing.LAYERS] + [
    "model.thermal_state.calls", "model.propagator.calls", "model.propagator_reuse",
    "tpm.from_atoms.calls", "linalg.validate_density.calls", "sampler.shots",
]


def sample(case: workloads.Case, work: Path, index: int, mode: str, keep: bool = False):
    config = work / "run.cfg"
    config.write_text(case.config_text())
    return run.run_sample(case, config, work, index, mode, time.perf_counter() + 120, keep)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_idle_layers_stay_idle(workload, tmp_path):
    case = workloads.build(workload, seed=3, tiny=True)
    first, second = (sample(case, tmp_path, i, "trace") for i in range(2))
    assert first.ok and second.ok, first.problems + second.problems
    assert {k: first.trace[k] for k in COUNTS} == {k: second.trace[k] for k in COUNTS}
    assert (first.rows_written, first.bytes_written) == (second.rows_written, second.bytes_written)

    counts = first.trace
    if case.command in ("sweep", "hist"):
        assert counts["sampler.calls"] == counts["photonic.calls"] == 0
        assert counts["model.propagator_reuse"] == 1.0
    else:
        assert counts["sampler.calls"] > 0
        assert counts["sampler.shots"] == case.params["n_points"] * case.params["samples"]
        assert counts["model.propagator_reuse"] == 0.5
        assert (counts["photonic.calls"] > 0) == case.photonic


def _corrupt(path: Path, row: int, column: int, value: str) -> None:
    lines = path.read_text().split("\n")
    cells = lines[row + 1].split(",")
    cells[column] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize(
    "workload, name, row, column, value",
    [
        ("sweep_dense", "sweep.csv", 0, 3, "1.00000000000e-03"),  # joint cell j_00_10
        ("sweep_dense", "sweep.csv", 0, 28, "1.00000000100e+00"),  # ift
        ("hist_many", "hist_dE.csv", 1, 2, "5.00000000000e-01"),
        ("compare_mc", "mc_error.csv", 1, 11, "1.00000000000e-01"),  # err_j_10_10
        ("compare_mc", "mc_error.csv", 1, 2, "1.00000000000e-06"),  # zero-probability cell
    ],
)
def test_corrupted_output_fails_the_check(workload, name, row, column, value, tmp_path):
    case = workloads.build(workload, seed=5, tiny=True)
    result = sample(case, tmp_path, 0, "run", keep=True)
    assert result.ok, result.problems
    out = tmp_path / "sample000" / "out"
    assert checks.check_outputs(case, out) == []
    _corrupt(out / name, row, column, value)
    assert checks.check_outputs(case, out)


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, bare / run.SPEC.name)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "hist_many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
