"""Byte-level output contract at small default-physics configs.

The SHA-256 digests below were recorded from the per-point evaluation path,
before the grid engine replaced it; every later version must reproduce them.
Like ``benchmarks/digests.json`` they pin the bytes of the numpy/OpenBLAS
build they were recorded with: a different build may move the last digit of
a cell and needs a deliberate re-record, not a loosened check.

Recorded with CPython 3.11.7 and numpy 2.4.6 (its wheel bundles OpenBLAS
0.3.31.188.0, built with DYNAMIC_ARCH) on an x86-64 Intel Xeon with AVX-512.
OpenBLAS and numpy both pick their kernels by CPU at run time, so the same
wheel on a CPU without AVX-512 may still round differently.
"""

import hashlib

import pytest

from gate_energetics import cli

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
        "mc_error.csv": "6a9970880c24d3fed0f94714d8b92d1b990116626a2ffd8cfa236bb05e0973b7",
        "photonic_error.csv": "121da78f79488ebfcd1526bcefff9b7535cc6f8a743cb6ac657cced6e6feaaac",
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_match_golden_digests(command, tmp_path):
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if command == "compare":
        config = tmp_path / "compare.cfg"
        config.write_text(COMPARE_CONFIG)
        argv += ["--config", str(config), "--photonic"]
    assert cli.main(argv) == 0
    actual = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[command]}
    assert actual == GOLDEN[command]
