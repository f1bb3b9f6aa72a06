"""The benchmark's four workloads, each a CLI run built from a seed.

A workload is a config file plus a ``gate-energetics`` argv.  Every physics
key is written out explicitly, so a change of a package default cannot change
what a workload runs.  The workload seed becomes the config ``seed`` and
draws a small perturbation of ``t_min`` and ``omega_int``; the amount of work
does not depend on the seed.  ``DEFAULT_SEED`` reproduces the unperturbed
configs, whose output digests are recorded in ``digests.json``.

Why these four (default physics unless stated):

* ``sweep_dense``: ``sweep`` over 20 000 points.  The per-point model, tpm
  and linalg path and sweep's CSV formatting run under full load; sampler
  and photonic stay idle.
* ``compare_mc``: ``compare`` over 8 points with 10^7 shots each (10 RNG
  blocks per point).  Per-shot sampling dominates; per-point physics is
  negligible.
* ``compare_photonic``: ``compare --photonic`` over 2000 points with 1000
  shots each and an imperfect gate (T_H = 0.985, eps = 0.01).  Many cheap
  sampler calls, so per-call cost dominates; the only workload where
  photonic runs.
* ``hist_many``: ``hist`` at 2000 times over [t_min, t_max).  The only
  workload that emits distributions as histograms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 42
T_MAX = 3.0 * math.pi / math.sqrt(26.0)

BASE_PHYSICS = {
    "omega_L": 1.0,
    "omega_int": 5.0,
    "alpha": 0.2,
    "beta_B": 0.5,
    "t_min": 0.0,
    "t_max": T_MAX,
    "moments_max": 5,
}

# name -> (subcommand, extra CLI flags, full-size settings, tiny settings,
#          reference kernel: see kernels.py)
#
# compare_mc spends its time in vectorised sampling over large arrays, which
# a slow spell of the host slows about half as much as the per-point Python
# path; it is scaled by a kernel of that kind.
WORKLOADS = {
    "sweep_dense": ("sweep", (), {"n_points": 20000}, {"n_points": 60}, "scalar"),
    "compare_mc": (
        "compare",
        (),
        {"n_points": 8, "samples": 10_000_000},
        {"n_points": 3, "samples": 1_100_000},
        "vector",
    ),
    "compare_photonic": (
        "compare",
        ("--photonic",),
        {"n_points": 2000, "samples": 1000, "photonic.T_H": 0.985, "photonic.eps": 0.01},
        {"n_points": 40, "samples": 1000, "photonic.T_H": 0.985, "photonic.eps": 0.01},
        "scalar",
    ),
    "hist_many": ("hist", (), {"n_hist": 2000}, {"n_hist": 30}, "scalar"),
}


@dataclass(frozen=True)
class Case:
    """One workload instance: what to run and what its outputs must satisfy."""

    workload: str
    seed: int
    tiny: bool
    command: str
    flags: tuple[str, ...]
    params: dict
    reference: str

    @property
    def points(self) -> int:
        """Grid points (or histogram times) one run completes."""
        if self.command == "hist":
            return len(self.params["hist_times"])
        return self.params["n_points"]

    @property
    def photonic(self) -> bool:
        return "--photonic" in self.flags

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir, *self.flags]

    def config_text(self) -> str:
        lines = []
        for key, value in self.params.items():
            if key == "hist_times":
                value = ", ".join(repr(t) for t in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


def build(workload: str, seed: int, tiny: bool = False) -> Case:
    """The case a workload runs for a seed; ``tiny`` shrinks it for self-tests."""
    command, flags, full, small, reference = WORKLOADS[workload]
    settings = dict(small if tiny else full)
    params = dict(BASE_PHYSICS, seed=seed)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        params["t_min"] = 1e-3 * rng.random()
        params["omega_int"] = 5.0 * (1.0 + 0.01 * (rng.random() - 0.5))
    n_hist = settings.pop("n_hist", None)
    if n_hist is not None:
        span = params["t_max"] - params["t_min"]
        params["hist_times"] = tuple(params["t_min"] + span * k / n_hist for k in range(n_hist))
    params.update(settings)
    return Case(workload, seed, tiny, command, tuple(flags), params, reference)
