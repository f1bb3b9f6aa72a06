"""Benchmark of the gate-energetics CLI.

Usage (from the repository root):

    python3 benchmarks/run.py --workload sweep_dense --seed 42 --seconds 20 --trace 0

Each sample is a fresh single-threaded interpreter (``child.py``) that
imports the package from ``src``, validates the workload's config and runs
``gate_energetics.cli.main`` once into a fresh output directory.  Samples
run one at a time until ``--seconds`` have passed.  The outputs of every
sample are checked (``checks.py``) after its timed section; a sample fails
if it exits non-zero or its outputs are wrong.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s``
(median wall time of ``cli.main`` after import), ``points_per_s``,
``setup_s`` (median time to import the package and validate the config,
over at least ``MIN_SETUP_SAMPLES`` interpreters) and ``peak_rss_mib``.
With ``--trace 1`` half the time goes to untraced samples and half to
traced ones (``tracing.py``), and the run reports the per-layer metrics.
Their times are raw seconds, except ``trace.overhead_s``: the traced minus
the untraced median wall time, both scaled as below.

All times are quoted at a fixed machine speed.  The speed of a shared host
drifts by a third over minutes, and a slow spell slows the program and a
fixed reference kernel alike.  So each sample also times a kernel of the
kind of work its workload does (``kernels.py``), which does not call the
package, and its set-up and wall times are scaled by the kernel's nominal
time over its measured time in that sample.  A change to the program moves
the scaled times as it moves the raw ones.  The raw times are printed and
recorded beside them.

Which end-to-end metric each per-layer metric should move:

* ``model``, ``tpm``, ``linalg``: ``wall_s`` and ``points_per_s`` on
  ``sweep_dense`` and ``hist_many``; not on ``compare_mc``.
* ``sampler`` (and ``sampler.ns_per_shot``, ``sampler.shots``): ``wall_s``
  on ``compare_mc``; ``sampler.us_per_call``: ``wall_s`` on
  ``compare_photonic``.
* ``photonic``: ``wall_s`` on ``compare_photonic`` only.
* ``sweep`` (per-point glue, invariant checks, CSV formatting, and
  ``sweep.rows_written`` / ``sweep.bytes_written``): ``wall_s`` and
  ``peak_rss_mib`` on ``sweep_dense``.
* ``cli``, ``config``: ``setup_s``.
* The redundant-work counts ``model.thermal_state.calls``,
  ``model.propagator.calls``, ``model.propagator_reuse``,
  ``tpm.from_atoms.calls`` and ``linalg.validate_density.calls``: ``wall_s``
  wherever per-point physics runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import kernels
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results" / "results.jsonl"

# a run must end within 180 s; no sample starts that could end after this
RUN_DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 7
# traced self times must add up to the traced wall time within this share
SELF_SUM_TOL = 0.01

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    """The environment of a sample: one thread, package from ``src``, no worker pool."""
    env = {k: v for k, v in os.environ.items() if k != "GATE_ENERGETICS_WORKERS"}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Sample:
    mode: str
    problems: list[str] = field(default_factory=list)
    setup_s: float | None = None
    wall_s: float | None = None
    peak_rss_mib: float | None = None
    rows_written: int = 0
    bytes_written: int = 0
    trace: dict | None = None
    reference: str = "scalar"
    setup_ref_s: float | None = None
    run_ref_s: float | None = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def scaled_setup_s(self) -> float:
        return self.setup_s * kernels.nominal_s("scalar") / self.setup_ref_s

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * kernels.nominal_s(self.reference) / self.run_ref_s


def output_size(out: Path) -> tuple[int, int]:
    """Data rows of the CSV outputs and bytes of all outputs."""
    rows = nbytes = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        nbytes += len(data)
        if path.suffix == ".csv":
            rows += data.count(b"\n") - 1
    return rows, nbytes


def run_sample(case: workloads.Case, config: Path, work: Path, index: int, mode: str,
               deadline: float, keep: bool = False) -> Sample:
    """Run one child interpreter and check what it wrote.

    The sample's directory is removed afterwards unless ``keep`` is set.
    """
    # these import the package, so only after main has put src on sys.path
    import checks
    import tracing

    began = time.perf_counter()
    sample = Sample(mode, reference=case.reference)
    d = work / f"sample{index:03d}"
    out = d / "out"
    d.mkdir()
    spec = {
        "config": str(config),
        "argv": case.argv(str(config), str(out)),
        "mode": mode,
        "reference": case.reference,
        "result": str(d / "result.json"),
        "spans": str(d / "spans.npz"),
    }
    (d / "spec.json").write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(d / "spec.json")],
            env=child_env(), cwd=d, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        sample.problems.append("timed out")
    else:
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            sample.problems.append(f"exit code {proc.returncode}: {tail[0]}")
        result_path = Path(spec["result"])
        if result_path.is_file():
            result = json.loads(result_path.read_text())
            sample.setup_s = result["setup_s"]
            sample.wall_s = result.get("wall_s")
            sample.peak_rss_mib = result.get("peak_rss_mib")
            sample.setup_ref_s = result["setup_ref_s"]
            if "run_ref_s" in result:
                sample.run_ref_s = statistics.median(result["run_ref_s"])
        if proc.returncode == 0 and mode != "setup":
            sample.problems += checks.check_outputs(case, out)
            sample.rows_written, sample.bytes_written = output_size(out)
        if proc.returncode == 0 and mode == "trace":
            sample.trace = tracing.summarize(tracing.load(Path(spec["spans"])))
            gap = abs(sample.trace["_self_total_s"] - sample.wall_s)
            if gap > SELF_SUM_TOL * sample.wall_s:
                sample.problems.append(
                    f"layer self times add up to {sample.trace['_self_total_s']:.6f} s, "
                    f"traced wall time is {sample.wall_s:.6f} s"
                )
    if not keep:
        shutil.rmtree(d, ignore_errors=True)
    sample.elapsed_s = time.perf_counter() - began
    return sample


def measure(case: workloads.Case, seconds: float, trace: bool, work: Path,
            deadline: float) -> list[Sample]:
    """All samples of one run: timed ones for ``seconds``, then set-up probes."""
    config = work / "run.cfg"
    config.write_text(case.config_text())
    samples: list[Sample] = []
    phases = [("run", seconds / 2), ("trace", seconds / 2)] if trace else [("run", seconds)]
    for mode, budget in phases:
        begin = time.perf_counter()
        while True:
            samples.append(run_sample(case, config, work, len(samples), mode, deadline))
            now = time.perf_counter()
            if now - begin >= budget or now + samples[-1].elapsed_s > deadline:
                break
    if not trace:
        while sum(s.setup_s is not None for s in samples) < MIN_SETUP_SAMPLES:
            samples.append(run_sample(case, config, work, len(samples), "setup", deadline))
            if time.perf_counter() + samples[-1].elapsed_s > deadline:
                break
    return samples


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile and sample count of one metric."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def end_to_end(case: workloads.Case, samples: list[Sample]) -> dict[str, list[float]]:
    timed = [s for s in samples if s.mode == "run" and s.wall_s is not None]
    started = [s for s in samples if s.setup_s is not None]
    return {
        "wall_s": [s.scaled_wall_s for s in timed],
        "points_per_s": [case.points / s.scaled_wall_s for s in timed],
        "setup_s": [s.scaled_setup_s for s in started],
        "peak_rss_mib": [s.peak_rss_mib for s in timed],
        "raw_wall_s": [s.wall_s for s in timed],
        "raw_setup_s": [s.setup_s for s in started],
        "setup_reference_s": [s.setup_ref_s for s in started],
        "run_reference_s": [s.run_ref_s for s in timed],
    }


def per_layer(samples: list[Sample]) -> dict[str, list[float]]:
    traced = [s for s in samples if s.trace is not None]
    untraced = [s.scaled_wall_s for s in samples if s.mode == "run" and s.wall_s is not None]
    values: dict[str, list[float]] = {}
    for s in traced:
        for name, value in s.trace.items():
            if not name.startswith("_"):
                values.setdefault(name, []).append(value)
        values.setdefault("sweep.rows_written", []).append(s.rows_written)
        values.setdefault("sweep.bytes_written", []).append(s.bytes_written)
    if traced and untraced:
        overhead = statistics.median(s.scaled_wall_s for s in traced) - statistics.median(untraced)
        values["trace.overhead_s"] = [overhead]
    return values


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "revision": revision,
    }


def report(args, shown: list[dict], stats: dict[str, dict], samples: list[Sample],
           info: dict) -> None:
    failed = sum(not s.ok for s in samples)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print(f"machine  {info['nproc']} cpus, {info['cpu']}; python {info['python']}; "
          f"numpy {info['numpy']}; revision {info['revision'][:12]}")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for metric in shown:
        st = stats[metric["name"]]
        print(f"{metric['name']:32} {st['value']:14.6g} {st['q1']:14.6g} {st['q3']:14.6g} "
              f"{st['samples']:4d}  {metric['unit']}")
    print(f"{'fail_rate':32} {failed / len(samples):14.6g} {'':14} {'':14} {len(samples):4d}  "
          f"1 ({failed} of {len(samples)} samples failed)")
    for s in samples:
        for problem in s.problems:
            print(f"FAILED {s.mode}: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the gate-energetics CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "gate_energetics" / "cli.py").is_file() or not SPEC.is_file():
        print(f"no gate_energetics sources under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    # on SIGTERM unwind, so that subprocess.run kills and reaps the running sample
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    started = time.perf_counter()
    spec = json.loads(SPEC.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    case = workloads.build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        samples = measure(case, args.seconds, bool(args.trace), work,
                          started + RUN_DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = per_layer(samples) if args.trace else end_to_end(case, samples)
    missing = [m["name"] for m in listed if not values.get(m["name"])]
    if missing:
        for s in samples:
            for problem in s.problems:
                print(f"FAILED {s.mode}: {problem}", file=sys.stderr)
        print(f"no successful sample for {', '.join(missing)}", file=sys.stderr)
        return 1
    # unscaled times, shown and recorded beside the metrics
    shown = listed + [{"name": name, "unit": "s"} for name in (
        "raw_wall_s", "raw_setup_s", "setup_reference_s", "run_reference_s") if values.get(name)]
    stats = {m["name"]: quartiles(values[m["name"]]) for m in shown}
    info = machine()
    report(args, shown, stats, samples, info)

    failed = sum(not s.ok for s in samples)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": info, "attempted": len(samples),
        "failed": failed, "problems": [p for s in samples for p in s.problems],
        "metrics": {m["name"]: dict(stats[m["name"]], unit=m["unit"], values=values[m["name"]])
                    for m in shown},
    }
    RESULTS.parent.mkdir(exist_ok=True)
    with RESULTS.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": stats[m["name"]]["value"], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
