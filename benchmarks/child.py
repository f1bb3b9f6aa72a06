"""One benchmark sample in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

The spec names the config file, the CLI argv, the mode (``setup`` stops
after import and config validation; ``run`` also times ``cli.main``;
``trace`` times it with spans recorded) and where to write the result.
Set-up time runs from the first line of this script, before any package
import, to a validated config.  The scalar reference kernel is timed right
after set-up.  In ``run`` mode the workload's kernel is also timed in slices
while ``cli.main`` runs and once after it (``kernels.py``), and the time
spent in the slices is taken out of the wall time; in ``trace`` mode it is
timed once before and once after ``cli.main``.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from kernels import SpeedProbe, reference  # noqa: E402


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    from gate_energetics import cli
    from gate_energetics.config import parse_config

    parse_config(spec["config"]).validate()
    result = {"setup_s": time.perf_counter() - _T0, "exit": 0}
    result["setup_ref_s"] = reference("scalar")
    if spec["mode"] == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.wrap("cli", cli.main)
        before = reference(spec["reference"])
        start = time.perf_counter()
        result["exit"] = entry(spec["argv"])
        result["wall_s"] = time.perf_counter() - start
        tracer.dump(Path(spec["spans"]))
        # no timer slices here: they would land in the spans
        result["run_ref_s"] = [before, reference(spec["reference"])]
    elif spec["mode"] == "run":
        with SpeedProbe(spec["reference"]) as probe:
            start = time.perf_counter()
            result["exit"] = cli.main(spec["argv"])
            result["wall_s"] = time.perf_counter() - start - probe.spent_s
        result["run_ref_s"] = probe.per_iteration + [reference(spec["reference"])]
    if "wall_s" in result:
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
