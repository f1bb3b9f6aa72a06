"""Compare two result sets of ``run.py``.

Usage:

    python3 benchmarks/compare.py BASE CHANGE

BASE and CHANGE are ``results.jsonl`` files (or directories holding one,
directly or under ``.bench_results/``), each from runs of one commit with
the same run length.  For every workload and end-to-end metric the script
prints both sides' median and quartiles and a verdict:

* ``gain``: the change wins at least 9 of 10 pairs (runs paired by seed,
  ties count for neither) and the medians differ by more than the base's
  interquartile range;
* ``regression``: the change's median is worse by more than the metric's
  bound from ``BENCHMARK.json``;
* ``unresolved``: either side's interquartile range exceeds the bound, and
  not every change run reads better than every base run;
* ``within bound`` otherwise.

It then lists the per-layer metrics of the traced runs, base and change
medians side by side.  The exit code is 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    for candidate in (path, path / "results.jsonl", path / ".bench_results" / "results.jsonl"):
        if candidate.is_file():
            return [json.loads(line) for line in candidate.read_text().splitlines() if line]
    raise SystemExit(f"no results.jsonl at {path}")


def by_seed(records: list[dict], workload: str, trace: int, metric: str) -> dict[int, float]:
    return {r["seed"]: r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]}


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def verdict(base: dict[int, float], change: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    common = sorted(set(base) & set(change))
    pairs = ([(base[s], change[s]) for s in common] if common
             else list(zip(base.values(), change.values())))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if better == "higher":
        all_better = min(change.values()) > max(base.values())
    else:
        all_better = max(change.values()) < min(base.values())
    wide = max((b_q3 - b_q1) / abs(b_med), (c_q3 - c_q1) / abs(c_med)) > bound
    if wide and not all_better:
        return "unresolved"
    if wins >= math.ceil(WIN_SHARE * len(pairs)) and abs(c_med - b_med) > b_q3 - b_q1 \
            and sign * (c_med - b_med) > 0:
        return "gain"
    if -sign * (c_med - b_med) > bound * abs(b_med):
        return "regression"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    base, change = load(args.base), load(args.change)
    names = [w["name"] for w in spec["workloads"]]
    regressed = False

    print(f"{'workload':18} {'metric':14} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'pairs':>5}  verdict")
    for workload in names:
        for metric in spec["end_to_end"]:
            b = by_seed(base, workload, 0, metric["name"])
            c = by_seed(change, workload, 0, metric["name"])
            if not b or not c:
                continue
            b_q1, b_med, b_q3 = quartiles(list(b.values()))
            c_q1, c_med, c_q3 = quartiles(list(c.values()))
            result = verdict(b, c, metric["better"], metric["bound"])
            regressed |= result == "regression"
            print(f"{workload:18} {metric['name']:14} "
                  f"{b_med:12.5g} [{b_q1:9.5g}, {b_q3:9.5g}] "
                  f"{c_med:12.5g} [{c_q1:9.5g}, {c_q3:9.5g}] "
                  f"{(c_med - b_med) / b_med:+8.1%} {min(len(b), len(c)):5d}  {result}")

    print(f"\n{'workload':18} {'per-layer metric':32} {'base':>14} {'change':>14} {'delta':>8}")
    for workload in names:
        for metric in spec["per_layer"]:
            b = by_seed(base, workload, 1, metric["name"])
            c = by_seed(change, workload, 1, metric["name"])
            if not b or not c:
                continue
            b_med, c_med = statistics.median(b.values()), statistics.median(c.values())
            delta = f"{(c_med - b_med) / b_med:+8.1%}" if b_med else f"{'':8}"
            print(f"{workload:18} {metric['name']:32} {b_med:14.6g} {c_med:14.6g} {delta}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
