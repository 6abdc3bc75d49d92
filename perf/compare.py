"""Compare benchmark reports: ``python3 perf/compare.py A.json B.json [A2.json B2.json ...]``.

The files are ``perf/run.py --out`` reports and alternate between the two
sides (A = base, B = candidate), in the order the runs were made.  One row
per workload and end-to-end metric — the driver's five from
``BENCHMARK.json``, and on a workload that has them the write-path metrics
of ``perfsuite.metrics.END_TO_END_DURABLE`` — with both medians, the ratio
B/A **with A as its base**, the run-to-run spread, and a verdict against
the metric's bound:

* ``unresolved`` — either side's spread (inter-quartile distance over
  median) is wider than the bound, so the bound cannot be checked;
* ``worse`` / ``better`` — B's median is beyond the bound on that side.
  With ten or more pairs the stricter rule of the ``choosing-metrics`` guide
  applies instead: B must win (lose) at least nine tenths of the pairs, ties
  counting for neither, and the medians must differ by more than the
  distance between A's own quartiles;
* ``unchanged`` — otherwise.

Metrics counted on a fixed operation list (``perfsuite.metrics.EXACT``),
dataset fingerprints and statement-list hashes are compared for equality and
shown as counts, never as speed-ups.  Exits 1 on any ``worse``,
``unresolved`` or differing count.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from perfsuite.metrics import END_TO_END_DURABLE, EXACT  # noqa: E402
from perfsuite.stats import quartile_spread  # noqa: E402

PAIRS_FOR_STRICT_RULE = 10


def load(paths: list[str]) -> dict:
    """``(workload, trace) -> list of runs`` over all of one side's files."""
    runs = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for run in json.load(handle)["runs"]:
                runs[run["workload"], run["trace"]].append(run)
    return runs


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The row's verdict (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    pairs = list(zip(a, b))
    if len(pairs) >= PAIRS_FOR_STRICT_RULE:
        wins = sum(sign * (y - x) > 0 for x, y in pairs)
        losses = sum(sign * (y - x) < 0 for x, y in pairs)
        first, _, third = statistics.quantiles(a, n=4)
        clear = abs(median_b - median_a) > third - first
        if clear and wins >= 0.9 * len(pairs):
            return "better"
        if clear and losses >= 0.9 * len(pairs):
            return "worse"
        return "unchanged"
    if max(quartile_spread(a), quartile_spread(b)) > bound:
        return "unresolved"
    gain = sign * (median_b - median_a) / abs(median_a)
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "unchanged"


def main(paths: list[str]) -> int:
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    bounded = benchmark["end_to_end"] + [
        {"name": name, "better": better, "bound": bound}
        for name, _, better, bound in END_TO_END_DURABLE]
    side_a, side_b = load(paths[0::2]), load(paths[1::2])
    bad = 0
    print(f"{'workload':17s} {'metric':24s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A (base A)':>12s} {'spread A':>8s} {'spread B':>8s} "
          f"{'bound':>6s} {'runs':>5s}  verdict")
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        runs_a, runs_b = side_a[workload, 0], side_b[workload, 0]
        if not runs_a or not runs_b:
            continue
        for metric in bounded:
            name = metric["name"]
            if any(name not in run["metrics"] for run in runs_a + runs_b):
                continue  # a write-path metric on a workload without writes
            a = [run["metrics"][name]["value"] for run in runs_a]
            b = [run["metrics"][name]["value"] for run in runs_b]
            row = verdict(a, b, metric["better"], metric["bound"])
            bad += row in ("worse", "unresolved")
            print(f"{workload:17s} {name:24s} {statistics.median(a):12.4f} "
                  f"{statistics.median(b):12.4f} "
                  f"{statistics.median(b) / statistics.median(a):12.4f} "
                  f"{quartile_spread(a):8.4f} {quartile_spread(b):8.4f} "
                  f"{metric['bound']:6.2f} {len(a):2d}/{len(b):<2d}  {row}")
    print()
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        runs = [run for side in (side_a, side_b) for trace in (0, 1)
                for run in side[workload, trace]]
        traced = side_a[workload, 1] + side_b[workload, 1]
        facts = {"dataset": {json.dumps(run["dataset"], sort_keys=True)
                             for run in runs},
                 "statement_hash": {run["statement_hash"] for run in runs}}
        for name in sorted(EXACT) if traced else ():
            facts[name] = {float(run["metrics"][name]["value"]) for run in traced}
        for name, seen in facts.items():
            same = len(seen) == 1
            bad += not same
            shown = next(iter(seen)) if same else sorted(map(str, seen))
            print(f"{workload:17s} {name:36s} "
                  f"{'identical' if same else 'DIFFERS'}  {shown}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
