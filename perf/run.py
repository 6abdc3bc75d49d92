"""The repo's benchmark: one command for every workload and every metric.

Driver form (one run, one JSON object on the last line of stdout)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Report form (every workload, tracing off and then traced, in subprocesses)::

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S] [--out PATH]

See ``perf/README.md`` for what the metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
# ``perfsuite`` lives here, the program under test next door in ``src/``
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def _pin_environment() -> None:
    """Re-execute with a fixed hash seed and without ``REPRO_*`` settings,
    so set iteration order and the program's defaults do not vary between
    runs (the seed reaches the generators only, never the program)."""
    if os.environ.get("PYTHONHASHSEED") == "0" and not any(
            key.startswith("REPRO_") for key in os.environ):
        return
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_at_start": os.getloadavg()[0],
            "switch_interval_s": sys.getswitchinterval()}


def single_run(args) -> int:
    """One workload, one pass; prints the driver's JSON object last."""
    _pin_environment()
    environment = _environment()
    from perfsuite import measure, metrics
    from perfsuite.workloads import WORKLOADS

    factory = WORKLOADS[args.workload]
    if args.trace:
        outcome = measure.measure_layers(factory, args.seed, args.seconds,
                                         args.smoke, OUT_DIR)
        table = [(name, unit) for name, unit, _ in metrics.PER_LAYER]
    else:
        outcome = measure.measure_end_to_end(factory, args.seed, args.seconds,
                                             args.smoke)
        table = [(name, unit) for name, unit, _, _ in metrics.END_TO_END]
    # the write-path metrics exist only where a workload writes durably: they
    # are printed and kept in the result file, but not sent to the driver
    shown = table + [(name, unit) for name, unit, _, _ in metrics.END_TO_END_DURABLE
                     if name in outcome.metrics]
    reported = {}
    for name, unit in shown:
        value, n = outcome.metrics.get(name, (0.0, 0))
        reported[name] = {"value": value, "unit": unit, "n": n}
        print(f"{args.workload:17s} {name:36s} {value:16.6f} {unit:6s} n={n}")
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": reported, **outcome.detail}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    for key in ("dataset", "statement_hash", "repeated_statements"):
        print(f"{args.workload:17s} {key}: {detail[key]}")
    for shape, row in detail.get("share_table", {}).items():
        print(f"{args.workload:17s} self-time % {shape:22s} {row}")
    print(json.dumps({
        "correct": outcome.failed == 0, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": reported[name]["value"], "unit": unit}
                    for name, unit in table}}))
    return 0  # a wrong answer is reported as "correct": false, not as a crash


def report(args) -> int:
    """Every workload in its own subprocess, tracing off then traced."""
    from perfsuite.workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    failed = 0
    for name in names:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            completed = subprocess.run(command, stdout=subprocess.PIPE,
                                       text=True, check=True)
            lines = completed.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            path = os.path.join(OUT_DIR, f"result-{name}-trace{trace}.json")
            with open(path, encoding="utf-8") as handle:
                runs.append(json.load(handle))
            failed += runs[-1]["failed"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs}, handle, indent=1)
    print("oracles agree on every operation" if failed == 0 else
          f"FAILED: {failed} operations raised or disagreed with their oracle")
    return 1 if failed else 0


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="length of a timed phase (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data and blocks (the self-tests)")
    parser.add_argument("--out", help="report form: write every run here")
    args = parser.parse_args()
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return single_run(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
