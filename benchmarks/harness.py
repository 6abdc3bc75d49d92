"""Shared measurement helpers for the ``benchmarks/`` suite.

Benchmarks report two kinds of numbers:

* wall-clock timings, collected by pytest-benchmark;
* *logical work* — deterministic counters from the database layer (method
  calls, external calls, property reads, abstract cost units) that make the
  plan comparison independent of the Python interpreter's speed.

The helpers here execute a query under a session, capture the work
difference, and format small report tables for the benchmarks' output.

Every benchmark is also runnable standalone (``python benchmarks/
bench_expN_*.py [--quick] [--json PATH] [--check]``) through
:func:`standalone_main`, which provides the shared CLI: ``--quick`` shrinks
databases/rounds for CI smoke runs, ``--json`` writes the machine-readable
perf record, and ``--check`` turns a benchmark's acceptance condition into
the exit code.  The scripts import this module as ``harness`` (their own
directory is on ``sys.path``, as it is for ``conftest``).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.session import QueryResult, Session
from repro.telemetry.sinks import json_text

__all__ = ["Measurement", "measure_query", "format_table", "speedup",
           "standalone_main"]


@dataclass
class Measurement:
    """Execution measurements of one query under one plan."""

    label: str
    rows: int
    seconds: float
    work: dict[str, float] = field(default_factory=dict)

    @property
    def cost_units(self) -> float:
        return self.work.get("total_cost_units", 0.0)

    @property
    def external_calls(self) -> float:
        return self.work.get("external_method_calls", 0.0)

    @property
    def method_calls(self) -> float:
        return self.work.get("method_calls", 0.0)

    @property
    def property_reads(self) -> float:
        return self.work.get("property_reads", 0.0)

    def as_row(self) -> dict[str, float | str]:
        return {
            "label": self.label,
            "rows": self.rows,
            "seconds": round(self.seconds, 4),
            "cost_units": round(self.cost_units, 1),
            "method_calls": int(self.method_calls),
            "external_calls": int(self.external_calls),
            "property_reads": int(self.property_reads),
        }


def measure_query(session: Session, query: str, label: str,
                  optimize: bool = True) -> Measurement:
    """Execute *query* once and capture wall time plus work counters."""
    session.database.reset_statistics()
    started = time.perf_counter()
    result: QueryResult = session.execute(query, optimize=optimize)
    elapsed = time.perf_counter() - started
    return Measurement(label=label, rows=len(result), seconds=elapsed,
                       work=dict(result.work))


def speedup(baseline: Measurement, optimized: Measurement,
            metric: str = "cost_units") -> float:
    """Ratio baseline/optimized for the given metric (∞-safe)."""
    base = getattr(baseline, metric)
    best = getattr(optimized, metric)
    if best <= 0:
        return float("inf") if base > 0 else 1.0
    return base / best


def standalone_main(benchmark: str,
                    run_cases: Callable[[bool], list[dict]],
                    description: str = "",
                    summarize: Optional[Callable[[list[dict]], dict]] = None,
                    check: Optional[Callable[[dict], Optional[str]]] = None,
                    argv: Optional[list[str]] = None) -> int:
    """Shared standalone CLI for one benchmark.

    *run_cases(quick)* produces the case records; *summarize(cases)* may add
    record-level summary fields; *check(record)* returns an error message
    (exit code 1) when the benchmark's acceptance condition fails and
    ``--check`` was requested.
    """
    parser = argparse.ArgumentParser(
        description=description or f"{benchmark} benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="smaller databases and fewer rounds (CI smoke)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON perf record to PATH")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when the acceptance condition fails")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="workload-generation seed (default: "
                             "REPRO_BENCH_SEED or 42)")
    args = parser.parse_args(argv)

    if args.seed is not None:
        # The benchmark conftests read the seed lazily per database, so
        # setting it before run_cases makes the whole run deterministic.
        os.environ["REPRO_BENCH_SEED"] = str(args.seed)
        random.seed(args.seed)

    cases = run_cases(args.quick)
    extra = summarize(cases) if summarize is not None else {}
    try:
        seed = int(os.environ.get("REPRO_BENCH_SEED", "42"))
    except ValueError:
        seed = 42
    record = {"benchmark": benchmark, "quick": args.quick,
              "python": sys.version.split()[0], "seed": seed, **extra,
              "cases": list(cases)}

    print(f"{benchmark}:")
    print(format_table(cases))
    print()
    print(json_text(record, indent=2))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(json_text(record, indent=2))
        print(f"\nperf record written to {args.json}")

    if args.check and check is not None:
        failure = check(record)
        if failure:
            print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    return 0


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Optional[Sequence[str]] = None) -> str:
    """Minimal fixed-width table formatter (no third-party dependency)."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {col: max(len(str(col)),
                       max(len(str(row.get(col, ""))) for row in rows))
              for col in columns}
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    lines = [header, separator]
    for row in rows:
        lines.append("  ".join(str(row.get(col, "")).ljust(widths[col])
                               for col in columns))
    return "\n".join(lines)
