"""EXP-7 — Optimizer overhead (Sections 6 and 7).

The Volcano-style search is exhaustive on the logical level; adding semantic
rules enlarges the search space.  This experiment measures optimization time,
the number of logical plans explored and the number of transformation
applications as a function of (a) the amount of semantic knowledge and
(b) the query, showing that the overhead stays small (milliseconds) for the
paper-sized queries and rule sets.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp7_optimizer_overhead.py [--quick] [--json PATH]
"""

from __future__ import annotations

import sys

import pytest

from conftest import DEFAULT_SIZE, SCALING_SIZES, semantic_session
from harness import format_table, standalone_main
from repro.workloads import document_workload, motivating_query

RULE_VARIANTS = [
    ("structural-only", ("semantic",)),
    ("structural+conditions", ("semantic:expression", "semantic:query-method",
                               "semantic:implication")),
    ("full-knowledge", ()),
]


@pytest.mark.parametrize("label,excluded", RULE_VARIANTS,
                         ids=[label for label, _ in RULE_VARIANTS])
def test_exp7_overhead_by_rule_count(benchmark, label, excluded):
    session = semantic_session(DEFAULT_SIZE, exclude_tags=tuple(excluded))
    query = motivating_query().text
    translation = session.translate(query)

    result = benchmark(lambda: session.optimizer.optimize(translation.plan))

    statistics = result.statistics
    print(f"\nEXP-7 {label}: rules={len(session.optimizer.rule_set)} "
          f"plans={statistics.logical_plans_explored} "
          f"transformations={statistics.transformations_applied} "
          f"time={statistics.optimization_seconds * 1000:.1f}ms")
    assert not statistics.exploration_truncated
    assert statistics.optimization_seconds < 2.0


def test_exp7_overhead_per_query(benchmark):
    """Optimization statistics for every workload query under full knowledge."""
    session = semantic_session(DEFAULT_SIZE)
    rows = []
    for query in document_workload():
        translation = session.translate(query.text)
        result = session.optimizer.optimize(translation.plan)
        statistics = result.statistics
        rows.append({
            "query": query.name,
            "plans": statistics.logical_plans_explored,
            "transformations": statistics.transformations_applied,
            "physical_costed": statistics.physical_plans_costed,
            "time_ms": round(statistics.optimization_seconds * 1000, 1),
        })

    benchmark.pedantic(
        lambda: session.optimizer.optimize(
            session.translate(motivating_query().text).plan),
        rounds=3, iterations=1)

    print("\nEXP-7 optimizer overhead per workload query:")
    print(format_table(rows))
    assert all(row["plans"] > 0 for row in rows)


# ----------------------------------------------------------------------
# standalone CLI (shared harness conventions)
# ----------------------------------------------------------------------
def run_cases(quick: bool = False) -> list[dict]:
    size = SCALING_SIZES[0] if quick else DEFAULT_SIZE
    cases = []
    for label, excluded in RULE_VARIANTS:
        session = semantic_session(size, exclude_tags=tuple(excluded))
        translation = session.translate(motivating_query().text)
        result = session.optimizer.optimize(translation.plan)
        statistics = result.statistics
        cases.append({
            "case": f"rules:{label}",
            "rules": len(session.optimizer.rule_set),
            "plans": statistics.logical_plans_explored,
            "transformations": statistics.transformations_applied,
            "time_ms": round(statistics.optimization_seconds * 1000, 1),
            "truncated": statistics.exploration_truncated,
        })
    session = semantic_session(size)
    queries = document_workload()
    if quick:
        queries = queries[:3]
    for query in queries:
        translation = session.translate(query.text)
        result = session.optimizer.optimize(translation.plan)
        statistics = result.statistics
        cases.append({
            "case": f"query:{query.name}",
            "rules": len(session.optimizer.rule_set),
            "plans": statistics.logical_plans_explored,
            "transformations": statistics.transformations_applied,
            "time_ms": round(statistics.optimization_seconds * 1000, 1),
            "truncated": statistics.exploration_truncated,
        })
    return cases


def check(record: dict) -> str | None:
    for case in record["cases"]:
        if case["truncated"]:
            return f"{case['case']}: exploration was truncated"
        if case["time_ms"] >= 2000:
            return f"{case['case']}: optimization took {case['time_ms']}ms (>2s)"
    return None


def main(argv: list[str] | None = None) -> int:
    return standalone_main("exp7-optimizer-overhead", run_cases,
                           description=__doc__.splitlines()[0],
                           check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
