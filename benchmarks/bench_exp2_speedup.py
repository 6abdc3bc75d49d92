"""EXP-2 — The optimized plan is much cheaper than naive evaluation.

Section 2.3: "The final query plan can, for a given typical database, be
evaluated much more efficiently than a straightforward evaluation of the
query without transformation."  This experiment quantifies that claim: the
motivating query is executed naively (canonical plan, per-paragraph external
method calls) and optimized (plan PQ) across database sizes, and the speedup
in logical work and external calls is reported.

Expected shape: the naive cost grows linearly with the number of paragraphs
(one contains_string call each), the optimized cost stays essentially flat,
so the speedup grows roughly linearly with database size.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp2_speedup.py [--quick] [--json PATH]
"""

from __future__ import annotations

import sys

import pytest

from conftest import SCALING_SIZES, semantic_session
from harness import format_table, measure_query, speedup, standalone_main
from repro.workloads import motivating_query

QUERY = motivating_query().text


@pytest.mark.parametrize("n_documents", SCALING_SIZES)
def test_exp2_optimized_vs_naive(benchmark, n_documents):
    session = semantic_session(n_documents)

    naive = measure_query(session, QUERY, label=f"naive[{n_documents}]",
                          optimize=False)
    optimized = benchmark.pedantic(
        lambda: measure_query(session, QUERY,
                              label=f"optimized[{n_documents}]"),
        rounds=3, iterations=1)

    assert naive.rows == optimized.rows
    work_speedup = speedup(naive, optimized, "cost_units")
    call_speedup = speedup(naive, optimized, "external_calls")

    # The optimized plan must win by a wide margin and the margin must grow
    # with the database (naive is linear in paragraphs, optimized ~constant).
    assert work_speedup > 10
    assert call_speedup > 10
    assert optimized.external_calls <= 2

    rows = [naive.as_row(), optimized.as_row(),
            {"label": "speedup",
             "cost_units": round(work_speedup, 1),
             "external_calls": round(call_speedup, 1)}]
    print(f"\nEXP-2 naive vs optimized (n_documents={n_documents}):")
    print(format_table(rows, columns=["label", "rows", "seconds", "cost_units",
                                      "method_calls", "external_calls",
                                      "property_reads"]))


def test_exp2_speedup_grows_with_database_size(benchmark):
    """The naive/optimized work ratio increases with database size."""
    ratios = []
    for n_documents in SCALING_SIZES:
        session = semantic_session(n_documents)
        naive = measure_query(session, QUERY, "naive", optimize=False)
        optimized = measure_query(session, QUERY, "optimized")
        ratios.append((n_documents, speedup(naive, optimized, "cost_units")))

    benchmark.pedantic(
        lambda: measure_query(semantic_session(SCALING_SIZES[-1]), QUERY, "optimized"),
        rounds=3, iterations=1)

    print("\nEXP-2 speedup by database size:")
    print(format_table([{"n_documents": n, "speedup": round(r, 1)}
                        for n, r in ratios]))
    values = [ratio for _, ratio in ratios]
    assert values == sorted(values), "speedup should grow with database size"


# ----------------------------------------------------------------------
# standalone CLI (shared harness conventions)
# ----------------------------------------------------------------------
def run_cases(quick: bool = False) -> list[dict]:
    sizes = SCALING_SIZES[:2] if quick else SCALING_SIZES
    cases = []
    for n_documents in sizes:
        session = semantic_session(n_documents)
        naive = measure_query(session, QUERY, f"naive[{n_documents}]",
                              optimize=False)
        optimized = measure_query(session, QUERY, f"optimized[{n_documents}]")
        assert naive.rows == optimized.rows
        cases.append({
            "case": f"n={n_documents}",
            "n_documents": n_documents,
            "rows": optimized.rows,
            "naive_cost_units": round(naive.cost_units, 1),
            "optimized_cost_units": round(optimized.cost_units, 1),
            "work_speedup": round(speedup(naive, optimized, "cost_units"), 1),
            "call_speedup": round(speedup(naive, optimized, "external_calls"), 1),
        })
    return cases


def check(record: dict) -> str | None:
    if any(case["work_speedup"] <= 10 for case in record["cases"]):
        return "optimized plan is not >10x cheaper than naive at every size"
    ratios = [case["work_speedup"] for case in record["cases"]]
    if ratios != sorted(ratios):
        return "speedup does not grow with database size"
    return None


def main(argv: list[str] | None = None) -> int:
    return standalone_main("exp2-speedup", run_cases,
                           description=__doc__.splitlines()[0],
                           check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
