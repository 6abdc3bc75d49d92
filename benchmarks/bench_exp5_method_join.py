"""EXP-5 — Methods as join predicates (Example 1).

``p->sameDocument(q)`` is a parametrized method used as a join predicate.
Naively this forces a nested-loop join invoking the method (and, inside it,
two ``document()`` calls) for every pair of paragraphs — quadratic in the
number of paragraphs.  With the J1 condition equivalence
(``p->sameDocument(q) ⇔ p->document() == q->document()``) and the E1 path
equivalence, the optimizer turns the predicate into an attribute equi-join
that a hash join evaluates with linear method/property work.

Expected shape: naive method invocations grow quadratically, optimized work
grows linearly; the speedup therefore grows with database size.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp5_method_join.py [--quick] [--json PATH]
"""

from __future__ import annotations

import sys

import pytest

from conftest import semantic_session
from harness import format_table, measure_query, speedup, standalone_main
from repro.physical.plans import HashJoin, NestedLoopJoin, walk_physical
from repro.workloads import same_document_join_query

QUERY = same_document_join_query().text

#: deliberately small sizes — the naive baseline is quadratic
JOIN_SIZES = (4, 8, 16)


@pytest.mark.parametrize("n_documents", JOIN_SIZES)
def test_exp5_method_join_rewrite(benchmark, n_documents):
    session = semantic_session(n_documents)

    naive = measure_query(session, QUERY, f"naive[{n_documents}]",
                          optimize=False)
    optimized = benchmark.pedantic(
        lambda: measure_query(session, QUERY, f"optimized[{n_documents}]"),
        rounds=1, iterations=1)

    assert naive.rows == optimized.rows

    # The optimized plan must use a hash join, not a nested loop with the
    # method predicate.
    result = session.execute(QUERY)
    nodes = list(walk_physical(result.physical_plan))
    assert any(isinstance(node, HashJoin) for node in nodes)
    assert not any(isinstance(node, NestedLoopJoin) for node in nodes)

    print(f"\nEXP-5 sameDocument join (n_documents={n_documents}):")
    print(format_table([naive.as_row(), optimized.as_row()],
                       columns=["label", "rows", "seconds", "cost_units",
                                "method_calls", "property_reads"]))
    print(f"method-call speedup: {speedup(naive, optimized, 'method_calls'):.1f}x")

    assert optimized.method_calls < naive.method_calls / 10


def test_exp5_speedup_grows_quadratically(benchmark):
    """The naive/optimized ratio grows with the number of paragraphs."""
    ratios = []
    for n_documents in JOIN_SIZES:
        session = semantic_session(n_documents)
        naive = measure_query(session, QUERY, "naive", optimize=False)
        optimized = measure_query(session, QUERY, "optimized")
        ratios.append((n_documents,
                       speedup(naive, optimized, "cost_units")))
    benchmark.pedantic(
        lambda: measure_query(semantic_session(JOIN_SIZES[0]), QUERY, "optimized"),
        rounds=1, iterations=1)

    print("\nEXP-5 speedup by database size:")
    print(format_table([{"n_documents": n, "speedup": round(r, 1)}
                        for n, r in ratios]))
    values = [ratio for _, ratio in ratios]
    assert values == sorted(values)


# ----------------------------------------------------------------------
# standalone CLI (shared harness conventions)
# ----------------------------------------------------------------------
def run_cases(quick: bool = False) -> list[dict]:
    sizes = JOIN_SIZES[:2] if quick else JOIN_SIZES
    cases = []
    for n_documents in sizes:
        session = semantic_session(n_documents)
        naive = measure_query(session, QUERY, f"naive[{n_documents}]",
                              optimize=False)
        optimized = measure_query(session, QUERY, f"optimized[{n_documents}]")
        assert naive.rows == optimized.rows
        nodes = list(walk_physical(session.optimize(QUERY).best_plan))
        cases.append({
            "case": f"n={n_documents}",
            "n_documents": n_documents,
            "rows": optimized.rows,
            "naive_method_calls": int(naive.method_calls),
            "optimized_method_calls": int(optimized.method_calls),
            "method_call_speedup":
                round(speedup(naive, optimized, "method_calls"), 1),
            "uses_hash_join": any(isinstance(n, HashJoin) for n in nodes),
            "uses_nested_loop": any(isinstance(n, NestedLoopJoin)
                                    for n in nodes),
        })
    return cases


def check(record: dict) -> str | None:
    for case in record["cases"]:
        if not case["uses_hash_join"] or case["uses_nested_loop"]:
            return f"{case['case']}: optimized plan is not a pure hash join"
        if case["method_call_speedup"] <= 10:
            return f"{case['case']}: method-call speedup below 10x"
    return None


def main(argv: list[str] | None = None) -> int:
    return standalone_main("exp5-method-join", run_cases,
                           description=__doc__.splitlines()[0],
                           check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
