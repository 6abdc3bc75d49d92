"""EXP-6 — General vs restricted algebra (Section 6.1).

The paper restricts operator parameters to atomic expressions so that the
Volcano rule matcher can work, and argues the restricted algebra has the same
expressive power: expression composition becomes operator composition.  This
experiment normalizes every workload query from the general to the restricted
algebra, executes both forms, verifies the results coincide, and measures the
overhead of the decomposition (operator count and execution time).

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp6_restricted_algebra.py [--quick] [--json PATH]
"""

from __future__ import annotations

import sys

import pytest

from conftest import SCALING_SIZES, semantic_session
from harness import format_table, standalone_main
from repro.algebra.normalize import normalize
from repro.algebra.operators import operator_size
from repro.physical.evaluator import make_hashable
from repro.physical.executor import execute_plan
from repro.physical.naive import naive_implementation
from repro.physical.restricted_exec import execute_restricted
from repro.workloads import document_workload

#: queries whose ACCESS clause the restricted normalizer supports
#: (tuple constructors are excluded by design, see normalize.py)
QUERIES = [q for q in document_workload()
           if q.name not in ("Q-same-document", "Q-tuple-access")]


@pytest.mark.parametrize("query", QUERIES, ids=[q.name for q in QUERIES])
def test_exp6_restricted_equals_general(benchmark, query):
    session = semantic_session(SCALING_SIZES[0])
    translation = session.translate(query.text)
    restricted = normalize(translation.plan)

    general_rows = execute_plan(naive_implementation(translation.plan),
                                session.database)
    restricted_rows = benchmark.pedantic(
        lambda: execute_restricted(restricted, session.database),
        rounds=1, iterations=1)

    def projected(rows):
        return {make_hashable(row.get(translation.output_ref)) for row in rows}

    assert projected(general_rows) == projected(restricted_rows)

    print(f"\nEXP-6 {query.name}: general {operator_size(translation.plan)} "
          f"operators -> restricted {operator_size(restricted)} operators")


def test_exp6_operator_blowup_summary(benchmark):
    """Report the operator-count blow-up caused by the decomposition."""
    session = semantic_session(SCALING_SIZES[0])
    rows = []
    for query in QUERIES:
        translation = session.translate(query.text)
        restricted = normalize(translation.plan)
        rows.append({
            "query": query.name,
            "general_ops": operator_size(translation.plan),
            "restricted_ops": operator_size(restricted),
            "blowup": round(operator_size(restricted)
                            / operator_size(translation.plan), 2),
        })
    benchmark.pedantic(
        lambda: [normalize(session.translate(q.text).plan) for q in QUERIES],
        rounds=3, iterations=1)

    print("\nEXP-6 operator counts (general vs restricted):")
    print(format_table(rows))
    assert all(row["restricted_ops"] >= row["general_ops"] for row in rows)


# ----------------------------------------------------------------------
# standalone CLI (shared harness conventions)
# ----------------------------------------------------------------------
def run_cases(quick: bool = False) -> list[dict]:
    session = semantic_session(SCALING_SIZES[0])
    queries = QUERIES[:3] if quick else QUERIES
    cases = []
    for query in queries:
        translation = session.translate(query.text)
        restricted = normalize(translation.plan)
        general_rows = execute_plan(naive_implementation(translation.plan),
                                    session.database)
        restricted_rows = execute_restricted(restricted, session.database)

        def projected(rows):
            return {make_hashable(row.get(translation.output_ref))
                    for row in rows}

        cases.append({
            "case": query.name,
            "rows": len(general_rows),
            "results_match": projected(general_rows) == projected(restricted_rows),
            "general_ops": operator_size(translation.plan),
            "restricted_ops": operator_size(restricted),
            "blowup": round(operator_size(restricted)
                            / operator_size(translation.plan), 2),
        })
    return cases


def check(record: dict) -> str | None:
    for case in record["cases"]:
        if not case["results_match"]:
            return f"{case['case']}: restricted algebra changed the result"
        if case["restricted_ops"] < case["general_ops"]:
            return f"{case['case']}: restricted form lost operators"
    return None


def main(argv: list[str] | None = None) -> int:
    return standalone_main("exp6-restricted-algebra", run_cases,
                           description=__doc__.splitlines()[0],
                           check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
