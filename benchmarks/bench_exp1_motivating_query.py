"""EXP-1 — The motivating query Q is rewritten to plan PQ (Section 2.3).

The paper's central worked example: the query

    ACCESS p FROM p IN Paragraph
    WHERE p->contains_string('Implementation')
    AND (p->document()).title == 'Query Optimization'

must be rewritten — using only the schema-specific equivalences E1-E5 — into
the plan

    PQ: Paragraph->retrieve_by_string('Implementation')
        INTERSECTION
        (Document->select_by_index('Query Optimization')).sections.paragraphs

This benchmark checks the *shape* of the chosen plan (no class scan, no
per-paragraph contains_string; one retrieve_by_string and one
select_by_index) and times the end-to-end optimize+execute pipeline across
database sizes.  It also verifies that the structural-only optimizer cannot
reach this plan, the paper's "there is no way for the optimizer to derive the
final query plan ... without having schema-specific information" claim.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp1_motivating_query.py [--quick] [--json PATH]
"""

from __future__ import annotations

import sys

import pytest

from conftest import SCALING_SIZES, semantic_session, structural_session
from harness import format_table, standalone_main
from repro.physical.plans import ClassScan, ExpressionSetScan, Filter, walk_physical
from repro.workloads import motivating_query

QUERY = motivating_query().text


def _plan_shape(plan) -> dict[str, int]:
    nodes = list(walk_physical(plan))
    return {
        "class_scans": sum(isinstance(n, ClassScan) for n in nodes),
        "filters": sum(isinstance(n, Filter) for n in nodes),
        "expr_set_scans": sum(isinstance(n, ExpressionSetScan) for n in nodes),
    }


@pytest.mark.parametrize("n_documents", SCALING_SIZES)
def test_exp1_semantic_plan_matches_pq(benchmark, n_documents):
    """The semantic optimizer chooses a PQ-shaped plan at every size."""
    session = semantic_session(n_documents)

    def optimize_and_execute():
        return session.execute(QUERY)

    result = benchmark.pedantic(optimize_and_execute, rounds=3, iterations=1)

    shape = _plan_shape(result.physical_plan)
    # PQ evaluates two externally computed sets and intersects them: there is
    # no scan of the Paragraph extension and no per-paragraph filter.
    assert shape["class_scans"] == 0
    assert shape["filters"] == 0
    assert shape["expr_set_scans"] >= 1
    # The external work is one retrieve_by_string and one select_by_index.
    assert result.work["ir_calls"] == 1
    assert result.work["external_method_calls"] <= 2
    assert len(result) >= 1

    rows = [{
        "n_documents": n_documents,
        "result_rows": len(result),
        "external_calls": int(result.work["external_method_calls"]),
        "cost_units": round(result.work["total_cost_units"], 1),
        "plans_explored": result.optimization.statistics.logical_plans_explored,
    }]
    print("\nEXP-1 semantic plan (PQ shape):")
    print(format_table(rows))


@pytest.mark.parametrize("n_documents", [SCALING_SIZES[0]])
def test_exp1_structural_optimizer_cannot_reach_pq(benchmark, n_documents):
    """Without semantic rules the plan still scans Paragraph and calls
    contains_string per paragraph — PQ is unreachable."""
    session = structural_session(n_documents)

    result = benchmark.pedantic(lambda: session.execute(QUERY),
                                rounds=1, iterations=1)

    shape = _plan_shape(result.physical_plan)
    assert shape["class_scans"] >= 1
    # per-paragraph external calls remain
    assert result.work["ir_calls"] > 1
    print("\nEXP-1 structural-only plan shape:", shape)


# ----------------------------------------------------------------------
# standalone CLI (shared harness conventions)
# ----------------------------------------------------------------------
def run_cases(quick: bool = False) -> list[dict]:
    sizes = SCALING_SIZES[:1] if quick else SCALING_SIZES
    cases = []
    for n_documents in sizes:
        session = semantic_session(n_documents)
        session.database.reset_statistics()
        result = session.execute(QUERY)
        shape = _plan_shape(result.physical_plan)
        cases.append({
            "case": f"semantic[{n_documents}]",
            "n_documents": n_documents,
            "rows": len(result),
            "external_calls": int(result.work["external_method_calls"]),
            "cost_units": round(result.work["total_cost_units"], 1),
            "plans_explored":
                result.optimization.statistics.logical_plans_explored,
            **shape,
        })
    structural = structural_session(sizes[0])
    structural.database.reset_statistics()
    result = structural.execute(QUERY)
    cases.append({
        "case": f"structural[{sizes[0]}]",
        "n_documents": sizes[0],
        "rows": len(result),
        "external_calls": int(result.work["external_method_calls"]),
        "cost_units": round(result.work["total_cost_units"], 1),
        "plans_explored":
            result.optimization.statistics.logical_plans_explored,
        **_plan_shape(result.physical_plan),
    })
    return cases


def check(record: dict) -> str | None:
    semantic = [c for c in record["cases"] if c["case"].startswith("semantic")]
    if any(c["class_scans"] != 0 or c["filters"] != 0 for c in semantic):
        return "semantic plan is not PQ-shaped (class scans or filters remain)"
    return None


def main(argv: list[str] | None = None) -> int:
    return standalone_main("exp1-motivating-query", run_cases,
                           description=__doc__.splitlines()[0],
                           check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
