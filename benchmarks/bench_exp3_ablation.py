"""EXP-3 — Ablation of the four knowledge kinds (Section 4.2).

The paper classifies semantic knowledge into expression equivalences,
condition equivalences, condition implications and query↔method-call
equivalences.  This experiment disables each kind (by rule tag) and measures
the work of the plan the remaining optimizer chooses for the motivating
query, demonstrating that each kind contributes and that the full knowledge
base performs best.

Expected shape:

* full knowledge → plan PQ (two external calls, minimal work);
* without the query↔method equivalence (E5) → contains_string is evaluated
  per candidate paragraph, but the candidate set is already small thanks to
  E1-E4;
* without the condition equivalences (E2-E4) → the title condition cannot be
  turned into an index lookup + inverse-link navigation, so the plan falls
  back to scanning;
* without any semantic knowledge → the naive-shaped plan.
Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp3_ablation.py [--quick] [--json PATH]
"""

from __future__ import annotations

import sys

import pytest

from conftest import DEFAULT_SIZE, SCALING_SIZES, semantic_session
from harness import format_table, measure_query, standalone_main
from repro.workloads import motivating_query

QUERY = motivating_query().text

ABLATIONS = [
    ("full-knowledge", ()),
    ("no-expression-equivalences", ("semantic:expression",)),
    ("no-condition-equivalences", ("semantic:condition",)),
    ("no-query-method-equivalence", ("semantic:query-method",)),
    ("no-implications", ("semantic:implication",)),
    ("no-semantics-at-all", ("semantic",)),
]


@pytest.mark.parametrize("label,excluded", ABLATIONS,
                         ids=[label for label, _ in ABLATIONS])
def test_exp3_ablation_variant(benchmark, label, excluded):
    session = semantic_session(DEFAULT_SIZE, exclude_tags=tuple(excluded))
    measurement = benchmark.pedantic(
        lambda: measure_query(session, QUERY, label=label),
        rounds=1, iterations=1)
    print(f"\nEXP-3 {label}: cost_units={measurement.cost_units:.1f} "
          f"external_calls={measurement.external_calls:.0f}")
    assert measurement.rows >= 1


def test_exp3_full_knowledge_is_best(benchmark):
    """The full knowledge base yields the cheapest plan; every ablation is at
    least as expensive, and removing everything is the most expensive."""
    measurements = {}
    reference_rows = None
    for label, excluded in ABLATIONS:
        session = semantic_session(DEFAULT_SIZE, exclude_tags=tuple(excluded))
        measurement = measure_query(session, QUERY, label=label)
        measurements[label] = measurement
        if reference_rows is None:
            reference_rows = measurement.rows
        assert measurement.rows == reference_rows, \
            "ablation must never change query results"

    benchmark.pedantic(
        lambda: measure_query(semantic_session(DEFAULT_SIZE), QUERY, "full"),
        rounds=1, iterations=1)

    print("\nEXP-3 ablation summary:")
    print(format_table([m.as_row() for m in measurements.values()],
                       columns=["label", "rows", "cost_units",
                                "method_calls", "external_calls"]))

    full = measurements["full-knowledge"].cost_units
    none = measurements["no-semantics-at-all"].cost_units
    cheapest = min(m.cost_units for m in measurements.values())
    # The full knowledge base is (essentially) the cheapest variant — the
    # cost model's choice may differ from the measured work by a small
    # constant (see EXPERIMENTS.md), hence the 1.5x tolerance — and removing
    # all semantic knowledge is by far the most expensive.
    assert full <= cheapest * 1.5 + 1e-9
    assert none >= max(m.cost_units for m in measurements.values()) - 1e-9
    assert none > full * 10
    # Removing the query<->method equivalence must hurt: contains_string is
    # then evaluated per candidate paragraph.
    assert (measurements["no-query-method-equivalence"].external_calls
            > measurements["full-knowledge"].external_calls)


# ----------------------------------------------------------------------
# standalone CLI (shared harness conventions)
# ----------------------------------------------------------------------
def run_cases(quick: bool = False) -> list[dict]:
    size = SCALING_SIZES[0] if quick else DEFAULT_SIZE
    cases = []
    for label, excluded in ABLATIONS:
        session = semantic_session(size, exclude_tags=tuple(excluded))
        measurement = measure_query(session, QUERY, label=label)
        cases.append({
            "case": label,
            "n_documents": size,
            "rows": measurement.rows,
            "cost_units": round(measurement.cost_units, 1),
            "method_calls": int(measurement.method_calls),
            "external_calls": int(measurement.external_calls),
        })
    return cases


def check(record: dict) -> str | None:
    by_case = {case["case"]: case for case in record["cases"]}
    if len({case["rows"] for case in record["cases"]}) != 1:
        return "ablations changed query results"
    full = by_case["full-knowledge"]["cost_units"]
    none = by_case["no-semantics-at-all"]["cost_units"]
    if not none > full * 10:
        return "removing all semantic knowledge is not >10x more expensive"
    return None


def main(argv: list[str] | None = None) -> int:
    return standalone_main("exp3-ablation", run_cases,
                           description=__doc__.splitlines()[0],
                           check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
