"""EXP-4 — Condition implications and precomputed information (Section 4.2).

The paper's example: ``p->wordCount() > 500 ⇒ p IS-IN
p->document().largeParagraphs`` lets the optimizer add a redundant but cheap
restriction based on the precomputed ``largeParagraphs`` property, avoiding
the expensive ``wordCount`` call for most paragraphs.

Measured: the work of the word-count query with and without the implication
knowledge.  Expected shape: with the implication, the number of wordCount
invocations drops from "all paragraphs" to "members of largeParagraphs".

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp4_implication.py [--quick] [--json PATH]
"""

from __future__ import annotations

import sys

from conftest import DEFAULT_SIZE, SCALING_SIZES, semantic_session
from harness import format_table, measure_query, speedup, standalone_main
from repro.workloads import large_paragraph_query

QUERY = large_paragraph_query().text


def test_exp4_implication_reduces_wordcount_calls(benchmark):
    with_implication = semantic_session(DEFAULT_SIZE)
    without_implication = semantic_session(
        DEFAULT_SIZE, exclude_tags=("semantic:implication",))

    baseline = measure_query(without_implication, QUERY, "without-implication")
    baseline_wordcount = without_implication.database.statistics.calls_of(
        "Paragraph", "wordCount")
    optimized = benchmark.pedantic(
        lambda: measure_query(with_implication, QUERY, "with-implication"),
        rounds=3, iterations=1)
    optimized_wordcount = with_implication.database.statistics.calls_of(
        "Paragraph", "wordCount")

    assert baseline.rows == optimized.rows

    print("\nEXP-4 implication (precomputed largeParagraphs):")
    print(format_table([baseline.as_row(), optimized.as_row()],
                       columns=["label", "rows", "cost_units", "method_calls",
                                "property_reads"]))
    print(f"wordCount calls: {baseline_wordcount} -> {optimized_wordcount}")
    print(f"work speedup: {speedup(baseline, optimized, 'cost_units'):.1f}x")

    # The implied restriction replaces the expensive wordCount predicate by a
    # cheap membership test for most paragraphs: wordCount is now evaluated
    # only for the (few) members of largeParagraphs.
    assert optimized.cost_units < baseline.cost_units / 2
    assert optimized_wordcount < baseline_wordcount / 10


# ----------------------------------------------------------------------
# standalone CLI (shared harness conventions)
# ----------------------------------------------------------------------
def run_cases(quick: bool = False) -> list[dict]:
    size = SCALING_SIZES[0] if quick else DEFAULT_SIZE
    cases = []
    for label, excluded in (("with-implication", ()),
                            ("without-implication", ("semantic:implication",))):
        session = semantic_session(size, exclude_tags=tuple(excluded))
        measurement = measure_query(session, QUERY, label)
        wordcount_calls = session.database.statistics.calls_of(
            "Paragraph", "wordCount")
        cases.append({
            "case": label,
            "n_documents": size,
            "rows": measurement.rows,
            "cost_units": round(measurement.cost_units, 1),
            "wordcount_calls": int(wordcount_calls),
        })
    return cases


def check(record: dict) -> str | None:
    by_case = {case["case"]: case for case in record["cases"]}
    with_impl = by_case["with-implication"]
    without = by_case["without-implication"]
    if with_impl["rows"] != without["rows"]:
        return "implication changed query results"
    if not with_impl["wordcount_calls"] < without["wordcount_calls"] / 10:
        return "implication did not cut wordCount calls by >10x"
    return None


def main(argv: list[str] | None = None) -> int:
    return standalone_main("exp4-implication", run_cases,
                           description=__doc__.splitlines()[0],
                           check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
