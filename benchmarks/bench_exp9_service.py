"""EXP-9 — Prepared/cached execution vs the per-query full pipeline.

EXP-7 measures what semantic optimization costs per query; this experiment
shows the service layer amortizing that cost away.  The exp2 workload (the
motivating query) is executed many times with rotating bind values:

* **full-pipeline** — one :class:`~repro.session.Session`, each request pays
  parse → analyze → translate → optimize → compile → execute (the optimizer
  itself is generated once; regenerating it per request would be an unfair
  baseline);
* **prepared** — one :class:`~repro.service.QueryService`, each request
  resolves the statement from the text cache, the optimized + compiled plan
  from the plan cache, binds the parameters and runs the compiled closures;
* **prepared-concurrent** — the same requests fanned out over the service's
  worker pool (informative; Python threads share the interpreter, so this
  measures coordination overhead, not a speedup).

Acceptance: prepared throughput ≥ 5× full-pipeline throughput, and the
differential check — every prepared result equals a fresh session's result,
across bindings and after invalidation events (index DDL, bulk data load).

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp9_service.py [--quick] [--json PATH]

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_exp9_service.py
"""

from __future__ import annotations

import sys
import time

from conftest import DEFAULT_SIZE, SCALING_SIZES
from repro.bench import format_table, standalone_main
from repro.service import QueryService
from repro.session import Session
from repro.workloads import document_knowledge, generate_document_database
from repro.workloads.documents import QUERY_TERM

#: the acceptance threshold: cached prepared execution must deliver at least
#: this many times the per-query full-pipeline throughput
MIN_THROUGHPUT_SPEEDUP = 5.0

PARAM_QUERY = ("ACCESS p FROM p IN Paragraph "
               "WHERE p->contains_string(:term) AND "
               "(p->document()).title == :title")


def _workload(database, n_requests: int) -> list[dict]:
    titles = sorted({database.value(oid, "title")
                     for oid in database.extension("Document")})
    return [{"term": QUERY_TERM, "title": titles[i % len(titles)]}
            for i in range(n_requests)]


def _fresh(n_documents: int):
    # exp9 mutates the database (invalidation phase): never reuse the
    # conftest-cached databases.
    database = generate_document_database(n_documents=n_documents)
    return database, document_knowledge(database.schema)


def _throughput(run, n_requests: int) -> tuple[float, float]:
    started = time.perf_counter()
    run()
    elapsed = time.perf_counter() - started
    return elapsed, n_requests / elapsed if elapsed > 0 else float("inf")


def run_cases(quick: bool = False) -> list[dict]:
    n_documents = SCALING_SIZES[0] if quick else DEFAULT_SIZE
    n_requests = 12 if quick else 40
    database, knowledge = _fresh(n_documents)
    requests = _workload(database, n_requests)

    session = Session(database, knowledge=knowledge)
    service = QueryService(database, knowledge=knowledge)

    # Differential check on every binding before timing anything.
    for parameters in requests[:len({r["title"] for r in requests})]:
        prepared = service.execute(PARAM_QUERY, parameters)
        reference = session.execute(PARAM_QUERY, parameters=parameters)
        assert prepared.value_set() == reference.value_set(), \
            f"prepared result diverges for {parameters}"

    pipeline_seconds, pipeline_qps = _throughput(
        lambda: [session.execute(PARAM_QUERY, parameters=p)
                 for p in requests], n_requests)
    prepared_seconds, prepared_qps = _throughput(
        lambda: [service.execute(PARAM_QUERY, p) for p in requests],
        n_requests)
    concurrent_seconds, concurrent_qps = _throughput(
        lambda: service.run_concurrent(
            [(PARAM_QUERY, p) for p in requests], workers=4), n_requests)

    snapshot = service.metrics.snapshot()
    cases = [
        {"case": "full-pipeline", "n_documents": n_documents,
         "requests": n_requests,
         "seconds": round(pipeline_seconds, 4),
         "queries_per_second": round(pipeline_qps, 1)},
        {"case": "prepared", "n_documents": n_documents,
         "requests": n_requests,
         "seconds": round(prepared_seconds, 4),
         "queries_per_second": round(prepared_qps, 1),
         "cache_hit_rate": round(snapshot["hit_rate"], 3)},
        {"case": "prepared-concurrent", "n_documents": n_documents,
         "requests": n_requests,
         "seconds": round(concurrent_seconds, 4),
         "queries_per_second": round(concurrent_qps, 1)},
    ]

    # Invalidation phase: DDL and a bulk load must evict cached plans
    # without ever serving a wrong (or crashing) answer.
    database.create_hash_index("Paragraph", "number")
    for i in range(database.object_count() // 2):
        database.create("Document", title=f"exp9 bulk {i}", sections=set())
    post_session = Session(database, knowledge=knowledge)
    for parameters in requests[:3]:
        prepared = service.execute(PARAM_QUERY, parameters)
        reference = post_session.execute(PARAM_QUERY, parameters=parameters)
        assert prepared.value_set() == reference.value_set(), \
            "prepared result diverges after invalidation events"
    cases.append({
        "case": "post-invalidation-differential", "n_documents": n_documents,
        "requests": 3, "seconds": 0.0,
        "queries_per_second": 0.0,
        "invalidations": service.cache.statistics.invalidations,
    })
    return cases


def summarize(cases: list[dict]) -> dict:
    by_case = {case["case"]: case for case in cases}
    speedup = (by_case["prepared"]["queries_per_second"]
               / max(by_case["full-pipeline"]["queries_per_second"], 1e-9))
    return {
        "throughput_speedup": round(speedup, 2),
        "throughput_speedup_target": MIN_THROUGHPUT_SPEEDUP,
    }


def check(record: dict) -> str | None:
    if record["throughput_speedup"] < MIN_THROUGHPUT_SPEEDUP:
        return (f"prepared throughput speedup {record['throughput_speedup']}x "
                f"is below the {MIN_THROUGHPUT_SPEEDUP}x target")
    return None


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_exp9_prepared_execution_at_least_5x_throughput(benchmark):
    """Acceptance: cached prepared execution ≥5× the full pipeline."""
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summarize(cases)
    print("\nEXP-9 prepared service vs full pipeline (quick):")
    print(format_table(cases))
    print(f"throughput speedup: {summary['throughput_speedup']}x")
    assert summary["throughput_speedup"] >= MIN_THROUGHPUT_SPEEDUP


def test_exp9_cache_hit_rate_is_high(benchmark):
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    prepared = next(case for case in cases if case["case"] == "prepared")
    assert prepared["cache_hit_rate"] > 0.9


# ----------------------------------------------------------------------
# standalone CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    return standalone_main(
        "exp9-service", run_cases,
        description=__doc__.splitlines()[0],
        summarize=summarize, check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
