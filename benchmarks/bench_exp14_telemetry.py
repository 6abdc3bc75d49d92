"""EXP-14 — Telemetry overhead: tracing on vs off on the prepared workload.

The telemetry design constraint (DESIGN.md "Telemetry") is that tracing
*off* costs one branch per instrumentation point and tracing *on* stays
cheap enough to leave enabled in production-style runs.  This experiment
runs a prepared workload (the motivating query with rotating bind values
against one :class:`~repro.service.QueryService`) and times three
configurations:

* **tracing-off** — the default service; instrumentation points see no
  active span and return the shared no-op singleton;
* **tracing-on** — span trees are built, ring-buffered and annotated for
  every statement;
* **tracing+slowlog** — tracing on plus a slow-query threshold high enough
  to never fire (the ``would_log`` check runs per statement).

Acceptance: tracing-on overhead ≤ 5% of tracing-off throughput (with a
noise allowance on the sub-second quick runs), and the traced run must
actually capture one span tree per statement.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp14_telemetry.py [--quick] [--json PATH]

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_exp14_telemetry.py
"""

from __future__ import annotations

import sys
import time

from conftest import DEFAULT_SIZE, SCALING_SIZES
from harness import format_table, standalone_main
from repro.service import QueryService
from repro.workloads import document_knowledge, generate_document_database
from repro.workloads.documents import QUERY_TERM

#: acceptance threshold: tracing-on may cost at most this fraction of the
#: tracing-off wall time on the prepared workload
MAX_TRACING_OVERHEAD = 0.05
#: quick runs finish in tens of milliseconds where scheduler noise alone
#: exceeds 5%; the check phase allows this absolute slack on top
NOISE_ALLOWANCE_SECONDS = 0.05

PARAM_QUERY = ("ACCESS p FROM p IN Paragraph "
               "WHERE p->contains_string(:term) AND "
               "(p->document()).title == :title")


def _workload(database, n_requests: int) -> list[dict]:
    titles = sorted({database.value(oid, "title")
                     for oid in database.extension("Document")})
    return [{"term": QUERY_TERM, "title": titles[i % len(titles)]}
            for i in range(n_requests)]


def _timed_run(service: QueryService, requests: list[dict]) -> float:
    # Warm the plan cache outside the timed region: both configurations
    # then measure steady-state cached execution, which is where tracing
    # overhead would actually be paid.
    service.execute(PARAM_QUERY, requests[0])
    started = time.perf_counter()
    for parameters in requests:
        service.execute(PARAM_QUERY, parameters)
    return time.perf_counter() - started


def run_cases(quick: bool = False) -> list[dict]:
    n_documents = SCALING_SIZES[0] if quick else DEFAULT_SIZE
    n_requests = 60 if quick else 300
    database = generate_document_database(n_documents=n_documents)
    knowledge = document_knowledge(database.schema)
    requests = _workload(database, n_requests)

    configurations = [
        ("tracing-off", {}),
        ("tracing-on", {"tracing": True}),
        ("tracing+slowlog", {"tracing": True, "slow_query_ms": 1e9}),
    ]
    cases = []
    for name, kwargs in configurations:
        service = QueryService(database, knowledge=knowledge, **kwargs)
        seconds = _timed_run(service, requests)
        case = {
            "case": name, "n_documents": n_documents,
            "requests": n_requests, "seconds": round(seconds, 4),
            "queries_per_second": round(n_requests / seconds, 1)
            if seconds > 0 else float("inf"),
            "spans_captured": len(service.tracer),
        }
        if name == "tracing-off":
            assert case["spans_captured"] == 0, \
                "tracing-off must not record spans"
        else:
            # the tracer ring is bounded; every request must have produced
            # a tree (ring capacity 256 > n_requests in both modes)
            assert case["spans_captured"] >= min(n_requests, 256), \
                f"{name} captured {case['spans_captured']} spans"
            execute = service.registry.histogram(
                "repro_execute_seconds").snapshot()
            assert execute["count"] == n_requests + 1  # + the warm-up
        cases.append(case)
    return cases


def summarize(cases: list[dict]) -> dict:
    by_case = {case["case"]: case for case in cases}
    off = by_case["tracing-off"]["seconds"]
    on = by_case["tracing-on"]["seconds"]
    overhead = (on - off) / off if off > 0 else 0.0
    return {
        "tracing_overhead_fraction": round(overhead, 4),
        "tracing_overhead_target": MAX_TRACING_OVERHEAD,
        "tracing_off_seconds": off,
        "tracing_on_seconds": on,
    }


def check(record: dict) -> str | None:
    off = record["tracing_off_seconds"]
    on = record["tracing_on_seconds"]
    budget = off * (1.0 + MAX_TRACING_OVERHEAD) + NOISE_ALLOWANCE_SECONDS
    if on > budget:
        return (f"tracing-on wall time {on}s exceeds the "
                f"{MAX_TRACING_OVERHEAD:.0%}+noise budget {budget:.4f}s "
                f"over tracing-off {off}s")
    return None


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_exp14_tracing_overhead_within_budget(benchmark):
    """Acceptance: tracing-on ≤ 5% (+ noise allowance) over tracing-off."""
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summarize(cases)
    print("\nEXP-14 telemetry overhead (quick):")
    print(format_table(cases))
    print(f"tracing overhead: {summary['tracing_overhead_fraction']:.2%}")
    record = {**summary}
    assert check(record) is None, check(record)


def test_exp14_tracing_off_records_no_spans(benchmark):
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    off = next(case for case in cases if case["case"] == "tracing-off")
    assert off["spans_captured"] == 0


# ----------------------------------------------------------------------
# standalone CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    return standalone_main(
        "exp14-telemetry", run_cases,
        description=__doc__.splitlines()[0],
        summarize=summarize, check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
