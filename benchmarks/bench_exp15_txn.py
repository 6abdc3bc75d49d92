"""EXP-15 — MVCC snapshot reads: reader latency under a concurrent writer.

Before the MVCC work, every query execution took the service's read gate,
so a writer holding the (writer-preferring) write gate stalled the whole
read side for the duration of each DML apply.  Snapshot reads removed the
gate from the query path entirely: readers pin the latest published commit
timestamp and resolve mutated objects through per-object version chains,
so a concurrent writer should cost readers *version-chain walks*, not
*gate waits*.

This experiment measures per-query reader latency (p50/p99) in three
configurations on one shared service:

* **no-writer** — the baseline: readers only;
* **gil-control** — a background thread spins on pure Python arithmetic:
  the cost of GIL sharing and OS preemption alone, with zero database
  writes;
* **autocommit-writer** — a background thread applies single-statement
  UPDATEs (each takes the write gate for its apply phase) while readers
  run;
* **txn-writer** — the background thread batches its updates into
  BEGIN/COMMIT transactions (write gate taken once per commit).

Acceptance: reader p99 under either writer stays within
``MAX_P99_SLOWDOWN``× the *worse* of the no-writer baseline and the
gil-control (plus a small absolute allowance).  Comparing against the
control matters: on a busy box a second runnable thread alone inflates
the tail by several OS scheduler quanta, and that cost is not the write
gate's fault — the experiment isolates blocking attributable to the
database, not to the interpreter.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp15_txn.py [--quick] [--json PATH]

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_exp15_txn.py
"""

from __future__ import annotations

import sys
import threading
import time

from conftest import DEFAULT_SIZE, SCALING_SIZES
from harness import format_table, standalone_main
from repro.api.connection import connect
from repro.service import QueryService
from repro.workloads import document_knowledge, generate_document_database
from repro.workloads.documents import QUERY_TERM

#: reader p99 under a concurrent writer may be at most this multiple of
#: the worse of the no-writer and gil-control p99s
MAX_P99_SLOWDOWN = 2.0
#: absolute slack for sub-millisecond quick runs, where one extra OS
#: scheduler quantum dwarfs any multiplicative bound
NOISE_ALLOWANCE_SECONDS = 0.002

READER_QUERY = ("ACCESS p FROM p IN Paragraph "
                "WHERE p->contains_string(:term) AND "
                "(p->document()).title == :title")
WRITER_STATEMENT = ("UPDATE Document d SET author = :author "
                    "WHERE d.title == :title")


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _reader_requests(database, n_requests: int) -> list[dict]:
    titles = sorted({database.value(oid, "title")
                     for oid in database.extension("Document")})
    return [{"term": QUERY_TERM, "title": titles[i % len(titles)]}
            for i in range(n_requests)]


def _measure_readers(service: QueryService, requests: list[dict]
                     ) -> list[float]:
    latencies = []
    for parameters in requests:
        started = time.perf_counter()
        service.execute(READER_QUERY, parameters)
        latencies.append(time.perf_counter() - started)
    return latencies


class _Burner:
    """A background thread spinning on pure Python arithmetic — the
    GIL-sharing control with zero database writes."""

    def __init__(self):
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        counter = 0
        while not self._stop.is_set():
            counter += 1

    def __enter__(self) -> "_Burner":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=30)


class _Writer:
    """A background DML loop: autocommit statements or BEGIN/COMMIT
    batches, counting how many applies actually landed."""

    def __init__(self, database, service, titles, transactional: bool):
        self._connection = connect(database, service=service)
        self._titles = titles
        self._transactional = transactional
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.commits = 0

    def _run(self) -> None:
        round_number = 0
        while not self._stop.is_set():
            round_number += 1
            author = f"writer pass {round_number}"
            if self._transactional:
                self._connection.execute("BEGIN")
                for title in self._titles[:4]:
                    self._connection.execute(
                        WRITER_STATEMENT, {"author": author, "title": title})
                self._connection.execute("COMMIT")
            else:
                for title in self._titles[:4]:
                    self._connection.execute(
                        WRITER_STATEMENT, {"author": author, "title": title})
            self.commits += 1

    def __enter__(self) -> "_Writer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=30)


def run_cases(quick: bool = False) -> list[dict]:
    n_documents = SCALING_SIZES[0] if quick else DEFAULT_SIZE
    n_requests = 80 if quick else 400
    database = generate_document_database(n_documents=n_documents)
    knowledge = document_knowledge(database.schema)
    # disable drift-triggered re-optimization: adaptive replans (~10ms
    # optimizer runs) fire under this write churn even single-threaded,
    # and would drown the gate-blocking signal this experiment isolates
    service = QueryService(database, knowledge=knowledge,
                           reoptimize_fraction=float("inf"))
    requests = _reader_requests(database, n_requests)
    titles = sorted({database.value(oid, "title")
                     for oid in database.extension("Document")})

    # warm the plan caches (reader and writer WHERE plans) outside the
    # timed region: gate behaviour under steady state is the target
    service.execute(READER_QUERY, requests[0])
    connect(database, service=service).execute(
        WRITER_STATEMENT, {"author": "warm-up", "title": titles[0]})

    cases = []
    # a 5ms GIL timeslice dwarfs a ~0.1ms query: shrink it so the p99
    # measures write-gate blocking rather than scheduler preemption
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        for name, transactional in (("no-writer", None),
                                    ("gil-control", None),
                                    ("autocommit-writer", False),
                                    ("txn-writer", True)):
            commits = 0
            if name == "no-writer":
                latencies = _measure_readers(service, requests)
            elif name == "gil-control":
                with _Burner():
                    latencies = _measure_readers(service, requests)
            else:
                with _Writer(database, service, titles,
                             transactional) as writer:
                    latencies = _measure_readers(service, requests)
                commits = writer.commits
                assert commits > 0, f"{name}: the writer never committed"
            cases.append({
                "case": name,
                "n_documents": n_documents,
                "requests": n_requests,
                "writer_rounds": commits,
                "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 4),
                "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 4),
                "total_seconds": round(sum(latencies), 4),
            })
    finally:
        sys.setswitchinterval(previous_interval)
    return cases


def summarize(cases: list[dict]) -> dict:
    by_case = {case["case"]: case for case in cases}
    reference = max(by_case["no-writer"]["p99_ms"],
                    by_case["gil-control"]["p99_ms"])
    summary = {
        "baseline_p99_ms": by_case["no-writer"]["p99_ms"],
        "gil_control_p99_ms": by_case["gil-control"]["p99_ms"],
        "reference_p99_ms": reference,
        "p99_slowdown_target": MAX_P99_SLOWDOWN,
    }
    for name in ("autocommit-writer", "txn-writer"):
        p99 = by_case[name]["p99_ms"]
        summary[f"{name}_p99_ms"] = p99
        summary[f"{name}_p99_slowdown"] = (
            round(p99 / reference, 3) if reference > 0 else 0.0)
    return summary


def check(record: dict) -> str | None:
    reference = record["reference_p99_ms"]
    budget = reference * MAX_P99_SLOWDOWN + NOISE_ALLOWANCE_SECONDS * 1e3
    for name in ("autocommit-writer", "txn-writer"):
        p99 = record[f"{name}_p99_ms"]
        if p99 > budget:
            return (f"reader p99 under {name} is {p99}ms, beyond the "
                    f"{MAX_P99_SLOWDOWN}x+noise budget {budget:.4f}ms over "
                    f"the reference p99 {reference}ms (worse of no-writer "
                    f"and gil-control)")
    return None


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_exp15_readers_not_blocked_by_writers(benchmark):
    """Acceptance: reader p99 under a concurrent writer ≤ 2× (+ noise)
    of the no-writer baseline."""
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summarize(cases)
    print("\nEXP-15 reader latency under concurrent writers (quick):")
    print(format_table(cases))
    print(f"autocommit-writer p99 slowdown: "
          f"{summary['autocommit-writer_p99_slowdown']}x, "
          f"txn-writer: {summary['txn-writer_p99_slowdown']}x")
    assert check(summary) is None, check(summary)


def test_exp15_writers_made_progress(benchmark):
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for case in cases:
        if case["case"] in ("autocommit-writer", "txn-writer"):
            assert case["writer_rounds"] > 0


# ----------------------------------------------------------------------
# standalone CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    return standalone_main(
        "exp15-txn", run_cases,
        description=__doc__.splitlines()[0],
        summarize=summarize, check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
