"""EXP-11 — DML through the statement API: batched INSERT and indexed UPDATE.

Two claims of the unified statement API are measured:

* **batched INSERT** — ``Cursor.executemany`` parses/analyzes the INSERT
  once, resolves bindings per row and feeds one bulk
  :meth:`~repro.datamodel.database.Database.create_many` maintenance pass;
  it must beat the classic per-call ``Database.create`` loop (which pays
  schema lookup, validation setup and index-target resolution per
  object) on wall-clock throughput;
* **indexed UPDATE … WHERE** — the router plans mutation predicates
  through the full optimizer, so an ``UPDATE … WHERE`` over a property
  with a hash index resolves its targets via ``index_eq_scan`` instead of
  scanning the extension.  Logical work counters (property reads +
  extension scans, deterministic) quantify the gap against the naive
  full-scan lowering of the same statement.

Acceptance: executemany INSERT throughput ≥ ``MIN_INSERT_SPEEDUP`` × the
create loop; the indexed UPDATE's WHERE work is ≥ ``MIN_WORK_RATIO``×
smaller than the full scan's; ``explain`` of the indexed UPDATE names an
index access path.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp11_dml.py [--quick] [--json PATH]

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_exp11_dml.py
"""

from __future__ import annotations

import sys
import time

from conftest import SCALING_SIZES, bench_seed
from repro import connect
from repro.bench import format_table, standalone_main
from repro.workloads import generate_document_database

#: executemany INSERT must deliver at least this multiple of the per-call
#: Database.create loop's throughput (same logical effect, bulk maintenance)
MIN_INSERT_SPEEDUP = 1.05

#: the indexed UPDATE's WHERE-resolution work must be at least this many
#: times smaller than the naive full scan's
MIN_WORK_RATIO = 5.0

INSERT_STATEMENT = "INSERT INTO Document (title, author) VALUES (:title, :author)"
UPDATE_STATEMENT = ("UPDATE Paragraph p SET content = :content "
                    "WHERE p.number == :number")


def _insert_rows(n_rows: int) -> list[dict]:
    return [{"title": f"exp11 doc {i}", "author": f"author {i % 7}"}
            for i in range(n_rows)]


def _fresh_database():
    # DML mutates: never reuse the conftest-cached databases.
    return generate_document_database(n_documents=SCALING_SIZES[0],
                                      seed=bench_seed())


def _measure_insert(n_rows: int, rounds: int) -> tuple[float, float]:
    """Best wall-clock seconds of the create loop and of executemany."""
    rows = _insert_rows(n_rows)
    loop_best = float("inf")
    bulk_best = float("inf")
    for _ in range(max(rounds, 1)):
        loop_db = _fresh_database()
        started = time.perf_counter()
        for row in rows:
            loop_db.create("Document", **row)
        loop_best = min(loop_best, time.perf_counter() - started)

        bulk_db = _fresh_database()
        cursor = connect(bulk_db).cursor()
        started = time.perf_counter()
        cursor.executemany(INSERT_STATEMENT, rows)
        bulk_best = min(bulk_best, time.perf_counter() - started)
        assert cursor.rowcount == n_rows
        assert bulk_db.object_count() == loop_db.object_count()
    return loop_best, bulk_best


def _where_work(connection, optimize: bool) -> dict[str, float]:
    """Logical work of one UPDATE's WHERE resolution + application.

    The UPDATE only rewrites ``content``, so running both variants against
    one database leaves the WHERE selectivity (``number == 3``) unchanged.
    """
    database = connection.database
    before = database.work_snapshot()
    result = connection.router.execute(
        UPDATE_STATEMENT,
        {"content": "rewritten by exp11", "number": 3},
        optimize=optimize)
    after = database.work_snapshot()
    return {
        "rows": result.rowcount,
        "property_reads": after["property_reads"] - before["property_reads"],
        "extension_scans": (after["extension_scans"]
                            - before["extension_scans"]),
        "index_lookups": after["index_lookups"] - before["index_lookups"],
    }


def run_cases(quick: bool = False) -> list[dict]:
    n_rows = 2_000 if quick else 10_000
    rounds = 2 if quick else 3
    loop_seconds, bulk_seconds = _measure_insert(n_rows, rounds)

    cases = [
        {"case": "insert-create-loop", "rows": n_rows,
         "seconds": round(loop_seconds, 4),
         "rows_per_second": round(n_rows / loop_seconds, 1)},
        {"case": "insert-executemany", "rows": n_rows,
         "seconds": round(bulk_seconds, 4),
         "rows_per_second": round(n_rows / bulk_seconds, 1)},
    ]

    connection = connect(_fresh_database())
    connection.execute("CREATE INDEX ON Paragraph(number)")
    where_plan = connection.explain(UPDATE_STATEMENT)
    indexed = _where_work(connection, optimize=True)
    fullscan = _where_work(connection, optimize=False)
    assert indexed["rows"] == fullscan["rows"], \
        "indexed and full-scan UPDATE disagree on affected rows"
    cases.append({"case": "update-indexed", "rows": indexed["rows"],
                  "property_reads": indexed["property_reads"],
                  "extension_scans": indexed["extension_scans"],
                  "index_lookups": indexed["index_lookups"]})
    cases.append({"case": "update-fullscan", "rows": fullscan["rows"],
                  "property_reads": fullscan["property_reads"],
                  "extension_scans": fullscan["extension_scans"],
                  "index_lookups": fullscan["index_lookups"]})
    cases.append({"case": "update-explain",
                  "uses_index_path": "index_eq_scan" in where_plan})
    return cases


def summarize(cases: list[dict]) -> dict:
    by_case = {case["case"]: case for case in cases}
    insert_speedup = (by_case["insert-executemany"]["rows_per_second"]
                      / max(by_case["insert-create-loop"]["rows_per_second"],
                            1e-9))
    indexed_work = (by_case["update-indexed"]["property_reads"]
                    + by_case["update-indexed"]["extension_scans"])
    fullscan_work = (by_case["update-fullscan"]["property_reads"]
                     + by_case["update-fullscan"]["extension_scans"])
    return {
        "insert_speedup": round(insert_speedup, 2),
        "insert_speedup_target": MIN_INSERT_SPEEDUP,
        "update_work_ratio": round(fullscan_work / max(indexed_work, 1), 2),
        "update_work_ratio_target": MIN_WORK_RATIO,
        "update_uses_index_path": by_case["update-explain"]["uses_index_path"],
    }


def check(record: dict) -> str | None:
    if record["insert_speedup"] < MIN_INSERT_SPEEDUP:
        return (f"executemany INSERT speedup {record['insert_speedup']}x is "
                f"below the {MIN_INSERT_SPEEDUP}x target")
    if record["update_work_ratio"] < MIN_WORK_RATIO:
        return (f"indexed UPDATE work ratio {record['update_work_ratio']}x "
                f"is below the {MIN_WORK_RATIO}x target")
    if not record["update_uses_index_path"]:
        return "explain of the indexed UPDATE shows no index access path"
    return None


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_exp11_executemany_insert_beats_create_loop(benchmark):
    """Acceptance: batched INSERT ≥ the per-call create loop's throughput."""
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summarize(cases)
    print("\nEXP-11 DML throughput (quick):")
    print(format_table(cases))
    print(f"insert speedup: {summary['insert_speedup']}x, "
          f"update work ratio: {summary['update_work_ratio']}x")
    assert summary["insert_speedup"] >= MIN_INSERT_SPEEDUP


def test_exp11_indexed_update_avoids_the_full_scan(benchmark):
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summarize(cases)
    assert summary["update_uses_index_path"]
    assert summary["update_work_ratio"] >= MIN_WORK_RATIO


# ----------------------------------------------------------------------
# standalone CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    return standalone_main(
        "exp11-dml", run_cases,
        description=__doc__.splitlines()[0],
        summarize=summarize, check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
