"""EXP-16 — durable storage: WAL throughput overhead and recovery speed.

The write-ahead log hooks the commit-scope seam: one logical record per
published scope, so an ``executemany`` batch of N inserts costs one
append and at most one fsync regardless of N.  This experiment quantifies
what durability costs on the ingest path and what recovery delivers on
the replay path:

* **memory** — the baseline: ``executemany`` INSERT batches into an
  in-memory database (no adapter attached);
* **wal-group-commit** — the same batches with a
  :class:`~repro.storage.FileStorageAdapter` under the default
  ``interval`` fsync policy (group commit: write+flush per append, fsync
  amortized over the flush interval);
* **wal-fsync-always** — the same batches with an fsync barrier after
  every record: the documented worst case, dominated by device sync
  latency rather than anything the engine does;
* **recovery-replay** — opening a directory whose WAL holds single-row
  commit records: recovered records per second;
* **scaling-3000 / scaling-30000** — the write path must cost the same
  whatever the table holds: median latency of an indexed point ``UPDATE``
  and of a single-row ``DELETE`` of the *newest* row through
  ``Connection.execute`` on a durable table of 3 000 and of 30 000 rows
  under a hash and a sorted index, after ``ANALYZE`` and enough inserts
  for its statistics to go stale (the state a write workload is always
  in: feedback watches every statement, estimates come from the indexes).

Acceptance: group-commit durable ingest sustains at least
``MIN_DURABLE_RATIO`` of the in-memory row rate, recovery replays at
least ``MIN_REPLAY_RECORDS_PER_S`` records/s on the quick profile, and
neither scaling latency grows by more than ``MAX_SCALING_RATIO`` from
3 000 to 30 000 rows.  fsync-always is reported (and must merely
complete) — its throughput is a property of the disk, not a regression
signal.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp16_durability.py [--quick] [--json PATH]

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_exp16_durability.py
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
import time

from harness import format_table, standalone_main
from repro.api.connection import connect
from repro.datamodel.database import Database
from repro.datamodel.schema import Schema
from repro.storage import FileStorageAdapter

#: group-commit durable ingest must sustain at least this fraction of
#: the in-memory executemany row rate (with the fsync on the WAL's flusher
#: thread: 0.66-0.75 over ten warm quick runs, median 0.72 on the full
#: profile, 0.57 on the worst cold standalone run; inline fsync measured
#: 0.61-0.68 and 0.56 the same way)
MIN_DURABLE_RATIO = 0.55
#: recovery must replay at least this many WAL records per second
MIN_REPLAY_RECORDS_PER_S = 10_000
#: a point UPDATE / newest-row DELETE on 30 000 rows may take at most this
#: many times what it takes on 3 000
MAX_SCALING_RATIO = 2.0
SCALING_SIZES = (3_000, 30_000)

INSERT = "INSERT INTO Item (name, value) VALUES (:n, :v)"
POINT_UPDATE = "UPDATE Item i SET name = :n WHERE i.value == :v"
POINT_DELETE = "DELETE FROM Item i WHERE i.value == :v"


def _fresh_connection(durability: str | None, fsync: str = "interval"):
    database = Database(Schema("exp16"))
    if durability is None:
        connection = connect(database)
    else:
        connection = connect(database, durability=durability,
                             storage_path=tempfile.mkdtemp(prefix="exp16-"),
                             wal_fsync=fsync, checkpoint_interval=0)
    connection.execute("CREATE CLASS Item (name: STRING, value: INT)")
    return connection


def _ingest(connection, n_rows: int, batch_size: int) -> float:
    """Insert *n_rows* in executemany batches; returns elapsed seconds
    (including the close-time flush, so buffered writes are paid for)."""
    started = time.perf_counter()
    for base in range(0, n_rows, batch_size):
        count = min(batch_size, n_rows - base)
        connection.executemany(
            INSERT, [{"n": f"item{base + i}", "v": base + i}
                     for i in range(count)])
    connection.database.storage and connection.database.storage.flush()
    return time.perf_counter() - started


def _teardown(connection) -> None:
    database = connection.database
    storage = database.storage
    connection.close()
    database.close()
    if storage is not None:
        shutil.rmtree(storage.path, ignore_errors=True)


def _ingest_case(name: str, durability: str | None, fsync: str,
                 n_rows: int, batch_size: int, repeats: int = 2) -> dict:
    # best-of-N with a fresh database per attempt: the ratio check below
    # compares two one-shot wall-clock runs, so a single OS-level stall
    # (a background fsync landing on a busy device) must not fail CI
    best = None
    for _ in range(max(1, repeats)):
        connection = _fresh_connection(durability, fsync)
        try:
            elapsed = _ingest(connection, n_rows, batch_size)
            counters = (connection.database.storage.counters()
                        if connection.database.storage else {})
        finally:
            _teardown(connection)
        if best is None or elapsed < best["seconds"]:
            best = {
                "case": name,
                "rows": n_rows,
                "batch_size": batch_size,
                "seconds": round(elapsed, 4),
                "rows_per_s": round(n_rows / elapsed, 1),
                "wal_records": counters.get("wal_records", 0),
                "wal_fsyncs": counters.get("wal_fsyncs", 0),
            }
    return best


def _recovery_case(n_records: int) -> dict:
    """Build a WAL of single-row commit records, then time recovery."""
    path = tempfile.mkdtemp(prefix="exp16-recover-")
    try:
        connection = connect(Database(Schema("exp16")), durability="wal",
                             storage_path=path, wal_fsync="never",
                             checkpoint_interval=0)
        connection.execute("CREATE CLASS Item (name: STRING, value: INT)")
        for i in range(n_records):
            connection.execute(INSERT, {"n": f"item{i}", "v": i})
        connection.close()
        connection.database.close()

        database = Database(Schema("exp16"))
        adapter = FileStorageAdapter(path, fsync="never",
                                     checkpoint_interval=0)
        started = time.perf_counter()
        database.attach_storage(adapter)
        elapsed = time.perf_counter() - started
        replayed = adapter.counters()["recovery_replayed_records"]
        assert database.object_count() == n_records
        database.close()
        return {
            "case": "recovery-replay",
            "rows": n_records,
            "batch_size": 1,
            "seconds": round(elapsed, 4),
            "rows_per_s": round(replayed / elapsed, 1),
            "wal_records": replayed,
            "wal_fsyncs": 0,
        }
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _median_seconds(connection, statement: str, parameter_sets) -> float:
    samples = []
    for parameters in parameter_sets:
        started = time.perf_counter()
        cursor = connection.execute(statement, parameters)
        samples.append(time.perf_counter() - started)
        assert cursor.rowcount == 1, (statement, parameters)
    return statistics.median(samples)


def _scaling_case(n_rows: int, statements: int) -> dict:
    """Point UPDATE and newest-row DELETE latency on *n_rows* rows."""
    connection = _fresh_connection("wal")
    try:
        for base in range(0, n_rows, 1000):
            connection.executemany(
                INSERT, [{"n": f"item{i}", "v": i}
                         for i in range(base, min(base + 1000, n_rows))])
        connection.execute("CREATE HASH INDEX ON Item(value)")
        connection.execute("CREATE SORTED INDEX ON Item(name)")
        connection.execute("ANALYZE")
        # drift past the statistics' staleness fraction
        total = n_rows + n_rows // 3
        connection.executemany(
            INSERT, [{"n": f"item{i}", "v": i} for i in range(n_rows, total)])
        started = time.perf_counter()
        update = _median_seconds(
            connection, POINT_UPDATE,
            [{"n": f"renamed{i}", "v": (i * 7919) % total}
             for i in range(statements)])
        delete = _median_seconds(
            connection, POINT_DELETE,
            [{"v": total - 1 - i} for i in range(statements)])
        elapsed = time.perf_counter() - started
        counters = connection.database.storage.counters()
    finally:
        _teardown(connection)
    return {
        "case": f"scaling-{n_rows}",
        "rows": n_rows,
        "batch_size": 1,
        "seconds": round(elapsed, 4),
        "rows_per_s": round(2 * statements / elapsed, 1),
        "wal_records": counters["wal_records"],
        "wal_fsyncs": counters["wal_fsyncs"],
        "update_us": round(update * 1e6, 1),
        "delete_newest_us": round(delete * 1e6, 1),
    }


def _scaling_cases(statements: int, repeats: int = 2) -> list[dict]:
    """Both table sizes, best-of-N on the ratio of each latency (a stall
    on either side must not fail CI)."""
    best: dict[int, dict] = {}
    for _ in range(repeats):
        for n_rows in SCALING_SIZES:
            case = _scaling_case(n_rows, statements)
            known = best.get(n_rows)
            if known is not None:
                for key in ("update_us", "delete_newest_us"):
                    case[key] = min(case[key], known[key])
            best[n_rows] = case
    return [best[n_rows] for n_rows in SCALING_SIZES]


def run_cases(quick: bool = False) -> list[dict]:
    n_rows = 2_000 if quick else 20_000
    batch_size = 100
    n_recovery = 2_000 if quick else 10_000
    # fsync-always pays a device barrier per record: keep the row count
    # small enough that slow disks do not dominate the whole experiment
    n_always = 200 if quick else 1_000
    cases = [
        _ingest_case("memory", None, "interval", n_rows, batch_size),
        _ingest_case("wal-group-commit", "wal", "interval",
                     n_rows, batch_size),
        # reported, not checked — one attempt is enough
        _ingest_case("wal-fsync-always", "wal", "always",
                     n_always, batch_size, repeats=1),
        _recovery_case(n_recovery),
        *_scaling_cases(statements=100 if quick else 400),
    ]
    return cases


def summarize(cases: list[dict]) -> dict:
    by_case = {case["case"]: case for case in cases}
    memory_rate = by_case["memory"]["rows_per_s"]
    durable_rate = by_case["wal-group-commit"]["rows_per_s"]
    small, large = (by_case[f"scaling-{n_rows}"] for n_rows in SCALING_SIZES)
    return {
        "memory_rows_per_s": memory_rate,
        "group_commit_rows_per_s": durable_rate,
        "fsync_always_rows_per_s": by_case["wal-fsync-always"]["rows_per_s"],
        "durable_ratio": (round(durable_rate / memory_rate, 3)
                          if memory_rate > 0 else 0.0),
        "durable_ratio_target": MIN_DURABLE_RATIO,
        "replay_records_per_s": by_case["recovery-replay"]["rows_per_s"],
        "replay_target_per_s": MIN_REPLAY_RECORDS_PER_S,
        "update_scaling_ratio": round(
            large["update_us"] / small["update_us"], 2),
        "delete_newest_scaling_ratio": round(
            large["delete_newest_us"] / small["delete_newest_us"], 2),
        "scaling_ratio_target": MAX_SCALING_RATIO,
    }


def check(record: dict) -> str | None:
    ratio = record["durable_ratio"]
    if ratio < MIN_DURABLE_RATIO:
        return (f"group-commit durable ingest sustains only {ratio}x of the "
                f"in-memory rate (target ≥ {MIN_DURABLE_RATIO}x)")
    replay = record["replay_records_per_s"]
    if replay < MIN_REPLAY_RECORDS_PER_S:
        return (f"recovery replays {replay} records/s "
                f"(target ≥ {MIN_REPLAY_RECORDS_PER_S}/s)")
    for name in ("update_scaling_ratio", "delete_newest_scaling_ratio"):
        if record[name] > MAX_SCALING_RATIO:
            return (f"{name} is {record[name]}x from {SCALING_SIZES[0]} to "
                    f"{SCALING_SIZES[1]} rows (target ≤ {MAX_SCALING_RATIO}x)")
    return None


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_exp16_group_commit_keeps_half_the_ingest_rate(benchmark):
    """Acceptance: durable group-commit ingest ≥ 0.55× in-memory, recovery
    replay ≥ 10k records/s, point UPDATE / newest-row DELETE latency within
    2× between 3 000 and 30 000 rows (quick profile)."""
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summarize(cases)
    print("\nEXP-16 durable ingest and recovery (quick):")
    print(format_table(cases))
    print(f"durable ratio: {summary['durable_ratio']}x, replay: "
          f"{summary['replay_records_per_s']} records/s, scaling: UPDATE "
          f"{summary['update_scaling_ratio']}x, DELETE of newest "
          f"{summary['delete_newest_scaling_ratio']}x")
    assert check(summary) is None, check(summary)


def test_exp16_one_wal_record_per_batch(benchmark):
    """An executemany batch costs one WAL record, not one per row."""
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    group = next(c for c in cases if c["case"] == "wal-group-commit")
    batches = group["rows"] / group["batch_size"]
    # one record per executemany commit scope, plus the CREATE CLASS DDL
    assert group["wal_records"] == batches + 1, \
        f"{group['wal_records']} records for {batches} batches"


# ----------------------------------------------------------------------
# standalone CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    return standalone_main(
        "exp16-durability", run_cases,
        description=__doc__.splitlines()[0],
        summarize=summarize, check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
