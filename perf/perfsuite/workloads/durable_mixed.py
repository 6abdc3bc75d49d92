"""``durable_mixed`` — writes through the write-ahead log, reads in between."""

from __future__ import annotations

import os
import shutil
from collections import deque
from time import perf_counter

import repro
from repro.datamodel.database import Database
from repro.datamodel.schema import Schema
from repro.errors import TransactionConflictError
from repro.storage import WriteAheadLog, encode_record, read_records
from repro.storage.encoding import encode_values

from perfsuite.ops import Op, rows_match
from perfsuite.stats import median
from perfsuite.workloads.base import WARM, Workload, mixed

INSERT = ("INSERT INTO Event (seq, bucket, amount, note) "
          "VALUES (:seq, :bucket, :amount, :note)")
UPDATE = "UPDATE Event e SET amount = :amount WHERE e.seq == :seq"
DELETE = "DELETE FROM Event e WHERE e.bucket == :bucket"
POINT_READ = "ACCESS e.amount FROM e IN Event WHERE e.seq == :seq"
BUCKET_READ = "ACCESS e.seq FROM e IN Event WHERE e.bucket == :bucket"
#: sent with its bounds inlined, as a reporting tool would: a new text, and
#: a new plan, every time
RANGE_READ = ("ACCESS e.seq FROM e IN Event "
              "WHERE e.amount >= {low} AND e.amount < {high}")
SCAN = "ACCESS [seq: e.seq, amount: e.amount] FROM e IN Event"

#: shape -> operations per block of 2 000: 40 % single-row INSERT, 15 %
#: indexed point UPDATE, 5 % executemany batches, 10 % BEGIN + 3 DML +
#: COMMIT, 5 % DELETE of one bucket, 25 % reads favouring fresh keys.
#: Where the 99th percentile of reads falls is chosen, not left to chance:
#: drift evictions make about 0.35 % of the point reads pay for a new plan
#: (3-4 ms against 0.08 ms), so a percentile just below them sits on the
#: edge of a cliff and jumps whenever a run has a few slow reads more.  The
#: range reads (1.6 % of reads, ~3 ms: they are planned every time) put two
#: per cent of the reads on top of that cliff, and the 99th percentile in
#: their middle.
MIX = {"insert": 800, "update": 300, "batch": 100, "transaction": 200,
       "delete": 100, "point_read": 487, "bucket_read": 5, "range_read": 8}
#: width of a range read on ``amount`` (uniform below 100 000): ~60 rows
RANGE = 200
BATCH = 50
#: rows per bucket: a block inserts 800 + 100*50 + 200*2 = 6 200 rows and
#: its 100 DELETEs remove 100 * 62, so the table stays the same size
BUCKET = 62
#: the WAL's group-commit window (the adapter's default), stated so that
#: both sides of any comparison flush alike
FSYNC_POLICY, FLUSH_INTERVAL_MS = "interval", 5.0
MAX_ATTEMPTS = 3
#: timed restarts of the closed store; ``recover_s`` is their median
RECOVER_REPEATS = 3
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "out")


def _apply(amounts: dict[int, int], effects: list[tuple[int, object]]) -> None:
    """Apply one commit's effect to a model: ``(seq, amount)`` writes a row,
    ``(seq, None)`` deletes it."""
    for seq, amount in effects:
        if amount is None:
            del amounts[seq]
        else:
            amounts[seq] = amount


class DurableMixed(Workload):
    """A sliding window of events: inserts at the head, bucket deletes at
    the tail, updates and reads near the head — under hash, sorted and text
    indexes, with an auto-checkpoint once per block."""

    name = "durable_mixed"
    why = ("75 % writes through WAL + checkpoints under three index kinds: storage and "
           "index maintenance do the work that point_serving's lookups only read")
    _stores = 0

    def setup(self) -> None:
        scale = 50 if self.smoke else 1
        self.mix = {shape: max(2, count // scale) for shape, count in MIX.items()}
        self.half_mix = {shape: count // 2 for shape, count in self.mix.items()}
        self.preload = BUCKET * (20 if self.smoke else 480)
        self.rows_per_block = (self.mix["insert"] + self.mix["batch"] * BATCH
                               + self.mix["transaction"] * 2)
        assert self.rows_per_block == self.mix["delete"] * BUCKET
        #: one auto-checkpoint per block; the warm-up block is half a block,
        #: so checkpoints fall mid-block and the log is never empty at close
        self.commits_per_block = sum(
            count for shape, count in self.mix.items() if "read" not in shape)
        self.words = [f"n{i:03d}" for i in range(300)]

        DurableMixed._stores += 1
        self.store = os.path.join(
            OUT_DIR, f"store-{os.getpid()}-{DurableMixed._stores}")
        shutil.rmtree(self.store, ignore_errors=True)
        os.makedirs(self.store)
        self.connections = [self._connect(self.store)]
        connection = self.connections[0]
        self.knowledge = [connection.service.knowledge]
        self.storage = connection.database.storage
        cursor = connection.cursor()
        cursor.execute("CREATE CLASS Event "
                       "(seq: INT, bucket: INT, amount: INT, note: STRING)")
        rng = self.rng("data")
        rows = [self._row(rng, seq) for seq in range(self.preload)]
        for row in rows:
            self.fingerprint.add("Event", *row.values())
        for start in range(0, self.preload, 1000):
            cursor.executemany(INSERT, rows[start:start + 1000])
        for ddl in ("CREATE HASH INDEX ON Event(seq)",
                    "CREATE HASH INDEX ON Event(bucket)",
                    "CREATE SORTED INDEX ON Event(amount)",
                    "CREATE TEXT INDEX ON Event(note)", "ANALYZE"):
            cursor.execute(ddl)
        connection.checkpoint()
        #: the oracle's model, kept by the benchmark alone: seq -> amount
        self.amounts = {row["seq"]: row["amount"] for row in rows}
        #: the model at the last checkpoint, and each commit's effect since
        self.checkpointed = dict(self.amounts)
        self.journal: list[list[tuple[int, object]]] = []
        self.checkpoints_seen = self.storage.counters()["checkpoints_completed"]
        self.checkpoint_bytes = 0
        self.user_bytes = 0
        self.commit_seconds: list[float] = []
        self.checkpoint_stalls: list[float] = []
        self._preload_rows = rows
        self._scratch = None

    def _connect(self, path: str):
        return repro.connect(
            Database(Schema("durable_mixed")), durability="wal",
            storage_path=path, wal_fsync=FSYNC_POLICY,
            checkpoint_interval=self.commits_per_block, parallelism=1,
            tracing=False)

    def _row(self, rng, seq: int) -> dict:
        """An ``Event``'s property values (also the INSERT's bind values)."""
        return {"seq": seq, "bucket": seq // BUCKET,
                "amount": rng.randrange(100_000),
                "note": " ".join(rng.choice(self.words) for _ in range(6))}

    # ------------------------------------------------------------------
    # the fixed operation list
    # ------------------------------------------------------------------
    def block(self, index: int) -> list[Op]:
        rng = self.rng(index)
        half_rows = self.rows_per_block // 2
        if index == WARM:
            mix, next_seq, bucket = self.half_mix, self.preload, 0
        else:
            mix = self.mix
            next_seq = self.preload + half_rows + index * self.rows_per_block
            bucket = self.half_mix["delete"] + index * self.mix["delete"]
        floor = (bucket + mix["delete"]) * BUCKET  # alive until the block ends

        def target() -> int:
            """A live key, most likely a recent one."""
            return max(floor, next_seq - 1 - int(rng.expovariate(1 / 500)))

        ops = []
        for shape in mixed(rng, mix):
            if shape == "insert":
                ops.append(Op(shape, "write", INSERT, data=[self._row(rng, next_seq)]))
                next_seq += 1
            elif shape == "batch":
                ops.append(Op(shape, "write", INSERT, data=[
                    self._row(rng, next_seq + i) for i in range(BATCH)]))
                next_seq += BATCH
            elif shape == "transaction":
                ops.append(Op(shape, "write", "BEGIN; INSERT; UPDATE; INSERT; COMMIT",
                              data=(self._row(rng, next_seq),
                                    {"seq": target(), "amount": rng.randrange(100_000)},
                                    self._row(rng, next_seq + 1))))
                next_seq += 2
            elif shape == "update":
                ops.append(Op(shape, "write", UPDATE,
                              data={"seq": target(), "amount": rng.randrange(100_000)}))
            elif shape == "delete":
                ops.append(Op(shape, "write", DELETE, data=bucket))
                bucket += 1
            elif shape == "point_read":
                ops.append(Op(shape, "read", POINT_READ, {"seq": target()}))
            elif shape == "range_read":
                low = rng.randrange(100_000 - RANGE)
                ops.append(Op(shape, "read", RANGE_READ.format(
                    low=low, high=low + RANGE), data=low))
            else:
                b = rng.randrange(floor // BUCKET, next_seq // BUCKET + 1)
                ops.append(Op(shape, "read", BUCKET_READ, {"bucket": b}, frozenset(
                    range(b * BUCKET, min((b + 1) * BUCKET, next_seq)))))
        return ops

    # ------------------------------------------------------------------
    # execution through the front end, checked against the model
    # ------------------------------------------------------------------
    def run(self, op: Op) -> tuple[float, bool]:
        self.stalled = False
        if op.kind == "read":
            if op.shape == "point_read":
                op.expect = frozenset([self.amounts[op.params["seq"]]])
            elif op.shape == "range_read":
                op.expect = frozenset(
                    seq for seq, amount in self.amounts.items()
                    if op.data <= amount < op.data + RANGE)
            seconds, rows = self.read(op)
            return seconds, rows_match(rows, op)
        cursor = self.connections[0].cursor()
        seconds, ok, effects = getattr(self, "_" + op.shape)(cursor, op.data)
        _apply(self.amounts, effects)
        self.journal.append(effects)
        completed = self.storage.counters()["checkpoints_completed"]
        if completed != self.checkpoints_seen:
            # the commit that fills the interval pays for the checkpoint,
            # and the snapshot it writes includes that commit
            self.checkpoints_seen = completed
            self.stalled = True
            self.checkpoint_stalls.append(seconds)
            self.checkpoint_bytes += os.path.getsize(
                os.path.join(self.store, "checkpoint.json"))
            self.checkpointed = dict(self.amounts)
            self.journal = []
        return seconds, ok

    def _inserted(self, rows) -> list[tuple[int, object]]:
        self.user_bytes += sum(24 + len(row["note"].encode("utf-8")) for row in rows)
        return [(row["seq"], row["amount"]) for row in rows]

    def _insert(self, cursor, rows):
        started = perf_counter()
        cursor.execute(INSERT, rows[0])
        seconds = perf_counter() - started
        return seconds, cursor.rowcount == 1, self._inserted(rows)

    def _batch(self, cursor, rows):
        started = perf_counter()
        cursor.executemany(INSERT, rows)
        seconds = perf_counter() - started
        return seconds, cursor.rowcount == len(rows), self._inserted(rows)

    def _update(self, cursor, change):
        started = perf_counter()
        cursor.execute(UPDATE, change)
        seconds = perf_counter() - started
        self.user_bytes += 8
        return seconds, cursor.rowcount == 1, [(change["seq"], change["amount"])]

    def _delete(self, cursor, bucket):
        doomed = [seq for seq in range(bucket * BUCKET, (bucket + 1) * BUCKET)
                  if seq in self.amounts]
        started = perf_counter()
        cursor.execute(DELETE, {"bucket": bucket})
        seconds = perf_counter() - started
        return seconds, cursor.rowcount == len(doomed), [(s, None) for s in doomed]

    def _transaction(self, cursor, group):
        first, change, second = group
        started = perf_counter()
        for attempt in range(MAX_ATTEMPTS):
            cursor.execute("BEGIN")
            cursor.execute(INSERT, first)
            cursor.execute(UPDATE, change)
            cursor.execute(INSERT, second)
            commit_started = perf_counter()
            try:
                cursor.execute("COMMIT")
            except TransactionConflictError:
                self.txn_retries += 1
                if attempt == MAX_ATTEMPTS - 1:
                    raise
                continue
            break
        finished = perf_counter()
        self.commit_seconds.append(finished - commit_started)
        self.user_bytes += 8
        return (finished - started, cursor.rowcount == 3,
                self._inserted([first]) + [(change["seq"], change["amount"])]
                + self._inserted([second]))

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def storage_counters(self) -> dict:
        return {**self.storage.counters(),
                "checkpoint_bytes": self.checkpoint_bytes,
                "user_bytes": self.user_bytes}

    def storage_metrics(self, before: dict) -> dict[str, float]:
        now = self.storage_counters()
        delta = {key: now[key] - before[key] for key in now}
        written = delta["wal_bytes"] + delta["checkpoint_bytes"]
        return {
            "storage.wal_records": delta["wal_records"],
            "storage.wal_bytes": delta["wal_bytes"],
            "storage.wal_fsyncs": delta["wal_fsyncs"],
            "storage.checkpoints": delta["checkpoints_completed"],
            "storage.checkpoint_bytes": delta["checkpoint_bytes"],
            "storage.disk_bytes_per_user_byte":
                written / delta["user_bytes"] if delta["user_bytes"] else 0.0,
        }

    # ------------------------------------------------------------------
    # after the timed phase: restart, verify, tear the log
    # ------------------------------------------------------------------
    def _reopen(self, path: str, expected: dict[int, int]) -> tuple[float, int, int]:
        """Recover the store at *path* and compare every row with *expected*:
        ``(seconds until the first query answered, records replayed,
        mismatches)``."""
        probe = max(expected)
        started = perf_counter()
        connection = self._connect(path)
        first = connection.execute(POINT_READ, {"seq": probe}).fetchall()
        seconds = perf_counter() - started
        replayed = connection.database.storage.counters()["recovery_replayed_records"]
        recovered = {row["seq"]: row["amount"]
                     for row in connection.execute(SCAN).fetchall()}
        connection.close()
        connection.database.close()
        return seconds, replayed, int(first != [expected[probe]]
                                      or recovered != expected)

    def finish(self) -> tuple[int, int, dict]:
        """Durability: after a clean close every acknowledged write is
        readable on reopen; a copy without its ``wal.log`` recovers the last
        checkpoint; a copy whose ``wal.log`` is cut at a seeded byte offset
        recovers the checkpoint plus exactly the commits whose records
        survived whole."""
        Workload.close(self)  # flush and close, but keep the store
        bare, torn = self.store + "-bare", self.store + "-torn"
        shutil.copytree(self.store, bare)
        shutil.copytree(self.store, torn)
        os.remove(os.path.join(bare, "wal.log"))
        log_path = os.path.join(torn, "wal.log")
        with open(log_path, "rb") as handle:
            log = handle.read()
        cut = self.rng("tear").randrange(len(log) + 1)
        with open(log_path, "wb") as handle:
            handle.write(log[:cut])
        prefix = dict(self.checkpointed)
        for effects in self.journal[:sum(1 for _ in read_records(log[:cut]))]:
            _apply(prefix, effects)

        # recovery leaves the store as it found it, so it can be timed again
        recoveries = [self._reopen(self.store, self.amounts)
                      for _ in range(RECOVER_REPEATS)]
        recover_seconds = median([seconds for seconds, _, _ in recoveries])
        replayed = recoveries[0][1]
        checkpoint_seconds, _, bare_wrong = self._reopen(bare, self.checkpointed)
        failed = (sum(wrong for _, _, wrong in recoveries) + bare_wrong
                  + self._reopen(torn, prefix)[2])
        replay_seconds = max(recover_seconds - checkpoint_seconds, 1e-9)
        extra = {"storage.recover_s": (recover_seconds, RECOVER_REPEATS),
                 "storage.recover_records_per_s": (replayed / replay_seconds, replayed)}
        if self.commit_seconds:
            extra["api.commit_us"] = (median(self.commit_seconds) * 1e6,
                                      len(self.commit_seconds))
        if self.checkpoint_stalls:
            extra["storage.checkpoint_ms"] = (median(self.checkpoint_stalls) * 1e3,
                                              len(self.checkpoint_stalls))
        return RECOVER_REPEATS + 2, failed, extra

    def close(self) -> None:
        super().close()
        if self._scratch is not None:
            self._scratch[1].close()
            self._scratch = None
        for path in (self.store, self.store + "-bare", self.store + "-torn"):
            shutil.rmtree(path, ignore_errors=True)
        if os.path.exists(self.store + "-scratch.log"):
            os.remove(self.store + "-scratch.log")

    # ------------------------------------------------------------------
    # the traced pass: the same write on a scratch copy, layer by layer
    # ------------------------------------------------------------------
    def trace_write(self, op: Op, log, statement: int):
        """Time ``Database.create_many``/``update``/``delete`` on a scratch
        database with the same indexes, then ``WriteAheadLog.append`` of the
        commit record on a scratch log with the same flush policy.  (The
        free-standing ``storage.encode`` span times ``encode_record`` alone;
        it has no parent, so the share table does not count it twice.)"""
        if self._scratch is None:
            database = Database(Schema("durable_mixed-scratch"))
            scratch = repro.connect(database, durability="memory", parallelism=1,
                                    tracing=False)
            scratch.execute("CREATE CLASS Event "
                            "(seq: INT, bucket: INT, amount: INT, note: STRING)")
            oids = database.create_many("Event", self._preload_rows)
            for ddl in ("CREATE HASH INDEX ON Event(seq)",
                        "CREATE HASH INDEX ON Event(bucket)",
                        "CREATE SORTED INDEX ON Event(amount)",
                        "CREATE TEXT INDEX ON Event(note)"):
                scratch.execute(ddl)
            wal = WriteAheadLog(self.store + "-scratch.log",
                                fsync=FSYNC_POLICY,
                                flush_interval_ms=FLUSH_INTERVAL_MS)
            self._scratch = (database, wal, deque(oids))
        database, wal, live = self._scratch
        root = log.begin("statement", statement)
        records = []
        if op.shape in ("insert", "batch"):
            rows = op.data
            span = log.begin("datamodel." + ("insert" if op.shape == "insert"
                                             else "insert_batch"), statement, root)
            oids = database.create_many("Event", rows)
            log.end(span)
            live.extend(oids)
            records = [("create", oid, row) for oid, row in zip(oids, rows)]
        elif op.shape == "update":
            span = log.begin("datamodel.update", statement, root)
            database.update(live[-1], amount=op.data["amount"])
            log.end(span)
            records = [("update", live[-1], {"amount": op.data["amount"]})]
        elif op.shape == "delete":
            doomed = [live.popleft() for _ in range(BUCKET)]
            span = log.begin("datamodel.delete", statement, root)
            with database.commit_scope():
                for oid in doomed:
                    database.delete(oid)
            log.end(span)
            records = [("delete", oid, None) for oid in doomed]
        else:
            first, change, second = op.data
            rows = [first, second]
            span = log.begin("datamodel.transaction", statement, root)
            with database.commit_scope():
                oids = database.create_many("Event", rows)
                database.update(live[-1], amount=change["amount"])
            log.end(span)
            records = [("create", oids[0], rows[0]),
                       ("update", live[-1], {"amount": change["amount"]}),
                       ("create", oids[1], rows[1])]
            live.extend(oids)
        span = log.begin("storage.append", statement, root)
        payload = {"kind": "commit", "ts": statement, "ops": [
            [tag, oid.class_name, oid.serial]
            + ([] if values is None else [encode_values(values)])
            for tag, oid, values in records]}
        wal.append(payload)
        log.end(span)
        log.end(root)
        span = log.begin("storage.encode", statement)
        encode_record(payload)
        log.end(span)
        return root
