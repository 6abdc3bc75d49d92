"""The durable storage subsystem: WAL framing, checkpoints, recovery.

Covers the record format (length-prefix + CRC, torn-tail detection), the
value/type codec, end-to-end durability through the statement API (DML,
executemany batches, transactions, DDL, ANALYZE), explicit and automatic
checkpoints, the crash window between checkpoint rename and WAL truncate,
fsync policies and the group-commit flusher thread (idle-tail durability,
its lifetime, races with checkpoint/close), the streamed checkpoint's
format compatibility, clean-close flush semantics, watermark-driven version
pruning under pin pressure, and the storage telemetry surfaced through
``Connection.metrics()``.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import sys
import threading
import time
import zlib

import pytest

from repro.api.connection import connect
from repro.datamodel.database import Database
from repro.datamodel.oid import OID
from repro.datamodel.schema import ClassDef, PropertyDef, Schema
from repro.datamodel.types import (
    INT,
    STRING,
    ObjectType,
    SetType,
    TupleType,
    set_of,
)
from repro.errors import SchemaError, ServiceError
from repro.storage import (
    FileStorageAdapter,
    MemoryAdapter,
    WriteAheadLog,
    encode_record,
    read_records,
)
from repro.storage import checkpoint as checkpoint_module
from repro.storage.checkpoint import restore_checkpoint
from repro.storage.encoding import (
    decode_type,
    decode_value,
    decode_values,
    encode_type,
    encode_value,
    encode_values,
)

QUERY = "ACCESS [n: i.name, v: i.value] FROM i IN Item"


def empty_database() -> Database:
    return Database(Schema("durable"))


def static_database() -> Database:
    """A database whose Item class comes from the static schema."""
    schema = Schema("static")
    item = ClassDef("Item")
    item.add_property(PropertyDef("name", STRING))
    item.add_property(PropertyDef("value", INT))
    schema.add_class(item)
    return Database(schema)


def durable(tmp_path, database=None, **kwargs):
    kwargs.setdefault("wal_fsync", "never")
    return connect(database if database is not None else empty_database(),
                   durability="wal", storage_path=str(tmp_path), **kwargs)


def rows(connection) -> list[tuple]:
    cursor = connection.execute(QUERY)
    return sorted((row["n"], row["v"]) for row in cursor.fetchall())


def seed_items(connection, count: int = 20) -> None:
    connection.execute("CREATE CLASS Item (name: STRING, value: INT)")
    connection.executemany(
        "INSERT INTO Item (name, value) VALUES (:n, :v)",
        [{"n": f"item{i}", "v": i} for i in range(count)])


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------
def test_record_framing_round_trip():
    payloads = [{"kind": "commit", "ts": i, "ops": [["create", "C", i, {}]]}
                for i in range(5)]
    data = b"".join(encode_record(p) for p in payloads)
    decoded = [payload for payload, _ in read_records(data)]
    assert decoded == payloads


@pytest.mark.parametrize("cut", (1, 3, 4, 7))
def test_torn_tail_is_detected(cut):
    first = encode_record({"ts": 1})
    second = encode_record({"ts": 2})
    data = first + second[:len(second) - cut]
    decoded = list(read_records(data))
    assert [payload for payload, _ in decoded] == [{"ts": 1}]
    assert decoded[-1][1] == len(first)  # valid length = end of record 1


def test_corrupt_checksum_stops_the_reader():
    first = encode_record({"ts": 1})
    second = bytearray(encode_record({"ts": 2}))
    second[-1] ^= 0xFF  # flip a payload byte under an intact header
    decoded = [payload for payload, _ in read_records(first + bytes(second))]
    assert decoded == [{"ts": 1}]


@pytest.mark.parametrize("body", [b"{not json", b"\xff\xfe"])
def test_a_checksummed_frame_that_is_not_json_stops_the_reader(body):
    """A frame whose checksum holds but whose body does not decode (a
    writer bug, never a torn write) ends the valid prefix like a torn
    record does."""
    first = encode_record({"ts": 1})
    bad = struct.pack(">II", len(body), zlib.crc32(body)) + body
    decoded = list(read_records(first + bad + encode_record({"ts": 2})))
    assert [payload for payload, _ in decoded] == [{"ts": 1}]
    assert decoded[-1][1] == len(first)


def test_size_of_a_removed_log_is_zero(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync="never")
    wal.append({"ts": 1})
    assert wal.size() > 0
    os.remove(tmp_path / "wal.log")
    assert wal.size() == 0
    wal.close()


def test_wal_append_read_truncate(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync="never")
    for i in range(3):
        wal.append({"ts": i})
    records, valid, total = wal.read_all()
    assert [r["ts"] for r in records] == [0, 1, 2]
    assert valid == total == wal.size()
    wal.truncate(0)
    assert wal.read_all() == ([], 0, 0)
    wal.append({"ts": 9})  # appends resume cleanly after truncation
    assert [r["ts"] for r in wal.read_all()[0]] == [9]
    wal.close()


def test_wal_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(ServiceError):
        WriteAheadLog(str(tmp_path / "wal.log"), fsync="sometimes")


def test_fsync_policy_always_vs_never(tmp_path):
    always = WriteAheadLog(str(tmp_path / "a.log"), fsync="always")
    never = WriteAheadLog(str(tmp_path / "n.log"), fsync="never")
    for i in range(4):
        always.append({"ts": i})
        never.append({"ts": i})
    assert always.fsyncs == 4
    assert never.fsyncs == 0
    assert never.flush(fsync=True) >= 0.0  # explicit flush still barriers
    assert never.fsyncs == 1
    always.close()
    never.close()


# ----------------------------------------------------------------------
# value / type codec
# ----------------------------------------------------------------------
def _flusher_threads() -> set[threading.Thread]:
    return {thread for thread in threading.enumerate()
            if thread.name == "repro-wal-flusher"}


def test_interval_policy_fsyncs_an_idle_tail(tmp_path):
    """Group commit must not wait for the *next* append: the last commits
    before an idle period become durable within a few windows."""
    window = 0.02
    wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync="interval",
                        flush_interval_ms=window * 1000)
    try:
        assert wal.append({"ts": 1})[1] == 0.0  # no barrier on this thread
        deadline = time.monotonic() + 200 * window  # slack for a slow disk
        while wal.fsyncs == 0 and time.monotonic() < deadline:
            time.sleep(window)
        assert wal.fsyncs == 1
        time.sleep(3 * window)
        assert wal.fsyncs == 1  # clean again: an idle log costs no barriers
        wal.append({"ts": 2})
        deadline = time.monotonic() + 200 * window
        while wal.fsyncs == 1 and time.monotonic() < deadline:
            time.sleep(window)
        assert wal.fsyncs == 2
    finally:
        wal.close()
    assert [r["ts"] for r in wal.read_all()[0]] == [1, 2]


def test_flusher_thread_lifetime(tmp_path):
    """No commit, no thread; every close ends the thread it started."""
    # other tests' databases may still be open (and flushing) in this process
    others = _flusher_threads()
    threads_before = threading.active_count()
    writer = durable(tmp_path / "store", wal_fsync="interval")
    writer.execute("CREATE CLASS Item (name: STRING, value: INT)")
    assert len(_flusher_threads() - others) == 1  # the DDL record's
    writer.close()
    writer.database.close()
    assert _flusher_threads() == others
    reader = durable(tmp_path / "store", wal_fsync="interval")
    assert rows(reader) == []
    assert _flusher_threads() == others  # recovery and reads append nothing
    reader.close()
    reader.database.close()

    for i in range(200):
        wal = WriteAheadLog(str(tmp_path / f"wal-{i % 4}.log"),
                            fsync="interval", flush_interval_ms=0.5)
        wal.append({"ts": i})
        assert len(_flusher_threads() - others) == 1
        wal.close()
        wal.close()  # idempotent
    assert _flusher_threads() == others
    assert threading.active_count() == threads_before


def test_flusher_feeds_adapter_telemetry(tmp_path):
    connection = durable(tmp_path, wal_fsync="interval", slow_query_ms=0.0)
    seed_items(connection, 5)
    storage = connection.database.storage
    deadline = time.monotonic() + 5.0
    while (storage.counters()["wal_fsyncs"] == 0
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert storage.counters()["wal_fsyncs"] >= 1
    exported = connection.metrics()
    assert exported["counters"]["repro_wal_fsyncs"] >= 1
    assert exported["histograms"]["repro_wal_fsync_seconds"]["count"] >= 1
    connection.close()
    connection.database.close()


def test_failed_background_fsync_surfaces_on_the_next_append(tmp_path, monkeypatch):
    """A log that cannot be made durable must stop acknowledging commits."""
    wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync="interval",
                        flush_interval_ms=0.5)
    real_fsync = os.fsync

    def failing_fsync(descriptor):
        if threading.current_thread().name == "repro-wal-flusher":
            raise OSError(5, "Input/output error")
        real_fsync(descriptor)

    monkeypatch.setattr("repro.storage.wal.os.fsync", failing_fsync)
    wal.append({"ts": 1})
    flusher = wal._flusher
    flusher.join(timeout=10)
    assert not flusher.is_alive()
    with pytest.raises(ServiceError, match="background fsync failed"):
        wal.append({"ts": 2})
    assert wal.fsyncs == 0
    wal.close()


def test_flusher_races_checkpoint_and_close(tmp_path):
    """200 rounds of commits racing checkpoints (which truncate the log and
    close its handle under the flusher) and WAL closes (which end and
    restart it): nothing raises, every acknowledged row is recovered."""
    others = _flusher_threads()
    errors: list[BaseException] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_number in range(200):
            path = str(tmp_path / f"store-{round_number % 8}")
            shutil.rmtree(path, ignore_errors=True)
            database = static_database()
            adapter = FileStorageAdapter(path, fsync="interval",
                                         flush_interval_ms=0.05,
                                         checkpoint_interval=0)
            database.attach_storage(adapter)
            gate = threading.Lock()  # the service's write gate, in small
            acknowledged: list[int] = []

            def writer(worker: int) -> None:
                try:
                    for step in range(4):
                        value = worker * 10 + step
                        with gate:
                            database.create("Item", name="row", value=value)
                            acknowledged.append(value)
                except BaseException as exc:  # asserted on below
                    errors.append(exc)

            writers = [threading.Thread(target=writer, args=(worker,))
                       for worker in range(3)]  # more workers than cores
            for thread in writers:
                thread.start()
            for step in range(3):
                with gate:
                    if (round_number + step) % 3 == 0:
                        adapter.wal.close()  # next append restarts it
                    else:
                        adapter.checkpoint()
            for thread in writers:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert errors == []
            database.close()

            recovered = static_database()
            recovered.attach_storage(FileStorageAdapter(
                path, fsync="never", checkpoint_interval=0))
            values = sorted(recovered.get(oid).get("value")
                            for oid in recovered.extension("Item"))
            assert values == sorted(acknowledged)
            assert len(values) == 12
            recovered.close()
    finally:
        sys.setswitchinterval(interval)
    assert _flusher_threads() == others


def test_value_codec_round_trip():
    values = {
        "scalar": 42,
        "real": 1.5,
        "text": "héllo",
        "flag": True,
        "nothing": None,
        "oid": OID("Item", 7),
        "refs": {OID("Item", 1), OID("Item", 2)},
        "pair": (1, "two"),
        "seq": [1, [2, 3]],
        "map": {1: "one", ("k",): {OID("Doc", 3)}},
    }
    for value in values.values():
        encoded = encode_value(value)
        json.dumps(encoded)  # must be JSON-representable
        assert decode_value(encoded) == value


def test_value_codec_rejects_unknown_types():
    with pytest.raises(ServiceError):
        encode_value(object())
    with pytest.raises(ServiceError):
        decode_value({"$nope": 1})
    # CREATE CLASS declares no tuple type, so no checkpoint holds one
    with pytest.raises(ServiceError, match="cannot serialize property type"):
        encode_type(TupleType((("a", INT),)))


def test_an_unattached_adapter_recovers_nothing_and_closes_once(tmp_path):
    adapter = FileStorageAdapter(str(tmp_path), fsync="never")
    with pytest.raises(ServiceError, match="needs an attached database"):
        adapter.recover()
    assert adapter.checkpoint() is None
    adapter.close()
    adapter.close()  # idempotent


def test_values_codec_scalar_rows_skip_the_per_value_pass():
    scalars = {"a": 1, "b": "two", "c": 3.5, "d": True, "e": None}
    assert encode_values(scalars) is scalars
    assert decode_values(scalars) is scalars
    rich = {"a": 1, "ref": OID("C", 7), "tags": {OID("C", 1)}, "pair": (1, 2)}
    encoded = encode_values(rich)
    assert encoded is not rich
    assert json.loads(json.dumps(encoded)) == encoded
    assert decode_values(json.loads(json.dumps(encoded))) == rich

    class Loud(str):
        """A subclass is not assumed to be its own encoding."""

    assert encode_values({"s": Loud("x")}) == {"s": "x"}


def test_type_codec_round_trip():
    for vml_type, target in (
            (STRING, None), (INT, None),
            (ObjectType("Doc"), "Doc"),
            (set_of(ObjectType("Doc")), "Doc"),
            (SetType(INT), None)):
        spec = encode_type(vml_type)
        decoded, decoded_target = decode_type(spec)
        assert decoded == vml_type
        assert decoded_target == target


# ----------------------------------------------------------------------
# end-to-end durability through the statement API
# ----------------------------------------------------------------------
def test_dml_survives_reopen(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 30)
    connection.execute("UPDATE Item i SET value = i.value + 100 "
                       "WHERE i.value < 5")
    connection.execute("DELETE FROM Item i WHERE i.value == 17")
    before = rows(connection)
    connection.close()

    reopened = durable(tmp_path)
    assert rows(reopened) == before
    assert len(before) == 29
    reopened.close()


def test_ddl_and_analyze_survive_reopen(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection)
    connection.execute("CREATE INDEX ON Item(value)")
    connection.execute("CREATE SORTED INDEX ON Item(name)")
    connection.execute("ANALYZE Item")
    connection.close()

    reopened = durable(tmp_path)
    database = reopened.database
    assert database.indexes.get("Item", "value") is not None
    assert database.indexes.get("Item", "name") is not None
    assert "Item" in database.stats_catalog.analyzed_classes()
    # recovered indexes must serve queries
    hits = reopened.execute(
        "ACCESS i FROM i IN Item WHERE i.value == 7").fetchall()
    assert len(hits) == 1
    reopened.close()


def test_drop_index_survives_reopen(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection)
    connection.execute("CREATE INDEX ON Item(value)")
    connection.execute("DROP INDEX ON Item(value)")
    connection.close()

    reopened = durable(tmp_path)
    assert reopened.database.indexes.get("Item", "value") is None
    reopened.close()


def test_text_index_ddl_survives_reopen(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 5)
    connection.execute("CREATE TEXT INDEX ON Item(name)")
    connection.close()

    reopened = durable(tmp_path)
    engine = reopened.database.text_index("Item", "name")
    assert engine is not None
    assert len(reopened.execute(
        "ACCESS i FROM i IN Item WHERE i.name == 'item3'").fetchall()) == 1
    reopened.execute("DROP TEXT INDEX ON Item(name)")
    reopened.close()

    third = durable(tmp_path)
    assert third.database.text_index("Item", "name") is None
    third.close()


@pytest.mark.parametrize("record,message", [
    ({"kind": "bogus"}, "unknown WAL record kind 'bogus'"),
    ({"kind": "commit", "ts": 10 ** 6, "ops": [["bogus"]]},
     "unknown WAL op 'bogus'"),
    ({"kind": "commit", "ts": 10 ** 6,
      "ops": [["create", "Item", 999, {"name": "x", "value": 1}]]},
     "WAL replay drift: created Item:6, expected serial 999"),
])
def test_a_log_that_disagrees_with_the_store_is_refused(tmp_path, record,
                                                        message):
    """Recovery refuses a record it cannot replay exactly rather than
    guess: a kind or an op it does not know, or a create whose serial
    differs from the one the log recorded."""
    connection = durable(tmp_path)
    seed_items(connection, 5)
    connection.close()
    wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync="never")
    wal.append(record)
    wal.close()
    with pytest.raises(ServiceError, match=message):
        durable(tmp_path)


def test_object_references_and_sets_survive_reopen(tmp_path):
    connection = durable(tmp_path)
    connection.execute("CREATE CLASS Doc (title: STRING)")
    connection.execute("CREATE CLASS Memo ISA Doc (body: STRING, "
                       "refs: {Memo})")
    connection.execute("INSERT INTO Memo (title, body) VALUES ('a', 'x')")
    connection.execute("INSERT INTO Memo (title, body) VALUES ('b', 'y')")
    database = connection.database
    first, second = sorted(database.extension("Memo", deep=False))
    database.update(first, refs={second})
    connection.close()

    reopened = durable(tmp_path)
    recovered = sorted(reopened.database.extension("Memo", deep=False))
    assert recovered == [first, second]
    assert reopened.database.value(first, "refs") == {second}
    # ISA subclassing recovered: Memo rows are part of the deep Doc extension
    assert len(reopened.database.extension("Doc")) == 2
    reopened.close()


def test_transaction_commit_is_one_wal_record(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 5)
    records_before = connection.database.storage.counters()["wal_records"]
    connection.begin()
    connection.execute("INSERT INTO Item (name, value) VALUES ('t1', 100)")
    connection.execute("INSERT INTO Item (name, value) VALUES ('t2', 101)")
    connection.execute("UPDATE Item i SET value = 0 WHERE i.value == 2")
    connection.commit()
    counters = connection.database.storage.counters()
    assert counters["wal_records"] == records_before + 1
    connection.close()

    reopened = durable(tmp_path)
    assert ("t2", 101) in rows(reopened)
    assert ("item2", 0) in rows(reopened)
    reopened.close()


def test_rolled_back_transaction_leaves_no_wal_record(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 5)
    records_before = connection.database.storage.counters()["wal_records"]
    connection.begin()
    connection.execute("INSERT INTO Item (name, value) VALUES ('never', -1)")
    connection.rollback()
    assert connection.database.storage.counters()["wal_records"] \
        == records_before
    connection.close()

    reopened = durable(tmp_path)
    assert ("never", -1) not in rows(reopened)
    reopened.close()


def test_exit_after_exception_rolls_back_then_flushes(tmp_path):
    with pytest.raises(RuntimeError):
        with durable(tmp_path) as connection:
            seed_items(connection, 5)
            connection.begin()
            connection.execute(
                "INSERT INTO Item (name, value) VALUES ('doomed', -1)")
            raise RuntimeError("boom")

    reopened = durable(tmp_path)
    recovered = rows(reopened)
    assert len(recovered) == 5  # the seed survived the unclean exit
    assert ("doomed", -1) not in recovered
    reopened.close()


def test_static_schema_classes_are_not_checkpointed(tmp_path):
    connection = durable(tmp_path, database=static_database())
    connection.executemany(
        "INSERT INTO Item (name, value) VALUES (:n, :v)",
        [{"n": f"s{i}", "v": i} for i in range(8)])
    connection.checkpoint()
    before = rows(connection)
    connection.close()

    state = json.loads((tmp_path / "checkpoint.json").read_bytes())
    assert state["classes"] == []  # Item comes from the static schema

    reopened = durable(tmp_path, database=static_database())
    assert rows(reopened) == before
    reopened.close()


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def test_explicit_checkpoint_truncates_wal(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 50)
    connection.execute("CREATE INDEX ON Item(value)")
    connection.execute("ANALYZE Item")
    ts = connection.checkpoint()
    assert ts == connection.database.clock.published
    assert os.path.getsize(tmp_path / "wal.log") == 0
    before = rows(connection)
    connection.close()

    reopened = durable(tmp_path)
    assert rows(reopened) == before
    assert reopened.database.indexes.get("Item", "value") is not None
    assert "Item" in reopened.database.stats_catalog.analyzed_classes()
    assert reopened.database.clock.published == ts
    counters = reopened.database.storage.counters()
    assert counters["recovery_replayed_records"] == 0
    reopened.close()


def test_checkpoint_plus_wal_tail_replay(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 20)
    connection.checkpoint()
    connection.execute("UPDATE Item i SET value = i.value * 2 "
                       "WHERE i.value < 3")
    connection.execute("DELETE FROM Item i WHERE i.value == 10")
    connection.execute("CREATE INDEX ON Item(value)")
    before = rows(connection)
    connection.close()

    reopened = durable(tmp_path)
    assert rows(reopened) == before
    assert reopened.database.storage.counters()[
        "recovery_replayed_records"] == 3
    reopened.close()


def test_new_oids_after_checkpoint_do_not_reuse_serials(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 10)
    connection.execute("DELETE FROM Item i WHERE i.value >= 5")
    connection.checkpoint()
    connection.close()

    reopened = durable(tmp_path)
    cursor = reopened.execute(
        "INSERT INTO Item (name, value) VALUES ('fresh', 99)")
    assert cursor.lastoid.serial == 11  # serials 6..10 are never reused
    reopened.close()


def test_automatic_checkpoint_after_interval(tmp_path):
    connection = durable(tmp_path, checkpoint_interval=5)
    seed_items(connection, 3)  # CREATE CLASS + 1 executemany commit
    for i in range(6):
        connection.execute(
            "INSERT INTO Item (name, value) VALUES (:n, :v)",
            {"n": f"auto{i}", "v": 100 + i})
    counters = connection.database.storage.counters()
    assert counters["checkpoints_completed"] >= 1
    before = rows(connection)
    connection.close()

    reopened = durable(tmp_path, checkpoint_interval=5)
    assert rows(reopened) == before
    reopened.close()


def test_crash_between_checkpoint_rename_and_truncate(tmp_path):
    """The crash window: new checkpoint on disk, WAL not yet truncated.

    Replay must skip every WAL record the checkpoint already covers —
    commit records at or below the checkpoint timestamp and idempotent
    DDL — so recovery does not double-apply.
    """
    connection = durable(tmp_path)
    seed_items(connection, 15)
    connection.execute("CREATE INDEX ON Item(value)")
    connection.execute("ANALYZE Item")
    wal_bytes = (tmp_path / "wal.log").read_bytes()
    connection.checkpoint()
    before = rows(connection)
    connection.close()
    # resurrect the pre-checkpoint WAL next to the new checkpoint
    (tmp_path / "wal.log").write_bytes(wal_bytes)

    reopened = durable(tmp_path)
    assert rows(reopened) == before
    assert reopened.database.object_count() == 15
    counters = reopened.database.storage.counters()
    # commit, create_class and create_index records are all skipped; only
    # the ANALYZE record re-runs (recomputing identical statistics is
    # idempotent, not a double-apply)
    assert counters["recovery_replayed_records"] <= 1
    reopened.close()


# ----------------------------------------------------------------------
# torn writes
# ----------------------------------------------------------------------
def test_torn_final_record_is_discarded(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 10)
    connection.execute(
        "INSERT INTO Item (name, value) VALUES ('intact', 50)")
    connection.close()
    wal_path = tmp_path / "wal.log"
    intact = wal_path.read_bytes()
    # tear the last record mid-payload, as a crash mid-append would
    wal_path.write_bytes(intact[:len(intact) - 7])

    reopened = durable(tmp_path)
    recovered = rows(reopened)
    assert ("intact", 50) not in recovered  # the torn commit is gone
    assert len(recovered) == 10             # everything before it survived
    counters = reopened.database.storage.counters()
    assert counters["recovery_discarded_bytes"] > 0
    # the log was truncated to the valid prefix: appends resume cleanly
    reopened.execute("INSERT INTO Item (name, value) VALUES ('after', 51)")
    reopened.close()

    third = durable(tmp_path)
    assert ("after", 51) in rows(third)
    third.close()


def test_corrupt_checkpoint_is_refused(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 3)
    connection.checkpoint()
    connection.close()
    (tmp_path / "checkpoint.json").write_bytes(b"{not json")

    with pytest.raises(ServiceError, match="corrupt checkpoint"):
        durable(tmp_path)


def test_restoring_a_checkpoint_checks_what_it_restores_into(tmp_path):
    connection = durable(tmp_path, static_database())
    connection.execute("INSERT INTO Item (name, value) VALUES ('a', 1)")
    connection.execute("CREATE CLASS Empty (note: STRING)")
    connection.checkpoint()
    connection.close()
    state = json.loads((tmp_path / "checkpoint.json").read_text())
    # a class without objects is declared, not listed among the objects
    assert [name for name, _, _ in state["classes"]] == ["Empty"]
    assert list(state["objects"]) == ["Item"]

    restored = static_database()
    restore_checkpoint(restored, state)
    assert restored.object_count() == 1
    assert restored.schema.has_class("Empty")
    with pytest.raises(ServiceError, match="into a non-empty database"):
        restore_checkpoint(restored, state)
    with pytest.raises(ServiceError, match="unsupported checkpoint format 0"):
        restore_checkpoint(static_database(), {**state, "format": 0})
    with pytest.raises(ServiceError,
                       match="objects of unknown class 'Item'"):
        restore_checkpoint(empty_database(), state)
    # a class the static schema already declares is not declared again
    grown = static_database()
    grown.create_class("Empty", properties=[PropertyDef("note", STRING)])
    restore_checkpoint(grown, state)
    assert grown.object_count() == 1


def _format_1_state(database, base_classes=()) -> dict:
    """The checkpoint as the pre-streaming writer built it: one state dict,
    serialized with one ``json.dumps`` — the reference for the format."""
    classes = [[name, class_def.superclass,
                [[prop.name, encode_type(prop.vml_type), prop.target_class]
                 for prop in class_def.properties.values()]]
               for name, class_def in database.schema.classes.items()
               if name not in base_classes]
    objects = {}
    for class_name in database.schema.classes:
        extension = database.extension(class_name, deep=False)
        if extension:
            objects[class_name] = [
                [oid.serial, {prop: encode_value(value) for prop, value
                              in database.get(oid).values.items()}]
                for oid in extension]
    indexes = [[index.class_name, index.property_name, index.kind]
               for index in database.indexes.all()]
    indexes.extend([class_name, prop, "text"]
                   for (class_name, prop), _ in database.text_indexes())
    return {"format": 1, "commit_ts": database.clock.published,
            "name": database.name, "classes": classes, "objects": objects,
            "allocators": database.oid_counters(), "indexes": indexes,
            "analyzed": list(database.stats_catalog.analyzed_classes())}


def _rich_store(tmp_path, rows_per_class: int = 40):
    """Refs, sets, tuples, a dynamic subclass, all three index kinds."""
    connection = durable(tmp_path, checkpoint_interval=0)
    connection.execute("CREATE CLASS Doc (title: STRING, rank: INT)")
    connection.execute("CREATE CLASS Memo ISA Doc (body: STRING, "
                       "about: Doc, refs: {Memo}, extra: ANY)")
    connection.executemany(
        "INSERT INTO Doc (title, rank) VALUES (:t, :r)",
        [{"t": f"doc \u00e9 {i}", "r": i} for i in range(rows_per_class)])
    connection.executemany(
        "INSERT INTO Memo (title, rank, body) VALUES (:t, :r, :b)",
        [{"t": f"memo {i}", "r": i, "b": f"body \"{i}\" words"}
         for i in range(rows_per_class)])
    database = connection.database
    docs = database.extension("Doc", deep=False)
    memos = database.extension("Memo", deep=False)
    for i, memo in enumerate(memos[:10]):
        database.update(memo, about=docs[i], refs={memos[i - 1], memos[i - 2]},
                        extra=(i, "pair", (1.5, None)))
    database.delete(docs[-1])
    for ddl in ("CREATE HASH INDEX ON Doc(title)",
                "CREATE SORTED INDEX ON Doc(rank)",
                "CREATE TEXT INDEX ON Memo(body)", "ANALYZE"):
        connection.execute(ddl)
    return connection


def _logical_state(database) -> dict:
    state = _format_1_state(database)
    state.pop("commit_ts")
    return state


def test_streamed_checkpoint_is_byte_identical_to_format_1(tmp_path, monkeypatch):
    monkeypatch.setattr(checkpoint_module, "ROWS_PER_CHUNK", 7)
    connection = _rich_store(tmp_path)
    expected = json.dumps(_format_1_state(connection.database),
                          separators=(",", ":"), ensure_ascii=False)
    connection.checkpoint()
    written = (tmp_path / "checkpoint.json").read_bytes()
    assert written == expected.encode("utf-8")
    assert json.loads(written)["format"] == 1  # one plain JSON document
    before = _logical_state(connection.database)
    connection.close()
    connection.database.close()

    reopened = durable(tmp_path)
    assert reopened.database.storage.counters()[
        "recovery_replayed_records"] == 0  # all from the checkpoint
    assert _logical_state(reopened.database) == before
    memo = sorted(reopened.database.extension("Memo", deep=False))[3]
    assert reopened.database.value(memo, "extra") == (3, "pair", (1.5, None))
    assert len(reopened.database.value(memo, "refs")) == 2
    reopened.close()


def test_checkpoint_written_by_the_old_writer_restores_identically(tmp_path):
    """Forward compatibility: a ``checkpoint.json`` produced by one
    ``json.dumps`` of the whole state loads exactly like a streamed one."""
    connection = _rich_store(tmp_path / "old")
    database = connection.database
    before = _logical_state(database)
    old_bytes = json.dumps(_format_1_state(database), separators=(",", ":"),
                           ensure_ascii=False).encode("utf-8")
    connection.close()
    database.close()
    os.makedirs(tmp_path / "new")
    (tmp_path / "new" / "checkpoint.json").write_bytes(old_bytes)

    reopened = durable(tmp_path / "new")
    assert _logical_state(reopened.database) == before
    reopened.close()


def test_writer_killed_mid_stream_leaves_the_old_checkpoint(tmp_path, monkeypatch):
    connection = durable(tmp_path, checkpoint_interval=0)
    seed_items(connection, 30)
    connection.checkpoint()
    connection.execute("INSERT INTO Item (name, value) VALUES ('late', 99)")
    expected = rows(connection)
    old_checkpoint = (tmp_path / "checkpoint.json").read_bytes()
    wal_size = os.path.getsize(tmp_path / "wal.log")
    assert wal_size > 0

    chunks = checkpoint_module.checkpoint_chunks

    def dying(database, base_classes):
        for count, chunk in enumerate(chunks(database, base_classes)):
            if count == 2:
                raise KeyboardInterrupt  # the process dies here
            yield chunk

    monkeypatch.setattr("repro.storage.adapter.checkpoint_chunks", dying)
    monkeypatch.setattr(checkpoint_module, "ROWS_PER_CHUNK", 4)
    with pytest.raises(KeyboardInterrupt):
        connection.checkpoint()
    monkeypatch.undo()
    # what a kill leaves behind: a truncated temp file, nothing else moved
    assert os.path.getsize(tmp_path / "checkpoint.json.tmp") > 0
    with pytest.raises(ValueError):
        json.loads((tmp_path / "checkpoint.json.tmp").read_bytes())
    assert (tmp_path / "checkpoint.json").read_bytes() == old_checkpoint
    assert os.path.getsize(tmp_path / "wal.log") == wal_size
    connection.close()
    connection.database.close()

    reopened = durable(tmp_path)
    assert rows(reopened) == expected
    reopened.checkpoint()  # the next checkpoint overwrites the debris
    assert json.loads((tmp_path / "checkpoint.json").read_bytes())[
        "objects"]["Item"][-1][1] == {"name": "late", "value": 99}
    reopened.close()


# ----------------------------------------------------------------------
# adapter lifecycle and selection
# ----------------------------------------------------------------------
def test_memory_mode_attaches_nothing():
    connection = connect(empty_database(), durability="memory")
    assert connection.database.storage is None
    connection.close()


def test_unknown_durability_mode_is_rejected():
    with pytest.raises(ServiceError, match="unknown durability mode"):
        connect(empty_database(), durability="floppy")


def test_env_durability_selection(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DURABILITY", "wal")
    monkeypatch.setenv("REPRO_STORAGE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WAL_FSYNC", "never")
    connection = connect(empty_database())
    adapter = connection.database.storage
    assert adapter is not None and adapter.durable
    assert adapter.path.startswith(str(tmp_path))
    assert adapter.wal.fsync_policy == "never"
    connection.close()


def test_memory_adapter_is_a_no_op(tmp_path):
    database = empty_database()
    adapter = database.attach_storage(MemoryAdapter())
    assert not adapter.active
    connection = connect(database)
    seed_items(connection, 3)
    assert adapter.counters() == {}
    assert adapter.checkpoint() is None
    connection.close()


def test_second_durable_adapter_is_rejected(tmp_path):
    database = empty_database()
    connection = durable(tmp_path / "a", database=database)
    adapter = database.storage
    # re-attaching the same adapter is idempotent
    assert database.attach_storage(adapter) is adapter
    with pytest.raises(SchemaError):
        database.attach_storage(
            FileStorageAdapter(str(tmp_path / "b"), fsync="never"))
    # a second connect() on the same database reuses the first adapter
    second = connect(database, durability="wal",
                     storage_path=str(tmp_path / "c"))
    assert database.storage is adapter
    assert not (tmp_path / "c").exists()
    second.close()
    connection.close()


def test_database_close_detaches_and_seals_the_adapter(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 2)
    database = connection.database
    adapter = database.storage
    connection.close()          # flushes, keeps the adapter attached
    assert database.storage is adapter
    database.close()            # flushes again, then seals the adapter
    assert database.storage is None
    with pytest.raises(ServiceError):
        adapter.log_ddl(("analyze", "Item"))
    database.close()            # idempotent


def test_checkpoint_without_durable_adapter_is_none():
    # pin durability explicitly so the test also holds under the CI
    # matrix entry that exports REPRO_DURABILITY=wal for the whole run
    connection = connect(empty_database(), durability="memory")
    assert connection.checkpoint() is None
    connection.close()


# ----------------------------------------------------------------------
# version-chain pruning under pin pressure (checkpoint watermark)
# ----------------------------------------------------------------------
def test_version_chains_stay_bounded_under_rolling_pins(tmp_path):
    """Sustained pin pressure with a rolling window: pruning driven by the
    checkpoint watermark keeps history/tombstone memory bounded instead of
    growing with every committed update."""
    connection = durable(tmp_path, checkpoint_interval=0)
    connection.execute("CREATE CLASS Hot (value: INT)")
    connection.execute("INSERT INTO Hot (value) VALUES (0)")
    database = connection.database
    (oid,) = database.extension("Hot", deep=False)

    pins: list[int] = []
    sizes = []
    for round_no in range(12):
        for step in range(25):
            database.update(oid, value=round_no * 100 + step)
        pins.append(database.acquire_snapshot())
        while len(pins) > 2:          # rolling window: release the oldest
            database.release_snapshot(pins.pop(0))
        connection.checkpoint()        # prunes up to the oldest pin
        sizes.append(len(database._history.get(oid, ())))

    # the chain length reflects the rolling window, not total update count
    assert max(sizes[3:]) <= 2 * 25 + 2, sizes
    # pinned snapshots still answer after pruning
    assert database.value_at(oid, "value", pins[-1]) is not None
    for ts in pins:
        database.release_snapshot(ts)
    connection.close()


def test_pinned_snapshot_blocks_pruning_of_its_versions(tmp_path):
    connection = durable(tmp_path, checkpoint_interval=0)
    connection.execute("CREATE CLASS Hot (value: INT)")
    connection.execute("INSERT INTO Hot (value) VALUES (1)")
    database = connection.database
    (oid,) = database.extension("Hot", deep=False)
    pin = database.acquire_snapshot()
    for step in range(10):
        database.update(oid, value=step)
    connection.checkpoint()
    assert database.value_at(oid, "value", pin) == 1  # pin still served
    database.release_snapshot(pin)
    connection.checkpoint()
    assert len(database._history.get(oid, ())) <= 1  # now prunable
    connection.close()


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
def test_storage_metrics_surface_in_connection_metrics(tmp_path):
    connection = durable(tmp_path, wal_fsync="always")
    seed_items(connection, 10)
    connection.checkpoint()
    exported = connection.metrics()
    counters = exported["counters"]
    assert counters["repro_wal_records"] >= 2
    assert counters["repro_wal_bytes"] > 0
    assert counters["repro_wal_fsyncs"] >= 2
    assert counters["repro_checkpoints_completed"] == 1
    histograms = exported["histograms"]
    assert histograms["repro_wal_append_seconds"]["count"] >= 2
    assert histograms["repro_wal_fsync_seconds"]["count"] >= 2
    prometheus = connection.metrics("prometheus")
    assert "repro_wal_records" in prometheus
    connection.close()


def test_recovery_counters_survive_into_the_service_registry(tmp_path):
    connection = durable(tmp_path)
    seed_items(connection, 10)
    connection.close()

    # recovery runs at attach time, before the service registry exists;
    # bind_telemetry must seed the registry with the lifetime totals
    reopened = durable(tmp_path)
    counters = reopened.metrics()["counters"]
    assert counters["repro_recovery_replayed_records"] == 2
    reopened.close()


def test_checkpoint_emits_a_tracer_span(tmp_path):
    connection = durable(tmp_path, tracing=True)
    seed_items(connection, 5)
    connection.checkpoint()
    names = [span.name for span in connection.tracer.recent()]
    assert "checkpoint" in names
    connection.close()
