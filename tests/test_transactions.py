"""MVCC snapshot isolation and BEGIN/COMMIT/ROLLBACK transactions.

Covers the reader/writer lock's invariant enforcement, snapshot reads that
are never blocked by (or exposed to) the write gate, streamed cursors that
observe one stable snapshot for their whole lifetime, the transactional
Connection protocol (statement words, first-writer-wins conflicts, atomic
apply, rollback), and the lifecycle fixes (close() warns about discarded
mutations, ``with`` rolls back when the body raised).
"""

from __future__ import annotations

import threading

import pytest

from repro import QueryService, connect
from repro.errors import (
    ServiceError,
    TransactionConflictError,
    TransactionError,
)
from repro.service.concurrency import ReadWriteLock
from repro.workloads import generate_document_database


@pytest.fixture()
def database():
    return generate_document_database(n_documents=3)


def state_snapshot(database):
    """Every stored object's values, per-class extension order and the
    live object count — the whole externally observable data state."""
    objects = {oid: dict(obj.values)
               for oid, obj in sorted(database._objects.items())}
    extensions = {name: list(database.extension(name, deep=False))
                  for name in database.schema.class_names()}
    return objects, extensions, database.object_count()


# ----------------------------------------------------------------------
# ReadWriteLock invariants
# ----------------------------------------------------------------------
class TestReadWriteLock:
    def test_unbalanced_release_read_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError, match="release_read"):
            lock.release_read()

    def test_unbalanced_release_write_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError, match="release_write"):
            lock.release_write()

    def test_release_write_from_wrong_thread_raises(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        errors = []

        def release():
            try:
                lock.release_write()
            except RuntimeError as exc:
                errors.append(exc)
        thread = threading.Thread(target=release)
        thread.start()
        thread.join(timeout=5)
        lock.release_write()
        assert len(errors) == 1

    def test_unbalanced_release_does_not_wedge_writers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        with pytest.raises(RuntimeError):
            lock.release_read()  # depth bookkeeping rejects the extra call
            lock.release_read()
        # the reader count stayed balanced: a writer can still get in
        acquired = threading.Event()

        def writer():
            lock.acquire_write()
            acquired.set()
            lock.release_write()
        thread = threading.Thread(target=writer)
        thread.start()
        assert acquired.wait(timeout=5)
        thread.join(timeout=5)

    def test_write_reentrancy_raises(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with pytest.raises(RuntimeError, match="not reentrant"):
                lock.acquire_write()

    def test_read_to_write_upgrade_raises(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_write_holder_may_read(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.read_locked():
                pass


# ----------------------------------------------------------------------
# snapshot reads vs the write gate
# ----------------------------------------------------------------------
class TestSnapshotReads:
    QUERY = "ACCESS d.title FROM d IN Document"

    def test_reader_completes_while_writer_holds_the_gate(self, database):
        service = QueryService(database)
        # warm the plan cache: builds (unlike executions) drain behind DDL
        baseline = service.execute(self.QUERY).value_set()
        gate_held = threading.Event()
        release = threading.Event()

        def writer():
            with service._gate.write_locked():
                gate_held.set()
                release.wait(timeout=10)
        thread = threading.Thread(target=writer)
        thread.start()
        assert gate_held.wait(timeout=5)
        done = threading.Event()
        rows = []

        def reader():
            rows.append(service.execute(self.QUERY).value_set())
            done.set()
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        completed = done.wait(timeout=5)
        release.set()
        thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert completed, "query execution blocked behind the write gate"
        assert rows[0] == baseline

    def test_open_stream_is_a_stable_snapshot(self, database):
        connection = connect(database)
        before = connection.execute(self.QUERY).fetchall()
        cursor = connection.execute(self.QUERY)
        first = cursor.fetchone()
        assert first in before
        # mutate every remaining row mid-stream through a second cursor
        connection.execute("UPDATE Document d SET title = 'REWRITTEN'")
        assert sorted([first] + cursor.fetchall()) == sorted(before)
        # a fresh statement sees the new state (one value: set semantics)
        assert connection.execute(self.QUERY).fetchall() == ["REWRITTEN"]

    def test_every_run_follows_one_scoping_rule(self, database):
        """The commit scope's owner reads in place; else an enclosing pin
        is reused unless a snapshot is asked for; else the stream registers
        a pin of its own — drained (``execute``) and open streams alike."""
        service = QueryService(database)
        before = database.acquire_snapshot()
        service.execute("INSERT INTO Document (title) VALUES ('later')")
        latest = database.clock.published
        with database.pin_snapshot(before):
            reused = service.stream(self.QUERY)
            assert reused.snapshot_ts == before
            assert "later" not in [row[reused.output_ref]
                                   for row in reused.drain()]
            assert "later" not in service.execute(self.QUERY).values
            asked = service.run_statement(self.QUERY, stream=True, at=latest)
            assert asked.snapshot_ts == latest
            asked.close()
        database.release_snapshot(before)
        assert database._oldest_pin() is None  # a reused pin is not re-held
        own = service.stream(self.QUERY)
        assert own.snapshot_ts == latest
        assert database._oldest_pin() == latest
        own.close()
        with database.commit_scope():
            database.create("Document", title="in scope")
            in_place = service.stream(self.QUERY)
            assert in_place.snapshot_ts is None
            in_place.close()
            assert "in scope" in service.execute(self.QUERY).values
        assert database._oldest_pin() is None

    def test_transaction_reads_its_begin_snapshot(self, database):
        service = QueryService(database)
        txn_conn = connect(database, service=service)
        other = connect(database, service=service)
        before = set(txn_conn.execute(self.QUERY).fetchall())
        txn_conn.execute("BEGIN")
        other.execute("INSERT INTO Document (title) VALUES ('late arrival')")
        assert set(txn_conn.execute(self.QUERY).fetchall()) == before
        txn_conn.execute("ROLLBACK")
        assert "late arrival" in set(txn_conn.execute(self.QUERY).fetchall())


# ----------------------------------------------------------------------
# the transaction protocol
# ----------------------------------------------------------------------
class TestTransactions:
    def test_begin_rollback_leaves_state_byte_identical(self, database):
        connection = connect(database)
        before = state_snapshot(database)
        cursor = connection.cursor()
        cursor.execute("BEGIN TRANSACTION")
        cursor.execute("INSERT INTO Document (title) VALUES ('doomed')")
        cursor.execute("UPDATE Document d SET title = 'mutated'")
        cursor.execute("DELETE FROM Section s")
        cursor.execute("ROLLBACK")
        assert state_snapshot(database) == before
        assert not connection.in_transaction

    def test_commit_applies_atomically(self, database):
        connection = connect(database)
        count = database.object_count()
        connection.execute("BEGIN")
        connection.execute("INSERT INTO Document (title) VALUES ('txn doc')")
        connection.execute(
            "UPDATE Document d SET author = 'txn author' "
            "WHERE d.title == 'txn doc'")
        # deferred writes: the transaction does not see its own insert,
        # so the update resolved zero targets at the begin snapshot
        assert database.object_count() == count
        cursor = connection.execute("COMMIT")
        assert cursor.rowcount == 1  # the insert; the update matched nothing
        assert database.object_count() == count + 1
        assert connection.execute(
            "ACCESS d.author FROM d IN Document WHERE d.title == 'txn doc'"
            ).fetchall() == [None]

    def test_interleaved_transactions_first_writer_wins(self, database):
        service = QueryService(database)
        first = connect(database, service=service)
        second = connect(database, service=service)
        target = "ACCESS d FROM d IN Document"
        assert first.execute(target).fetchall()  # sanity: targets exist
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute("UPDATE Document d SET author = 'first winner'")
        second.execute("UPDATE Document d SET author = 'second loser'")
        assert first.execute("COMMIT").rowcount > 0
        with pytest.raises(TransactionConflictError):
            second.execute("COMMIT")
        assert not second.in_transaction
        authors = set(connect(database, service=service).execute(
            "ACCESS d.author FROM d IN Document").fetchall())
        assert authors == {"first winner"}
        snapshot = service.metrics.snapshot()
        assert snapshot["txn_conflicts"] == 1
        assert snapshot["txn_commits"] == 1

    def test_delete_by_other_transaction_conflicts(self, database):
        service = QueryService(database)
        updater = connect(database, service=service)
        deleter = connect(database, service=service)
        updater.execute("BEGIN")
        updater.execute("UPDATE Document d SET author = 'too late'")
        deleter.execute("DELETE FROM Document d")
        with pytest.raises(TransactionConflictError):
            updater.execute("COMMIT")

    def test_nested_begin_raises(self, database):
        connection = connect(database)
        connection.execute("BEGIN")
        with pytest.raises(TransactionError, match="already open"):
            connection.execute("BEGIN WORK")
        connection.execute("ROLLBACK")

    def test_commit_and_rollback_require_a_transaction(self, database):
        connection = connect(database)
        with pytest.raises(TransactionError):
            connection.execute("COMMIT")
        with pytest.raises(TransactionError):
            connection.execute("ROLLBACK")

    def test_ddl_inside_a_transaction_raises(self, database):
        connection = connect(database)
        connection.execute("BEGIN")
        with pytest.raises(TransactionError, match="cannot run inside"):
            connection.execute("CREATE CLASS Tag (label: STRING)")
        with pytest.raises(TransactionError):
            connection.execute("ANALYZE Document")
        connection.execute("ROLLBACK")

    def test_transaction_control_outside_connection_raises(self, database):
        service = QueryService(database)
        with pytest.raises(TransactionError):
            service.execute("BEGIN")

    def test_executemany_buffers_into_the_transaction(self, database):
        connection = connect(database)
        count = database.object_count()
        connection.execute("BEGIN")
        connection.executemany(
            "INSERT INTO Document (title) VALUES (:t)",
            [{"t": f"bulk {i}"} for i in range(5)])
        assert database.object_count() == count
        assert connection.commit() == 5
        assert database.object_count() == count + 5


# ----------------------------------------------------------------------
# connection lifecycle
# ----------------------------------------------------------------------
class TestConnectionLifecycle:
    def test_close_warns_about_discarded_mutations(self, database):
        connection = connect(database, autocommit=False)
        connection.execute("INSERT INTO Document (title) VALUES ('lost')")
        with pytest.warns(ResourceWarning, match="discarded 1"):
            connection.close()

    def test_close_warns_about_an_open_transaction(self, database):
        connection = connect(database)
        connection.execute("BEGIN")
        connection.execute("INSERT INTO Document (title) VALUES ('lost')")
        with pytest.warns(ResourceWarning, match="discarded 1"):
            connection.close()

    def test_close_is_idempotent_and_quiet_when_clean(self, database):
        import warnings
        connection = connect(database)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            connection.close()
            connection.close()
        with pytest.raises(ServiceError):
            connection.cursor()

    def test_context_manager_rolls_back_when_the_body_raised(self, database):
        count = database.object_count()
        with pytest.raises(RuntimeError, match="boom"):
            with connect(database, autocommit=False) as connection:
                connection.execute(
                    "INSERT INTO Document (title) VALUES ('never')")
                raise RuntimeError("boom")
        assert database.object_count() == count

    def test_context_manager_rolls_back_an_open_transaction(self, database):
        count = database.object_count()
        with pytest.raises(RuntimeError, match="boom"):
            with connect(database) as connection:
                connection.execute("BEGIN")
                connection.execute(
                    "INSERT INTO Document (title) VALUES ('never')")
                raise RuntimeError("boom")
        assert database.object_count() == count

    def test_begin_with_deferred_buffer_raises(self, database):
        connection = connect(database, autocommit=False)
        connection.execute("INSERT INTO Document (title) VALUES ('pending')")
        with pytest.raises(TransactionError, match="autocommit=False"):
            connection.begin()
        connection.rollback()
        connection.begin()
        connection.rollback()
