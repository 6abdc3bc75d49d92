"""Reader/writer coordination for the query service.

Since the MVCC snapshot work, plain query executions no longer take this
lock at all — they pin a snapshot and read through the database's version
chains.  The lock still serializes the write side: DML apply, index DDL,
knowledge registration, and plan *builds* (which read the live schema and
indexes and must not observe them mid-mutation).  Writers are preferred —
a steady stream of plan builds cannot starve DDL.

Mutations performed *directly* on the :class:`~repro.datamodel.database.
Database` bypass this lock; they are still picked up through the version
counters at the next cache lookup, but the caller is responsible for not
mutating concurrently with executions (see DESIGN.md, thread-safety
assumptions).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["ReadWriteLock"]


class ReadWriteLock:
    """A writer-preferring readers/writer lock.

    The read side is reentrant: a thread already holding a read lock may
    acquire it again even while a writer is queued — otherwise a query
    whose method implementation re-enters the service on the same thread
    (the nested-execution case :class:`~repro.physical.executor.BindingEnv`
    supports) would deadlock against a waiting writer.  A thread holding
    the *write* lock may also acquire the read side (the commit path runs
    WHERE-queries while applying a batch); true write reentrancy and
    read→write upgrades raise ``RuntimeError`` instead of deadlocking.

    Unbalanced releases raise ``RuntimeError``: silently accepting them
    used to drive the reader count negative, which wedged every waiting
    writer forever (``_readers`` could never reach zero again).
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writer_thread: Optional[int] = None
        self._writers_waiting = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        me = threading.get_ident()
        depth = getattr(self._local, "read_depth", 0)
        with self._condition:
            if depth == 0 and self._writer_thread != me:
                while self._writer_active or self._writers_waiting:
                    self._condition.wait()
            self._readers += 1
        self._local.read_depth = depth + 1

    def release_read(self) -> None:
        depth = getattr(self._local, "read_depth", 0)
        if depth <= 0:
            raise RuntimeError(
                "release_read() without a matching acquire_read() on this "
                "thread")
        self._local.read_depth = depth - 1
        with self._condition:
            assert self._readers > 0, "reader count underflow"
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # ------------------------------------------------------------------
    # writers
    # ------------------------------------------------------------------
    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._condition:
            if self._writer_active and self._writer_thread == me:
                raise RuntimeError("the write lock is not reentrant")
            if getattr(self._local, "read_depth", 0):
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock")
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
            self._writer_thread = me
            assert self._readers == 0, "writer admitted with active readers"

    def release_write(self) -> None:
        with self._condition:
            if not self._writer_active:
                raise RuntimeError(
                    "release_write() without a matching acquire_write()")
            if self._writer_thread != threading.get_ident():
                raise RuntimeError(
                    "release_write() from a thread that does not hold the "
                    "write lock")
            self._writer_active = False
            self._writer_thread = None
            self._condition.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
