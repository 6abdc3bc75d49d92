"""The write-ahead log: framed, checksummed, append-only records.

Record framing on disk is ``[4-byte big-endian payload length]
[4-byte CRC-32 of the payload][UTF-8 JSON payload]``.  A reader walks the
file front to back validating each frame; the first frame whose header is
short, whose payload is truncated, or whose checksum mismatches marks the
torn tail — everything before it is intact (appends are sequential, so a
crash can only tear the final record) and everything from it on is
discarded by recovery.

Fsync policy decides when an append becomes durable:

* ``always`` — fsync after every record (one fsync per commit scope);
* ``interval`` — group commit: data is written and flushed to the OS on
  every append (a crash of the process loses nothing acknowledged), and a
  background flusher thread fsyncs once per ``flush_interval_ms`` window
  while unsynced appends exist, amortizing the disk barrier over a burst
  of commits and bounding what a crash of the machine can lose to one
  window of wall time — also when the burst is followed by idleness.  The
  thread starts with the first append and ends with :meth:`close`;
* ``never`` — leave durability to the OS page cache (fastest; a crash
  may lose the tail even of acknowledged commits).

:meth:`WriteAheadLog.flush` forces write-out (and an fsync under any
policy but with ``fsync=True`` explicitly), which is what a clean
connection/database close calls so acknowledged commits are never lost
to buffering.
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
import time
import zlib
from typing import Any, Callable, Iterator, Optional

from repro.errors import ServiceError

__all__ = ["WriteAheadLog", "encode_record", "read_records", "FSYNC_POLICIES"]

_HEADER = struct.Struct(">II")
FSYNC_POLICIES = ("always", "interval", "never")


def encode_record(payload: dict[str, Any]) -> bytes:
    """Frame *payload* as one length-prefixed, checksummed WAL record."""
    body = json.dumps(payload, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def read_records(data: bytes) -> Iterator[tuple[dict[str, Any], int]]:
    """Yield ``(payload, end_offset)`` for every intact record in *data*.

    Stops silently at the first torn or corrupt frame: the byte offset of
    the last yielded record is the length recovery truncates the log to.
    """
    view = memoryview(data)
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, checksum = _HEADER.unpack_from(view, offset)
        end = offset + _HEADER.size + length
        if end > total:
            return  # torn tail: the final append never completed
        body = bytes(view[offset + _HEADER.size:end])
        if zlib.crc32(body) != checksum:
            return  # corrupt frame (torn overwrite) — discard from here
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        yield payload, end
        offset = end


class WriteAheadLog:
    """An append-only record log on one file with a configurable fsync
    policy (see the module docstring)."""

    def __init__(self, path: str, fsync: str = "interval",
                 flush_interval_ms: float = 5.0):
        if fsync not in FSYNC_POLICIES:
            raise ServiceError(
                f"unknown fsync policy {fsync!r} — expected one of "
                f"{', '.join(FSYNC_POLICIES)}")
        self.path = path
        self.fsync_policy = fsync
        self.flush_interval = max(flush_interval_ms, 0.0) / 1000.0
        self._lock = threading.RLock()
        self._file: Optional[io.BufferedWriter] = None
        # group commit (``interval``): appends mark the log dirty and wake
        # the flusher, which owns the fsync
        self._wake = threading.Condition(self._lock)
        self._dirty = False
        self._flusher: Optional[threading.Thread] = None
        self._flusher_error: Optional[OSError] = None
        #: called with the seconds each fsync barrier took, on whichever
        #: thread ran it (the adapter's telemetry hook)
        self.on_fsync: Optional[Callable[[float], None]] = None
        #: counters the adapter folds into its telemetry
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, payload: dict[str, Any]) -> tuple[int, float]:
        """Append one record; returns ``(bytes_written, fsync_seconds)``.

        The record is written and flushed to the OS unconditionally;
        whether an fsync follows inline (``always``), in the background
        within one window (``interval``) or not at all is the policy's
        call.  ``fsync_seconds`` is 0.0 when no barrier ran inline.
        """
        frame = encode_record(payload)
        with self._lock:
            if self._flusher_error is not None:
                raise ServiceError(
                    f"write-ahead log {self.path!r}: background fsync "
                    f"failed: {self._flusher_error}") from self._flusher_error
            handle = self._handle()
            handle.write(frame)
            handle.flush()
            self.records_appended += 1
            self.bytes_appended += len(frame)
            fsync_seconds = 0.0
            if self.fsync_policy == "always":
                fsync_seconds = self._fsync(handle)
            elif self.fsync_policy == "interval" and not self._dirty:
                self._dirty = True
                if self._flusher is None:
                    self._flusher = threading.Thread(
                        target=self._flush_loop, name="repro-wal-flusher",
                        daemon=True)
                    self._flusher.start()
                self._wake.notify()
        return len(frame), fsync_seconds

    def flush(self, fsync: bool = True) -> float:
        """Force buffered data out; returns fsync seconds (0.0 if none)."""
        with self._lock:
            if self._file is None:
                return 0.0
            self._file.flush()
            return self._fsync(self._file) if fsync else 0.0

    def _fsync(self, handle) -> float:
        """Barrier on the committing thread (lock held)."""
        self._dirty = False
        started = time.perf_counter()
        os.fsync(handle.fileno())
        return self._count_fsync(time.perf_counter() - started)

    def _count_fsync(self, seconds: float) -> float:
        with self._lock:
            self.fsyncs += 1
        if self.on_fsync is not None:
            self.on_fsync(seconds)
        return seconds

    def _flush_loop(self) -> None:
        """The group-commit flusher: one fsync per window while dirty.

        The barrier runs on a duplicate of the log's descriptor with the
        lock released (``os.fsync`` also releases the GIL), so appends
        never wait for the disk and :meth:`truncate` / :meth:`close` may
        close the log's own handle at any moment.  An ``OSError`` ends the
        thread and is raised by the next :meth:`append`: a log that cannot
        be made durable must not keep acknowledging commits.
        """
        me = threading.current_thread()
        try:
            while self._flusher is me:
                descriptor = self._await_window(me)
                if descriptor is None:
                    continue
                try:
                    started = time.perf_counter()
                    os.fsync(descriptor)
                    seconds = time.perf_counter() - started
                finally:
                    os.close(descriptor)
                self._count_fsync(seconds)
        except OSError as exc:
            with self._lock:
                self._flusher_error = exc
                if self._flusher is me:
                    self._flusher = None

    def _await_window(self, me: threading.Thread) -> Optional[int]:
        """Sleep until the log is dirty and one window has passed; returns a
        duplicate descriptor to fsync, or None when there is nothing to do
        (this thread was retired by :meth:`close`, or an inline barrier or
        a truncate got there first)."""
        with self._lock:
            while self._flusher is me and not self._dirty:
                self._wake.wait()
            if self._flusher is me:
                # the window: commits landing meanwhile share the barrier
                self._wake.wait(self.flush_interval)
            if self._flusher is not me or not self._dirty \
                    or self._file is None:
                return None
            self._dirty = False
            return os.dup(self._file.fileno())

    def _handle(self) -> io.BufferedWriter:
        if self._file is None:
            self._file = open(self.path, "ab")
        return self._file

    # ------------------------------------------------------------------
    # reading and maintenance
    # ------------------------------------------------------------------
    def read_all(self) -> tuple[list[dict[str, Any]], int, int]:
        """Every intact record plus ``(valid_length, file_length)``.

        ``valid_length < file_length`` signals a torn tail the caller
        should truncate away before appending resumes.
        """
        with self._lock:
            self.flush(fsync=False)
            try:
                with open(self.path, "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                return [], 0, 0
        records: list[dict[str, Any]] = []
        valid = 0
        for payload, end in read_records(data):
            records.append(payload)
            valid = end
        return records, valid, len(data)

    def truncate(self, length: int = 0) -> None:
        """Cut the log to *length* bytes (0 = empty, after a checkpoint)."""
        with self._lock:
            self._close_handle()
            with open(self.path, "ab") as handle:
                handle.truncate(length)
                handle.flush()
                os.fsync(handle.fileno())
            self._dirty = False

    def size(self) -> int:
        """Current on-disk length in bytes (buffered data flushed first)."""
        with self._lock:
            self.flush(fsync=False)
            try:
                return os.path.getsize(self.path)
            except FileNotFoundError:
                return 0

    def close(self) -> None:
        """Flush, fsync, release the file handle and end the flusher
        thread (idempotent; a later append starts over)."""
        with self._lock:
            if self._file is not None:
                self.flush(fsync=True)
            self._close_handle()
            flusher, self._flusher = self._flusher, None
            self._wake.notify_all()
        if flusher is not None:
            flusher.join()

    def _close_handle(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            finally:
                self._file = None
