"""Storage adapters: the pluggable durability seam of the database.

A :class:`~repro.datamodel.database.Database` owns at most one adapter
(attached via ``Database.attach_storage``, normally by
``connect(durability=...)``).  The database calls exactly three hooks:

* ``log_commit(ts, ops)`` — once per *published* commit scope with the
  scope's logical operations (creates/updates/deletes), so an autocommit
  statement, an ``executemany`` batch, a deferred-buffer flush and a
  transaction COMMIT each cost **one** WAL record and at most one fsync;
* ``log_ddl(op)`` — once per DDL/ANALYZE statement (class creation,
  index create/drop, statistics refresh), which run outside commit
  scopes;
* ``flush()`` — on clean connection/database close, so buffered
  group-commit writes never outlive the process unacknowledged.

:class:`MemoryAdapter` is the explicit spelling of the default: nothing
persists, every hook is a no-op.  :class:`FileStorageAdapter` keeps a
directory with a write-ahead log (``wal.log``) and the latest checkpoint
(``checkpoint.json``, atomically replaced); opening a database on a
directory that holds state runs recovery — load the checkpoint, replay
the WAL tail in fresh commit scopes, truncate a torn final record.

Crash-consistency argument, in one place: the checkpoint is written to a
temp file, fsynced, then atomically renamed; the WAL truncates only
*after* the rename.  A crash before the rename leaves the old
checkpoint + the full WAL (consistent); a crash after it leaves the new
checkpoint + a WAL whose records are all at or below the checkpoint's
``commit_ts`` — replay skips commit records with ``ts <=`` the restored
clock and DDL records that are already applied, so double-apply is
impossible.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from typing import Any, Optional

from repro.datamodel.oid import OID
from repro.errors import ServiceError
from repro.storage.checkpoint import checkpoint_chunks, restore_checkpoint
from repro.storage.encoding import decode_type, decode_values, encode_values
from repro.storage.wal import WriteAheadLog

__all__ = ["StorageAdapter", "MemoryAdapter", "FileStorageAdapter"]

#: commits between automatic checkpoints (0 disables auto-checkpointing)
DEFAULT_CHECKPOINT_INTERVAL = 1000


class StorageAdapter:
    """Interface every storage backend implements (no-op base).

    The base class *is* the contract: subclasses override what they
    persist.  ``durable`` tells the database whether to record logical
    ops at all; ``active`` is False while recovery replays the log, so
    replayed mutations never re-log themselves.
    """

    #: whether commits must be recorded (False short-circuits op capture)
    durable = False

    def __init__(self) -> None:
        #: True while recovery replays the checkpoint/WAL into the database
        self.recovering = False
        self._database = None

    @property
    def active(self) -> bool:
        """True when mutations should be captured into the log."""
        return self.durable and not self.recovering

    # -- lifecycle ------------------------------------------------------
    def attach(self, database) -> None:
        """Bind to *database* and run recovery if there is state on disk."""
        self._database = database

    def close(self) -> None:
        """Flush and release every resource (idempotent)."""

    # -- the three database-facing hooks --------------------------------
    def log_commit(self, ts: int, ops: list[tuple]) -> None:
        """Record one published commit scope (its logical operations)."""

    def log_ddl(self, op: tuple) -> None:
        """Record one DDL/ANALYZE statement (applied outside scopes)."""

    def flush(self) -> None:
        """Force buffered log writes to stable storage."""

    # -- maintenance ----------------------------------------------------
    def checkpoint(self) -> Optional[int]:
        """Snapshot the database and truncate the log; returns the
        checkpointed commit timestamp (None when not applicable)."""
        return None

    # -- telemetry ------------------------------------------------------
    def bind_telemetry(self, registry=None, slow_log=None,
                       tracer=None) -> None:
        """Wire metrics/slow-log/tracing sinks (service construction)."""

    def counters(self) -> dict[str, int]:
        """Lifetime counters (always available, registry or not)."""
        return {}


class MemoryAdapter(StorageAdapter):
    """Today's behavior, spelled out: everything lives in RAM only."""

    durable = False


class FileStorageAdapter(StorageAdapter):
    """File-backed durability: WAL + checkpoints in one directory."""

    durable = True

    def __init__(self, path: str, fsync: str = "interval",
                 flush_interval_ms: float = 5.0,
                 checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL):
        super().__init__()
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.wal = WriteAheadLog(os.path.join(path, "wal.log"),
                                 fsync=fsync,
                                 flush_interval_ms=flush_interval_ms)
        # every barrier reports here, from the committing thread (policy
        # ``always``, explicit flushes) or the WAL's group-commit flusher
        self.wal.on_fsync = self._observe_fsync
        self.checkpoint_path = os.path.join(path, "checkpoint.json")
        #: commits between automatic checkpoints (0/None disables)
        self.checkpoint_interval = checkpoint_interval
        self._commits_since_checkpoint = 0
        self._lock = threading.RLock()
        self._base_classes: set[str] = set()
        self._closed = False
        # telemetry: plain counters always; registry instruments when bound
        self._counters = {"wal_records": 0, "wal_bytes": 0, "wal_fsyncs": 0,
                          "checkpoints_completed": 0,
                          "recovery_replayed_records": 0,
                          "recovery_discarded_bytes": 0}
        self._counters_lock = threading.Lock()  # the flusher counts too
        self._registry = None
        self._slow_log = None
        self._tracer = None
        self._instruments: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, database) -> None:
        """Bind to *database*, remember its static classes, and recover."""
        self._database = database
        self._base_classes = set(database.schema.classes)
        self.recover()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.wal.close()

    # ------------------------------------------------------------------
    # logging hooks
    # ------------------------------------------------------------------
    def log_commit(self, ts: int, ops: list[tuple]) -> None:
        encoded_ops = []
        for op in ops:
            tag = op[0]
            if tag in ("create", "update"):
                encoded_ops.append([tag, op[1], op[2], encode_values(op[3])])
            else:  # delete
                encoded_ops.append([tag, op[1], op[2]])
        self._append({"kind": "commit", "ts": ts, "ops": encoded_ops})
        self._commits_since_checkpoint += 1
        if (self.checkpoint_interval
                and self._commits_since_checkpoint >= self.checkpoint_interval):
            self.checkpoint()

    def log_ddl(self, op: tuple) -> None:
        self._append({"kind": op[0], "args": list(op[1:])})

    def flush(self) -> None:
        """Flush + fsync pending appends (clean-close durability)."""
        with self._lock:
            if not self._closed:
                self.wal.flush(fsync=True)

    def _append(self, payload: dict[str, Any]) -> None:
        with self._lock:
            if self._closed:
                raise ServiceError(
                    "storage adapter is closed — cannot append to the WAL")
            started = time.perf_counter()
            nbytes, _ = self.wal.append(payload)
            append_seconds = time.perf_counter() - started
        self._inc("wal_records", 1)
        self._inc("wal_bytes", nbytes)
        histogram = self._instruments.get("append")
        if histogram is not None:
            histogram.observe(append_seconds)

    def _observe_fsync(self, fsync_seconds: float) -> None:
        self._inc("wal_fsyncs", 1)
        histogram = self._instruments.get("fsync")
        if histogram is not None:
            histogram.observe(fsync_seconds)
        if self._slow_log is not None \
                and self._slow_log.would_log(fsync_seconds):
            self._slow_log.record(text="<wal fsync stall>",
                                  seconds=fsync_seconds)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> Optional[int]:
        """Snapshot the attached database and truncate the WAL.

        Runs on the committing thread (auto-trigger) or under the
        service's write gate (explicit ``Connection.checkpoint()``), so
        no commit scope is in flight; MVCC readers keep running.  The
        snapshot timestamp stays pin-registered for the duration, and on
        success the version chains are pruned up to the new watermark.
        """
        database = self._database
        if database is None or self.recovering:
            return None
        with self._lock:
            if self._closed:
                return None
            span = (self._tracer.span("checkpoint")
                    if self._tracer is not None else contextlib.nullcontext())
            with span:
                ts = database.clock.published
                with database.snapshot_scope(ts):
                    tmp_path = self.checkpoint_path + ".tmp"
                    with open(tmp_path, "wb") as handle:
                        for chunk in checkpoint_chunks(database,
                                                       self._base_classes):
                            handle.write(chunk.encode("utf-8"))
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(tmp_path, self.checkpoint_path)
                    self._fsync_directory()
                    self.wal.truncate(0)
            self._commits_since_checkpoint = 0
        self._inc("checkpoints_completed", 1)
        database.prune_versions()
        return ts

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Load the latest checkpoint and replay the WAL tail.

        Returns the number of replayed records.  A torn final record
        (crash mid-append) is truncated away so appends resume cleanly.
        """
        database = self._database
        if database is None:
            raise ServiceError("recover() needs an attached database")
        self.recovering = True
        try:
            state = self._load_checkpoint()
            if state is not None:
                restore_checkpoint(database, state)
            records, valid, total = self.wal.read_all()
            if valid < total:
                self.wal.truncate(valid)
                self._inc("recovery_discarded_bytes", total - valid)
            replayed = 0
            for record in records:
                if self._replay(database, record):
                    replayed += 1
            self._inc("recovery_replayed_records", replayed)
            return replayed
        finally:
            self.recovering = False

    def _load_checkpoint(self) -> Optional[dict[str, Any]]:
        try:
            with open(self.checkpoint_path, "rb") as handle:
                return json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            return None
        except (ValueError, UnicodeDecodeError) as exc:
            # A half-written checkpoint cannot exist (temp file + atomic
            # rename), so a parse failure is real corruption, not a crash
            # artifact — refuse to guess.
            raise ServiceError(
                f"corrupt checkpoint {self.checkpoint_path!r}: {exc}"
            ) from exc

    def _replay(self, database, record: dict[str, Any]) -> bool:
        kind = record["kind"]
        if kind == "commit":
            ts = record["ts"]
            if ts <= database.clock.published:
                return False  # already captured by the checkpoint
            with database.commit_scope():
                for op in record["ops"]:
                    self._replay_op(database, op)
            # Replay allocates dense timestamps from the restored clock;
            # pin the clock to the record's original stamp so subsequent
            # records (and the final published state) line up exactly.
            database.clock.restore(ts)
            return True
        if kind == "create_class":
            name, superclass, props = record["args"]
            if database.schema.has_class(name):
                return False
            property_defs = []
            from repro.datamodel.schema import PropertyDef
            for prop_name, spec, target in props:
                vml_type, _ = decode_type(spec)
                property_defs.append(
                    PropertyDef(prop_name, vml_type, target_class=target))
            database.create_class(name, superclass, property_defs)
            return True
        if kind == "create_index":
            index_kind, class_name, prop = record["args"]
            if index_kind == "text":
                if database.text_index(class_name, prop) is None:
                    database.create_text_index(class_name, prop)
                    return True
                return False
            if database.indexes.get(class_name, prop) is None:
                if index_kind == "hash":
                    database.create_hash_index(class_name, prop)
                else:
                    database.create_sorted_index(class_name, prop)
                return True
            return False
        if kind == "drop_index":
            class_name, prop, text = record["args"]
            if text:
                if database.text_index(class_name, prop) is not None:
                    database.drop_text_index(class_name, prop)
                    return True
            elif database.indexes.get(class_name, prop) is not None:
                database.drop_index(class_name, prop)
                return True
            return False
        if kind == "analyze":
            class_name, = record["args"]
            if class_name is None or database.schema.has_class(class_name):
                database.analyze(class_name)
                return True
            return False
        raise ServiceError(f"unknown WAL record kind {kind!r}")

    def _replay_op(self, database, op: list[Any]) -> None:
        tag = op[0]
        if tag == "create":
            _, class_name, serial, values = op
            oid = database.create(class_name, **decode_values(values))
            if oid.serial != serial:
                raise ServiceError(
                    f"WAL replay drift: created {oid}, expected serial "
                    f"{serial} — log and checkpoint disagree")
        elif tag == "update":
            _, class_name, serial, values = op
            database.update(OID(class_name, serial),
                            **decode_values(values))
        elif tag == "delete":
            _, class_name, serial = op
            database.delete(OID(class_name, serial))
        else:
            raise ServiceError(f"unknown WAL op {tag!r}")

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def bind_telemetry(self, registry=None, slow_log=None,
                       tracer=None) -> None:
        """Wire service telemetry into the adapter.

        Registry counters are seeded with the adapter's lifetime totals
        at bind time (recovery runs before any service exists, so its
        counts would otherwise never surface in ``Connection.metrics()``).
        """
        if slow_log is not None:
            self._slow_log = slow_log
        if tracer is not None:
            self._tracer = tracer
        if registry is None or registry is self._registry:
            return
        self._registry = registry
        self._instruments = {
            "append": registry.histogram(
                "repro_wal_append_seconds", "WAL record append latency"),
            "fsync": registry.histogram(
                "repro_wal_fsync_seconds", "WAL fsync latency"),
        }
        for name, help_text in (
                ("wal_records", "WAL records appended"),
                ("wal_bytes", "WAL bytes appended"),
                ("wal_fsyncs", "WAL fsync barriers"),
                ("checkpoints_completed", "checkpoints written"),
                ("recovery_replayed_records", "WAL records replayed"),
                ("recovery_discarded_bytes", "torn WAL bytes discarded")):
            counter = registry.counter(f"repro_{name}", help_text)
            if self._counters[name]:
                counter.inc(self._counters[name])
            self._instruments[name] = counter

    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    def _inc(self, name: str, amount: int) -> None:
        if not amount:
            return
        with self._counters_lock:
            self._counters[name] += amount
        counter = self._instruments.get(name)
        if counter is not None:
            counter.inc(amount)
