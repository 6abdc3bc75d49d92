"""PEP-249-flavored facade over the query stack.

:func:`connect` opens a :class:`Connection` on a database; cursors execute
any statement of the unified language — queries, ``INSERT``/``UPDATE``/
``DELETE`` and index/class DDL — against one shared
:class:`~repro.service.service.QueryService`, so every query (and every
mutation's WHERE clause) is planned once per shape and served from the
plan cache.

Deviations from a literal PEP 249 (the substrate is an embedded in-memory
OODB, not a client/server SQL engine):

* rows produced by a cursor are the query's *output values* (the ACCESS
  expression per result row) rather than 1-tuples; since ``None`` is then
  a possible row value, ``Cursor.exhausted`` (or plain iteration) is the
  unambiguous end-of-results signal, not ``fetchone() is None``;
* transactions come in two strengths.  ``BEGIN``/``COMMIT``/``ROLLBACK``
  (or :meth:`Connection.begin`) open a **real transaction**: every
  statement inside reads the snapshot pinned at ``BEGIN``, mutations are
  buffered as a write set, and ``COMMIT`` validates first-writer-wins
  (losing raises :class:`~repro.errors.TransactionConflictError`) before
  applying everything atomically at one commit timestamp.  One deliberate
  deviation from read-your-writes SQL: because writes defer to commit, a
  transaction does not observe its own buffered mutations.
  ``autocommit=False`` is the lighter legacy mode: DML is buffered and
  ``commit()`` applies the whole batch atomically in one pass, collapsing
  runs of the same INSERT shape into bulk
  :meth:`~repro.datamodel.database.Database.create_many` loads
  (``rollback()`` discards the buffer) — but statements in between read
  the latest published state, not a ``BEGIN`` snapshot;
* reads are snapshot-isolated: every statement (and every open cursor
  stream, for its whole lifetime) executes against a consistent MVCC
  snapshot and is never blocked by — or exposed to — concurrent writers;
* cursors stream: ``fetchone``/``fetchmany``/``fetchall``/iteration pull
  rows lazily from the prepared plan's generator tree instead of a
  materialized row list.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from collections import deque
from typing import Any, Iterable, Optional, Sequence

from repro.api.router import StatementResult
from repro.api.transaction import Transaction, TransactionOp
from repro.errors import ServiceError, TransactionError
from repro.datamodel.database import Database
from repro.optimizer.knowledge import SchemaKnowledge
from repro.optimizer.search import OptimizerOptions
from repro.service.service import QueryService, RowStream
from repro.storage import FileStorageAdapter
from repro.telemetry.spans import Tracer
from repro.vql.analyzer import AnalyzedStatement
from repro.vql.bindings import ParameterValues

__all__ = ["connect", "Connection", "Cursor"]

#: durability spellings accepted by connect() / REPRO_DURABILITY
_MEMORY_MODES = ("", "memory", "none", "off")
_DURABLE_MODES = ("wal", "file")


def connect(database: Database,
            knowledge: Optional[SchemaKnowledge] = None,
            options: Optional[OptimizerOptions] = None,
            exclude_tags: Sequence[str] = (),
            parallelism: int = 1,
            autocommit: bool = True,
            service: Optional[QueryService] = None,
            tracing: Optional[bool] = None,
            slow_query_ms: Optional[float] = None,
            durability: Optional[str] = None,
            storage_path: Optional[str] = None,
            wal_fsync: Optional[str] = None,
            checkpoint_interval: Optional[int] = None) -> "Connection":
    """Open a statement-API connection on *database*.

    ``knowledge``/``options``/``exclude_tags`` configure the underlying
    :class:`QueryService` (ignored when an existing *service* is
    supplied); ``autocommit=False`` buffers DML until
    :meth:`Connection.commit`.  ``tracing`` enables statement span trees
    (``None`` consults ``REPRO_TRACE``) and ``slow_query_ms`` overrides the
    ``REPRO_SLOW_QUERY_MS`` slow-query-log threshold — see
    :mod:`repro.telemetry`.

    ``durability`` selects the storage adapter (see :mod:`repro.storage`):
    ``"memory"`` (the default) keeps everything in RAM, ``"wal"`` attaches
    a :class:`~repro.storage.FileStorageAdapter` under *storage_path* (a
    fresh temp directory when omitted) — if that directory already holds a
    checkpoint or write-ahead log, **recovery runs here**, before the
    first statement.  ``None`` consults ``REPRO_DURABILITY``.
    ``wal_fsync`` picks the fsync policy (``always``/``interval``/
    ``never``; default ``interval`` = group commit, env
    ``REPRO_WAL_FSYNC``) and ``checkpoint_interval`` the number of
    commits between automatic checkpoints (0 disables; env
    ``REPRO_CHECKPOINT_INTERVAL``).  A database keeps at most one durable
    adapter: later connects reuse it and the knobs of the first attach
    win.

    ``parallelism`` accepts only ``1``, and any other value raises
    :class:`ValueError`: plans are sequential.  The keyword stays only
    because the benchmark under ``perf/`` passes ``parallelism=1``; it
    goes with the next change to that benchmark.
    """
    if parallelism != 1:
        raise ValueError(
            f"parallelism must be 1 (plans are sequential), got "
            f"{parallelism!r}")
    _ensure_storage(database, durability, storage_path, wal_fsync,
                    checkpoint_interval)
    if service is None:
        service = QueryService(database, knowledge=knowledge, options=options,
                               exclude_tags=exclude_tags,
                               tracing=tracing, slow_query_ms=slow_query_ms)
    elif database.storage is not None:
        # a pre-built service predates the adapter: wire telemetry now
        database.storage.bind_telemetry(registry=service.registry,
                                        slow_log=service.slow_log,
                                        tracer=service.tracer)
    return Connection(service, autocommit=autocommit)


def _ensure_storage(database: Database, durability: Optional[str],
                    storage_path: Optional[str], wal_fsync: Optional[str],
                    checkpoint_interval: Optional[int]) -> None:
    """Attach (once) the storage adapter the durability mode asks for."""
    if durability is None:
        durability = os.environ.get("REPRO_DURABILITY", "")
    durability = durability.strip().lower()
    if durability in _MEMORY_MODES:
        return
    if durability not in _DURABLE_MODES:
        raise ServiceError(
            f"unknown durability mode {durability!r} — expected one of "
            f"memory, {', '.join(_DURABLE_MODES)}")
    if database.storage is not None and database.storage.durable:
        return  # one WAL per database; the first attach's knobs win
    if storage_path is None:
        base = os.environ.get("REPRO_STORAGE_DIR", "").strip() or None
        if base is not None:
            os.makedirs(base, exist_ok=True)
        storage_path = tempfile.mkdtemp(prefix="repro-wal-", dir=base)
    if wal_fsync is None:
        wal_fsync = os.environ.get("REPRO_WAL_FSYNC", "").strip().lower() \
            or "interval"
    if checkpoint_interval is None:
        raw = os.environ.get("REPRO_CHECKPOINT_INTERVAL", "").strip()
        checkpoint_interval = int(raw) if raw else None
    adapter = (FileStorageAdapter(storage_path, fsync=wal_fsync)
               if checkpoint_interval is None else
               FileStorageAdapter(storage_path, fsync=wal_fsync,
                                  checkpoint_interval=checkpoint_interval))
    database.attach_storage(adapter)


class Connection:
    """A connection: one query service plus cursor and batching state."""

    def __init__(self, service: QueryService, autocommit: bool = True):
        self.service = service
        self.database = service.database
        self.router = service.router
        self.autocommit = autocommit
        self._pending: deque[tuple[AnalyzedStatement, list[ParameterValues]]] = (
            deque())
        self._txn: Optional[Transaction] = None
        self._closed = False

    # ------------------------------------------------------------------
    # cursors & convenience execution (sqlite3-style)
    # ------------------------------------------------------------------
    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def execute(self, operation: str,
                parameters: ParameterValues = None) -> "Cursor":
        """Shorthand: ``connection.cursor().execute(...)``."""
        return self.cursor().execute(operation, parameters)

    def executemany(self, operation: str,
                    parameter_sets: Iterable[ParameterValues]) -> "Cursor":
        """Shorthand: ``connection.cursor().executemany(...)``."""
        return self.cursor().executemany(operation, parameter_sets)

    def explain(self, operation: str, *, optimize: bool = True,
                analyze: bool = False,
                parameters: ParameterValues = None) -> str:
        """Describe how *operation* would be evaluated (for UPDATE/DELETE:
        the optimizer's plan for the WHERE clause).

        ``analyze=True`` — equivalent to executing ``EXPLAIN ANALYZE
        <operation>`` — additionally runs the plan under per-operator
        instrumentation and reports estimated vs actual cardinalities;
        *parameters* binds any placeholders for that run.
        """
        self._check_open()
        return self.router.explain(operation, optimize=optimize,
                                   analyze=analyze, parameters=parameters)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Tracer:
        """The service's statement tracer (ring buffer of recent spans)."""
        return self.service.tracer

    def metrics(self, fmt: str = "json"):
        """Export the service's metrics registry.

        ``fmt="json"`` returns a dict (counters, gauges, latency
        histograms with p50/p90/p99, per-fingerprint top statements);
        ``fmt="prometheus"`` returns Prometheus text exposition format.
        """
        self._check_open()
        return self.service.registry.export(fmt)

    # ------------------------------------------------------------------
    # transactions (BEGIN/COMMIT/ROLLBACK) and the legacy batch flush
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open an explicit transaction (``BEGIN``).

        Every statement until :meth:`commit`/:meth:`rollback` reads the
        snapshot pinned here; mutations buffer into the transaction's
        write set and apply atomically at commit after first-writer-wins
        validation.
        """
        self._check_open()
        if self._txn is not None:
            raise TransactionError("a transaction is already open")
        if self._pending:
            raise TransactionError(
                "cannot BEGIN while the autocommit=False buffer holds "
                "deferred mutations — commit() or rollback() them first")
        self._txn = self.service.begin_transaction()

    def commit(self) -> int:
        """Commit; returns the affected row count.

        With an open ``BEGIN`` transaction this validates the write set
        first-writer-wins and applies every buffered operation atomically
        — on :class:`~repro.errors.TransactionConflictError` the
        transaction is rolled back (nothing had applied) and the error
        propagates.  Without one, this flushes the ``autocommit=False``
        buffer: the whole batch applies under one commit scope, so a
        mid-flush failure undoes everything and leaves the buffer intact
        (fix the bindings and ``commit()`` again, or ``rollback()``).
        With ``autocommit=True`` and no transaction it is a no-op.
        """
        self._check_open()
        if self._txn is not None:
            txn, self._txn = self._txn, None
            return self.service.commit_transaction(txn)
        if not self._pending:
            return 0
        total = self.router.apply_batch(list(self._pending))
        self._pending.clear()
        return total

    def rollback(self) -> int:
        """Discard the open transaction or the deferred buffer; returns
        the number of discarded mutation statements."""
        self._check_open()
        if self._txn is not None:
            txn, self._txn = self._txn, None
            discarded = txn.mutation_count
            self.service.rollback_transaction(txn)
            return discarded
        discarded = sum(len(sets) for _, sets in self._pending)
        self._pending.clear()
        return discarded

    @property
    def in_transaction(self) -> bool:
        """True inside an explicit transaction, or while mutations are
        buffered awaiting :meth:`commit`."""
        return self._txn is not None or bool(self._pending)

    @property
    def transaction(self) -> Optional[Transaction]:
        """The open explicit transaction, if any."""
        return self._txn

    def _defer(self, analyzed: AnalyzedStatement,
               parameter_sets: list[ParameterValues]) -> None:
        if not parameter_sets:
            return  # an empty executemany batch is a no-op, don't buffer it
        if self._pending and self._pending[-1][0] is analyzed \
                and analyzed.kind == "insert":
            self._pending[-1][1].extend(parameter_sets)
        else:
            self._pending.append((analyzed, parameter_sets))

    def _transaction_execute(self, analyzed: AnalyzedStatement,
                             parameter_sets: list[ParameterValues]) -> int:
        """Buffer a mutation into the open transaction; returns the row
        count the statement reports (targets as of the begin snapshot)."""
        txn = self._txn
        if analyzed.kind == "insert":
            last = txn.operations[-1] if txn.operations else None
            if (last is not None and last.kind == "insert"
                    and last.analyzed is analyzed):
                last.parameter_sets.extend(parameter_sets)
            else:
                txn.operations.append(TransactionOp(
                    kind="insert", analyzed=analyzed,
                    parameter_sets=list(parameter_sets)))
            return len(parameter_sets)
        total = 0
        for parameters in parameter_sets:
            bindings, targets = self.service.transaction_targets(
                analyzed, parameters, at=txn.start_ts)
            txn.operations.append(TransactionOp(
                kind=analyzed.kind, analyzed=analyzed,
                bindings=bindings, targets=targets))
            txn.record_write(targets)
            total += len(targets)
        return total

    # ------------------------------------------------------------------
    # index DDL convenience (shared datamodel.ddl helper, service-gated)
    # ------------------------------------------------------------------
    def create_index(self, class_name: str, prop: str, kind: str = "hash"):
        """Create a ``hash``/``sorted``/``text`` index (write-gated)."""
        self._check_open()
        return self.service.create_index(class_name, prop, kind=kind)

    def drop_index(self, class_name: str, prop: str,
                   text: bool = False) -> None:
        """Drop the (text) index on ``class_name.prop`` (write-gated)."""
        self._check_open()
        self.service.drop_index(class_name, prop, text=text)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> Optional[int]:
        """Force a storage checkpoint (write-gated); returns the commit
        timestamp the snapshot covers, or None without a durable adapter.

        Snapshots the full database state, truncates the write-ahead log
        and prunes version chains up to the new watermark — see
        :mod:`repro.storage`.
        """
        self._check_open()
        return self.service.checkpoint()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection (idempotent).

        An open transaction is rolled back and deferred mutations are
        discarded; either case emits a :class:`ResourceWarning` naming the
        discarded count, because silently dropping buffered writes on
        close is almost always a bug — ``commit()`` or ``rollback()``
        explicitly first.  With a durable storage adapter attached, any
        buffered WAL writes are flushed to stable storage *after* the
        rollback/discard, so a clean close never loses an acknowledged
        commit (and never persists an abandoned buffer).
        """
        if self._closed:
            return
        discarded = sum(len(sets) for _, sets in self._pending)
        if self._txn is not None:
            txn, self._txn = self._txn, None
            discarded += txn.mutation_count
            self.service.rollback_transaction(txn)
        self._pending.clear()
        self._closed = True
        storage = self.database.storage
        if storage is not None:
            storage.flush()
        if discarded:
            warnings.warn(
                f"Connection.close() discarded {discarded} uncommitted "
                "mutation(s) — call commit() or rollback() before closing",
                ResourceWarning, stacklevel=2)

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("connection is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Mirror the transactional contract: a body that raised must not
        # half-commit its work on the way out — roll back instead.  The
        # rollback runs *before* close() flushes the WAL, so what reaches
        # stable storage is exactly the committed state.
        try:
            if not self._closed:
                if exc_type is None:
                    self.commit()
                else:
                    self.rollback()
        finally:
            self.close()

    def __str__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Connection({self.database}, {state})"


class Cursor:
    """A streaming cursor (PEP-249 shape) over one connection.

    Query results are pulled lazily from the service's
    :class:`~repro.service.service.RowStream` — ``fetchone`` advances the
    prepared plan's generator tree by one row.  ``description`` carries the
    single output column (the query's output reference); ``rowcount`` is
    the affected-row count for DML and -1 for queries (streaming results
    have no known cardinality up front, as PEP 249 permits).
    """

    #: default ``fetchmany`` size
    arraysize = 64

    def __init__(self, connection: Connection):
        self.connection = connection
        self.arraysize = type(self).arraysize
        self.description: Optional[tuple] = None
        self.rowcount: int = -1
        self.lastoid = None
        #: the textual report of the last ANALYZE / EXPLAIN statement this
        #: cursor executed (None for queries and plain DML/DDL)
        self.statement_report: Optional[str] = None
        self._stream: Optional[RowStream] = None
        self._closed = False

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, operation: str,
                parameters: ParameterValues = None) -> "Cursor":
        """Execute one statement; returns the cursor (chainable).

        ``QueryService.run_statement`` accounts it as ``execute()`` would;
        a query leaves an open row stream on the cursor (at the open
        transaction's snapshot), anything else runs through :meth:`_route`.
        """
        self._check_open()
        self._reset()
        txn = self.connection.transaction
        outcome = self.connection.service.run_statement(
            operation, parameters, stream=True,
            at=txn.start_ts if txn is not None else None,
            route=self._route, api="cursor")
        if isinstance(outcome, RowStream):
            self._stream = outcome
            self.description = ((outcome.output_ref,
                                 None, None, None, None, None, None),)
        return self

    def _route(self, analyzed: AnalyzedStatement,
               parameters: ParameterValues) -> Optional[StatementResult]:
        """Run one non-query statement: transaction words, buffering into
        the open transaction or the ``autocommit=False`` batch (these
        return None), else the router (its result is returned)."""
        connection = self.connection
        if analyzed.is_transaction_control:
            self._transaction_control(analyzed.kind)
            return None
        if connection.transaction is not None and analyzed.kind != "explain":
            self._transaction_mutation(analyzed, [parameters])
            return None
        if analyzed.is_mutation and not connection.autocommit:
            connection._defer(analyzed, [parameters])
            return None
        result = connection.router.execute(analyzed, parameters)
        self._finish(result)
        return result

    def _transaction_control(self, kind: str) -> None:
        """Apply a ``BEGIN``/``COMMIT``/``ROLLBACK`` statement word."""
        connection = self.connection
        if kind == "begin":
            connection.begin()
            self.rowcount = 0
        elif kind == "commit":
            if connection.transaction is None and not connection._pending:
                raise TransactionError("COMMIT without an open transaction")
            self.rowcount = connection.commit()
        else:
            if connection.transaction is None and not connection._pending:
                raise TransactionError("ROLLBACK without an open transaction")
            self.rowcount = connection.rollback()

    def _transaction_mutation(self, analyzed: AnalyzedStatement,
                              parameter_sets: list[ParameterValues]) -> None:
        """Route a statement executed inside an open transaction."""
        connection = self.connection
        if analyzed.is_mutation:
            self.rowcount = connection._transaction_execute(analyzed,
                                                            parameter_sets)
            return
        # DDL (and ANALYZE, which mutates shared statistics) is not
        # transactional: it applies immediately and cannot be rolled back,
        # so allowing it inside BEGIN would silently break atomicity.
        raise TransactionError(
            f"{analyzed.kind.upper()} cannot run inside a transaction — "
            "COMMIT or ROLLBACK first")

    def executemany(self, operation: str,
                    parameter_sets: Iterable[ParameterValues]) -> "Cursor":
        """Execute a DML statement once per parameter set (bulk INSERT
        collapses into one ``create_many`` maintenance pass)."""
        self._check_open()
        self._reset()
        connection = self.connection
        analyzed = connection.router.analyze(operation)
        if not analyzed.is_mutation:
            raise ServiceError(
                f"executemany supports INSERT/UPDATE/DELETE, not "
                f"{analyzed.kind.upper()} statements")
        sets = list(parameter_sets)
        if connection.transaction is not None:
            self._transaction_mutation(analyzed, sets)
            return self
        if not connection.autocommit:
            connection._defer(analyzed, sets)
            return self
        self._finish(connection.router.executemany(analyzed, sets))
        return self

    def explain(self, operation: str, *, optimize: bool = True,
                analyze: bool = False,
                parameters: ParameterValues = None) -> str:
        """Describe (and with ``analyze=True`` profile) *operation* — see
        :meth:`Connection.explain`."""
        self._check_open()
        return self.connection.explain(operation, optimize=optimize,
                                       analyze=analyze, parameters=parameters)

    def _finish(self, result: StatementResult) -> None:
        self.rowcount = result.rowcount
        self.lastoid = result.lastoid
        # Only ANALYZE/EXPLAIN produce a *report*; DDL results also carry a
        # description (the echoed statement), which is not one.
        if result.kind in ("analyze", "explain"):
            self.statement_report = result.description or None

    def _reset(self) -> None:
        if self._stream is not None:
            self._stream.close()
        self._stream = None
        self.description = None
        self.rowcount = -1
        self.lastoid = None
        self.statement_report = None

    @property
    def statement_records(self) -> Optional[list]:
        """Structured per-operator estimate/actual records of the last
        ``EXPLAIN ANALYZE`` statement (None otherwise).

        The report string in :attr:`statement_report` carries the records
        it was rendered from (see
        :class:`repro.physical.profile.ExplainReport`); this accessor saves
        clients from parsing the text.
        """
        return getattr(self.statement_report, "records", None)

    # ------------------------------------------------------------------
    # fetching (streaming)
    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True once the current result set has no further rows.

        This is the unambiguous end-of-results signal: because cursor rows
        are bare output values (not PEP 249's 1-tuples), a query can
        legitimately yield ``None`` values, which :meth:`fetchone` cannot
        distinguish from exhaustion.  Iterate the cursor, or test this
        property, when ``None`` is a possible output value.
        """
        return self._stream is not None and self._stream.exhausted

    def fetchone(self) -> Any:
        """The next output value, or None when the result set is exhausted.

        Caveat: ``None`` is also returned for a row whose output value *is*
        None — check :attr:`exhausted` (or iterate the cursor, whose
        ``StopIteration`` is unambiguous) when that matters.
        """
        rows = self._feed().fetch(1)
        return self._value(rows[0]) if rows else None

    def fetchmany(self, size: Optional[int] = None) -> list[Any]:
        """Up to *size* (default :attr:`arraysize`) further output values."""
        rows = self._feed().fetch(self.arraysize if size is None else size)
        return [self._value(row) for row in rows]

    def fetchall(self) -> list[Any]:
        """Every remaining output value."""
        return [self._value(row) for row in self._feed().drain()]

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> Any:
        rows = self._feed().fetch(1)
        if not rows:
            raise StopIteration
        return self._value(rows[0])

    def _value(self, row: dict) -> Any:
        return row.get(self._stream.output_ref)

    def _feed(self) -> RowStream:
        self._check_open()
        if self._stream is None:
            raise ServiceError("no result set: execute a query first")
        return self._stream

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._reset()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("cursor is closed")
        self.connection._check_open()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
