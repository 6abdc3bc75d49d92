"""The in-memory object database.

:class:`Database` is the substrate standing in for VODAK: it stores objects,
maintains class extensions, dispatches methods (internal and external),
maintains user-defined indexes and text indexes, and counts the work it
performs so that query plans can be compared quantitatively.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from repro.datamodel.indexes import HashIndex, IndexRegistry, SortedIndex
from repro.datamodel.ir import InvertedTextIndex
from repro.datamodel.objects import DatabaseObject
from repro.datamodel.oid import OID, OIDAllocator, is_collection
from repro.datamodel.extension import CreationOrder
from repro.datamodel.schema import (
    ClassDef,
    InverseLink,
    MethodDef,
    PropertyDef,
    Schema,
)
from repro.datamodel.statistics import (
    ClassStatistics,
    DatabaseStatistics,
    StatisticsCatalog,
)
from repro.datamodel.versioning import (
    CommitClock,
    SnapshotIndexView,
    current_pin,
    pinned,
)
from repro.errors import (
    IndexError_,
    MethodInvocationError,
    ObjectNotFoundError,
    SchemaError,
    TypeMismatchError,
)

__all__ = ["Database", "InvocationContext", "VersionClock"]

#: commits between global prunes of version chains / the mutation log
_PRUNE_INTERVAL = 64
#: mutation-log length that forces a prune regardless of the interval
_PRUNE_LOG_LIMIT = 4096
#: "no stored value" (distinct from a stored NULL)
_MISSING = object()


def _members(value: Any) -> set:
    """The objects a reference value points to: none for NULL, the OID
    itself, or the OIDs of a collection."""
    if isinstance(value, OID):
        return {value}
    if value is None or not is_collection(value):
        return set()
    members = set(value)  # typed reference sets hold OIDs and NULLs only
    members.discard(None)
    return members


@dataclass
class VersionClock:
    """Monotonic change counters the plan cache validates cached plans against.

    * ``schema`` — class/property/method definitions (static schemas never
      bump it; callers that mutate a schema in place must call
      :meth:`Database.bump_schema_version`);
    * ``index`` — user-defined index and text-index DDL (create/drop);
    * ``data`` — object creates and property writes.  Cached plans stay
      *correct* under data changes (all reads happen at execution time), so
      the cache treats this counter as a staleness signal for re-optimizing,
      not a strict invalidator;
    * ``stats`` — optimizer-statistics refreshes (the ``ANALYZE``
      statement).  New statistics change cost estimates and therefore plan
      choice, so the plan cache evicts on a mismatch exactly like it does
      for index DDL.
    """

    schema: int = 0
    index: int = 0
    data: int = 0
    stats: int = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.schema, self.index, self.data, self.stats)


class _CommitScope:
    """One in-flight commit: its timestamp plus an undo log.

    Mutations append inverse actions to ``undo``; if the scope body raises,
    the actions run in reverse and the timestamp is never published, so the
    failure is invisible both to concurrent snapshot readers and to any
    reader arriving afterwards.  Nested mutator calls on the owning thread
    join the scope (``depth``) instead of allocating a new timestamp — a
    multi-object statement or a transaction commit is one commit.

    When a durable storage adapter is attached, ``ops`` collects the
    scope's logical operations (creates/updates/deletes); the whole list
    becomes **one** write-ahead-log record when the scope publishes, so a
    multi-row batch costs one record and at most one fsync.  ``ops`` is
    None when nothing records (no adapter, or recovery replay).
    """

    __slots__ = ("ts", "owner", "depth", "undo", "ops")

    def __init__(self, ts: int, owner: int,
                 ops: Optional[list] = None) -> None:
        self.ts = ts
        self.owner = owner
        self.depth = 1
        self.undo: list = []
        self.ops = ops


class InvocationContext:
    """The view of the database handed to method implementations.

    It exposes exactly what a VML method body may use: property access on any
    object, invocation of other methods, class extensions, and the external
    engines (indexes, text indexes) registered with the database.
    """

    def __init__(self, database: "Database"):
        self.database = database

    def value(self, oid: OID, prop: str) -> Any:
        return self.database.value(oid, prop)

    def invoke(self, oid: OID, method: str, *args: Any) -> Any:
        return self.database.invoke(oid, method, *args)

    def invoke_class_method(self, class_name: str, method: str, *args: Any) -> Any:
        return self.database.invoke_class_method(class_name, method, *args)

    def extension(self, class_name: str) -> list[OID]:
        return self.database.extension(class_name)

    def index(self, class_name: str, prop: str) -> Optional[HashIndex | SortedIndex]:
        return self.database.indexes.get(class_name, prop)

    def text_index(self, class_name: str, prop: str) -> Optional[InvertedTextIndex]:
        return self.database.text_index(class_name, prop)


class Database:
    """In-memory OODB: objects + extensions + method dispatch + indexes."""

    def __init__(self, schema: Schema, name: str = "database"):
        schema.validate()
        self.schema = schema
        self.name = name
        self._objects: dict[OID, DatabaseObject] = {}
        #: shallow class extensions, in creation order
        self._extensions: dict[str, CreationOrder] = defaultdict(
            CreationOrder)
        self._allocator = OIDAllocator()
        self.indexes = IndexRegistry()
        self._text_indexes: dict[tuple[str, str], InvertedTextIndex] = {}
        self.statistics = DatabaseStatistics()
        #: optimizer statistics (histograms, distinct counts, method
        #: latencies) collected by ANALYZE and read by the cost model
        self.stats_catalog = StatisticsCatalog()
        self.versions = VersionClock()
        self._context = InvocationContext(self)
        # ---- MVCC state (see repro.datamodel.versioning) -------------
        #: monotonic commit timestamps; readers pin ``clock.published``
        self.clock = CommitClock()
        #: per-object version chains: ``oid -> [(begin_ts, values), ...]``
        #: in append order; the entry with the largest ``begin_ts <= S``
        #: is the version a reader pinned at S observes when the live
        #: object is newer (or gone)
        self._history: dict[OID, list[tuple[int, dict[str, Any]]]] = {}
        #: deleted objects still visible to old snapshots:
        #: ``oid -> (created_ts, end_ts)``
        self._ends: dict[OID, tuple[int, int]] = {}
        #: extension entries removed by deletes, per class:
        #: ``class -> [(oid, created_ts, end_ts), ...]``
        self._removed: dict[str, list[tuple[OID, int, int]]] = {}
        #: mutation log ``(ts, class_name, oid)`` appended *before* each
        #: structural change; snapshot index views use it to find objects
        #: whose index entries moved after a snapshot.  Entries from
        #: aborted scopes stay behind as harmless phantoms (visibility
        #: filtering drops them) until pruned.
        self._mlog: list[tuple[int, str, OID]] = []
        #: the single in-flight commit scope (writers are serialized by
        #: the service's write gate; standalone mutations self-scope)
        self._scope: Optional[_CommitScope] = None
        #: refcounts of registered snapshot pins, for prune watermarks
        self._pin_counts: dict[int, int] = {}
        self._pin_lock = threading.Lock()
        self._commits_since_prune = 0
        #: the durability seam (see :mod:`repro.storage`): None means
        #: in-memory only; a durable adapter receives one ``log_commit``
        #: per published scope and one ``log_ddl`` per DDL/ANALYZE
        self.storage = None

    # ------------------------------------------------------------------
    # commit scopes (MVCC write side)
    # ------------------------------------------------------------------
    @contextmanager
    def commit_scope(self) -> Iterator[_CommitScope]:
        """Group mutations into one atomic, publish-after-apply commit.

        The scope allocates the next commit timestamp *before* any mutation
        runs; every versioned entry written inside carries that timestamp,
        which concurrent snapshot readers (pinned at ``clock.published``)
        treat as "not yet visible".  On success the timestamp is published
        in one step; on failure the undo log runs in reverse and the clock
        is reset, so nothing of the scope was ever observable.  Reentrant
        on the owning thread: nested mutator calls join the open scope.
        """
        scope = self._scope
        if scope is not None and scope.owner == threading.get_ident():
            scope.depth += 1
            try:
                yield scope
            finally:
                scope.depth -= 1
            return
        storage = self.storage
        scope = _CommitScope(
            self.clock.begin(), threading.get_ident(),
            ops=[] if storage is not None and storage.active else None)
        self._scope = scope
        try:
            yield scope
        except BaseException:
            self._abort_scope(scope)
            raise
        else:
            self._scope = None
            self.clock.publish(scope.ts)
            if scope.ops:
                # One logical WAL record per published commit; an aborted
                # scope never reaches this point, so its ops vanish with
                # the undo.  Appended *after* publish: the in-process
                # state is the source of truth, the log trails it by at
                # most the fsync policy's window.
                storage.log_commit(scope.ts, scope.ops)
            self._maybe_prune()

    def _abort_scope(self, scope: _CommitScope) -> None:
        try:
            for undo in reversed(scope.undo):
                undo()
        finally:
            self._scope = None
            self.clock.reset_after_abort()

    def in_commit_scope(self) -> bool:
        """True when the calling thread owns the open commit scope."""
        scope = self._scope
        return scope is not None and scope.owner == threading.get_ident()

    # ------------------------------------------------------------------
    # durable storage (see repro.storage)
    # ------------------------------------------------------------------
    def attach_storage(self, adapter) -> Any:
        """Attach a storage adapter; recovery runs here if it has state.

        Attaching is idempotent for the already-attached adapter and an
        error for a second distinct durable adapter (two write-ahead logs
        on one database cannot both be the truth).
        """
        if self.storage is adapter:
            return adapter
        if self.storage is not None and self.storage.durable:
            raise SchemaError(
                f"database {self.name!r} already has a durable storage "
                "adapter attached")
        self.storage = adapter
        adapter.attach(self)
        return adapter

    def _log_ddl(self, *op: Any) -> None:
        """Forward one DDL/ANALYZE operation to the storage adapter.

        DDL runs outside commit scopes (it mutates shared schema/index
        structures, not versioned objects), so each statement is its own
        WAL record.  Suppressed while recovery replays the log.
        """
        storage = self.storage
        if storage is not None and storage.active:
            storage.log_ddl(op)

    def close(self) -> None:
        """Release the database's storage adapter (idempotent).

        Flushes buffered WAL writes first, so a clean teardown never
        loses acknowledged commits; a database without an adapter has
        nothing to do.  The in-memory state stays usable afterwards, but
        mutations no longer persist.
        """
        storage, self.storage = self.storage, None
        if storage is not None:
            storage.flush()
            storage.close()

    # ------------------------------------------------------------------
    # snapshot pins (MVCC read side)
    # ------------------------------------------------------------------
    def acquire_snapshot(self, ts: Optional[int] = None) -> int:
        """Register a long-lived snapshot (streamed cursor, transaction).

        Registered snapshots hold back version-chain pruning; every
        :meth:`acquire_snapshot` needs a matching :meth:`release_snapshot`.
        """
        with self._pin_lock:
            if ts is None:
                ts = self.clock.published
            self._pin_counts[ts] = self._pin_counts.get(ts, 0) + 1
        return ts

    def release_snapshot(self, ts: int) -> None:
        with self._pin_lock:
            count = self._pin_counts.get(ts, 0) - 1
            if count <= 0:
                self._pin_counts.pop(ts, None)
            else:
                self._pin_counts[ts] = count

    @contextmanager
    def snapshot_scope(self, ts: Optional[int] = None) -> Iterator[int]:
        """Register a snapshot and pin the calling thread to it."""
        ts = self.acquire_snapshot(ts)
        try:
            with pinned(self, ts):
                yield ts
        finally:
            self.release_snapshot(ts)

    def pin_snapshot(self, ts: int):
        """Pin the calling thread to an already-registered snapshot."""
        return pinned(self, ts)

    def _pinned_ts(self) -> Optional[int]:
        pin = current_pin()
        if pin is None or pin.database is not self:
            return None
        return pin.ts

    def _oldest_pin(self) -> Optional[int]:
        with self._pin_lock:
            return min(self._pin_counts) if self._pin_counts else None

    def _maybe_prune(self) -> None:
        self._commits_since_prune += 1
        if (self._commits_since_prune < _PRUNE_INTERVAL
                and len(self._mlog) < _PRUNE_LOG_LIMIT):
            return
        self._prune()

    def prune_versions(self) -> None:
        """Prune version chains and tombstones up to the pin watermark.

        Called by the storage adapter after every checkpoint: the
        checkpoint's pinned snapshot is released by then, so everything
        older than the oldest *registered* snapshot (or the published
        clock when nothing is pinned) can go.  Also available to callers
        that want bounded memory under sustained pin pressure without
        waiting for the commit-count trigger.
        """
        self._prune()

    def _prune(self) -> None:
        self._commits_since_prune = 0
        watermark = self._oldest_pin()
        if watermark is None:
            watermark = self.clock.published
        # Rebind rather than mutate in place: concurrent readers may hold
        # references to the old structures and must keep seeing them whole.
        if self._mlog:
            self._mlog = [entry for entry in self._mlog
                          if entry[0] > watermark]
        if self._ends:
            self._ends = {oid: span for oid, span in self._ends.items()
                          if span[1] > watermark}
        if self._removed:
            removed: dict[str, list[tuple[OID, int, int]]] = {}
            for cls, entries in self._removed.items():
                kept = [entry for entry in entries if entry[2] > watermark]
                if kept:
                    removed[cls] = kept
            self._removed = removed
        if self._history:
            history: dict[OID, list[tuple[int, dict[str, Any]]]] = {}
            ends = self._ends
            for oid, chain in self._history.items():
                obj = self._objects.get(oid)
                if obj is None and oid not in ends:
                    continue  # deleted and no snapshot can still see it
                # Drop every entry superseded (by a later chain entry or by
                # the live object) at or below the watermark: no registered
                # snapshot can reach it any more.
                keep_from = 0
                for position in range(len(chain) - 1, -1, -1):
                    if chain[position][0] <= watermark:
                        keep_from = position
                        break
                kept = chain[keep_from:]
                if (obj is not None and len(kept) == 1
                        and obj.begin_ts <= watermark):
                    continue  # the live version already covers the range
                history[oid] = kept
            self._history = history

    # ------------------------------------------------------------------
    # snapshot reads (MVCC read side)
    # ------------------------------------------------------------------
    def visible_at(self, oid: OID, ts: int) -> bool:
        """Was *oid* a live object at snapshot *ts*?"""
        obj = self._objects.get(oid)
        if obj is not None and obj.created_ts <= ts:
            return True
        span = self._ends.get(oid)
        return span is not None and span[0] <= ts < span[1]

    def value_at(self, oid: OID, prop: str, ts: int) -> Any:
        """Read ``oid.prop`` as of snapshot *ts*.

        Fast path: the live version is old enough and its ``begin_ts`` is
        unchanged across the value read (seqlock — writers append the
        pre-image to the chain *before* flipping ``begin_ts``, so an
        unchanged stamp proves the value belongs to that version).
        """
        obj = self._objects.get(oid)
        if obj is not None:
            begin = obj.begin_ts
            if begin <= ts:
                value = obj.values.get(prop)
                if obj.begin_ts == begin:
                    return value
            # Either the live version is newer than the snapshot or a
            # writer flipped the stamp mid-read; in both cases the chain
            # already holds the version this snapshot needs.
        version = self._chain_version_at(oid, ts)
        if version is None:
            raise ObjectNotFoundError(
                f"no object with OID {oid} at snapshot {ts}")
        return version.get(prop)

    def _chain_version_at(self, oid: OID,
                          ts: int) -> Optional[dict[str, Any]]:
        chain = self._history.get(oid)
        if chain is None:
            return None
        # Atomic copy under the GIL; writers only ever append.  Scan from
        # the end: the latest entry with ``begin_ts <= ts`` supersedes any
        # earlier one carrying the same stamp (mid-scope intermediates).
        for begin, values in reversed(list(chain)):
            if begin <= ts:
                return values
        return None

    def last_write_ts(self, oid: OID) -> Optional[int]:
        """Commit timestamp of the last write to *oid* (None if unknown,
        e.g. the object never existed or its chain was pruned away)."""
        obj = self._objects.get(oid)
        if obj is not None:
            return obj.begin_ts
        span = self._ends.get(oid)
        if span is not None:
            return span[1]
        return None

    def mutated_candidates(self, class_name: str, ts: int) -> list[OID]:
        """OIDs in *class_name*'s subtree touched by commits after *ts*.

        Read from the tail of the mutation log; used by snapshot index
        views to recover entries the live index no longer holds under
        their snapshot-time key.  May contain phantoms from aborted
        scopes — callers re-check visibility/values at the snapshot.
        """
        log = self._mlog
        result: list[OID] = []
        subtree: Optional[set[str]] = None
        for position in range(len(log) - 1, -1, -1):
            entry_ts, cls, oid = log[position]
            if entry_ts <= ts:
                break
            if subtree is None:
                subtree = {class_name}
                subtree.update(
                    other for other in self.schema.classes
                    if other != class_name
                    and self._inherits_from(other, class_name))
            if cls in subtree:
                result.append(oid)
        return result

    def index_view(self, index):
        """Wrap *index* for the calling thread's snapshot pin (the raw
        index when unpinned — the common, gate-free current-state read)."""
        ts = self._pinned_ts()
        if ts is None:
            return index
        return SnapshotIndexView(self, index, ts)

    # ------------------------------------------------------------------
    # object lifecycle
    # ------------------------------------------------------------------
    def create(self, class_name: str, **values: Any) -> OID:
        """Create an instance of *class_name* with the given property values.

        Values are validated against the declared property types; reference
        properties accept OIDs or sets of OIDs.  Indexes and text indexes on
        the class are maintained eagerly, and so is the other side of every
        inverse link the values set.
        """
        class_def = self.schema.get_class(class_name)
        unknown = [prop for prop in values if not self.schema.has_property(class_name, prop)]
        if unknown:
            raise SchemaError(
                f"class {class_name!r} has no propert{'y' if len(unknown) == 1 else 'ies'} "
                f"{', '.join(repr(p) for p in unknown)}")
        for prop_name, value in values.items():
            prop_def = self.schema.resolve_property(class_name, prop_name)
            if value is not None and not prop_def.vml_type.validate(value):
                raise TypeMismatchError(
                    f"value {value!r} for {class_name}.{prop_name} does not "
                    f"conform to {prop_def.vml_type}")
        with self.commit_scope() as scope:
            ts = scope.ts
            oid = self._allocator.allocate(class_name)
            if scope.ops is not None:
                scope.ops.append(("create", class_name, oid.serial,
                                  dict(values)))
            self._mlog.append((ts, class_name, oid))
            obj = DatabaseObject(oid=oid, values=dict(values),
                                 begin_ts=ts, created_ts=ts)
            self._objects[oid] = obj
            self._extensions[class_name].append(oid)
            scope.undo.append(lambda: self._undo_create(class_name, oid))
            self.statistics.record_object_created()
            self.versions.data += 1
            scope.undo.append(lambda: self._unsettle_created(1))
            self._note_stats_mutation(class_name)
            self._index_new_object(class_name, oid, values)
            links = self.schema.links_from(class_name)
            if links:
                for prop, value in values.items():
                    link = links.get(prop)
                    if link is not None:
                        self._maintain_links(link, oid, None, value)
        del class_def  # looked up only for existence checking
        return oid

    def _undo_create(self, class_name: str, oid: OID) -> None:
        obj = self._objects.pop(oid, None)
        if obj is None:
            return
        self._unindex_tolerant(class_name, oid, obj.values)
        extension = self._extensions.get(class_name)
        if extension is not None:
            try:
                extension.remove(oid)
            except KeyError:  # pragma: no cover - defensive
                pass
        self._allocator.release_last(class_name, oid.serial)

    def _unsettle_created(self, count: int) -> None:
        """Undo the counter settle of created objects (aborted scope)."""
        self.statistics.objects_created -= count
        self.versions.data -= count

    def _unindex_tolerant(self, class_name: str, oid: OID,
                          values: dict[str, Any]) -> None:
        """Remove *oid* from all covering indexes, tolerating entries that
        were never inserted (undo of a partially indexed object)."""
        for prop_name, value in values.items():
            if value is None:
                continue
            for owner in self._class_and_ancestors(class_name):
                index = self.indexes.get(owner, prop_name)
                if index is not None:
                    try:
                        index.remove(value, oid)
                    except IndexError_:
                        pass
                engine = self._text_indexes.get((owner, prop_name))
                if engine is not None:
                    engine.remove(oid)

    def _index_new_object(self, class_name: str, oid: OID,
                          values: dict[str, Any]) -> None:
        # Indexes created on a class cover the deep extension (subclasses
        # included), so maintenance must notify the index of every ancestor
        # class as well — otherwise instances of subclasses created after the
        # index would silently be missing from it.  None values are not
        # indexed: the evaluator treats None as matching no comparison, and
        # None keys cannot be ordered by a sorted index.
        for prop_name, value in values.items():
            if value is None:
                continue
            for owner in self._class_and_ancestors(class_name):
                self.indexes.notify_insert(owner, prop_name, value, oid)
                engine = self._text_indexes.get((owner, prop_name))
                if engine is not None:
                    engine.index_text(oid, str(value))

    def create_many(self, class_name: str,
                    rows: Iterable[dict[str, Any]]) -> list[OID]:
        """Bulk create: one maintenance pass for a whole batch of objects.

        Semantically equivalent to calling :meth:`create` per row, but the
        schema lookups, type validators, ancestor chain and index/text-index
        targets are resolved once for the batch instead of once per object —
        this is the fast path behind the statement API's ``executemany``
        INSERT.  Every row is validated before any object is created, and
        the whole batch runs in one commit scope: an index-maintenance
        error mid-batch (possible on ANY-typed properties with uncomparable
        keys) undoes every row already landed, so the batch is atomic.  The
        data version advances by the number of created objects (same
        plan-cache drift as individual creates).  Inverse-link upkeep
        writes each set-valued other side once per target object, with all
        of the batch's objects that reference it.
        """
        self.schema.get_class(class_name)  # existence check
        materialized = [dict(row) for row in rows]

        prop_defs: dict[str, Any] = {}

        def prop_def_for(prop: str):
            prop_def = prop_defs.get(prop)
            if prop_def is None:
                if not self.schema.has_property(class_name, prop):
                    raise SchemaError(
                        f"class {class_name!r} has no property {prop!r}")
                prop_def = self.schema.resolve_property(class_name, prop)
                prop_defs[prop] = prop_def
            return prop_def

        for row in materialized:
            for prop, value in row.items():
                prop_def = prop_def_for(prop)
                if value is not None and not prop_def.vml_type.validate(value):
                    raise TypeMismatchError(
                        f"value {value!r} for {class_name}.{prop} does not "
                        f"conform to {prop_def.vml_type}")

        owners = list(self._class_and_ancestors(class_name))
        maintenance: dict[str, tuple[list, list]] = {}

        def targets_for(prop: str) -> tuple[list, list]:
            targets = maintenance.get(prop)
            if targets is None:
                indexes = [index for owner in owners
                           if (index := self.indexes.get(owner, prop))
                           is not None]
                engines = [engine for owner in owners
                           if (engine := self._text_indexes.get((owner, prop)))
                           is not None]
                targets = (indexes, engines)
                maintenance[prop] = targets
            return targets

        objects = self._objects
        extension = self._extensions[class_name]
        allocate = self._allocator.allocate
        created: list[OID] = []
        undo_create = self._undo_create
        with self.commit_scope() as scope:
            ts = scope.ts
            mlog = self._mlog
            undo = scope.undo
            ops = scope.ops
            for row in materialized:
                oid = allocate(class_name)
                if ops is not None:
                    ops.append(("create", class_name, oid.serial, dict(row)))
                mlog.append((ts, class_name, oid))
                objects[oid] = DatabaseObject(oid=oid, values=row,
                                              begin_ts=ts, created_ts=ts)
                extension.append(oid)
                undo.append(lambda oid=oid: undo_create(class_name, oid))
                created.append(oid)
                for prop, value in row.items():
                    if value is None:
                        continue
                    indexes, engines = targets_for(prop)
                    for index in indexes:
                        index.insert(value, oid)
                    if engines:
                        text = str(value)
                        for engine in engines:
                            engine.index_text(oid, text)
            self.statistics.objects_created += len(created)
            self.versions.data += len(created)
            undo.append(lambda n=len(created): self._unsettle_created(n))
            self._note_stats_mutation(class_name, len(created))
            links = self.schema.links_from(class_name)
            if links:
                self._link_created(links, created, materialized)
        return created

    def _link_created(self, links, created: list[OID],
                      rows: list[dict[str, Any]]) -> None:
        """Inverse-link upkeep of a bulk create: one write per target of a
        set-valued side; single-valued sides row by row, in creation
        order, exactly as per-row creates would leave them."""
        for prop, link in links.items():
            if link.target_cardinality != "many":
                for oid, row in zip(created, rows):
                    if row.get(prop) is not None:
                        self._maintain_links(link, oid, None, row[prop])
                continue
            referrers: dict[OID, list[OID]] = {}
            for oid, row in zip(created, rows):
                for target in _members(row.get(prop)):
                    referrers.setdefault(target, []).append(oid)
            for target, oids in referrers.items():
                self._link_many(link, target, oids)

    def _note_stats_mutation(self, class_name: str, count: int = 1) -> None:
        """Record statistics churn for *class_name* and its ancestors.

        Class statistics cover the deep extension, so mutating a subclass
        must stale its superclasses' histograms too."""
        for owner in self._class_and_ancestors(class_name):
            self.stats_catalog.note_mutation(owner, count)

    def _class_and_ancestors(self, class_name: str) -> Iterable[str]:
        current: Optional[str] = class_name
        while current is not None:
            yield current
            current = self.schema.get_class(current).superclass

    def delete(self, oid: OID) -> None:
        """Delete the object with *oid*.

        The object is removed from its extension and every index and text
        index covering it.  References other objects hold to the deleted
        OID are not chased; reading such a dangling reference later raises
        :class:`ObjectNotFoundError`, exactly like any unknown OID.
        """
        self.delete_many((oid,))

    def delete_many(self, oids: Iterable[OID]) -> None:
        """Bulk delete: one maintenance pass for a statement's targets.

        Leaves the database exactly as calling :meth:`delete` per OID in
        order would, but the ancestor chain, the index/text-index targets
        and the statistics note are resolved once per class instead of once
        per object, and the whole batch is one commit scope (one WAL
        record): an unknown OID or an index-maintenance error mid-batch
        undoes every object already removed.  The data version advances by
        the number of deleted objects.  A deleted object leaves the other
        side of each inverse link it takes part in: a set loses it, a
        single reference to it becomes NULL.
        """
        maintenance: dict[str, tuple] = {}

        def targets_for(class_name: str) -> tuple:
            targets = maintenance.get(class_name)
            if targets is None:
                owners = set(self._class_and_ancestors(class_name))
                indexes = [(index.property_name, index)
                           for index in self.indexes.all()
                           if index.class_name in owners]
                engines = [(prop, engine) for (owner, prop), engine
                           in self._text_indexes.items() if owner in owners]
                targets = maintenance[class_name] = (
                    indexes, engines, self._extensions[class_name],
                    self._removed.setdefault(class_name, []))
            return targets

        objects = self._objects
        with self.commit_scope() as scope:
            ts = scope.ts
            ops = scope.ops
            mlog = self._mlog
            # Index/text removals are undone entry-by-entry: the loops can
            # fail part-way, and re-inserting entries that were never
            # removed would corrupt the indexes.
            removed_entries: list[tuple[Any, Any, Any]] = []
            deleted: list[DatabaseObject] = []
            scope.undo.append(lambda: self._undo_deletes(deleted,
                                                         removed_entries))
            for oid in oids:
                obj = objects.get(oid)
                if obj is None:
                    raise ObjectNotFoundError(f"no object with OID {oid}")
                class_name = obj.class_name
                values = obj.values
                indexes, engines, extension, tombstones = targets_for(
                    class_name)
                if ops is not None:
                    ops.append(("delete", class_name, oid.serial))
                mlog.append((ts, class_name, oid))
                for prop, index in indexes:
                    value = values.get(prop)
                    if value is not None:  # None values are never indexed
                        index.remove(value, oid)
                        removed_entries.append((index, value, oid))
                # Text indexes are keyed by OID alone, so removal must not
                # depend on the current property value (which may be None).
                for prop, engine in engines:
                    content = values.get(prop)
                    engine.remove(oid)
                    if content is not None:
                        removed_entries.append((engine, None, (oid, content)))
                # Preserve the final version for pinned readers, then mark
                # the object's end *before* unlinking it so a concurrent
                # snapshot read that misses ``_objects`` finds the marker.
                self._history.setdefault(oid, []).append(
                    (obj.begin_ts, dict(values)))
                self._ends[oid] = (obj.created_ts, ts)
                tombstones.append((oid, obj.created_ts, ts))
                del objects[oid]
                extension.remove(oid)
                deleted.append(obj)
            # Counters settle once, after the loop: an abort part-way has
            # nothing of them to take back.
            self.statistics.objects_deleted += len(deleted)
            self.versions.data += len(deleted)
            for class_name, count in Counter(
                    obj.class_name for obj in deleted).items():
                self._note_stats_mutation(class_name, count)
            settled = len(deleted)
            scope.undo.append(lambda: self._unsettle_deleted(settled))
            self._unlink_deleted(deleted)

    def _unlink_deleted(self, deleted: list[DatabaseObject]) -> None:
        """Inverse-link upkeep of a delete: take each deleted object off
        the other side of its links, one write per surviving target."""
        removals: dict[tuple[OID, str], set[OID]] = {}
        for obj in deleted:
            links = self.schema.links_from(obj.class_name)
            for prop, link in links.items():
                for target in _members(obj.values.get(prop)):
                    if link.target_cardinality == "many":
                        removals.setdefault(
                            (target, link.target_property), set()).add(obj.oid)
                    else:
                        self._unlink(target, link.target_property, "one",
                                     obj.oid)
        for (target, prop), oids in removals.items():
            self._unlink_many(target, prop, oids)

    def _undo_deletes(self, deleted: list[DatabaseObject],
                      removed_entries: list[tuple[Any, Any, Any]]) -> None:
        """Take back the deletes of one :meth:`delete_many` call (aborted
        scope): index entries one by one, then the objects."""
        for target, value, payload in reversed(removed_entries):
            if value is None:  # text engine: payload is (oid, content)
                oid, content = payload
                target.index_text(oid, str(content))
            else:
                target.insert(value, payload)
        for obj in reversed(deleted):
            oid = obj.oid
            class_name = obj.class_name
            self._objects[oid] = obj
            self._ends.pop(oid, None)
            removed = self._removed.get(class_name)
            if removed and removed[-1][0] == oid:
                removed.pop()
            self._extensions[class_name].restore(oid)

    def _unsettle_deleted(self, count: int) -> None:
        self.statistics.objects_deleted -= count
        self.versions.data -= count

    def get(self, oid: OID) -> DatabaseObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise ObjectNotFoundError(f"no object with OID {oid}") from None

    def exists(self, oid: OID) -> bool:
        return oid in self._objects

    def object_count(self) -> int:
        return len(self._objects)

    # ------------------------------------------------------------------
    # property access
    # ------------------------------------------------------------------
    def value(self, oid: OID, prop: str) -> Any:
        """Read a property value (the system-provided default read method).

        Answers as of the calling thread's snapshot pin when one is active;
        otherwise reads the live state (writer threads and unpinned
        callers).
        """
        ts = self._pinned_ts()
        if ts is not None:
            if not self.schema.has_property(oid.class_name, prop):
                raise SchemaError(
                    f"class {oid.class_name!r} has no property {prop!r}")
            self.statistics.record_property_read()
            return self.value_at(oid, prop, ts)
        obj = self.get(oid)
        self.statistics.record_property_read()
        if not self.schema.has_property(obj.class_name, prop):
            raise SchemaError(
                f"class {obj.class_name!r} has no property {prop!r}")
        return obj.get_or_none(prop)

    def set_value(self, oid: OID, prop: str, value: Any) -> None:
        """Write one property value, keeping indexes consistent."""
        self.update(oid, **{prop: value})

    def update(self, oid: OID, **values: Any) -> None:
        """Write several property values in one maintenance pass.

        All values are validated up front (no partial write on a type
        error); the data version ticks once per call, not once per
        property, so a multi-column ``UPDATE ... SET`` costs one plan-cache
        drift unit.  Index and text
        index maintenance matches :meth:`set_value` per property.  A write
        to one side of an inverse link updates the other side in the same
        commit scope (:meth:`_maintain_links`).
        """
        if not values:
            return
        obj = self.get(oid)
        class_name = obj.class_name
        for prop, value in values.items():
            prop_def = self.schema.resolve_property(class_name, prop)
            if value is not None and not prop_def.vml_type.validate(value):
                raise TypeMismatchError(
                    f"value {value!r} for {class_name}.{prop} does not "
                    f"conform to {prop_def.vml_type}")
        links = self.schema.links_from(class_name)
        with self.commit_scope() as scope:
            if scope.ops is not None:
                scope.ops.append(("update", class_name, oid.serial,
                                  dict(values)))
            previous = self._write(obj, values, scope)
            if links:
                for prop, value in values.items():
                    link = links.get(prop)
                    old = previous[prop][1]
                    if link is not None and old != value:
                        self._maintain_links(link, oid, old, value)

    def _write(self, obj: DatabaseObject, values: dict[str, Any],
               scope: _CommitScope, upkeep: bool = False
               ) -> dict[str, tuple[bool, Any]]:
        """Apply validated *values* to the live *obj* inside *scope*:
        version chain, indexes, counters and undo.  Returns each written
        property's ``(had a value, previous value)``.  Logs nothing: the
        caller records the operation (link upkeep is re-derived on
        replay, see :meth:`_maintain_links`).  An *upkeep* write is part
        of the write that caused it, so it does not tick the data
        version a second time."""
        oid = obj.oid
        class_name = obj.class_name
        ts = scope.ts
        previous = {prop: (obj.has(prop), obj.get_or_none(prop))
                    for prop in values}
        self._mlog.append((ts, class_name, oid))
        # Version-chain discipline: append the pre-image, *then* flip
        # ``begin_ts``, *then* mutate the values.  A snapshot reader
        # that observes an unchanged ``begin_ts`` across its value read
        # is guaranteed a consistent version; one that observes the
        # flip finds the pre-image already in the chain.
        old_begin = obj.begin_ts
        pre_image = dict(obj.values)
        self._history.setdefault(oid, []).append((old_begin, pre_image))
        obj.begin_ts = ts
        for prop, value in values.items():
            obj.set(prop, value)
            self.statistics.record_property_write()
        # Index maintenance can fail part-way (ANY-typed properties
        # with uncomparable keys on a sorted index), so the applied
        # operations are collected as they happen and the undo inverts
        # exactly those, then restores values and the version stamp.
        applied_ops: list[tuple[str, Any, Any, Any]] = []
        ticks = 0 if upkeep else 1
        scope.undo.append(lambda: self._undo_update(
            obj, old_begin, pre_image, values, applied_ops, ticks))
        self.versions.data += ticks
        self._note_stats_mutation(class_name)
        for owner in self._class_and_ancestors(class_name):
            for prop, value in values.items():
                index = self.indexes.get(owner, prop)
                if index is not None:
                    # None values are never indexed (see
                    # _index_new_object), so transitions to/from None
                    # are plain removes/inserts.
                    had, old = previous[prop]
                    if had and old is not None:
                        if value is not None:
                            index.update(old, value, oid)
                            applied_ops.append(("update", index, old, value))
                        else:
                            index.remove(old, oid)
                            applied_ops.append(("remove", index, old, None))
                    elif value is not None:
                        index.insert(value, oid)
                        applied_ops.append(("insert", index, value, None))
                engine = self._text_indexes.get((owner, prop))
                if engine is not None:
                    had, old = previous[prop]
                    engine.index_text(oid, str(value))
                    applied_ops.append(("text", engine, old if had else None, None))
        return previous

    # ------------------------------------------------------------------
    # inverse-link upkeep
    # ------------------------------------------------------------------
    def _maintain_links(self, link: InverseLink, oid: OID, old: Any,
                        new: Any) -> None:
        """Make the other side of *link* agree with ``oid.<link side>``
        having changed from *old* to *new*: *oid* leaves the objects it no
        longer references and joins the ones it now references.

        Runs inside the writer's commit scope, so the other side's writes
        share its timestamp, undo log and WAL record: the record holds the
        writer's own operation, and replaying it re-derives the same
        writes from the same state.  A target that already agrees is not
        written; a target that no longer exists is skipped.
        """
        old_members = _members(old)
        new_members = _members(new)
        for target in old_members - new_members:
            self._unlink(target, link.target_property,
                         link.target_cardinality, oid)
        for target in new_members - old_members:
            self._link(link, target, oid)

    def _link(self, link: InverseLink, target: OID, oid: OID) -> None:
        """Put *oid* on *target*'s side of *link*.  A single-valued side
        that pointed elsewhere moves: its previous object loses *target*."""
        obj = self._live_link_side(target, link.target_property)
        if obj is None:
            return
        current = obj.values.get(link.target_property)
        scope = self._scope
        if link.target_cardinality == "many":
            if is_collection(current) and oid in current:
                return
            members = set(current) if is_collection(current) else set()
            members.add(oid)
            self._write(obj, {link.target_property: members}, scope,
                        upkeep=True)
            return
        if current == oid:
            return
        self._write(obj, {link.target_property: oid}, scope, upkeep=True)
        if isinstance(current, OID):
            self._unlink(current, link.source_property,
                         link.source_cardinality, target)

    def _unlink(self, target: OID, prop: str, cardinality: str,
                oid: OID) -> None:
        """Take *oid* off ``target.prop`` (one side of a link)."""
        obj = self._live_link_side(target, prop)
        if obj is None:
            return
        current = obj.values.get(prop)
        if cardinality == "many":
            if is_collection(current) and oid in current:
                self._write(obj, {prop: set(current) - {oid}}, self._scope,
                            upkeep=True)
        elif current == oid:
            self._write(obj, {prop: None}, self._scope, upkeep=True)

    def _link_many(self, link: InverseLink, target: OID,
                   oids: list[OID]) -> None:
        """Add several *oids* to *target*'s set-valued side of *link* in
        one write (bulk creates and deletes batch per target object)."""
        obj = self._live_link_side(target, link.target_property)
        if obj is None:
            return
        current = obj.values.get(link.target_property)
        members = set(current) if is_collection(current) else set()
        size = len(members)
        members.update(oids)
        if len(members) != size:
            self._write(obj, {link.target_property: members}, self._scope,
                        upkeep=True)

    def _unlink_many(self, target: OID, prop: str, oids: set[OID]) -> None:
        """Take several *oids* off *target*'s set-valued side in one write."""
        obj = self._live_link_side(target, prop)
        if obj is None:
            return
        current = obj.values.get(prop)
        if is_collection(current) and not oids.isdisjoint(current):
            self._write(obj, {prop: set(current) - oids}, self._scope,
                        upkeep=True)

    def _live_link_side(self, target: Any, prop: str
                        ) -> Optional[DatabaseObject]:
        """The live object *target* when it has the link property *prop*
        (a dangling reference or an object of an unrelated class has no
        side to maintain)."""
        if not isinstance(target, OID):
            return None
        obj = self._objects.get(target)
        if obj is None or prop not in self.schema.links_from(obj.class_name):
            return None
        return obj

    def _undo_update(self, obj: DatabaseObject, old_begin: int,
                     pre_image: dict[str, Any], values: dict[str, Any],
                     applied_ops: list[tuple[str, Any, Any, Any]],
                     ticks: int) -> None:
        oid = obj.oid
        for op, target, old, new in reversed(applied_ops):
            if op == "update":
                target.update(new, old, oid)
            elif op == "remove":
                target.insert(old, oid)
            elif op == "insert":
                target.remove(old, oid)
            else:  # text engine: re-index the previous content
                target.remove(oid)
                if old is not None:
                    target.index_text(oid, str(old))
        obj.values.clear()
        obj.values.update(pre_image)
        obj.begin_ts = old_begin
        self.statistics.property_writes -= len(values)
        self.versions.data -= ticks

    # ------------------------------------------------------------------
    # extensions
    # ------------------------------------------------------------------
    def extension(self, class_name: str, deep: bool = True) -> list[OID]:
        """All OIDs of instances of *class_name* (including subclasses when
        *deep*), in creation order."""
        if not self.schema.has_class(class_name):
            raise SchemaError(f"unknown class {class_name!r}")
        self.statistics.record_extension_scan()
        ts = self._pinned_ts()
        if ts is not None:
            # Optimistic fast path: if no commit newer than the snapshot
            # exists before *and* no writer begins while we copy (the
            # ``begun`` generation is unchanged after), the live lists are
            # exactly the snapshot.  Otherwise take the versioned merge.
            clock = self.clock
            generation = clock.begun
            if clock.allocated > ts:
                return self._extension_at(class_name, ts, deep)
            result = list(self._extensions.get(class_name, ()))
            if deep:
                for other in self.schema.classes:
                    if other != class_name and self._inherits_from(
                            other, class_name):
                        result.extend(self._extensions.get(other, ()))
            if clock.begun == generation:
                return result
            return self._extension_at(class_name, ts, deep)
        result = list(self._extensions.get(class_name, ()))
        if deep:
            for other, class_def in self.schema.classes.items():
                if other != class_name and self._inherits_from(other, class_name):
                    result.extend(self._extensions.get(other, ()))
        return result

    def _extension_at(self, class_name: str, ts: int,
                      deep: bool) -> list[OID]:
        classes = [class_name]
        if deep:
            classes.extend(
                other for other in self.schema.classes
                if other != class_name
                and self._inherits_from(other, class_name))
        result: list[OID] = []
        for cls in classes:
            result.extend(self._class_extension_at(cls, ts))
        return result

    def _class_extension_at(self, cls: str, ts: int) -> list[OID]:
        current = list(self._extensions.get(cls, ()))  # atomic copy
        objects = self._objects
        ends = self._ends
        visible: list[OID] = []
        for oid in current:
            obj = objects.get(oid)
            if obj is not None:
                if obj.created_ts <= ts:
                    visible.append(oid)
            else:
                span = ends.get(oid)
                if span is not None and span[0] <= ts < span[1]:
                    visible.append(oid)
        removed = self._removed.get(cls)
        if removed:
            present = {oid.serial for oid in visible}
            resurrected = [oid for oid, created, end in list(removed)
                           if created <= ts < end
                           and oid.serial not in present]
            if resurrected:
                visible.extend(resurrected)
                # serials are allocated in creation order, so sorting by
                # serial restores the original extension order
                visible.sort(key=lambda oid: oid.serial)
        return visible

    def instance_checker(self, class_name: str):
        """Return ``check(values) -> list[bool]``: is each value an object
        of *class_name*'s deep extension?

        The answers are exactly ``value in set(extension(class_name))``
        (as of the calling thread's snapshot pin, resolved once per call)
        without building the extension: an OID of a conforming class that
        is live, or visible at the pin.  Nothing is charged — no
        extension is scanned.
        """
        if not self.schema.has_class(class_name):
            raise SchemaError(f"unknown class {class_name!r}")
        conforming: dict[str, bool] = {}
        objects = self._objects
        database = self

        def conforms(oid: OID) -> bool:
            known = conforming.get(oid.class_name)
            if known is None:
                known = conforming[oid.class_name] = (
                    oid.class_name == class_name
                    or (database.schema.has_class(oid.class_name)
                        and database._inherits_from(oid.class_name,
                                                    class_name)))
            return known

        def check(values: list) -> list[bool]:
            ts = database._pinned_ts()
            if ts is None:
                return [isinstance(value, OID) and conforms(value)
                        and value in objects for value in values]
            return [isinstance(value, OID) and conforms(value)
                    and database.visible_at(value, ts) for value in values]

        return check

    def _inherits_from(self, class_name: str, ancestor: str) -> bool:
        current: Optional[str] = class_name
        while current is not None:
            class_def = self.schema.get_class(current)
            if class_def.superclass == ancestor:
                return True
            current = class_def.superclass
        return False

    def extension_size(self, class_name: str) -> int:
        """Cardinality of the extension without charging a scan (cost model)."""
        size = len(self._extensions.get(class_name, ()))
        for other in self.schema.class_names():
            if other != class_name and self._inherits_from(other, class_name):
                size += len(self._extensions.get(other, ()))
        return size

    # ------------------------------------------------------------------
    # method dispatch
    # ------------------------------------------------------------------
    def invoke(self, receiver: OID, method_name: str, *args: Any) -> Any:
        """Invoke an instance method on *receiver*."""
        obj = self._objects.get(receiver)
        if obj is None:
            # a snapshot pin may still see an object deleted from the
            # live state; dispatch on the OID's class in that case
            ts = self._pinned_ts()
            if ts is None or not self.visible_at(receiver, ts):
                raise ObjectNotFoundError(f"no object with OID {receiver}")
            class_name = receiver.class_name
        else:
            class_name = obj.class_name
        method = self.schema.resolve_instance_method(class_name, method_name)
        return self._dispatch(method, class_name, receiver, args)

    def invoke_class_method(self, class_name: str, method_name: str,
                            *args: Any) -> Any:
        """Invoke a class-level (OWNTYPE) method on the class object."""
        method = self.schema.resolve_class_method(class_name, method_name)
        return self._dispatch(method, class_name, class_name, args)

    def _dispatch(self, method: MethodDef, class_name: str,
                  receiver: Any, args: tuple[Any, ...]) -> Any:
        if method.implementation is None:
            raise MethodInvocationError(
                f"method {class_name}.{method.name} has no implementation")
        if len(args) != method.arity:
            raise MethodInvocationError(
                f"method {class_name}.{method.name} expects {method.arity} "
                f"argument(s), got {len(args)}")
        self.statistics.record_method_call(
            class_name, method.name,
            external=method.is_external(),
            class_level=method.class_level,
            cost=method.cost_per_call)
        try:
            return method.implementation(self._context, receiver, *args)
        except (ObjectNotFoundError, SchemaError, MethodInvocationError):
            raise
        except Exception as exc:  # surface implementation bugs with context
            raise MethodInvocationError(
                f"method {class_name}.{method.name} failed: {exc}") from exc

    def method_def(self, class_name: str, method_name: str,
                   class_level: bool = False) -> MethodDef:
        if class_level:
            return self.schema.resolve_class_method(class_name, method_name)
        return self.schema.resolve_instance_method(class_name, method_name)

    # ------------------------------------------------------------------
    # pre-resolved dispatch (compiled execution engine)
    # ------------------------------------------------------------------
    def instance_invoker(self, class_name: str, method_name: str):
        """Resolve an instance method once and return a fast per-call invoker.

        The invoker performs the same work as :meth:`invoke` — receiver
        existence check, arity check, statistics recording, error wrapping —
        but with method resolution and metadata lookups hoisted out of the
        per-call path.  Used by :mod:`repro.physical.compiler` to pre-bind
        method dispatch per receiver class.
        """
        method = self.schema.resolve_instance_method(class_name, method_name)
        return self._make_invoker(method, class_name, check_receiver=True)

    def class_invoker(self, class_name: str, method_name: str):
        """Like :meth:`instance_invoker` for class-level (OWNTYPE) methods."""
        method = self.schema.resolve_class_method(class_name, method_name)
        return self._make_invoker(method, class_name, check_receiver=False)

    def _make_invoker(self, method: MethodDef, class_name: str,
                      check_receiver: bool):
        implementation = method.implementation
        if implementation is None:
            raise MethodInvocationError(
                f"method {class_name}.{method.name} has no implementation")
        objects = self._objects
        context = self._context
        method_name = method.name
        arity = method.arity
        # Statistics recording is inlined with the counters pre-bound:
        # reset() clears them in place, so the references stay valid.
        statistics = self.statistics
        call_counter = statistics.method_calls
        external_counter = (statistics.external_method_calls
                            if method.is_external() else None)
        class_counter = (statistics.class_method_calls
                         if method.class_level else None)
        cost = method.cost_per_call
        key = f"{class_name}.{method_name}"

        database = self

        def invoke(receiver: Any, args: tuple[Any, ...]) -> Any:
            if check_receiver and receiver not in objects:
                # Under a snapshot pin a deleted object may still be
                # visible; resolve the existence check at the snapshot.
                pin = current_pin()
                if (pin is None or pin.database is not database
                        or not database.visible_at(receiver, pin.ts)):
                    raise ObjectNotFoundError(f"no object with OID {receiver}")
            if len(args) != arity:
                raise MethodInvocationError(
                    f"method {class_name}.{method_name} expects {arity} "
                    f"argument(s), got {len(args)}")
            call_counter[key] += 1
            if external_counter is not None:
                external_counter[key] += 1
            if class_counter is not None:
                class_counter[key] += 1
            statistics.method_cost_units += cost
            try:
                return implementation(context, receiver, *args)
            except (ObjectNotFoundError, SchemaError, MethodInvocationError):
                raise
            except Exception as exc:  # surface implementation bugs with context
                raise MethodInvocationError(
                    f"method {class_name}.{method_name} failed: {exc}") from exc

        return invoke

    def property_batch_reader(self, prop: str):
        """Return an accessor reading *prop* of a whole list of OIDs.

        ``read(oids)`` answers exactly what :meth:`value` answers per OID
        and charges the same ``property_reads`` (``len(oids)``, added in
        one step), but resolves the calling thread's snapshot pin once per
        call.  Pinned reads take :meth:`value_at`'s seqlock fast path inline
        and fall back to :meth:`value_at` for the elements it cannot serve.
        Writes are validated against the schema, so a stored value proves
        its class has the property: the schema is consulted (once per
        class) only for objects holding no value for *prop*.  An element
        that is not an OID raises ``TypeError`` before anything is charged.
        """
        objects = self._objects
        statistics = self.statistics
        has_property = self.schema.has_property
        value_at = self.value_at
        database = self
        valid: set[str] = set()

        def check(oid: OID) -> None:
            if not isinstance(oid, OID):
                raise TypeError(f"not an object identifier: {oid!r}")
            class_name = oid.class_name
            if class_name not in valid:
                if not has_property(class_name, prop):
                    raise SchemaError(
                        f"class {class_name!r} has no property {prop!r}")
                valid.add(class_name)

        def read(oids: list[OID]) -> list:
            values: list = []
            append = values.append
            get = objects.get
            pin = current_pin()
            if pin is not None and pin.database is database:
                ts = pin.ts
                for oid in oids:
                    obj = get(oid)
                    if obj is not None:
                        begin = obj.begin_ts
                        if begin <= ts:
                            value = obj.values.get(prop, _MISSING)
                            if obj.begin_ts == begin:
                                if value is _MISSING:
                                    value = check(oid)
                                append(value)
                                continue
                    check(oid)
                    append(value_at(oid, prop, ts))
            else:
                for oid in oids:
                    obj = get(oid)
                    if obj is None:
                        check(oid)
                        raise ObjectNotFoundError(f"no object with OID {oid}")
                    value = obj.values.get(prop, _MISSING)
                    if value is _MISSING:
                        value = check(oid)
                    append(value)
            statistics.property_reads += len(oids)
            return values

        return read

    # ------------------------------------------------------------------
    # schema DDL
    # ------------------------------------------------------------------
    def create_class(self, name: str, superclass: Optional[str] = None,
                     properties: Iterable[PropertyDef] = ()) -> ClassDef:
        """Register a new class (the ``CREATE CLASS`` DDL entry point).

        References are validated *before* the schema is touched so a bad
        statement cannot leave a half-registered class behind; the schema
        version bump evicts every cached plan (new classes change the plan
        space for deep-extension scans of their superclasses).
        """
        properties = list(properties)
        if self.schema.has_class(name):
            raise SchemaError(f"duplicate class {name!r}")
        if superclass is not None and not self.schema.has_class(superclass):
            raise SchemaError(
                f"class {name!r} inherits from unknown class {superclass!r}")
        for prop in properties:
            if prop.target_class is not None and prop.target_class != name \
                    and not self.schema.has_class(prop.target_class):
                raise SchemaError(
                    f"property {name}.{prop.name} refers to unknown class "
                    f"{prop.target_class!r}")
        class_def = ClassDef(name=name, superclass=superclass)
        for prop in properties:
            class_def.add_property(prop)
        self.schema.add_class(class_def)
        self.bump_schema_version()
        # str(vml_type) renders the statement language's own type spec
        # (STRING / INT / a class name / {inner}), which the storage
        # layer's decode_type parses back — no separate wire format.
        self._log_ddl("create_class", name, superclass,
                      [[prop.name, str(prop.vml_type), prop.target_class]
                       for prop in properties])
        return class_def

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def create_hash_index(self, class_name: str, prop: str) -> HashIndex:
        """Create an exact-match index and backfill it from existing objects
        (objects whose property is None are not indexed)."""
        index = self.indexes.create_hash_index(class_name, prop)
        for oid in self.extension(class_name):
            value = self.get(oid).get_or_none(prop)
            if value is not None:
                index.insert(value, oid)
        self.versions.index += 1
        self._log_ddl("create_index", "hash", class_name, prop)
        return index

    def create_sorted_index(self, class_name: str, prop: str) -> SortedIndex:
        """Create an ordered index and backfill it from existing objects
        (objects whose property is None are not indexed)."""
        index = self.indexes.create_sorted_index(class_name, prop)
        for oid in self.extension(class_name):
            value = self.get(oid).get_or_none(prop)
            if value is not None:
                index.insert(value, oid)
        self.versions.index += 1
        self._log_ddl("create_index", "sorted", class_name, prop)
        return index

    def drop_index(self, class_name: str, prop: str) -> None:
        """Drop the user-defined index on ``class_name.prop``.

        Plans compiled against the index become unexecutable; the version
        bump lets the service layer's plan cache evict them."""
        self.indexes.drop(class_name, prop)
        self.versions.index += 1
        self._log_ddl("drop_index", class_name, prop, False)

    def create_text_index(self, class_name: str, prop: str) -> InvertedTextIndex:
        """Create an IR index over a STRING property and backfill it."""
        key = (class_name, prop)
        if key in self._text_indexes:
            raise SchemaError(f"text index on {class_name}.{prop} already exists")
        engine = InvertedTextIndex()
        self._text_indexes[key] = engine
        for oid in self.extension(class_name):
            content = self.get(oid).get_or_none(prop)
            if content is not None:
                engine.index_text(oid, str(content))
        self.versions.index += 1
        self._log_ddl("create_index", "text", class_name, prop)
        return engine

    def drop_text_index(self, class_name: str, prop: str) -> None:
        """Drop the IR text index on ``class_name.prop``."""
        key = (class_name, prop)
        if key not in self._text_indexes:
            raise SchemaError(f"no text index on {class_name}.{prop} to drop")
        del self._text_indexes[key]
        self.versions.index += 1
        self._log_ddl("drop_index", class_name, prop, True)

    def text_index(self, class_name: str, prop: str) -> Optional[InvertedTextIndex]:
        return self._text_indexes.get((class_name, prop))

    def text_indexes(self) -> Iterable[tuple[tuple[str, str], InvertedTextIndex]]:
        return list(self._text_indexes.items())

    # ------------------------------------------------------------------
    # statistics helpers
    # ------------------------------------------------------------------
    def analyze(self, class_name: Optional[str] = None,
                **options: Any) -> list[ClassStatistics]:
        """Refresh the optimizer-statistics catalog (the ``ANALYZE`` entry
        point).

        Collects per-class/per-property distribution statistics (and timed
        per-method cost calibration) for *class_name*, or for every class
        when omitted, then bumps ``versions.stats`` so the service layer's
        plan cache re-optimizes every cached plan against the new estimates.
        *options* are forwarded to
        :meth:`~repro.datamodel.statistics.StatisticsCatalog.analyze`.
        """
        if class_name is not None and not self.schema.has_class(class_name):
            raise SchemaError(f"unknown class {class_name!r}")
        collected = self.stats_catalog.analyze(self, class_name=class_name,
                                               **options)
        self.versions.stats += 1
        # Replay re-runs ANALYZE over identical data: distribution
        # statistics are deterministic, so the recovered catalog matches
        # (timing-based method calibration is measured fresh either way).
        self._log_ddl("analyze", class_name)
        return collected

    def note_stats_correction(self) -> None:
        """Record that the feedback loop changed the statistics catalog.

        Bumping ``versions.stats`` is what makes the plan cache's strict
        version check fail for every plan optimized against the pre-feedback
        estimates — the next execution replans with the corrected numbers.
        """
        self.versions.stats += 1

    def reset_statistics(self) -> None:
        """Reset all work counters (database plus external engines)."""
        self.statistics.reset()
        for engine in self._text_indexes.values():
            engine.reset_counters()

    def work_snapshot(self) -> dict[str, float]:
        """Combined snapshot of database and external-engine counters."""
        snapshot = dict(self.statistics.snapshot())
        ir_cost = 0.0
        ir_calls = 0
        for engine in self._text_indexes.values():
            counters = engine.counters()
            ir_cost += counters["cost_units"]
            ir_calls += counters["contains_calls"] + counters["retrieve_calls"]
        snapshot["ir_cost_units"] = ir_cost
        snapshot["ir_calls"] = ir_calls
        snapshot["total_cost_units"] = snapshot["method_cost_units"] + ir_cost
        return snapshot

    def bump_schema_version(self) -> None:
        """Signal an in-place schema mutation (class/property/method change)
        so that the service layer re-prepares every cached plan."""
        self.versions.schema += 1

    def oid_counters(self) -> dict[str, int]:
        """Per-class OID allocator counters (checkpoint serialization)."""
        return self._allocator.counters()

    def restore_oid_counters(self, counters: dict[str, int]) -> None:
        """Restore allocator counters from a checkpoint, so serials of
        objects deleted before the checkpoint are never reallocated."""
        self._allocator.restore(counters)

    @property
    def context(self) -> InvocationContext:
        return self._context

    def __str__(self) -> str:
        return (f"Database({self.name!r}, {self.object_count()} objects, "
                f"{len(self.schema.classes)} classes)")
