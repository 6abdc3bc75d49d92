"""MVCC building blocks: the commit clock and per-thread snapshot pins.

The database used to expose a single ``VersionClock`` whose counters only
told plan caches *that* something changed.  Snapshot isolation needs more:
a total order over commits and a way for a reader to say "I observe the
state as of timestamp S" without holding any lock while the writer works.

Three pieces live here:

``CommitClock``
    A monotonic commit timestamp.  Writers allocate ``published + 1``
    *before* touching any structure and publish it only after every
    mutation (and index fix-up) of the commit landed.  Readers pinned at
    ``published`` therefore never observe a half-applied commit: anything
    the in-flight writer touches carries a timestamp greater than their
    snapshot.  ``begun`` is a monotonically increasing generation counter
    used by optimistic readers to validate that no writer started during
    their copy (immune to the A-B-A problem that ``allocated`` alone would
    have after an aborted scope resets it).

``SnapshotPin`` / ``current_pin`` / ``pinned``
    A thread-local marker carrying ``(database, ts)``.  Every read helper
    on :class:`~repro.datamodel.database.Database` (extensions, property
    reads, index lookups, method-invocation existence checks) consults the
    pin and, when present, answers as of ``ts`` by falling back to the
    per-object version chains the writers maintain.

``SnapshotIndexView``
    A read-through wrapper over a hash/sorted index that answers lookups
    as of a snapshot: it unions the live index result with objects mutated
    after the snapshot (from the database's mutation log) and keeps only
    candidates whose property value *at the snapshot* matches the probe.

Nothing here takes the service's read/write gate — that is the point.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.errors import ObjectNotFoundError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datamodel.database import Database

__all__ = [
    "CommitClock",
    "SnapshotPin",
    "SnapshotIndexView",
    "current_pin",
    "pinned",
]


class CommitClock:
    """Monotonic commit timestamps with publish-after-apply semantics."""

    __slots__ = ("published", "allocated", "begun")

    def __init__(self) -> None:
        #: highest timestamp whose commit is fully applied and visible
        self.published = 0
        #: highest timestamp handed to a commit scope (``>= published``
        #: exactly while a writer is in flight)
        self.allocated = 0
        #: generation counter: bumped every time a scope begins; never
        #: decreases, so optimistic readers can detect writer activity
        #: across their copy even if an abort reset ``allocated``
        self.begun = 0

    def begin(self) -> int:
        """Allocate the next commit timestamp (write gate held)."""
        ts = self.published + 1
        self.allocated = ts
        self.begun += 1
        return ts

    def publish(self, ts: int) -> None:
        """Make *ts* visible to new snapshots (every mutation applied)."""
        self.published = ts

    def reset_after_abort(self) -> None:
        """An aborted scope fully undid itself: nothing newer than
        ``published`` exists any more, so fast-path reads are safe again."""
        self.allocated = self.published

    def restore(self, ts: int) -> None:
        """Pin the clock to *ts* (crash recovery, no writer in flight).

        A restored checkpoint re-publishes its snapshot timestamp, and
        WAL replay re-stamps each replayed commit with its original
        timestamp so the recovered clock ends exactly where the crashed
        process's did.  The clock never moves backwards.
        """
        if ts > self.published:
            self.published = ts
        if self.published > self.allocated:
            self.allocated = self.published


class SnapshotPin:
    """A thread's declaration that reads observe *database* as of *ts*."""

    __slots__ = ("database", "ts")

    def __init__(self, database: "Database", ts: int) -> None:
        self.database = database
        self.ts = ts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotPin(ts={self.ts})"


_LOCAL = threading.local()


def current_pin() -> Optional[SnapshotPin]:
    """The calling thread's active snapshot pin, if any."""
    return getattr(_LOCAL, "pin", None)


@contextmanager
def pinned(database: "Database", ts: int) -> Iterator[SnapshotPin]:
    """Pin the calling thread to snapshot *ts* of *database*."""
    pin = SnapshotPin(database, ts)
    previous = getattr(_LOCAL, "pin", None)
    _LOCAL.pin = pin
    try:
        yield pin
    finally:
        _LOCAL.pin = previous


class SnapshotIndexView:
    """Answer index probes as of a snapshot.

    The live index reflects the current state; objects written after the
    snapshot may have been inserted, moved, or removed under keys that do
    not match their value at the snapshot.  The view therefore:

    1. reads the live index *first* (any concurrent writer that moves an
       entry afterwards shows up in the mutation log read next),
    2. adds every object the mutation log says was touched after the
       snapshot (phantom candidates from aborted scopes are harmless), and
    3. keeps exactly the candidates whose property value *at the snapshot*
       matches the probe, dropping objects not visible at the snapshot.

    When the clock proves no commit newer than the snapshot exists, the
    live answer is returned untouched (the common, contention-free case).
    """

    __slots__ = ("_database", "_index", "_ts",
                 "kind", "class_name", "property_name")

    def __init__(self, database: "Database", index: Any, ts: int) -> None:
        self._database = database
        self._index = index
        self._ts = ts
        self.kind = index.kind
        self.class_name = index.class_name
        self.property_name = index.property_name

    # -- probes ---------------------------------------------------------
    def lookup(self, key: Any) -> set:
        clock = self._database.clock
        generation = clock.begun
        raw = self._index.lookup(key)
        if clock.allocated <= self._ts and clock.begun == generation:
            return raw
        normalize = getattr(self._index, "_normalize", None)
        target = normalize(key) if normalize is not None else key

        def matches(value: Any) -> bool:
            if value is None:
                return False
            probe = normalize(value) if normalize is not None else value
            try:
                return probe == target
            except TypeError:  # pragma: no cover - exotic key types
                return False

        return self._filtered(raw, matches)

    def range(self, low: Any = None, high: Any = None, *,
              include_low: bool = True, include_high: bool = True) -> set:
        clock = self._database.clock
        generation = clock.begun
        raw = self._index.range(low, high, include_low=include_low,
                                include_high=include_high)
        if clock.allocated <= self._ts and clock.begun == generation:
            return raw

        def matches(value: Any) -> bool:
            if value is None:
                return False
            try:
                if low is not None:
                    if include_low:
                        if value < low:
                            return False
                    elif value <= low:
                        return False
                if high is not None:
                    if include_high:
                        if value > high:
                            return False
                    elif value >= high:
                        return False
            except TypeError:
                return False
            return True

        return self._filtered(raw, matches)

    # -- internals ------------------------------------------------------
    def _filtered(self, raw: set, matches) -> set:
        database = self._database
        ts = self._ts
        prop = self.property_name
        candidates = set(raw)
        candidates.update(
            database.mutated_candidates(self.class_name, ts))
        visible = set()
        for oid in candidates:
            try:
                value = database.value_at(oid, prop, ts)
            except ObjectNotFoundError:
                continue
            if matches(value):
                visible.add(oid)
        return visible
