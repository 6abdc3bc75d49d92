"""Object identifiers, and the one test for "is this value a collection?".

Every object stored in the database is identified by an :class:`OID`, a pair
of the class name the object was created in and a monotonically increasing
serial number allocated by the database.  OIDs are immutable, hashable and
totally ordered so they can be used in sets, as dictionary/index keys, and
sorted for deterministic output.

An OID is a ``tuple`` subclass, so hashing, equality and ordering run in C:
every property read, method dispatch, hash-join probe and duplicate test in
the engine is a dict or set operation keyed by an OID.  The price is that an
OID *is* a pair to anything that asks ``isinstance(value, tuple)``; the
engine treats it as an atom, which is why every "lift over a collection"
test goes through :func:`is_collection` (``tools/astlint.py`` rejects an
``isinstance`` against ``tuple`` anywhere else under ``src/``).
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple


class OID(NamedTuple):
    """Immutable object identifier ``class_name:serial``.

    Hash, equality and order are the tuple's: ``hash(OID(c, s)) ==
    hash((c, s))``, OIDs sort by ``(class_name, serial)``, and an OID equals
    its plain pair (``OID('A', 1) == ('A', 1)``).  That equality is accepted
    rather than overridden: a Python ``__eq__`` would put an interpreted
    call back on every dict probe that misses identity.  (Like every
    named tuple, the class already has ``__slots__ = ()``.)
    """

    class_name: str
    serial: int

    def __str__(self) -> str:
        return f"{self.class_name}:{self.serial}"

    def __repr__(self) -> str:
        return f"OID({self.class_name!r}, {self.serial})"


#: the collection types a property read or method call lifts over
_COLLECTION_TYPES = (set, frozenset, list, tuple)


def is_collection(value: Any) -> bool:
    """Is *value* a set, frozenset, list or tuple — and not an :class:`OID`?

    The single answer to "is this value a collection?" for the evaluator,
    both engines, the type system, the statistics catalog and the cost
    model: an OID is a tuple to Python but an atom to the data model.
    """
    return isinstance(value, _COLLECTION_TYPES) and not isinstance(value, OID)


class OIDAllocator:
    """Allocates serial numbers per class.

    The allocator is deterministic: serials start at 1 per class and increase
    by one for every created object, which keeps generated databases and
    therefore test expectations and benchmark workloads reproducible.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}

    def allocate(self, class_name: str) -> OID:
        """Return a fresh OID for *class_name*."""
        serial = self._counters.get(class_name, 0) + 1
        self._counters[class_name] = serial
        return OID(class_name, serial)

    def allocate_many(self, class_name: str, count: int) -> Iterator[OID]:
        """Yield *count* fresh OIDs for *class_name*."""
        for _ in range(count):
            yield self.allocate(class_name)

    def release_last(self, class_name: str, serial: int) -> None:
        """Retract *serial* if it was the most recent allocation.

        Used when a commit scope aborts after creating objects: undoing the
        creations in reverse order returns the counters to their pre-scope
        values, keeping serials dense and deterministic.  A serial that is
        no longer the latest (which cannot happen under the single-writer
        gate) is left alone rather than corrupting the counter.
        """
        if self._counters.get(class_name) == serial:
            self._counters[class_name] = serial - 1

    def last_serial(self, class_name: str) -> int:
        """The most recently allocated serial for *class_name* (0 if none)."""
        return self._counters.get(class_name, 0)

    def counters(self) -> dict[str, int]:
        """A copy of every per-class counter (checkpoint serialization)."""
        return dict(self._counters)

    def restore(self, counters: dict[str, int]) -> None:
        """Reinstate counters from a checkpoint.

        Counters only ever move forward: a restored value below the
        current one (objects already recovered) is ignored, so replayed
        creations keep their dense, deterministic serials.
        """
        for class_name, serial in counters.items():
            if serial > self._counters.get(class_name, 0):
                self._counters[class_name] = serial

    def reset(self) -> None:
        """Forget all allocations (used when a database is cleared)."""
        self._counters.clear()
