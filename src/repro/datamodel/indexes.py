"""User-defined indexes.

The paper's ``Document→select_by_index(t)`` method encapsulates a lookup in a
user-defined index on ``Document.title``.  This module provides the index
structures those external methods are implemented with:

* :class:`HashIndex` — exact-match index on one property,
* :class:`SortedIndex` — ordered index supporting range queries (used by the
  ``wordCount``/``largeParagraphs`` implication experiment),
* :class:`IndexRegistry` — per-database registry keyed by (class, property).

Indexes are maintained eagerly by the database on object creation and on
property updates.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Iterable, Optional

from repro.datamodel.oid import OID
from repro.errors import IndexError_

__all__ = ["HashIndex", "SortedIndex", "IndexRegistry"]


class HashIndex:
    """Exact-match index mapping a property value to the set of OIDs."""

    kind = "hash"

    def __init__(self, class_name: str, property_name: str):
        self.class_name = class_name
        self.property_name = property_name
        self._entries: dict[Any, set[OID]] = defaultdict(set)
        #: entries across all buckets, maintained by insert/remove so the
        #: cost model's ``len(index)`` never walks the buckets
        self._size = 0
        self.lookup_count = 0

    # -- maintenance ----------------------------------------------------
    def insert(self, key: Any, oid: OID) -> None:
        bucket = self._entries[self._normalize(key)]
        if oid not in bucket:
            bucket.add(oid)
            self._size += 1

    def remove(self, key: Any, oid: OID) -> None:
        normalized = self._normalize(key)
        bucket = self._entries.get(normalized)
        if not bucket or oid not in bucket:
            raise IndexError_(
                f"cannot remove {oid} from index "
                f"{self.class_name}.{self.property_name}: entry missing")
        bucket.discard(oid)
        self._size -= 1
        if not bucket:
            del self._entries[normalized]

    def update(self, old_key: Any, new_key: Any, oid: OID) -> None:
        self.remove(old_key, oid)
        self.insert(new_key, oid)

    # -- queries --------------------------------------------------------
    def lookup(self, key: Any) -> set[OID]:
        """Return the OIDs whose indexed property equals *key*."""
        self.lookup_count += 1
        return set(self._entries.get(self._normalize(key), ()))

    def __len__(self) -> int:
        return self._size

    def distinct_keys(self) -> int:
        return len(self._entries)

    @staticmethod
    def _normalize(key: Any) -> Any:
        # Lists/sets cannot be dictionary keys; index them by frozen copies.
        if isinstance(key, list):
            return tuple(key)
        if isinstance(key, set):
            return frozenset(key)
        return key

    def __str__(self) -> str:
        return f"HashIndex({self.class_name}.{self.property_name}, {len(self)} entries)"


def _last_key(block: tuple[list, list]) -> Any:
    return block[0][-1]


def _last_entry(block: tuple[list, list]) -> tuple[Any, OID]:
    return block[0][-1], block[1][-1]


class SortedIndex:
    """Ordered index supporting equality and range lookups.

    Entries are ``(key, OID)`` pairs in lexicographic order, held in bounded
    blocks of two parallel lists (keys, OIDs): positioning is a binary
    search over the blocks' last entries and another inside one block, and
    an insert or remove shifts at most one block, so maintenance cost does
    not grow with the index.

    Writers change a block's membership in place but never split, merge or
    drop a block a reader may hold: those build new lists and rebind
    ``_blocks``, so a snapshot reader that fetched the old list keeps
    seeing whole blocks.
    """

    kind = "sorted"
    #: a block splits above twice this many entries and is folded into a
    #: neighbour below half of it
    BLOCK = 512

    def __init__(self, class_name: str, property_name: str):
        self.class_name = class_name
        self.property_name = property_name
        self._blocks: list[tuple[list[Any], list[OID]]] = []
        self._size = 0
        self.lookup_count = 0

    # -- maintenance ----------------------------------------------------
    def insert(self, key: Any, oid: OID) -> None:
        blocks = self._blocks
        if not blocks:
            self._blocks = [([key], [oid])]
            self._size = 1
            return
        at = min(bisect.bisect_left(blocks, (key, oid), key=_last_entry),
                 len(blocks) - 1)
        keys, oids = blocks[at]
        position, _ = self._slot(keys, oids, key, oid)
        keys.insert(position, key)
        oids.insert(position, oid)
        self._size += 1
        if len(keys) > 2 * self.BLOCK:
            half = len(keys) // 2
            self._blocks = (blocks[:at]
                            + [(keys[:half], oids[:half]),
                               (keys[half:], oids[half:])]
                            + blocks[at + 1:])

    def remove(self, key: Any, oid: OID) -> None:
        blocks = self._blocks
        at = bisect.bisect_left(blocks, (key, oid), key=_last_entry)
        if at < len(blocks):
            keys, oids = blocks[at]
            position, present = self._slot(keys, oids, key, oid)
            if present:
                self._size -= 1
                if len(keys) > self.BLOCK // 2 or (
                        len(blocks) == 1 and len(keys) > 1):
                    del keys[position]
                    del oids[position]
                else:
                    self._fold(at, position)
                return
        raise IndexError_(
            f"cannot remove {oid} from index "
            f"{self.class_name}.{self.property_name}: entry missing")

    @staticmethod
    def _slot(keys: list, oids: list, key: Any, oid: OID) -> tuple[int, bool]:
        """Where ``(key, oid)`` sits, or belongs, in one block, and whether
        it is there: the run of equal keys is ordered by OID."""
        low = bisect.bisect_left(keys, key)
        high = bisect.bisect_right(keys, key, low)
        position = bisect.bisect_left(oids, oid, low, high)
        return position, position < high and oids[position] == oid

    def _fold(self, at: int, position: int) -> None:
        """Drop entry *position* of the small block *at* by folding what is
        left of it into a neighbour (rebinding, see the class docstring)."""
        blocks = self._blocks
        keys, oids = blocks[at]
        keys = keys[:position] + keys[position + 1:]
        oids = oids[:position] + oids[position + 1:]
        if len(blocks) == 1:
            self._blocks = [(keys, oids)] if keys else []
        elif at == 0:
            self._blocks = ([(keys + blocks[1][0], oids + blocks[1][1])]
                            + blocks[2:])
        else:
            before = blocks[at - 1]
            self._blocks = (blocks[:at - 1]
                            + [(before[0] + keys, before[1] + oids)]
                            + blocks[at + 1:])

    def update(self, old_key: Any, new_key: Any, oid: OID) -> None:
        self.remove(old_key, oid)
        self.insert(new_key, oid)

    # -- queries --------------------------------------------------------
    def lookup(self, key: Any) -> set[OID]:
        self.lookup_count += 1
        if key is None:
            # NULLs are never indexed (and None reads as "unbounded" below)
            return set()
        try:
            return self._between(key, False, key, True)
        except TypeError:
            # the keys are mutually ordered, so one they cannot be ordered
            # against equals none of them (``==`` never raises)
            return set()

    def range(self, low: Any = None, high: Any = None,
              include_low: bool = True, include_high: bool = True) -> set[OID]:
        """Return OIDs whose key falls into ``[low, high]`` (open-ended when
        a bound is ``None``)."""
        self.lookup_count += 1
        return self._between(low, not include_low, high, include_high)

    def _between(self, low: Any, after_low: bool,
                 high: Any, after_high: bool) -> set[OID]:
        """OIDs from the first entry at (*after_low*: past) key *low* up to
        the first entry at (*after_high*: past) key *high*."""
        blocks = self._blocks
        first, start = ((0, 0) if low is None
                        else self._position(blocks, low, after_low))
        last, stop = ((len(blocks), 0) if high is None
                      else self._position(blocks, high, after_high))
        if first >= last:
            if first > last or first == len(blocks):
                return set()
            return set(blocks[first][1][start:stop])
        found = set(blocks[first][1][start:])
        for _, oids in blocks[first + 1:last]:
            found.update(oids)
        if last < len(blocks):
            found.update(blocks[last][1][:stop])
        return found

    @staticmethod
    def _position(blocks: list, key: Any, after: bool) -> tuple[int, int]:
        """``(block, offset)`` of the first entry whose key is ``>= key``
        (``> key`` when *after*); ``(len(blocks), 0)`` past the end."""
        find = bisect.bisect_right if after else bisect.bisect_left
        at = find(blocks, key, key=_last_key)
        if at == len(blocks):
            return at, 0
        return at, find(blocks[at][0], key)

    def __len__(self) -> int:
        return self._size

    def min_key(self) -> Optional[Any]:
        blocks = self._blocks
        return blocks[0][0][0] if blocks else None

    def max_key(self) -> Optional[Any]:
        blocks = self._blocks
        return blocks[-1][0][-1] if blocks else None

    def __str__(self) -> str:
        return f"SortedIndex({self.class_name}.{self.property_name}, {len(self)} entries)"


class IndexRegistry:
    """All indexes of one database, keyed by ``(class_name, property_name)``."""

    def __init__(self) -> None:
        self._indexes: dict[tuple[str, str], HashIndex | SortedIndex] = {}

    def create_hash_index(self, class_name: str, property_name: str) -> HashIndex:
        return self._register(HashIndex(class_name, property_name))

    def create_sorted_index(self, class_name: str, property_name: str) -> SortedIndex:
        return self._register(SortedIndex(class_name, property_name))

    def _register(self, index: HashIndex | SortedIndex) -> Any:
        key = (index.class_name, index.property_name)
        if key in self._indexes:
            raise IndexError_(f"index on {key[0]}.{key[1]} already exists")
        self._indexes[key] = index
        return index

    def drop(self, class_name: str, property_name: str) -> HashIndex | SortedIndex:
        """Remove and return the index on ``class_name.property_name``."""
        key = (class_name, property_name)
        index = self._indexes.pop(key, None)
        if index is None:
            raise IndexError_(f"no index on {key[0]}.{key[1]} to drop")
        return index

    def get(self, class_name: str, property_name: str) -> Optional[HashIndex | SortedIndex]:
        return self._indexes.get((class_name, property_name))

    def has(self, class_name: str, property_name: str) -> bool:
        return (class_name, property_name) in self._indexes

    def for_class(self, class_name: str) -> list[HashIndex | SortedIndex]:
        return [index for (cls, _), index in self._indexes.items()
                if cls == class_name]

    def all(self) -> Iterable[HashIndex | SortedIndex]:
        return list(self._indexes.values())

    def notify_insert(self, class_name: str, property_name: str,
                      key: Any, oid: OID) -> None:
        index = self.get(class_name, property_name)
        if index is not None:
            index.insert(key, oid)

    def notify_update(self, class_name: str, property_name: str,
                      old_key: Any, new_key: Any, oid: OID) -> None:
        index = self.get(class_name, property_name)
        if index is not None:
            index.update(old_key, new_key, oid)

    def __len__(self) -> int:
        return len(self._indexes)
