"""Hash-partitioned class extensions.

The paper's premise is that method-bearing queries are dominated by
expensive method evaluation, which makes independent partitions of a class
extension the natural unit of intra-query parallelism: each partition can
evaluate methods concurrently and the results are merged deterministically.

A :class:`PartitionedExtension` keeps the OIDs of one class spread over a
fixed number of partitions.  Assignment is by the OID's serial number modulo
the partition count — a deterministic hash, so partition contents (and
therefore the ordered merge of a parallel scan) are reproducible across
processes regardless of ``PYTHONHASHSEED``.  Within a partition OIDs stay in
creation order.

Both the shallow extension of a class and each of its partitions are
:class:`CreationOrder` sequences: serials are allocated in creation order,
so an OID is found by binary search instead of a scan, and the sequence is
cut into bounded blocks so that removing one never shifts more than a block
— appending and removing cost the same however large the class is.

Partitions are maintained eagerly by the database on every create and
delete; property writes do not move objects (the partitioning key is the
OID, not a value) but are counted in the per-partition statistics, which the
cost model and benchmarks can consult for skew.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator

from repro.datamodel.oid import OID

__all__ = ["DEFAULT_PARTITIONS", "PartitionStatistics", "PartitionedExtension",
           "ExtensionPartitions", "CreationOrder"]

#: default number of partitions per class extension
DEFAULT_PARTITIONS = 8


_serial = operator.attrgetter("serial")


def _first_serial(block: list[OID]) -> int:
    return block[0].serial


class CreationOrder:
    """The OIDs of one class in creation (= serial) order.

    Iterating — ``list(sequence)`` — copies the current membership in one
    uninterruptible step (the blocks are chained by C code), which is what
    lets snapshot readers copy an extension while a writer works.
    """

    __slots__ = ("_blocks", "_size")
    #: OIDs per block: what one removal shifts at most
    BLOCK = 1024

    def __init__(self) -> None:
        self._blocks: list[list[OID]] = []
        self._size = 0

    def append(self, oid: OID) -> None:
        """Add a newly created *oid* (its serial is the largest so far)."""
        blocks = self._blocks
        if blocks and len(blocks[-1]) < self.BLOCK:
            blocks[-1].append(oid)
        else:
            blocks.append([oid])
        self._size += 1

    def remove(self, oid: OID) -> None:
        """Drop *oid* (``KeyError`` when it is not a member)."""
        blocks = self._blocks
        at = bisect.bisect_right(blocks, oid.serial, key=_first_serial) - 1
        if at >= 0:
            block = blocks[at]
            position = bisect.bisect_left(block, oid.serial, key=_serial)
            if position < len(block) and block[position] == oid:
                if len(block) == 1:
                    del blocks[at]
                else:
                    del block[position]
                self._size -= 1
                return
        raise KeyError(oid)

    def restore(self, oid: OID) -> None:
        """Put a removed *oid* back at its creation-order position (the
        undo of :meth:`remove` when a commit scope aborts)."""
        blocks = self._blocks
        if not blocks:
            blocks.append([oid])
        else:
            at = bisect.bisect_right(blocks, oid.serial, key=_first_serial)
            bisect.insort(blocks[max(at - 1, 0)], oid, key=_serial)
        self._size += 1

    def __iter__(self) -> Iterator[OID]:
        return itertools.chain.from_iterable(self._blocks)

    def __len__(self) -> int:
        return self._size


@dataclass
class PartitionStatistics:
    """Mutable per-partition counters."""

    size: int = 0
    inserts: int = 0
    removes: int = 0
    writes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"size": self.size, "inserts": self.inserts,
                "removes": self.removes, "writes": self.writes}


class PartitionedExtension:
    """The OIDs of one class, hash-partitioned by serial number."""

    __slots__ = ("class_name", "n_partitions", "_partitions", "_statistics")

    def __init__(self, class_name: str, n_partitions: int = DEFAULT_PARTITIONS):
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        self.class_name = class_name
        self.n_partitions = n_partitions
        self._partitions = [CreationOrder() for _ in range(n_partitions)]
        self._statistics = [PartitionStatistics() for _ in range(n_partitions)]

    def partition_of(self, oid: OID) -> int:
        """Deterministic partition assignment (serial modulo count)."""
        return oid.serial % self.n_partitions

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def add(self, oid: OID) -> int:
        index = self.partition_of(oid)
        self._partitions[index].append(oid)
        stats = self._statistics[index]
        stats.size += 1
        stats.inserts += 1
        return index

    def remove(self, oid: OID) -> int:
        """Drop *oid* from its partition (``KeyError`` when it is absent)."""
        index = self.partition_of(oid)
        self._partitions[index].remove(oid)
        stats = self._statistics[index]
        stats.size -= 1
        stats.removes += 1
        return index

    def restore(self, oid: OID) -> None:
        """Put *oid* back, cancelling an earlier :meth:`remove`.

        Used by the commit-scope undo path: the OID returns to its
        creation-order position, so partition contents (and therefore
        parallel-scan merge order) are identical to the pre-scope state.
        """
        index = self.partition_of(oid)
        self._partitions[index].restore(oid)
        stats = self._statistics[index]
        stats.size += 1
        stats.removes -= 1

    def record_write(self, oid: OID) -> None:
        self._statistics[self.partition_of(oid)].writes += 1

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def partition(self, index: int) -> list[OID]:
        """A copy of one partition's OIDs (creation order)."""
        return list(self._partitions[index])

    def partitions(self) -> list[list[OID]]:
        """Copies of all partitions, in partition order."""
        return [list(partition) for partition in self._partitions]

    def statistics(self) -> list[PartitionStatistics]:
        return list(self._statistics)

    def sizes(self) -> list[int]:
        return [len(partition) for partition in self._partitions]

    def total_size(self) -> int:
        return sum(len(partition) for partition in self._partitions)

    def __len__(self) -> int:
        return self.total_size()

    def __str__(self) -> str:
        return (f"PartitionedExtension({self.class_name!r}, "
                f"{self.n_partitions} partitions, {self.total_size()} OIDs)")


class ExtensionPartitions:
    """All partitioned extensions of one database, keyed by class name."""

    __slots__ = ("n_partitions", "_by_class")

    def __init__(self, n_partitions: int = DEFAULT_PARTITIONS):
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        self.n_partitions = n_partitions
        self._by_class: dict[str, PartitionedExtension] = {}

    def for_class(self, class_name: str) -> PartitionedExtension:
        extension = self._by_class.get(class_name)
        if extension is None:
            extension = PartitionedExtension(class_name, self.n_partitions)
            self._by_class[class_name] = extension
        return extension

    def add(self, class_name: str, oid: OID) -> None:
        self.for_class(class_name).add(oid)

    def remove(self, class_name: str, oid: OID) -> None:
        self.for_class(class_name).remove(oid)

    def restore(self, class_name: str, oid: OID) -> None:
        self.for_class(class_name).restore(oid)

    def record_write(self, class_name: str, oid: OID) -> None:
        self.for_class(class_name).record_write(oid)
