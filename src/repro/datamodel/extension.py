"""Class extensions in creation order.

The shallow extension of a class is a :class:`CreationOrder` sequence:
serials are allocated in creation order, so an OID is found by binary
search instead of a scan, and the sequence is cut into bounded blocks so
that removing one never shifts more than a block — appending and removing
cost the same however large the class is.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Iterator

from repro.datamodel.oid import OID

__all__ = ["CreationOrder"]


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
