"""Column batches: the unit the compiled engine's operators exchange.

A :class:`Batch` is an explicit row count plus one list per reference
(``ref -> [value of row 0, value of row 1, ...]``).  Operators of
:mod:`repro.physical.executor` pull batches from their inputs and compiled
expressions (:mod:`repro.physical.compiler`) map a batch to one value list,
so per-row work is a tight loop over lists instead of one generator frame
and one dict per row per operator.  Row dicts are built only where rows
leave the engine (:meth:`Batch.rows`).

Leaf scans cut their input into batches of at most :data:`BATCH_SIZE` rows;
operators that multiply rows (joins, flattening) re-cut their output to the
same bound, so a batch never holds more than :data:`BATCH_SIZE` rows and a
lazy consumer that stops early has paid for at most one batch of leaf work
beyond the rows it took.  Producers never emit an empty batch.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

__all__ = ["BATCH_SIZE", "Batch", "UNIT", "concat", "regroup", "split"]

#: rows per leaf batch (and the bound on every batch the engine emits)
BATCH_SIZE = 64


class Batch:
    """``length`` rows stored column-wise in ``columns`` (``ref -> list``).

    The length is explicit because a batch may have no columns at all (the
    projection onto no references still has rows).  Column lists are
    shared between batches and never mutated in place.
    """

    __slots__ = ("length", "columns")

    def __init__(self, length: int, columns: dict[str, list]):
        self.length = length
        self.columns = columns

    def gather(self, indices: Sequence[int]) -> dict[str, list]:
        """The columns restricted to the rows at *indices*, in that order."""
        return {name: [*map(column.__getitem__, indices)]
                for name, column in self.columns.items()}

    def take(self, indices: Sequence[int]) -> "Batch":
        """The batch of the rows at *indices*."""
        return Batch(len(indices), self.gather(indices))

    def rows(self) -> list[dict[str, Any]]:
        """The rows as dicts (the engine's output boundary)."""
        columns = self.columns
        if self.length == 1:
            return [{name: column[0] for name, column in columns.items()}]
        if len(columns) == 1:
            (name, column), = columns.items()
            return [{name: value} for value in column]
        items = tuple(columns.items())
        return [{name: column[row] for name, column in items}
                for row in range(self.length)]


#: the one row with no references: expressions that read no row (scan keys,
#: index bounds, set expressions) evaluate against it
UNIT = Batch(1, {})


def split(batch: Batch) -> list[Batch]:
    """*batch* cut into consecutive batches of at most BATCH_SIZE rows."""
    length = batch.length
    if length <= BATCH_SIZE:
        return [batch] if length else []
    columns = batch.columns
    return [Batch(min(BATCH_SIZE, length - start),
                  {name: column[start:start + BATCH_SIZE]
                   for name, column in columns.items()})
            for start in range(0, length, BATCH_SIZE)]


def concat(batches: Iterable[Batch]) -> Batch:
    """One batch holding the rows of *batches* in order (a materialized
    build side).  The batches share one key set, as the inputs of every
    operator do."""
    batches = list(batches)
    if len(batches) == 1:
        return batches[0]
    if not batches:
        return Batch(0, {})
    names = list(batches[0].columns)
    return Batch(sum(batch.length for batch in batches),
                 {name: list(chain.from_iterable(batch.columns[name]
                                                 for batch in batches))
                  for name in names})


def regroup(matches: Iterable[tuple[int, list]]
            ) -> Iterator[tuple[list[int], list]]:
    """Cut a fan-out into runs of at most :data:`BATCH_SIZE` output rows.

    *matches* yields ``(row, items)``: input row *row* produces one output
    row per element of *items*.  The runs come out as ``(rows, items)``
    with one entry per output row, in input order then item order — the
    order a row-at-a-time nested loop would produce them in.
    """
    rows: list[int] = []
    items: list = []
    for row, matched in matches:
        rows += [row] * len(matched)
        items += matched
        if len(rows) >= BATCH_SIZE:
            full = len(rows) - len(rows) % BATCH_SIZE
            for start in range(0, full, BATCH_SIZE):
                stop = start + BATCH_SIZE
                yield rows[start:stop], items[start:stop]
            rows, items = rows[full:], items[full:]
    if rows:
        yield rows, items
