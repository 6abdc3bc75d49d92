"""Operations a workload sends through the public front end, and the
comparison its oracle applies to what comes back."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Optional


@dataclass(slots=True)
class Op:
    """One client operation: a statement (or write group) plus its oracle.

    ``expect`` is the frozenset of canonical rows a read must return
    (``None``: not checked here — ``adhoc_planning`` checks a sample
    afterwards); ``fetch`` makes the client stop after ``fetchmany(fetch)``.
    ``data`` carries what a write needs (rows, keys).  ``target`` picks the
    connection when a workload holds more than one database.
    """

    shape: str
    kind: str  # "read" | "write"
    sql: str
    params: Any = None
    expect: Optional[frozenset] = None
    fetch: Optional[int] = None
    data: Any = None
    target: int = 0


def canonical(value: Any) -> Any:
    """A hashable, order-free form of a result value (tuple rows come back
    as dicts, set-valued expressions as sets)."""
    if isinstance(value, dict):
        return tuple(sorted((key, canonical(item)) for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return frozenset(canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    return value


def rows_match(rows: list, op: Op) -> bool:
    """Does what the front end returned equal the oracle's answer?

    Results have set semantics, so a full fetch must return each expected
    row exactly once; a partial fetch must return ``fetch`` distinct
    expected rows (which ones is the plan's choice).
    """
    if op.expect is None:
        return True
    got = {canonical(row) for row in rows}
    if len(got) != len(rows):
        return False
    if op.fetch is None:
        return got == op.expect
    return len(rows) == min(op.fetch, len(op.expect)) and got <= op.expect


def timed_read(connection, op: Op) -> tuple[float, list]:
    """``execute()`` call to last row fetched, as a client sees it."""
    if op.fetch is None:
        started = perf_counter()
        rows = connection.execute(op.sql, op.params).fetchall()
        return perf_counter() - started, rows
    started = perf_counter()
    cursor = connection.execute(op.sql, op.params)
    rows = cursor.fetchmany(op.fetch)
    cursor.close()  # a client that stops early releases the stream
    return perf_counter() - started, rows
