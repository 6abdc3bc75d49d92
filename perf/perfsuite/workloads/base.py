"""What every workload provides to the measuring loop."""

from __future__ import annotations

import hashlib
import random

from perfsuite.datagen import Fingerprint
from perfsuite.ops import Op, rows_match, timed_read

#: block index of the untimed warm-up pass
WARM = -1


def mixed(rng: random.Random, counts: dict[str, int]) -> list[str]:
    """A shuffled list holding each shape name exactly ``counts[name]``
    times: every block has the same multiset of shapes, only the order and
    the bind values depend on the seed."""
    names = [name for name, count in counts.items() for _ in range(count)]
    rng.shuffle(names)
    return names


class Workload:
    """One workload instance = one data set + one client.

    Operation lists are fixed and seeded: ``block(i)`` returns the same
    operations for the same ``(seed, i)``, and every block of a workload
    holds the same multiset of statement shapes, so a run that measures
    more blocks does more of the same work.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.fingerprint = Fingerprint()
        #: open ``repro`` connections, indexed by ``Op.target``
        self.connections: list = []
        #: the ``SchemaKnowledge`` behind each connection (for the tracer)
        self.knowledge: list = []
        #: rows the last read returned; transaction retries so far
        self.last_row_count = 0
        self.txn_retries = 0
        #: did the last operation pay for an auto-checkpoint?
        self.stalled = False

    def rng(self, purpose: object) -> random.Random:
        """A generator private to (seed, workload, purpose)."""
        return random.Random(f"{self.seed}/{self.name}/{purpose}")

    def setup(self) -> None:
        """Generate, load, index, ANALYZE (timed as part of ``setup_s``)."""
        raise NotImplementedError

    def block(self, index: int) -> list[Op]:
        """The operations of timed block *index* (``WARM`` = warm-up)."""
        raise NotImplementedError

    def read(self, op: Op) -> tuple[float, list]:
        """Time read *op* through the front end: ``(seconds, rows)``."""
        seconds, rows = timed_read(self.connections[op.target], op)
        self.last_row_count = len(rows)
        return seconds, rows

    def run(self, op: Op) -> tuple[float, bool]:
        """Execute *op* through the front end: ``(seconds, oracle agrees)``."""
        seconds, rows = self.read(op)
        return seconds, rows_match(rows, op)

    def finish(self) -> tuple[int, int, dict]:
        """Checks after the timed phase: ``(attempted, failed, extra
        per-layer metrics as name -> (value, n))``."""
        return 0, 0, {}

    def storage_counters(self) -> dict:
        """``StorageAdapter.counters()`` of a durable workload (else empty)."""
        return {}

    def storage_metrics(self, before: dict) -> dict[str, float]:
        """The ``storage.*`` count metrics since *before*."""
        return {}

    def trace_write(self, op: Op, log, statement: int):
        """Replay write *op* on a scratch copy under spans; returns the root."""
        raise NotImplementedError(f"{self.name} has no write operations")

    def close(self) -> None:
        for connection in self.connections:
            database = connection.database
            connection.close()
            database.close()
        self.connections = []

    def describe(self, blocks: int = 2) -> dict:
        """The run's inputs in brief: the dataset fingerprint, a hash of the
        warm-up block and the first *blocks* timed blocks, and how many of
        their statement texts repeat (``adhoc_planning`` promises none)."""
        digest = hashlib.sha256()
        seen: set[str] = set()
        repeats = 0
        for index in (WARM, *range(blocks)):
            for op in self.block(index):
                digest.update(f"{op.shape}|{op.sql}|{op.params!r}\n".encode("utf-8"))
                repeats += op.sql in seen
                seen.add(op.sql)
        return {"dataset": self.fingerprint.summary(),
                "statement_hash": digest.hexdigest()[:16],
                "repeated_statements": repeats}
