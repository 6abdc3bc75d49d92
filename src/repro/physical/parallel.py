"""Morsel-driven parallel execution support.

The parallel operators of :mod:`repro.physical.plans` split their input into
*morsels* (small batches of OIDs or rows) and evaluate the expensive part of
the operator — method-bearing predicates, map expressions, join keys — on a
shared worker pool.  Results are merged in submission order (the *ordered
merge*), so a parallel plan produces exactly the same row sequence on every
run, and the same multiset of rows as its sequential counterpart.

Scheduling notes:

* Worker pools are shared per degree and live for the process; threads are
  created lazily by the executor.
* A task submitted from *inside* a worker thread (a method implementation
  that re-enters the service and executes another parallel plan) is run
  inline instead — submitting would risk exhausting the pool with tasks
  that all wait on each other.
* Every operator body below takes a required ``wrap`` — the compiled
  engine's worker wrapper, which re-pushes the coordinating statement's
  thread-local bindings and re-activates its snapshot pin on the pool
  thread.  There is no unwrapped path: a morsel never reads a different
  snapshot than the statement that dispatched it.
* Exceptions raised in a worker propagate to the caller unchanged, after
  all morsels of the batch have settled; the first failure in submission
  order wins.  ``BaseException`` on the waiting thread (KeyboardInterrupt)
  propagates immediately, cancelling still-pending morsels.

Speedup model: CPython's GIL serializes pure-Python bytecode, so parallel
morsel evaluation pays off for methods that *block* — externally implemented
engine calls, I/O, simulated latency (see
:func:`repro.workloads.latency.simulate_method_latency`) — which is exactly
the paper's setting of expensive externally implemented methods.  The
optimizer's parallel rules therefore only fire for method-bearing
expressions (see :mod:`repro.optimizer.builtin_rules`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence, TypeVar

from repro.physical.batch import Batch
from repro.physical.evaluator import hashable_values
from repro.telemetry.spans import child_span

__all__ = ["DEFAULT_MORSEL_SIZE", "MAX_WORKERS", "default_parallelism",
           "make_morsels", "process_morsels", "worker_pool",
           "run_filter_morsels", "run_map_morsels", "run_key_morsels"]

Item = TypeVar("Item")
Result = TypeVar("Result")

#: upper bound on items per morsel (smaller morsels balance load better)
DEFAULT_MORSEL_SIZE = 64
#: hard cap on worker threads per pool
MAX_WORKERS = 32
#: thread-name prefix identifying pool workers (re-entrancy guard)
_WORKER_PREFIX = "repro-parallel"


def default_parallelism() -> int:
    """The session/service default degree: ``REPRO_PARALLEL_DEFAULT`` or 1."""
    raw = os.environ.get("REPRO_PARALLEL_DEFAULT", "").strip()
    if not raw:
        return 1
    try:
        return max(int(raw), 1)
    except ValueError:
        return 1


_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def worker_pool(workers: int) -> ThreadPoolExecutor:
    """The shared pool for *workers* concurrent threads (created lazily)."""
    workers = min(max(workers, 1), MAX_WORKERS)
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix=f"{_WORKER_PREFIX}-{workers}")
            _pools[workers] = pool
        return pool


def make_morsels(items: Sequence[Item], degree: int,
                 morsel_size: int = DEFAULT_MORSEL_SIZE) -> list[list[Item]]:
    """Chunk *items* into morsels sized for *degree* workers.

    The chunk size aims at a few morsels per worker (load balancing against
    skewed per-item cost) but never exceeds *morsel_size*.
    """
    if not items:
        return []
    degree = max(degree, 1)
    per_worker = -(-len(items) // (degree * 2))  # ceil division
    size = max(1, min(morsel_size, per_worker))
    return [list(items[start:start + size])
            for start in range(0, len(items), size)]


def _in_worker_thread() -> bool:
    return threading.current_thread().name.startswith(_WORKER_PREFIX)


def process_morsels(morsels: Sequence[Sequence[Item]],
                    worker: Callable[[Sequence[Item]], list[Result]],
                    degree: int) -> list[Result]:
    """Apply *worker* to every morsel and concatenate results in order.

    With ``degree <= 1``, a single morsel, or when called from inside a
    worker thread (nested parallel execution), the morsels are processed
    inline on the calling thread — same results, no pool round-trip.
    """
    if degree <= 1 or len(morsels) <= 1 or _in_worker_thread():
        merged: list[Result] = []
        for morsel in morsels:
            merged.extend(worker(morsel))
        return merged

    with child_span("morsel-dispatch", morsels=len(morsels), degree=degree):
        pool = worker_pool(degree)
        futures = [pool.submit(worker, morsel) for morsel in morsels]
        outputs: list[list[Result]] = []
        first_error: Optional[Exception] = None
        try:
            for future in futures:
                try:
                    outputs.append(future.result())
                except Exception as exc:  # worker errors settle with the batch
                    if first_error is None:
                        first_error = exc
        except BaseException:  # KeyboardInterrupt etc.: leave immediately
            for future in futures:
                future.cancel()
            raise
        if first_error is not None:
            raise first_error
        merged = []
        for output in outputs:
            merged.extend(output)
        return merged


# ----------------------------------------------------------------------
# operator bodies of the compiled engine's parallel builders, over column
# batches (repro.physical.batch); `wrap` re-pushes the statement's
# thread-local bindings and snapshot pin inside each worker (see
# repro.physical.executor._bound_worker)
# ----------------------------------------------------------------------
WorkerWrap = Callable[[Callable[[list], list]], Callable[[list], list]]


def run_filter_morsels(oid_batches: Sequence[Sequence[Any]],
                       predicate: Optional[Callable[[Batch], list]],
                       ref: str, degree: int,
                       wrap: WorkerWrap) -> list[Any]:
    """The OIDs whose ``{ref: oid}`` row passes *predicate* (all of them
    without one), evaluated over morsels in parallel; batch (partition)
    order is preserved."""
    if predicate is None:
        return [oid for batch in oid_batches for oid in batch]
    morsels: list[list[Any]] = []
    for batch in oid_batches:
        morsels.extend(make_morsels(batch, degree))

    def work(morsel):
        passed = predicate(Batch(len(morsel), {ref: morsel}))
        return [oid for oid, keep in zip(morsel, passed) if keep]

    return process_morsels(morsels, wrap(work), degree)


def run_map_morsels(batch: Batch, expression: Callable[[Batch], list],
                    degree: int, wrap: WorkerWrap) -> list[Any]:
    """``expression``'s value for every row of *batch*, in row order."""
    def work(morsel):
        return expression(batch.take(morsel))

    return process_morsels(make_morsels(range(batch.length), degree),
                           wrap(work), degree)


def run_key_morsels(batch: Batch, key: Callable[[Batch], list],
                    degree: int, wrap: WorkerWrap) -> list[Any]:
    """Hashable join keys for the rows of *batch*, evaluated in parallel,
    in row order."""
    def work(morsel):
        return hashable_values(key(batch.take(morsel)))

    return process_morsels(make_morsels(range(batch.length), degree),
                           wrap(work), degree)
