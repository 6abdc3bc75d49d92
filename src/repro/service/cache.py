"""The plan cache: optimized + compiled plans keyed by query shape.

A cached entry bundles everything the service needs to execute a query
shape: the analyzed query, the chosen logical/physical plans, the
:class:`~repro.physical.executor.PreparedExecutable`, and the version
snapshot it was prepared under.  Lookups validate the snapshot against the
database's :class:`~repro.datamodel.database.VersionClock` and the
service's knowledge version:

* ``schema`` / ``index`` / ``stats`` / knowledge mismatches invalidate
  strictly — a dropped index makes an index-scan plan unexecutable, new
  knowledge or schema changes can change both the plan space and its
  validity, and refreshed ``ANALYZE`` statistics change cost estimates and
  therefore which plan should have been chosen;
* ``data`` drift invalidates lazily: prepared plans read all state at
  execution time and therefore stay *correct* under data changes, but the
  cost-based plan choice goes stale, so an entry is evicted once the number
  of mutations since preparation exceeds ``reoptimize_fraction`` of the
  object count it was planned against (bulk loads re-optimize, single-row
  churn does not).

Keys are statement *shapes*: literals are auto-parameterized before the
lookup (:mod:`repro.service.fingerprint`).  A shape that arrived with
literals is shared once its literals vary (:meth:`PlanCache.key_for`): its
first statement caches under the shape plus its values, so a text that
only repeats verbatim keeps the plan priced for its values, and the first
statement with other values plans the shape's generic plan, which serves
every later statement of the shape.

The cache is a bounded LRU and thread-safe; eviction and invalidation
counts are exposed for the service metrics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.algebra.operators import LogicalOperator
from repro.datamodel.database import Database
from repro.optimizer.search import OptimizationResult
from repro.physical.executor import PreparedExecutable
from repro.physical.plans import PhysicalOperator
from repro.physical.profile import PlanProfile
from repro.vql.analyzer import AnalyzedQuery

__all__ = ["CachedPlan", "CacheStatistics", "PlanCache"]

#: marks a shape in ``PlanCache._shapes`` whose generic plan is shared
_ADMITTED = object()


@dataclass
class CacheStatistics:
    """Counters describing the cache's behaviour since creation."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


@dataclass
class CachedPlan:
    """One prepared query shape plus the versions it was planned under.

    ``analyzed`` is the generic (auto-parameterized) query the plan was made
    from and ``hint_values`` the literal values it was priced with — the
    planning statement's (``None`` for a shape without synthetic
    parameters)."""

    fingerprint: str
    analyzed: AnalyzedQuery
    output_ref: str
    logical_plan: LogicalOperator
    physical_plan: PhysicalOperator
    executable: PreparedExecutable
    optimize: bool
    optimization: Optional[OptimizationResult]
    schema_version: int
    index_version: int
    data_version: int
    stats_version: int
    knowledge_version: int
    object_count: int
    hint_values: Optional[dict[str, Any]] = None
    #: the plan-cache key the entry was built for
    key: Hashable = None
    prepare_seconds: float = 0.0
    optimize_seconds: float = 0.0
    executions: int = 0
    #: the instrumented twin of ``executable`` (which is always the plain
    #: build), compiled the first time feedback watches this plan and
    #: reused, with its profile reset, every time it is armed again
    profiled_executable: Optional[PreparedExecutable] = None
    #: armed profile watching the next execution for estimate/actual
    #: divergence: ``profiled_executable``'s while armed, None once the
    #: feedback check consumed it
    feedback_profile: Optional[PlanProfile] = None
    #: the data version the profile was last armed under (None: never);
    #: data drift past it arms again, so post-drift executions are watched
    feedback_data_version: Optional[int] = None
    #: the literal values the profile was last armed for; a statement of
    #: the shape with other values arms again
    feedback_values: Optional[dict[str, Any]] = None


class PlanCache:
    """Bounded, version-validated LRU cache of :class:`CachedPlan` entries."""

    def __init__(self, capacity: int = 256,
                 reoptimize_fraction: float = 0.25):
        if capacity <= 0:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self.reoptimize_fraction = reoptimize_fraction
        self._entries: "OrderedDict[Hashable, CachedPlan]" = OrderedDict()
        #: auto-parameterized shapes (generic key) -> ``[the key object
        #: first seen, the literal values of its statement or _ADMITTED]``
        #: (see :meth:`key_for`); an LRU four times the capacity
        self._shapes: "OrderedDict[Hashable, list]" = OrderedDict()
        self._lock = threading.Lock()
        self.statistics = CacheStatistics()

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: Hashable, database: Database,
               knowledge_version: int, record: bool = True) -> Optional[CachedPlan]:
        """Return the valid cached plan for *key*, or None.

        Stale entries (version mismatch, excessive data drift) are dropped
        on sight and counted as invalidations + misses.  ``record=False``
        skips the hit/miss counters (used for the double-checked lookup
        after waiting on another thread's build of the same shape).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if record:
                    self.statistics.misses += 1
                return None
            if not self._is_valid(entry, database, knowledge_version):
                del self._entries[key]
                self.statistics.invalidations += 1
                if record:
                    self.statistics.misses += 1
                return None
            self._entries.move_to_end(key)
            if record:
                self.statistics.hits += 1
            entry.executions += 1
            return entry

    def key_for(self, shape: Hashable, values: tuple) -> Hashable:
        """The key a statement of the auto-parameterized *shape* with the
        literal *values* caches under.

        The shape's first statement is cached under ``(shape, values)``, so
        a text that only ever repeats verbatim keeps the plan priced for its
        values.  The first statement with other values admits the shape:
        from then on every statement of it shares the plan under *shape*,
        which replaces the first statement's entry.  (The synthetic keys in
        *shape* carry the literals' types, so equal values of other types —
        ``0`` and ``0.0`` — never meet here.)  The key is built from the
        shape object the cache first saw (:meth:`canonical`), so entries of
        one shape are stored under one object."""
        with self._lock:
            held = self._shapes.get(shape)
            if held is None:
                self._shapes[shape] = [shape, values]
                while len(self._shapes) > 4 * self.capacity:
                    self._shapes.popitem(last=False)
                return (shape, values)
            self._shapes.move_to_end(shape)
            canonical, first = held
            if first is _ADMITTED:
                return canonical
            if first == values:
                return (canonical, values)
            held[1] = _ADMITTED
            self._entries.pop((canonical, first), None)
            return canonical

    def canonical(self, shape: Hashable) -> Hashable:
        """The shape key object :meth:`key_for` builds keys from: the first
        one it saw equal to *shape*, or *shape* itself.  A caller that keeps
        it looks its shape up by identity, without comparing query trees."""
        with self._lock:
            held = self._shapes.get(shape)
            return shape if held is None else held[0]

    def store(self, key: Hashable, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.statistics.inserts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.statistics.evictions += 1

    def discard(self, key: Hashable) -> None:
        """Drop the entry for *key*, if any, counted as an invalidation."""
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self.statistics.invalidations += 1

    def invalidate_all(self) -> int:
        """Drop every entry (e.g. after knowledge registration)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.statistics.invalidations += dropped
            return dropped

    # ------------------------------------------------------------------
    # validity
    # ------------------------------------------------------------------
    def _is_valid(self, entry: CachedPlan, database: Database,
                  knowledge_version: int) -> bool:
        versions = database.versions
        if entry.schema_version != versions.schema:
            return False
        if entry.index_version != versions.index:
            return False
        if entry.stats_version != versions.stats:
            return False
        if entry.knowledge_version != knowledge_version:
            return False
        drift = versions.data - entry.data_version
        if drift > self.reoptimize_fraction * max(entry.object_count, 1):
            return False
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def entries(self) -> list[CachedPlan]:
        with self._lock:
            return list(self._entries.values())

    def snapshot(self) -> dict[str, int]:
        """Size, capacity and behaviour counters in one consistent read
        (the feed behind the telemetry plan-cache gauges)."""
        with self._lock:
            return {"size": len(self._entries), "capacity": self.capacity,
                    **self.statistics.as_dict()}

    def __str__(self) -> str:
        stats = self.statistics
        return (f"PlanCache({len(self)}/{self.capacity} entries, "
                f"{stats.hits} hits, {stats.misses} misses, "
                f"{stats.invalidations} invalidations)")
