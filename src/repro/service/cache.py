"""The statement cache: one entry per query shape, reached by text or token key.

A query *shape* is a generic (auto-parameterized) query plus the optimize
flag (:mod:`repro.service.fingerprint`).  Its :class:`Shape` entry holds
what the service learned about it: the generic query and fingerprint, the
schema version it was analyzed under, the admission state, the plan (a
:class:`CachedPlan` with the versions it was prepared under), the lock its
builds serialize on, and the statement a pending feedback replan is priced
with.  Texts and token keys are aliases of a shape (:class:`Alias`) — a
text's holds its analysis, a token key's the rules that bind an unseen
text's literals (:func:`~repro.service.fingerprint.slot_rules`) — and a
shape takes its aliases (at most :data:`ALIASES_PER_SHAPE`) with it when
it goes.  A text that is no query is a :class:`TextEntry` of its own.  Shapes
and texts share one LRU order and one capacity.

One rule validates an entry (:meth:`StatementCache._valid`): a schema
change drops the whole entry; an index, statistics or knowledge change, or
data drift past ``reoptimize_fraction`` of the object count the plan was
priced against, drops only the plan.  (Prepared plans read all state at
execution time, so under drift they stay *correct*, only their choice goes
stale: bulk loads re-optimize, single-row churn does not.)

Admission (:meth:`StatementCache.admit`): a shape's first statement plans
for its own literal values, so a text that only repeats verbatim keeps the
plan priced for them; the first statement with other values drops that
plan, and the shape's next plan is shared by all its statements.

The cache is thread-safe; a miss is counted exactly when a plan is built.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any, Hashable, Optional

from repro.algebra.operators import LogicalOperator
from repro.datamodel.database import Database
from repro.optimizer.search import OptimizationResult
from repro.physical.executor import PreparedExecutable
from repro.physical.plans import PhysicalOperator
from repro.physical.profile import PlanProfile
from repro.service.fingerprint import cache_key, query_fingerprint
from repro.vql.analyzer import AnalyzedQuery, AnalyzedStatement

__all__ = ["ALIASES_PER_SHAPE", "Alias", "CachedPlan", "CacheStatistics",
           "Shape", "StatementCache", "TextEntry"]

#: the most aliases (texts and token keys) one shape keeps; its oldest
#: alias goes when another comes
ALIASES_PER_SHAPE = 4

#: admission state of a shape whose plan every statement shares
SHARED = "shared"


@dataclass
class CacheStatistics:
    """Counters describing the cache's behaviour since creation."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0


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


@dataclass(eq=False)
class Shape:
    """The cache entry of one query shape."""

    #: ``(generic query, optimize)``: the entry's key
    key: Hashable
    generic: AnalyzedQuery
    fingerprint: str
    optimize: bool
    schema_version: int
    #: admission: None before the first statement with literal values,
    #: then that statement's values, then :data:`SHARED`
    first: Any = None
    plan: Optional[CachedPlan] = None
    #: the statement whose execution evicted the plan through feedback:
    #: the next build is priced with its values
    replan: Any = None
    #: serializes builds of the plan (single flight)
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: the keys of the shape's aliases, oldest first
    aliases: list = field(default_factory=list)
    live: bool = True


@dataclass(eq=False)
class TextEntry:
    """The entry of a text that is no query: its analysis (an UPDATE's or
    DELETE's holds its WHERE-query's prepared handle, made with it)."""

    key: str
    statement: AnalyzedStatement
    schema_version: int
    live: bool = True
    plan = None


@dataclass(eq=False)
class Alias:
    """A text's way to its shape, with the text's ``statement`` (its
    analysis), or a token key's, with the slot rules ``bound``, ``kept``
    and ``twins`` derived under the set ``keep`` of literal values kept
    literal."""

    shape: Shape
    statement: Optional[AnalyzedStatement] = None
    keep: frozenset = frozenset()
    bound: tuple = ()
    kept: tuple = ()
    twins: tuple = ()


class StatementCache:
    """Bounded, version-validated LRU of shapes and of texts that are no
    query, plus the aliases of the shapes."""

    def __init__(self, capacity: int = 256,
                 reoptimize_fraction: float = 0.25):
        if capacity <= 0:
            raise ValueError("statement cache capacity must be positive")
        self.capacity = capacity
        self.reoptimize_fraction = reoptimize_fraction
        #: shapes by ``(generic query, optimize)`` and texts that are no
        #: query by their text, in LRU order
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: texts and token keys -> their :class:`Alias`
        self._aliases: dict[Hashable, Alias] = {}
        #: the texts it resolves without a parse: text aliases and entries
        self.texts = 0
        self._lock = threading.Lock()
        self.statistics = CacheStatistics()

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def get(self, key: Hashable, database: Database) -> Any:
        """The :class:`Alias` of a text or token *key*, or the
        :class:`TextEntry` of a text that is no query, or None."""
        with self._lock:
            alias = self._aliases.get(key)
            entry = self._entries.get(key) if alias is None else alias.shape
            if entry is None or not self._valid(entry, database):
                return None
            self._entries.move_to_end(entry.key)
            return entry if alias is None else alias

    def shape(self, generic: AnalyzedQuery, optimize: bool,
              schema_version: int) -> Shape:
        """The entry of the shape *generic* with *optimize*, made when
        there is none of *schema_version*."""
        key = cache_key(generic, optimize)
        with self._lock:
            shape = self._entries.get(key)
            if shape is not None and shape.schema_version == schema_version:
                self._entries.move_to_end(key)
                return shape
            if shape is not None:
                self._drop(shape)
            shape = Shape(key, generic, query_fingerprint(generic, optimize),
                          optimize, schema_version)
            self._insert(shape)
            return shape

    def alias(self, key: Hashable, alias: Alias) -> None:
        """Make *key* (a text or a token key) an alias of ``alias.shape``."""
        shape = alias.shape
        with self._lock:
            if not shape.live:
                return
            self._unalias(key)
            self._aliases[key] = alias
            self.texts += isinstance(key, str)
            shape.aliases.append(key)
            if len(shape.aliases) > ALIASES_PER_SHAPE:
                self._unalias(shape.aliases[0])

    def add(self, text: str, statement: AnalyzedStatement,
            schema_version: int) -> None:
        """Cache the analysis of *text*, which is no query."""
        with self._lock:
            if text not in self._entries:
                self._insert(TextEntry(text, statement, schema_version))
                self.texts += 1

    # ------------------------------------------------------------------
    # plans
    # ------------------------------------------------------------------
    def admit(self, shape: Shape, values: Optional[dict[str, Any]]) -> None:
        """Note a statement of *shape* with the literal *values*; the first
        with other values than the first statement's drops the first's plan
        and a replan pending for it."""
        if values is None or shape.first is SHARED:
            return
        values = tuple(values.values())
        with self._lock:
            if shape.first is None:
                shape.first = values
            elif shape.first != values and shape.first is not SHARED:
                shape.first = SHARED
                shape.plan = shape.replan = None

    def lookup(self, shape: Shape, database: Database,
               knowledge_version: int, record: bool = True
               ) -> Optional[CachedPlan]:
        """The valid plan of *shape*, or None.

        ``record=False`` skips the hit/miss counters (used for the
        double-checked lookup after waiting on another thread's build of
        the same shape)."""
        with self._lock:
            plan = (shape.plan if self._valid(shape, database,
                                              knowledge_version) else None)
            if plan is None:
                if record:
                    self.statistics.misses += 1
                return None
            self._entries.move_to_end(shape.key)
            if record:
                self.statistics.hits += 1
            plan.executions += 1
            return plan

    def store(self, shape: Shape, plan: CachedPlan) -> None:
        with self._lock:
            self.statistics.inserts += 1
            if shape.live:
                shape.plan = plan

    def discard(self, shape: Shape, plan: CachedPlan) -> None:
        """Drop *plan* from *shape*, if it still holds it, counted as an
        invalidation."""
        with self._lock:
            if shape.plan is plan:
                shape.plan = None
                self.statistics.invalidations += 1

    # ------------------------------------------------------------------
    # validity and eviction (callers hold the lock)
    # ------------------------------------------------------------------
    def _valid(self, entry, database: Database,
               knowledge_version: Optional[int] = None) -> bool:
        """The one validity rule: False (the entry dropped) after a schema
        change; else True, and given the *knowledge_version* (a plan
        lookup, not a text's resolution) the entry's plan is dropped when
        stale."""
        if not entry.live:
            return False
        versions = database.versions
        if entry.schema_version != versions.schema:
            self._drop(entry)
            return False
        plan = entry.plan
        if plan is not None and knowledge_version is not None and (
                plan.index_version != versions.index
                or plan.stats_version != versions.stats
                or plan.knowledge_version != knowledge_version
                or versions.data - plan.data_version
                > self.reoptimize_fraction * max(plan.object_count, 1)):
            entry.plan = None
            self.statistics.invalidations += 1
        return True

    def _insert(self, entry) -> None:
        self._entries[entry.key] = entry
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self._drop(evicted, evicted=True)

    def _drop(self, entry, evicted: bool = False) -> None:
        """Remove *entry* with all it holds: an eviction, or an
        invalidation when it held a plan."""
        entry.live = False
        if self._entries.get(entry.key) is entry:
            del self._entries[entry.key]
        if evicted:
            self.statistics.evictions += 1
        elif entry.plan is not None:
            self.statistics.invalidations += 1
        if isinstance(entry, TextEntry):
            self.texts -= 1
            return
        for key in list(entry.aliases):
            self._unalias(key)
        entry.plan = entry.replan = None

    def _unalias(self, key: Hashable) -> None:
        alias = self._aliases.pop(key, None)
        if alias is not None:
            alias.shape.aliases.remove(key)
            self.texts -= isinstance(key, str)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def entries(self) -> list[CachedPlan]:
        """The cached plans, least recently used first."""
        with self._lock:
            return [entry.plan for entry in self._entries.values()
                    if entry.plan is not None]

    def __len__(self) -> int:
        """The number of cached plans."""
        return len(self.entries())

    def snapshot(self) -> dict[str, int]:
        """Size (cached plans), capacity and behaviour counters in one
        consistent read (the feed behind the telemetry plan-cache gauges)."""
        with self._lock:
            size = sum(entry.plan is not None
                       for entry in self._entries.values())
            return {"size": size, "capacity": self.capacity,
                    **asdict(self.statistics)}
