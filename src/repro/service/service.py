"""The multi-client query service.

:class:`QueryService` is the production front end over one database: it
owns the schema-specific optimizer, the statement cache (one entry per
query shape, reached by a text or a token key, holding the shape's plan;
:mod:`repro.service.cache`) and a reader/writer lock that lets many
clients execute concurrently while service-mediated DDL and knowledge
registration drain in-flight queries before invalidating.

The request lifecycle::

    run_statement(text, params)     (execute, stream and the cursor)
      ├─ statement cache: text ──→ its analysis (a query: its shape and
      │     values; anything else goes to the StatementRouter)
      │   or, for a query text it has not seen, token key ──→ a known
      │     shape, the text's literals bound to it (no parse, analyze or
      │     generalize)
      │   or parse + analyze + auto-parameterize (literals ──→ synthetic
      │     parameters, repro.service.fingerprint.generalize), which
      │     writes the text's alias and its token key's
      ├─ resolve bindings (validates arity/names up front) + the
      │     statement's own literal values
      ├─ the shape's plan: CachedPlan (translate+optimize+compile once per
      │     shape, versioned; admitted for the first values, then shared)
      └─ RowStream over CachedPlan.executable (snapshot-pinned, lock-free):
            execute() drains it, a cursor fetches from it

UPDATE/DELETE WHERE clauses come back through ``execute_analyzed`` as
derived queries — drained streams too — so mutation predicates share the
statement cache.

Every response carries :class:`QueryMetrics` (cache hit/miss, optimize vs
execute time); the service aggregates them in :class:`ServiceMetrics`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Optional, Sequence, Union

from repro.algebra.expressions import Const
from repro.api.router import StatementRouter
from repro.datamodel import ddl
from repro.datamodel.database import Database
from repro.datamodel.statistics import ColumnIdentity, StatisticsCatalog
from repro.datamodel.versioning import current_pin
from repro.api.transaction import Transaction
from repro.errors import (ServiceError, TransactionConflictError,
                          TransactionError)
from repro.optimizer.generator import OptimizerGenerator
from repro.optimizer.knowledge import SchemaKnowledge
from repro.optimizer.search import OptimizerOptions, plan_query
from repro.physical.evaluator import make_hashable
from repro.physical.executor import PreparedExecutable, Row, prepare_plan
from repro.physical.plans import (Filter, HashJoin, IndexNestedLoopJoin,
                                  describe_physical_tree, with_plan_hints)
from repro.physical.profile import (ExplainReport, PlanProfile,
                                    divergent_operators, explain_analyze,
                                    misestimation, profile_summary)
from repro.service.cache import Alias, CachedPlan, Shape, StatementCache
from repro.service.concurrency import ReadWriteLock
from repro.service.fingerprint import (generalize, priced, slot_rules,
                                       slot_values)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.spans import (Tracer, activation, annotate_current,
                                   child_span, current_span)
from repro.vql.analyzer import AnalyzedQuery, AnalyzedStatement
from repro.vql.bindings import ParameterValues, resolve_bindings
from repro.vql.lexer import token_key

__all__ = ["PreparedQuery", "QueryMetrics", "QueryService",
           "ServiceMetrics", "ServiceResult"]


@dataclass(frozen=True)
class PreparedQuery:
    """A client-side handle to a prepared statement.

    Holding the handle skips parse + analyze on execution; the plan lives
    in ``shape``, its statement-cache entry, and is revalidated (and
    transparently re-prepared) on every execution.  ``analyzed`` is the
    statement as written, ``generic`` the same query with its eligible
    literals (all but those in ``keep``) auto-parameterized
    (:func:`~repro.service.fingerprint.generalize`) and ``auto_values`` the
    statement's values for them (``None``: it has none, and ``generic`` is
    ``analyzed``).  A statement resolved by its token key was never parsed:
    its ``analyzed`` is None and its ``generic`` the shape's (a plan built
    for it is priced with its own values).
    """

    text: str
    analyzed: Optional[AnalyzedQuery]
    optimize: bool
    fingerprint: str
    generic: AnalyzedQuery
    auto_values: Optional[dict[str, Any]] = None
    shape: Optional[Shape] = None
    keep: frozenset = frozenset()

    @property
    def parameters(self) -> tuple[str, ...]:
        """The client's parameters: the generic query's, less the
        synthetic ones it lists last."""
        keys = self.generic.parameters
        return keys[:len(keys) - len(self.auto_values)] if self.auto_values \
            else keys

    def bind(self, parameters: ParameterValues) -> dict[str, Any]:
        """Resolve the client's *parameters* and merge in the statement's
        own literal values: the bindings the generic plan runs with."""
        bindings = resolve_bindings(self.parameters, parameters)
        if self.auto_values:
            bindings.update(self.auto_values)
        return bindings


@dataclass
class QueryMetrics:
    """Per-execution measurements."""

    fingerprint: str
    cache_hit: bool
    rows: int = 0
    analyze_seconds: float = 0.0
    prepare_seconds: float = 0.0   # translate + optimize + compile (miss only)
    optimize_seconds: float = 0.0  # portion of prepare spent in the optimizer
    execute_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.analyze_seconds + self.prepare_seconds + self.execute_seconds


class ServiceMetrics:
    """The service's instruments in a :class:`~repro.telemetry.metrics.
    MetricsRegistry` (thread-safe): the ``record*`` methods write them,
    :meth:`snapshot` reads the sums, and the registry's exports
    (``service.registry.export()`` / ``Connection.metrics()``) additionally
    carry latency percentiles and per-statement stats.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._queries = reg.counter(
            "repro_statements_total", "statements executed by the service")
        self._cache_hits = reg.counter(
            "repro_plan_cache_hits_total", "executions served a cached plan")
        self._cache_misses = reg.counter(
            "repro_plan_cache_misses_total", "executions that built a plan")
        self._errors = reg.counter(
            "repro_statement_errors_total", "statements that raised")
        self._plans_reoptimized = reg.counter(
            "repro_plans_reoptimized_total",
            "plans rebuilt after an adaptive-feedback eviction")
        self._feedback_evictions = reg.counter(
            "repro_feedback_evictions_total",
            "cache invalidations triggered by feedback (a correction, or "
            "a plan priced for other literal values)")
        self._text_hits = reg.counter(
            "repro_statement_text_hits_total",
            "statements found in the statement cache by their text")
        self._token_hits = reg.counter(
            "repro_statement_token_hits_total",
            "query texts found in the statement cache by their token key "
            "(not parsed, analyzed or generalized)")
        self._statements_prepared = reg.gauge(
            "repro_cached_statements",
            "cached statement texts: query text aliases plus the entries "
            "of other statements")
        self._analyze = reg.histogram(
            "repro_analyze_seconds", "statement parse + analyze latency")
        self._prepare = reg.histogram(
            "repro_prepare_seconds",
            "translate+optimize+compile latency (cache misses)")
        self._optimize = reg.histogram(
            "repro_optimize_seconds", "optimizer latency (cache misses)")
        self._execute = reg.histogram(
            "repro_execute_seconds", "statement execute latency")
        self._txn_begins = reg.counter(
            "repro_txn_begins_total", "transactions begun")
        self._txn_commits = reg.counter(
            "repro_txn_commits_total", "transactions committed")
        self._txn_rollbacks = reg.counter(
            "repro_txn_rollbacks_total", "transactions rolled back")
        self._txn_conflicts = reg.counter(
            "repro_txn_conflicts_total",
            "transaction commits aborted by first-writer-wins conflicts")

    # -- recording ------------------------------------------------------
    def record_txn_begin(self) -> None:
        self._txn_begins.inc()

    def record_txn_commit(self) -> None:
        self._txn_commits.inc()

    def record_txn_rollback(self) -> None:
        self._txn_rollbacks.inc()

    def record_txn_conflict(self) -> None:
        self._txn_conflicts.inc()

    def record_feedback_eviction(self) -> None:
        self._feedback_evictions.inc()

    def record_reoptimized(self) -> None:
        self._plans_reoptimized.inc()

    def record_error(self) -> None:
        self._errors.inc()

    def record_text_hit(self) -> None:
        self._text_hits.inc()

    def record_token_hit(self) -> None:
        self._token_hits.inc()

    def set_statements_prepared(self, count: int) -> None:
        """Locked setter for the cached-texts gauge."""
        self._statements_prepared.set(count)

    def record(self, metrics: QueryMetrics) -> None:
        self._queries.inc()
        if metrics.cache_hit:
            self._cache_hits.inc()
        else:
            self._cache_misses.inc()
            # prepare/optimize histograms only see misses (a hit prepared
            # nothing)
            self._prepare.observe(metrics.prepare_seconds)
            self._optimize.observe(metrics.optimize_seconds)
        self._analyze.observe(metrics.analyze_seconds)
        self._execute.observe(metrics.execute_seconds)
        if metrics.fingerprint:
            self.registry.record_statement(metrics.fingerprint,
                                           metrics.total_seconds)

    def snapshot(self) -> dict[str, float]:
        queries = int(self._queries.value)
        cache_hits = int(self._cache_hits.value)
        return {
            "queries": queries,
            "cache_hits": cache_hits,
            "cache_misses": int(self._cache_misses.value),
            "errors": int(self._errors.value),
            "statements_prepared": int(self._statements_prepared.value),
            "statement_text_hits": int(self._text_hits.value),
            "statement_token_hits": int(self._token_hits.value),
            "plans_reoptimized": int(self._plans_reoptimized.value),
            "feedback_evictions": int(self._feedback_evictions.value),
            "hit_rate": (cache_hits / queries if queries else 0.0),
            "total_execute_seconds": self._execute.sum,
            "total_prepare_seconds": self._prepare.sum,
            "total_optimize_seconds": self._optimize.sum,
            "txn_begins": int(self._txn_begins.value),
            "txn_commits": int(self._txn_commits.value),
            "txn_rollbacks": int(self._txn_rollbacks.value),
            "txn_conflicts": int(self._txn_conflicts.value),
        }


@dataclass
class ServiceResult:
    """The outcome of one service execution (a drained :class:`RowStream`).

    ``bindings`` are the values ``plan`` ran with: the client's parameters
    plus the statement's own auto-parameterized literals.
    """

    rows: list[Row]
    output_ref: str
    metrics: QueryMetrics
    plan: CachedPlan
    bindings: dict[str, Any] = field(default_factory=dict)

    @property
    def values(self) -> list[Any]:
        return [row.get(self.output_ref) for row in self.rows]

    def value_set(self) -> set[Any]:
        return {make_hashable(value) for value in self.values}

    def __len__(self) -> int:
        return len(self.rows)


QueryInput = Union[str, PreparedQuery]


class QueryService:
    """A concurrent, plan-caching query front end over one database."""

    #: adaptive re-optimization: profile the first execution of every
    #: cost-based plan (and the first after data drift), and when an
    #: operator's estimate diverges from the measurement by more than this
    #: factor, write a correction into the statistics catalog and replan.
    #: Only armed once the database has ANALYZE statistics — without them
    #: every estimate is a schema default and corrections would chase noise.
    FEEDBACK_THRESHOLD = 10.0

    def __init__(self, database: Database,
                 knowledge: Optional[SchemaKnowledge] = None,
                 options: Optional[OptimizerOptions] = None,
                 exclude_tags: Sequence[str] = (),
                 cache_capacity: int = 256,
                 reoptimize_fraction: float = 0.25,
                 tracing: Optional[bool] = None,
                 tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 slow_query_ms: Optional[float] = None):
        self.database = database
        #: statement tracing (span tree per statement): ``tracing=None``
        #: consults the ``REPRO_TRACE`` environment variable; pass a
        #: pre-built :class:`~repro.telemetry.spans.Tracer` to share a ring
        #: buffer or attach sinks.  Disabled tracing costs one branch per
        #: statement (see :mod:`repro.telemetry.spans`).
        if tracer is not None:
            self.tracer = tracer
        else:
            if tracing is None:
                tracing = os.environ.get("REPRO_TRACE", "").strip().lower() \
                    in ("1", "true", "yes", "on")
            self.tracer = Tracer(enabled=tracing)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slow_log = SlowQueryLog(threshold_ms=slow_query_ms)
        # When a durable storage adapter is attached (connect(durability=
        # "wal")), wire its WAL/checkpoint telemetry into this service's
        # registry, slow log and tracer so Connection.metrics() carries
        # wal_records/wal_bytes/fsync histograms alongside the query-side
        # instruments.
        storage = getattr(database, "storage", None)
        if storage is not None:
            storage.bind_telemetry(registry=self.registry,
                                   slow_log=self.slow_log,
                                   tracer=self.tracer)
        self.schema = database.schema
        self.knowledge = knowledge or SchemaKnowledge(self.schema)
        self._options = options
        self._exclude_tags = tuple(exclude_tags)
        self._generator = OptimizerGenerator(self.schema, self.knowledge,
                                             options=options)
        self._optimizer = self._generator.generate(
            database=database, exclude_tags=self._exclude_tags, options=options)
        self._knowledge_version = 0
        self._knowledge_size = len(self.knowledge)
        #: literal values auto-parameterization leaves alone: the semantic
        #: rules match them literally (recomputed with the optimizer)
        self._literal_constants = self.knowledge.pattern_constants()
        self.cache = StatementCache(capacity=cache_capacity,
                                    reoptimize_fraction=reoptimize_fraction)
        self._gate = ReadWriteLock()
        self.metrics = ServiceMetrics(registry=self.registry)
        #: the shared statement front end: classification, DML and DDL live
        #: in the router; it resolves texts through the statement cache, and
        #: queries come back through ``execute_analyzed`` so they (and
        #: UPDATE/DELETE WHERE clauses) run the shape's cached plan.  The
        #: write guard is the traced wrapper so gate waits show up as spans.
        self.router = StatementRouter(
            database,
            run_query=self.execute_analyzed,
            explain_query=self._explain_analyzed,
            write_guard=self._traced_write_guard,
            resolve=self._analyzed)
        self._register_gauges()

    def _register_gauges(self) -> None:
        """Callback-backed gauges: plan cache, statistics catalog — read
        live at export time, no per-statement upkeep."""
        reg = self.registry
        reg.gauge("repro_plan_cache_size", "cached plans",
                  fn=lambda: float(len(self.cache)))
        reg.gauge("repro_plan_cache_capacity", "plan cache capacity",
                  fn=lambda: float(self.cache.capacity))
        reg.gauge("repro_plan_cache_evictions", "plan cache LRU evictions",
                  fn=lambda: float(self.cache.statistics.evictions))
        reg.gauge("repro_plan_cache_invalidations",
                  "plan cache version invalidations",
                  fn=lambda: float(self.cache.statistics.invalidations))
        reg.gauge("repro_statistics_analyzed_classes",
                  "classes with ANALYZE statistics",
                  fn=lambda: float(len(self._stats_catalog().analyzed_classes())
                                   if self._stats_catalog() else 0))
        reg.gauge("repro_statistics_corrections",
                  "feedback corrections held by the statistics catalog",
                  fn=lambda: float(self._stats_catalog().correction_count()
                                   if self._stats_catalog() else 0))

    def _stats_catalog(self):
        return getattr(self.database, "stats_catalog", None)

    @contextmanager
    def _traced_write_guard(self):
        """The router's write guard with the gate *wait* traced: only the
        acquisition is inside the span, so a long write section is never
        mistaken for lock contention."""
        with child_span("write-gate-wait"):
            self._gate.acquire_write()
        try:
            yield
        finally:
            self._gate.release_write()

    # ------------------------------------------------------------------
    # statement preparation
    # ------------------------------------------------------------------
    def prepare(self, text: str, optimize: bool = True) -> PreparedQuery:
        """Resolve query *text* through the statement cache (a parse on a
        miss) and warm the cache with its plan."""
        analyzed = self._analyzed(text, optimize)
        if not analyzed.is_query:
            raise ServiceError(
                f"cannot prepare a {analyzed.kind.upper()} statement — "
                "prepare() is for queries")
        statement = self._handle(analyzed, optimize)
        self.metrics.set_statements_prepared(self.cache.texts)
        self._plan_for(statement)
        return statement

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, query: QueryInput,
                parameters: ParameterValues = None,
                optimize: bool = True):
        """Execute one statement (text or prepared handle) with *parameters*.

        Query text routes through the shared :class:`StatementRouter`, so —
        beyond ``ACCESS`` queries — the service accepts the full statement
        language (``INSERT``/``UPDATE``/``DELETE``/DDL); queries return a
        :class:`ServiceResult` (a drained :class:`RowStream`), mutations a
        :class:`~repro.api.router.StatementResult`.
        """
        return self.run_statement(query, parameters, optimize)

    def stream(self, query: QueryInput,
               parameters: ParameterValues = None,
               optimize: bool = True) -> "RowStream":
        """Open a lazy :class:`RowStream` over the cached plan for *query*:
        rows come from the plan's generator tree on demand, under the
        stream's snapshot and bindings, always from the plain build."""
        return self.run_statement(query, parameters, optimize, stream=True,
                                  route=_refuse_stream)

    def run_statement(self, query: QueryInput,
                      parameters: ParameterValues = None,
                      optimize: bool = True, *, stream: bool = False,
                      at: Optional[int] = None, route=None,
                      **attributes: Any):
        """The one statement entry behind :meth:`execute`, :meth:`stream`
        and the statement API's cursor: opens the root span (annotated with
        *attributes*), times parse + analyze, counts a failure once.

        The text resolves through :meth:`_resolve`.  A query runs through
        :meth:`_run` — drained into a
        :class:`ServiceResult`, or with *stream* returned as an open
        :class:`RowStream` (*at*: a transaction's snapshot).  Any other
        statement goes to ``route(analyzed, parameters)`` (default: the
        router) and is slow-logged; a route that only buffered it returns
        None.
        """
        span = self.tracer.begin_root("statement", **attributes)
        started = time.perf_counter()
        try:
            with activation(span):
                if isinstance(query, PreparedQuery):
                    return self._run(query, parameters, span, at=at,
                                     drain=not stream)
                analyzed = self._resolve(query, optimize)
                analyze_seconds = time.perf_counter() - started
                self.metrics.set_statements_prepared(self.cache.texts)
                if isinstance(analyzed, PreparedQuery):
                    return self._run(
                        analyzed, parameters, span,
                        analyze_seconds=analyze_seconds, at=at,
                        drain=not stream)
                result = (self.router.execute(analyzed, parameters, optimize)
                          if route is None else route(analyzed, parameters))
        except BaseException as exc:
            self.metrics.record_error()
            self.tracer.finish(span, error=exc)
            raise
        elapsed = time.perf_counter() - started
        if result is not None:
            if span is not None:
                span.annotate(kind=result.kind, rows=len(result))
            if self.slow_log.would_log(elapsed):
                self.slow_log.record(
                    text=str(query), seconds=elapsed,
                    parameters=(parameters if isinstance(parameters, dict)
                                else None),
                    rows=len(result))
        self.tracer.finish(span)
        return result

    def execute_analyzed(self, statement: AnalyzedStatement,
                         parameters: ParameterValues = None,
                         optimize: bool = True,
                         at: Optional[int] = None) -> ServiceResult:
        """The router's query runner: execute the query of *statement* (a
        query, or an UPDATE's/DELETE's WHERE-query) by its shape's cached
        plan, at the snapshot *at* (default: the latest published one).  A
        failure is counted by the statement that issued the query."""
        return self._run(self._handle(statement, optimize), parameters,
                         self.tracer.begin_root("statement"), at=at,
                         drain=True)

    # ------------------------------------------------------------------
    # statement resolution: everything goes through the statement cache
    # ------------------------------------------------------------------
    def _resolve(self, text: str, optimize: bool
                 ) -> Union[PreparedQuery, AnalyzedStatement]:
        """Resolve statement *text* through the statement cache: by the
        text; then by its token key (:func:`~repro.vql.lexer.token_key`),
        whose alias binds the text's literals exactly as a full parse would
        generalize them — unless they break its slot rules or the keep-set
        or optimize flag differ; else by a full parse.  A query comes back
        as its prepared handle, any other statement analyzed."""
        cache = self.cache
        database = self.database
        with child_span("analyze") as span:
            found = cache.get(text, database)
            cached = found is not None
            if cached:
                self.metrics.record_text_hit()
                analyzed = found.statement
            else:
                keep = self._literal_constants
                tokens, literals = token_key(text)
                alias = cache.get(tokens, database)
                values = (None if alias is None or alias.keep != keep
                          or alias.shape.optimize != optimize
                          else slot_values(alias.bound, alias.kept,
                                           alias.twins, tokens, literals,
                                           keep))
                if values is not None:
                    self.metrics.record_token_hit()
                    if span is not None:
                        span.annotate(cached="tokens", kind="select")
                    shape = alias.shape
                    return PreparedQuery(
                        text=text, analyzed=None, optimize=optimize,
                        fingerprint=shape.fingerprint, generic=shape.generic,
                        auto_values=values or None, shape=shape, keep=keep)
                analyzed = self._parsed(text, optimize, tokens, literals)
            if span is not None:
                span.annotate(cached=cached, kind=analyzed.kind)
        if analyzed.is_query:
            return self._handle(analyzed, optimize)
        return analyzed

    def _analyzed(self, text: str, optimize: bool = True) -> AnalyzedStatement:
        """The router's resolver: *text* analyzed, from the statement cache
        or by a full parse that caches it."""
        found = self.cache.get(text, self.database)
        return (found.statement if found is not None
                else self._parsed(text, optimize))

    def _parsed(self, text: str, optimize: bool = True,
                tokens: Optional[tuple] = None,
                literals: Optional[dict] = None) -> AnalyzedStatement:
        """Parse and analyze *text* and cache it: a query as an alias of its
        shape, and so its token key when its literals map onto the shape's
        parameters; any other text as an entry, an UPDATE/DELETE with its
        WHERE-query's shape reached now."""
        analyzed = self.router.parse(text)
        if not analyzed.is_query:
            if analyzed.query is not None:
                self._handle(analyzed, optimize)
            self.cache.add(text, analyzed, self.database.versions.schema)
            return analyzed
        statement = self._handle(analyzed, optimize)
        self.cache.alias(text, Alias(statement.shape, statement=analyzed))
        if tokens is not None:
            rules = slot_rules(tokens, literals, analyzed.query,
                               statement.generic, statement.auto_values)
            if rules is not None:
                self.cache.alias(tokens, Alias(
                    statement.shape, keep=statement.keep,
                    bound=rules[0], kept=rules[1], twins=rules[2]))
        return analyzed

    def _handle(self, analyzed: AnalyzedStatement,
                optimize: bool) -> PreparedQuery:
        """The prepared handle of *analyzed*'s query, kept in its scratch
        space: made with its cache entry, made again for another optimize
        flag or keep-set, or when its shape left the cache."""
        keep = self._literal_constants
        statement = analyzed.cache.get("prepared")
        if statement is None or statement.optimize != optimize \
                or statement.keep is not keep and statement.keep != keep \
                or not statement.shape.live:
            query = analyzed.query
            generic, auto_values = generalize(query, keep)
            shape = self.cache.shape(generic, optimize,
                                     self.database.versions.schema)
            statement = analyzed.cache["prepared"] = PreparedQuery(
                text=str(query.query), analyzed=query, optimize=optimize,
                fingerprint=shape.fingerprint, generic=generic,
                auto_values=auto_values, shape=shape, keep=keep)
        return statement

    def _run(self, statement: PreparedQuery, parameters: ParameterValues,
             span, analyze_seconds: float = 0.0, at: Optional[int] = None,
             drain: bool = False):
        """Run *statement*'s cached plan — the one place a cached plan runs.

        Binds the parameters, looks the plan up in the cache and opens a
        :class:`RowStream` over it (the stream takes its snapshot by the
        one scoping rule).  ``drain=True`` is a one-shot execution: it runs
        the profiled twin while feedback watches the plan, drains the
        stream into a :class:`ServiceResult` and applies feedback on
        exhaustion; otherwise the open stream is returned and runs the
        plain build.  *span* (the statement's root, or None) finishes with
        the stream.  Errors are the caller's to count, except those an
        open stream raises from a later fetch, which no caller sees.
        """
        host = span if span is not None else current_span()
        try:
            with activation(span):
                bindings = statement.bind(parameters)
                shape, entry, cache_hit = self._plan_for(statement)
                executable = (self._watched_executable(entry, statement)
                              if drain else entry.executable)
        except BaseException as exc:
            self.tracer.finish(span, error=exc)
            raise
        metrics = QueryMetrics(
            fingerprint=entry.fingerprint,
            cache_hit=cache_hit,
            analyze_seconds=analyze_seconds,
            prepare_seconds=0.0 if cache_hit else entry.prepare_seconds,
            optimize_seconds=0.0 if cache_hit else entry.optimize_seconds)

        def finish(stream: "RowStream",
                   error: Optional[BaseException]) -> None:
            # accounted once, when the stream exhausts, fails or is closed
            # (rows = what was consumed)
            metrics.rows = stream.consumed
            metrics.execute_seconds = stream.fetch_seconds
            if host is not None:
                host.child_event("execute", stream.fetch_seconds,
                                 rows=stream.consumed)
            if error is None or not drain:  # else the caller counts it
                # the slow log reads a drained run's armed profile before
                # the feedback check consumes it
                self._finish_statement(
                    statement, entry, bindings, metrics, host, error=error,
                    profile=entry.feedback_profile if drain else None)
                if drain:
                    self._maybe_apply_feedback(shape, entry, statement)
            self.tracer.finish(span, error=error)

        stream = RowStream(self.database, entry, bindings, on_finish=finish,
                           at=at, executable=executable)
        if not drain:
            return stream
        with activation(span):
            rows = stream.drain()
        return ServiceResult(rows=rows, output_ref=entry.output_ref,
                             metrics=metrics, plan=entry, bindings=bindings)

    def _finish_statement(self, statement: PreparedQuery, entry: CachedPlan,
                          bindings: Optional[dict], metrics: QueryMetrics,
                          span, error: Optional[BaseException] = None,
                          profile: Optional[PlanProfile] = None) -> None:
        """Account one finished query statement — the single tail of every
        :meth:`_run`: service metrics (an *error* counts as a failed
        statement, not an executed one), the statement span's annotations,
        the slow-query log (the statement's own text and the client's
        parameters; the fingerprint names its shape; an armed *profile*
        adds its estimate-vs-actual records)."""
        if error is None:
            self.metrics.record(metrics)
        else:
            self.metrics.record_error()
        if span is not None:
            span.annotate(fingerprint=entry.fingerprint,
                          cache_hit=metrics.cache_hit, rows=metrics.rows)
        if self.slow_log.would_log(metrics.execute_seconds):
            if bindings and statement.auto_values:
                bindings = {key: value for key, value in bindings.items()
                            if key not in statement.auto_values}
            self.slow_log.record(
                text=statement.text or f"<prepared {entry.fingerprint}>",
                fingerprint=entry.fingerprint,
                seconds=metrics.execute_seconds,
                parameters=bindings,
                plan=describe_physical_tree(entry.physical_plan),
                cache_hit=metrics.cache_hit,
                rows=metrics.rows,
                profile=profile_summary(
                    entry.physical_plan, profile,
                    cost_model=self._optimizer.cost_model)
                if profile else None)

    def run_concurrent(self, requests: Iterable[tuple[QueryInput,
                                                      ParameterValues]],
                       workers: int = 4) -> list[ServiceResult]:
        """Execute many ``(query, parameters)`` requests on a worker pool.

        Results are returned in request order; any request's exception is
        re-raised after the pool drains.
        """
        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="query-service") as pool:
            futures = [pool.submit(self.execute, query, parameters)
                       for query, parameters in requests]
            return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # plans
    # ------------------------------------------------------------------
    def _plan_for(self, statement: PreparedQuery
                  ) -> tuple[Shape, CachedPlan, bool]:
        """*statement*'s shape entry (found again, or made, when the one it
        holds left the cache), the shape's valid plan — built on a miss,
        one build per shape at a time — and whether it was cached."""
        cache = self.cache
        database = self.database
        shape = statement.shape
        schema_version = database.versions.schema
        if not shape.live or shape.schema_version != schema_version:
            shape = cache.shape(statement.generic, statement.optimize,
                                schema_version)
        cache.admit(shape, statement.auto_values)
        with child_span("plan-cache") as lookup_span:
            entry = cache.lookup(shape, database, self._knowledge_version)
            if lookup_span is not None:
                lookup_span.annotate(hit=entry is not None)
        if entry is not None:
            return shape, entry, True
        with shape.lock:
            # Double-checked: another thread may have built this shape
            # while we waited on its lock — that still counts as a hit.
            entry = cache.lookup(shape, database, self._knowledge_version,
                                 record=False)
            if entry is not None:
                return shape, entry, True
            # Builds read the live schema/index/statistics state, so they
            # still drain behind DDL writers; plain executions no longer
            # pass through the gate at all.  The commit path runs
            # WHERE-queries while *holding* the write gate — the lock
            # admits its owner's nested read without deadlock.
            with self._gate.read_locked():
                entry = self._prepare_entry(shape, statement)
            cache.store(shape, entry)
        return shape, entry, False

    def _prepare_entry(self, shape: Shape,
                       statement: PreparedQuery) -> CachedPlan:
        versions = self.database.versions
        schema_version = versions.schema
        index_version = versions.index
        data_version = versions.data
        stats_version = versions.stats
        object_count = self.database.object_count()

        # A feedback replan is priced with the values of the statement that
        # triggered it (the same shape).
        trigger = shape.replan
        planned = statement if trigger is None else trigger
        generic = planned.generic
        if planned.auto_values:
            generic = priced(generic, planned.auto_values)
        started = time.perf_counter()
        translation, optimization, physical = plan_query(
            generic, self._optimizer, statement.optimize,
            replan=trigger is not None)
        executable = prepare_plan(physical, self.database)
        prepare_seconds = time.perf_counter() - started
        optimize_seconds = (optimization.statistics.optimization_seconds
                            if optimization is not None else 0.0)

        if trigger is not None:
            shape.replan = None
            self.metrics.record_reoptimized()

        return CachedPlan(
            fingerprint=statement.fingerprint,
            analyzed=generic,
            hint_values=planned.auto_values,
            output_ref=translation.output_ref,
            logical_plan=translation.plan,
            physical_plan=physical,
            executable=executable,
            optimize=statement.optimize,
            optimization=optimization,
            schema_version=schema_version,
            index_version=index_version,
            data_version=data_version,
            stats_version=stats_version,
            knowledge_version=self._knowledge_version,
            object_count=object_count,
            prepare_seconds=prepare_seconds,
            optimize_seconds=optimize_seconds)

    # ------------------------------------------------------------------
    # adaptive feedback re-optimization
    # ------------------------------------------------------------------
    def _watched_executable(self, entry: CachedPlan,
                            statement: PreparedQuery) -> PreparedExecutable:
        """The executable *statement*'s ``execute()`` of *entry* runs: the
        plain build, or the profiled twin while feedback watches the plan.

        Feedback watches the first execution of every cost-based plan, the
        first after each data change, and — for an auto-parameterized
        shape — the first with other literal values than the last watched
        one: the plan cache tolerates drift below its re-optimize fraction,
        and one plan serves every value of a shape, so a plan can
        legitimately keep running on data or values it was not priced for;
        watching those executions is what lets feedback catch the
        misestimation the heuristics let through.  Arming costs a profile
        reset (plus, once per cached plan, compiling the twin); it needs
        ANALYZE statistics — without them every estimate is a schema
        default and corrections would chase noise.  Cursor streams never
        come through here: they always run the plain build.
        """
        if entry.feedback_profile is None:
            data_version = self.database.versions.data
            values = statement.auto_values
            if ((entry.feedback_data_version == data_version
                 and values == entry.feedback_values)
                    or not entry.optimize):
                return entry.executable
            catalog = self._stats_catalog()
            if catalog is None or not catalog.analyzed_classes():
                return entry.executable
            profiled = entry.profiled_executable
            if profiled is None:
                profiled = entry.profiled_executable = prepare_plan(
                    entry.physical_plan, self.database, profile=PlanProfile())
            profiled.profile.reset()
            entry.feedback_profile = profiled.profile
            entry.feedback_data_version = data_version
            entry.feedback_values = values
        return entry.profiled_executable

    def _maybe_apply_feedback(self, shape: Shape, entry: CachedPlan,
                              statement: PreparedQuery) -> None:
        """Consume one profiled execution: feed material estimate/actual
        divergences back into the statistics catalog and trigger a replan.

        The armed profile is always consumed (the next execution runs the
        plain build again, so steady-state executions pay no counter
        overhead).  When *statement* ran the plan with the literal values
        it was priced for, a divergent operator that yields a material
        correction bumps the stats version, which invalidates every plan
        optimized against the pre-feedback estimates.  When it ran other
        values (one plan serves every value of a shape), the estimates were
        not wrong, only priced for other values: if re-pricing a divergent
        operator with *statement*'s values brings it within the threshold,
        *shape*'s plan alone is dropped and replanned with those values —
        the skewed value gets its own plan without a correction or a
        knob."""
        profile = entry.feedback_profile
        if profile is None or len(profile) == 0:
            return
        with child_span("feedback") as span:
            entry.feedback_profile = None
            catalog = self._stats_catalog()
            if catalog is None:
                return
            cost_model = self._optimizer.cost_model
            divergences = divergent_operators(
                entry.physical_plan, profile, cost_model,
                threshold=self.FEEDBACK_THRESHOLD)
            if statement.auto_values != entry.hint_values:
                applied = self._priced_by_values(divergences,
                                                 statement.auto_values,
                                                 cost_model)
                if applied:
                    self.cache.discard(shape, entry)
            else:
                applied = False
                for record in divergences:
                    applied = self._apply_correction(record, cost_model,
                                                     catalog) or applied
                if applied:
                    self.database.note_stats_correction()
            if span is not None:
                span.annotate(divergences=len(divergences), applied=applied)
            if applied:
                shape.replan = statement
                self.metrics.record_feedback_eviction()

    def _priced_by_values(self, divergences: list[dict],
                          values: dict[str, Any], cost_model) -> bool:
        """True when some divergent operator, re-priced with *values* as its
        costing hints, comes within the feedback threshold of the rows it
        produced — the divergence was the values', not the statistics'."""
        for record in divergences:
            repriced = cost_model.estimate(
                with_plan_hints(record["operator"], values)).cardinality
            if misestimation(repriced, record["actual_rows"]) \
                    <= self.FEEDBACK_THRESHOLD:
                return True
        return False

    def _apply_correction(self, record: dict, cost_model, catalog) -> bool:
        """Translate one divergent operator into a catalog correction.

        Joins yield a class-pair selectivity (``actual_out / (actual_left ×
        actual_right)``), filters a per-predicate selectivity (``actual_out
        / actual_in``) — both computed against the children's *measured*
        cardinalities, so a divergence inherited from a misestimated child
        does not masquerade as a selectivity error here.  Returns True only
        when the catalog accepted the correction as a material change."""
        plan = record["operator"]
        actual_out = record["actual_rows"]
        if isinstance(plan, IndexNestedLoopJoin):
            (left_actual,) = record["child_actual_rows"]
            return self._join_correction(
                cost_model, catalog,
                cost_model.join_key_identity(plan.left_key, plan.left),
                ColumnIdentity.of(plan.class_name, plan.prop),
                actual_out, left_actual,
                cost_model.extension_size(plan.class_name))
        if isinstance(plan, HashJoin):
            left_actual, right_actual = record["child_actual_rows"]
            return self._join_correction(
                cost_model, catalog,
                cost_model.join_key_identity(plan.left_key, plan.left),
                cost_model.join_key_identity(plan.right_key, plan.right),
                actual_out, left_actual, right_actual)
        if isinstance(plan, Filter):
            key = cost_model.predicate_identity(plan.condition, plan.input)
            (input_actual,) = record["child_actual_rows"]
            if key is None or input_actual <= 0:
                return False
            observed = actual_out / input_actual
            estimated = cost_model.condition_selectivity(
                plan.condition, float(input_actual), source=plan.input)
            if self._immaterial(observed, estimated):
                return False
            return catalog.record_predicate_correction(key, observed,
                                                       estimated)
        return False

    def _join_correction(self, cost_model, catalog, left_identity,
                         right_identity, actual_out, left_actual,
                         right_actual) -> bool:
        if left_identity is None or right_identity is None:
            return False
        denominator = float(left_actual) * float(right_actual)
        if denominator <= 0:
            return False
        observed = actual_out / denominator
        estimated = cost_model.join_selectivity(
            left_identity, right_identity,
            float(left_actual), float(right_actual))
        if self._immaterial(observed, estimated):
            return False
        key = cost_model.join_correction_key(left_identity, right_identity)
        return catalog.record_join_correction(key, observed, estimated)

    @staticmethod
    def _immaterial(observed: float, estimated: float) -> bool:
        """True when the observed selectivity already matches what the cost
        model (including prior corrections) would predict — the operator's
        divergence came from elsewhere in the plan, not this selectivity."""
        low = max(min(observed, estimated), 1e-12)
        high = max(observed, estimated, 1e-12)
        return high / low <= StatisticsCatalog.MATERIAL_CHANGE_RATIO

    # ------------------------------------------------------------------
    # invalidation-triggering operations (writers)
    # ------------------------------------------------------------------
    def register_knowledge(self, *items: Any) -> None:
        """Add semantic knowledge and regenerate the optimizer.

        Drains in-flight executions, bumps the knowledge version (strictly
        invalidating every cached plan) and rebuilds the rule set.
        """
        if not items:
            raise ServiceError("register_knowledge needs at least one item")
        with self._gate.write_locked():
            for item in items:
                self.knowledge.add(item)
            self._refresh_optimizer()

    def sync_knowledge(self) -> bool:
        """Pick up knowledge added directly to the shared knowledge object.

        ``SchemaKnowledge`` only ever grows, so a size change is a reliable
        signal that its rules are stale in the generated optimizer.  Returns
        True when a regeneration happened.
        """
        if len(self.knowledge) == self._knowledge_size:
            return False
        with self._gate.write_locked():
            if len(self.knowledge) == self._knowledge_size:
                return False
            self._refresh_optimizer()
        return True

    def _refresh_optimizer(self) -> None:
        """Rebuild the optimizer from current knowledge (caller holds the
        write lock) and invalidate every cached plan via the version bump."""
        self._generator = OptimizerGenerator(
            self.schema, self.knowledge, options=self._options)
        self._optimizer = self._generator.generate(
            database=self.database, exclude_tags=self._exclude_tags,
            options=self._options)
        self._knowledge_version += 1
        self._knowledge_size = len(self.knowledge)
        self._literal_constants = self.knowledge.pattern_constants()

    def create_index(self, class_name: str, prop: str, kind: str = "hash"):
        """Create a ``hash``/``sorted``/``text`` index under the write gate.

        The one index-DDL entry point, backed by :mod:`repro.datamodel.ddl`
        (like the ``CREATE [HASH|SORTED|TEXT] INDEX`` statements).
        """
        with self._gate.write_locked():
            return ddl.create_index(self.database, kind, class_name, prop)

    def drop_index(self, class_name: str, prop: str, text: bool = False) -> None:
        """Drop the (text) index on ``class_name.prop`` under the write gate."""
        with self._gate.write_locked():
            ddl.drop_index(self.database, class_name, prop, text=text)

    def checkpoint(self):
        """Checkpoint the storage adapter under the write gate.

        Writers drain and stay blocked while the snapshot serializes
        (MVCC readers keep running); returns the checkpointed commit
        timestamp, or None when the database has no durable adapter.
        """
        storage = getattr(self.database, "storage", None)
        if storage is None or not storage.durable:
            return None
        with self._gate.write_locked():
            return storage.checkpoint()

    # ------------------------------------------------------------------
    # transactions (deferred-write MVCC, first-writer-wins)
    # ------------------------------------------------------------------
    def begin_transaction(self) -> Transaction:
        """Open a transaction pinned to the latest published snapshot.

        The returned :class:`~repro.api.transaction.Transaction` holds a
        *registered* snapshot pin, so the version chains its statements
        read stay unpruned until commit or rollback.
        """
        txn = Transaction(self.database, self.database.acquire_snapshot())
        self.metrics.record_txn_begin()
        return txn

    def rollback_transaction(self, txn: Transaction) -> None:
        """Discard *txn*: release the snapshot pin, drop the buffer."""
        if txn.state == "active":
            txn.state = "rolled back"
            self.metrics.record_txn_rollback()
        txn.release()

    def commit_transaction(self, txn: Transaction) -> int:
        """Validate and atomically apply *txn*; returns the row count.

        First-writer-wins: under the write gate, every object of the
        transaction's write set must still carry a last write at or before
        the begin snapshot — an object committed (or deleted) past it by
        another transaction raises
        :class:`~repro.errors.TransactionConflictError` and rolls this
        transaction back (nothing was applied early, so rollback is free).
        On success every buffered operation applies in one commit scope,
        becoming visible to other snapshots at a single commit timestamp.
        """
        if txn.state != "active":
            raise TransactionError(
                f"cannot COMMIT a transaction that is {txn.state}")
        try:
            with self.tracer.span("transaction-commit"):
                with self._traced_write_guard():
                    stale = []
                    for oid in txn.write_set:
                        last = self.database.last_write_ts(oid)
                        if last is None or last > txn.start_ts:
                            stale.append(oid)
                    if stale:
                        raise TransactionConflictError(
                            f"transaction begun at snapshot {txn.start_ts} "
                            f"lost first-writer-wins validation on "
                            f"{len(stale)} object(s) (first: {stale[0]})")
                    total = self.router.apply_transaction(txn.operations)
                annotate_current(operations=len(txn.operations), rows=total)
        except Exception as exc:
            # the caller counts the failed commit in ``errors``: a COMMIT
            # statement's entry, or Connection.commit() called directly
            txn.state = "rolled back"
            txn.release()
            if isinstance(exc, TransactionConflictError):
                self.metrics.record_txn_conflict()
            raise
        txn.state = "committed"
        # apply_transaction ran in one commit scope, so the timestamp it
        # published is the whole transaction's (and its single WAL
        # record's) commit timestamp
        txn.commit_ts = self.database.clock.published
        txn.release()
        self.metrics.record_txn_commit()
        return total

    def transaction_targets(self, analyzed, parameters,
                            at: int) -> tuple[dict, tuple]:
        """Resolve an UPDATE/DELETE's bindings and target OIDs at *at*.

        The WHERE-query runs through the plan cache pinned to the
        transaction's begin snapshot, so a transaction's own statements
        agree with its queries about which objects exist.
        """
        bindings = resolve_bindings(analyzed.parameters, parameters)
        sub_parameters = ({key: bindings[key]
                           for key in analyzed.query.parameters} or None)
        result = self.execute_analyzed(analyzed, sub_parameters, at=at)
        ref = result.output_ref
        targets = tuple(dict.fromkeys(row[ref] for row in result.rows))
        return bindings, targets

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def explain(self, text: str, *, optimize: bool = True,
                analyze: bool = False,
                parameters: ParameterValues = None) -> str:
        """Describe how *text* would be evaluated (preparing it if needed).

        For UPDATE/DELETE statements this explains the derived WHERE-query,
        which is where an indexed mutation predicate shows its index access
        path.  With ``analyze=True`` (or ``EXPLAIN ANALYZE ...`` text) the
        plan additionally runs under per-operator instrumentation and the
        report compares estimated with actual cardinalities.
        """
        return self.router.explain(text, optimize=optimize, analyze=analyze,
                                   parameters=parameters)

    def _explain_analyzed(self, analyzed: AnalyzedStatement,
                          optimize: bool = True, analyze: bool = False,
                          parameters: ParameterValues = None) -> str:
        statement = self._handle(analyzed, optimize)
        _, entry, _ = self._plan_for(statement)
        if entry.optimization is not None:
            report = entry.optimization.explain()
        else:
            report = ("naive plan:\n"
                      + describe_physical_tree(entry.physical_plan, depth=1))
        if statement.auto_values:
            # the plan shown is the shape's cached plan — the one that runs
            report += "\nauto-parameters: " + ", ".join(
                f"{key} = {Const(value)}"
                for key, value in statement.auto_values.items())
        records: Optional[list[dict]] = None
        if analyze:
            # A *fresh* profiled executable runs the entry's plan (cached
            # executables stay unprofiled — the counters are per-diagnostic,
            # not per-cache-entry) in a stream scoped like any query's, with
            # the statement's own literal values bound.
            profiled = prepare_plan(entry.physical_plan, self.database,
                                    profile=PlanProfile())
            rows = RowStream(self.database, entry, statement.bind(parameters),
                             executable=profiled).drain()
            profile_text, records = explain_analyze(
                entry.physical_plan, profiled.profile, len(rows),
                self._optimizer.cost_model)
            report += "\n" + profile_text
        return ExplainReport(report, records)

    def __str__(self) -> str:
        return (f"QueryService({self.database}, {len(self.cache)} cached "
                f"plans, knowledge v{self._knowledge_version})")


class RowStream:
    """A lazy row feed over one cached plan — the only way the service runs
    one: ``execute()`` drains a stream, a cursor fetches from one.

    The stream owns a generator opened on the plan's prepared executable
    (*executable* overrides the plain build, e.g. with its profiled twin);
    :meth:`fetch` advances it by at most *n* rows, bracketing every advance
    with the stream's snapshot and bind parameters.  The snapshot is taken
    at open by one scoping rule:

    * a thread that owns the open commit scope reads in place (a batch
      commit's WHERE-queries must see the batch's earlier writes);
    * else an enclosing pin on this database is reused when no explicit
      snapshot *at* is asked for (a method implementation re-entering the
      service observes its statement's snapshot);
    * else the stream registers a pin on *at* (default: the latest
      published commit) for its *whole lifetime*, so the version chains it
      needs are not pruned: DDL and DML interleave freely with an open
      stream, and the not-yet-fetched rows still observe the state as of
      the stream's open.
    """

    def __init__(self, database, entry: CachedPlan,
                 bindings: Optional[dict] = None,
                 on_finish=None,
                 at: Optional[int] = None,
                 executable: Optional[PreparedExecutable] = None):
        self._database = database
        self._bindings = bindings
        # Take the snapshot before opening the iterator: a registration
        # holds back version-chain pruning until _finish.
        self._registered = False
        self._snapshot_ts: Optional[int] = None
        if not database.in_commit_scope():
            pin = current_pin()
            if pin is not None and pin.database is database and at is None:
                self._snapshot_ts = pin.ts
            else:
                self._snapshot_ts = database.acquire_snapshot(at)
                self._registered = True
        self._executable = (executable if executable is not None
                            else entry.executable)
        self._iterator = self._executable.open()
        self._exhausted = False
        self._on_finish = on_finish
        self.output_ref = entry.output_ref
        self.fingerprint = entry.fingerprint
        self.consumed = 0
        self.fetch_seconds = 0.0

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def snapshot_ts(self) -> Optional[int]:
        """The commit timestamp this stream observes for its lifetime
        (None when it reads in place inside its thread's commit scope)."""
        return self._snapshot_ts

    def fetch(self, n: Optional[int]) -> list[Row]:
        """Return up to *n* further rows — every remaining row for ``None``
        (an empty list once exhausted).

        An exception raised by the plan ends the statement as an *error*:
        the generator is dead after it, so the stream finishes (snapshot
        released, span closed, error accounted) and later fetches return
        ``[]``.
        """
        if self._exhausted or (n is not None and n <= 0):
            return []
        started = time.perf_counter()
        try:
            pin = (nullcontext() if self._snapshot_ts is None
                   else self._database.pin_snapshot(self._snapshot_ts))
            with pin, self._executable.binding_scope(self._bindings):
                rows: list[Row] = list(islice(self._iterator, n))
            # (a stream holding exactly n more rows is found exhausted by
            # the next fetch)
            self._exhausted = n is None or len(rows) < n
        except BaseException as exc:
            self._exhausted = True
            self.fetch_seconds += time.perf_counter() - started
            self._finish(error=exc)
            raise
        self.fetch_seconds += time.perf_counter() - started
        self.consumed += len(rows)
        if self._exhausted:
            self._finish()
        return rows

    def drain(self) -> list[Row]:
        """Fetch every remaining row (in one advance)."""
        return self.fetch(None)

    def close(self) -> None:
        """Release the underlying generator without draining it."""
        if not self._exhausted:
            self._exhausted = True
            self._iterator.close()
            self._finish()

    def _finish(self, error: Optional[BaseException] = None) -> None:
        if self._registered:
            self._registered = False
            self._database.release_snapshot(self._snapshot_ts)
        if self._on_finish is not None:
            callback, self._on_finish = self._on_finish, None
            callback(self, error)


def _refuse_stream(analyzed, parameters):
    """:meth:`QueryService.stream`'s route: only queries stream."""
    raise ServiceError(f"cannot stream a {analyzed.kind.upper()} statement")
