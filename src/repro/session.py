"""High-level query session: parse → analyze → translate → optimize → execute.

:class:`Session` is the public entry point a downstream user interacts with.
It owns a database, a schema-specific optimizer (generated from the
database's schema and the registered semantic knowledge) and exposes the full
pipeline as well as each individual stage for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro.algebra.operators import LogicalOperator
from repro.algebra.printer import format_tree
from repro.algebra.translate import TranslationResult, translate_query
from repro.api.router import StatementRouter
from repro.datamodel.database import Database
from repro.optimizer.generator import OptimizerGenerator
from repro.optimizer.knowledge import SchemaKnowledge
from repro.optimizer.search import (
    OptimizationResult,
    Optimizer,
    OptimizerOptions,
    plan_query,
)
from repro.physical.evaluator import make_hashable
from repro.physical.executor import Row, execute_plan, prepare_plan
from repro.physical.plans import PhysicalOperator, describe_physical_tree
from repro.physical.profile import ExplainReport, PlanProfile, explain_analyze
from repro.telemetry.spans import Tracer
from repro.vql.analyzer import AnalyzedQuery, analyze_query
from repro.vql.ast import Query
from repro.vql.bindings import ParameterValues, bind_query, resolve_bindings
from repro.vql.parser import parse_query

__all__ = ["QueryResult", "Session"]

QueryLike = Union[str, Query]


@dataclass
class QueryResult:
    """The outcome of executing one query."""

    rows: list[Row]
    output_ref: str
    physical_plan: PhysicalOperator
    logical_plan: LogicalOperator
    optimization: Optional[OptimizationResult] = None
    work: dict[str, float] = field(default_factory=dict)

    @property
    def values(self) -> list[Any]:
        """The values of the query's output reference, in row order."""
        return [row.get(self.output_ref) for row in self.rows]

    def value_set(self) -> set[Any]:
        """The output values as a set (hashable representations)."""
        return {make_hashable(value) for value in self.values}

    def __len__(self) -> int:
        return len(self.rows)


class Session:
    """A connection-like object bundling a database with its optimizer.

    ``parallelism`` accepts only ``1``, and any other value raises
    :class:`ValueError`: plans are sequential.  The keyword stays only
    because the benchmark under ``perf/`` passes ``parallelism=1``; it
    goes with the next change to that benchmark.
    """

    def __init__(self, database: Database,
                 knowledge: Optional[SchemaKnowledge] = None,
                 optimizer: Optional[Optimizer] = None,
                 options: Optional[OptimizerOptions] = None,
                 exclude_tags: Sequence[str] = (),
                 parallelism: int = 1,
                 tracing: bool = False,
                 tracer: Optional[Tracer] = None):
        self.database = database
        self.schema = database.schema
        self.knowledge = knowledge or SchemaKnowledge(self.schema)
        #: statement tracer (disabled unless ``tracing=True`` or an enabled
        #: tracer is supplied) — see :mod:`repro.telemetry`
        self.tracer = tracer if tracer is not None else Tracer(enabled=tracing)
        if parallelism != 1:
            raise ValueError(
                f"parallelism must be 1 (plans are sequential), got "
                f"{parallelism!r}")
        self._generator = OptimizerGenerator(self.schema, self.knowledge,
                                             options=options)
        if optimizer is not None:
            self.optimizer = optimizer
        else:
            self.optimizer = self._generator.generate(
                database=database, exclude_tags=exclude_tags, options=options)
        #: shared statement front end: the session parses every text and
        #: supplies its per-call pipeline as the query runner, so DML WHERE
        #: clauses are planned by this session's optimizer exactly like its
        #: queries
        self.router = StatementRouter(
            database,
            run_query=lambda statement, parameters, optimize:
                self._execute_analyzed(statement.query, parameters, optimize),
            explain_query=lambda statement, optimize, **kwargs:
                self._explain_analyzed(statement.query, optimize, **kwargs))

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def parse(self, query: QueryLike) -> Query:
        if isinstance(query, Query):
            return query
        return parse_query(query)

    def analyze(self, query: QueryLike) -> AnalyzedQuery:
        return analyze_query(self.parse(query), self.schema)

    def translate(self, query: QueryLike) -> TranslationResult:
        return translate_query(self.analyze(query))

    def optimize(self, query: QueryLike) -> OptimizationResult:
        translation = self.translate(query)
        return self.optimizer.optimize(translation.plan)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, query: QueryLike, optimize: bool = True,
                parameters: ParameterValues = None):
        """Execute one statement and return its result.

        Statement text routes through the shared
        :class:`~repro.api.router.StatementRouter`: ``ACCESS`` queries run
        the full per-call pipeline below and return a :class:`QueryResult`;
        ``INSERT``/``UPDATE``/``DELETE``/DDL return a
        :class:`~repro.api.router.StatementResult`, with mutation WHERE
        clauses planned by this session's optimizer.

        With ``optimize=False`` the canonical logical plan is lowered
        one-to-one to physical operators (the paper's "straightforward
        evaluation"), which is the baseline the benchmarks compare against.

        ``parameters`` binds the query's ``?``/``:name`` placeholders — a
        sequence for positional, a mapping for named parameters.  This path
        substitutes the values before optimization (every execution pays the
        full pipeline); :class:`repro.service.QueryService` is the prepared
        path that optimizes the parametrized shape once.
        """
        if isinstance(query, Query):
            return self._execute_analyzed(
                analyze_query(query, self.schema), parameters, optimize)
        return self.router.execute(query, parameters=parameters,
                                   optimize=optimize)

    def _execute_analyzed(self, analyzed: AnalyzedQuery,
                          parameters: ParameterValues,
                          optimize: bool = True) -> QueryResult:
        """The per-call query pipeline (the router's query runner)."""
        with self.tracer.span("statement", api="session") as span:
            translation, optimization, physical = plan_query(
                self._bind(analyzed, parameters), self.optimizer, optimize)
            before = self.database.work_snapshot()
            rows = execute_plan(physical, self.database)
            after = self.database.work_snapshot()
            work = {key: after[key] - before.get(key, 0.0) for key in after}
            if span is not None:
                span.annotate(rows=len(rows), optimized=optimize)

        return QueryResult(
            rows=rows,
            output_ref=translation.output_ref,
            physical_plan=physical,
            logical_plan=translation.plan,
            optimization=optimization,
            work=work)

    def execute_naive(self, query: QueryLike,
                      parameters: ParameterValues = None) -> QueryResult:
        """Shorthand for ``execute(query, optimize=False)``."""
        return self.execute(query, optimize=False, parameters=parameters)

    @staticmethod
    def _bind(analyzed: AnalyzedQuery,
              parameters: ParameterValues) -> AnalyzedQuery:
        """Substitute parameter values into an analyzed query (no-op for
        parameterless queries called without values)."""
        if not analyzed.parameters and parameters is None:
            return analyzed
        bindings = resolve_bindings(analyzed.parameters, parameters)
        if not bindings:
            return analyzed
        return AnalyzedQuery(
            query=bind_query(analyzed.query, bindings),
            variable_types=analyzed.variable_types,
            parameters=())

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def explain(self, query: QueryLike, *, optimize: bool = True,
                analyze: bool = False,
                parameters: ParameterValues = None) -> str:
        """Describe how the statement would be evaluated (for
        UPDATE/DELETE: the plan of the derived WHERE-query).

        With ``analyze=True`` — or an ``EXPLAIN ANALYZE <stmt>`` text — the
        plan is *executed* under per-operator instrumentation and the
        report shows estimated vs actual cardinalities plus per-operator
        row/open/elapsed counters (mutations never apply; only their
        WHERE-query runs).  ``parameters`` binds the statement's
        placeholders for such an instrumented run.
        """
        if isinstance(query, Query):
            return self._explain_analyzed(analyze_query(query, self.schema),
                                          optimize=optimize, analyze=analyze,
                                          parameters=parameters)
        return self.router.explain(query, optimize=optimize, analyze=analyze,
                                   parameters=parameters)

    def _explain_analyzed(self, analyzed: AnalyzedQuery,
                          optimize: bool = True, analyze: bool = False,
                          parameters: ParameterValues = None) -> str:
        translation, optimization, physical = plan_query(
            analyzed, self.optimizer, optimize)
        lines = [
            "query:",
            _indent(str(analyzed.query)),
            "canonical logical plan:",
            _indent(format_tree(translation.plan)),
        ]
        if optimization is not None:
            lines.append(optimization.explain())
        else:
            lines.append("naive physical plan:")
            lines.append(_indent(describe_physical_tree(physical)))
        records = None
        if analyze:
            profiled = prepare_plan(physical, self.database,
                                    profile=PlanProfile())
            rows = profiled.run(resolve_bindings(analyzed.parameters,
                                                 parameters))
            profile_text, records = explain_analyze(
                physical, profiled.profile, len(rows),
                self.optimizer.cost_model)
            lines.append(profile_text)
        return ExplainReport("\n".join(lines), records)

    def trace(self, query: QueryLike, limit: Optional[int] = 50) -> str:
        """Render the optimization trace (the Section 7 demonstrator)."""
        optimization = self.optimize(query)
        return optimization.trace.render(limit=limit)

    def __str__(self) -> str:
        return f"Session({self.database}, knowledge={len(self.knowledge)})"


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
