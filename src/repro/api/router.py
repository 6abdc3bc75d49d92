"""The statement router: one dispatch path for queries, DML and DDL.

Every public entry point of the library — ``Session.execute``,
``QueryService.execute`` and the PEP-249-flavored
``Connection``/``Cursor`` facade — classifies statements here and shares
one mutation and DDL code path.  The router caches nothing: its owner
says how a text becomes an :class:`~repro.vql.analyzer.AnalyzedStatement`
(*resolve*: the service asks its statement cache, a session parses every
call) and how a query runs (*run_query*: the service runs the shape's
cached plan, a session plans per call).

Mutations reuse the query machinery instead of hand-rolled scans:

* ``UPDATE``/``DELETE`` WHERE clauses are analyzed into an ordinary
  *WHERE-query* (``ACCESS alias FROM alias IN Class WHERE cond``) and
  executed through the same ``run_query`` callback — so mutation
  predicates are planned by the full optimizer (picking up
  ``IndexEqScan``/``IndexRangeScan`` and bind parameters), and a service-
  backed router reuses one cached plan across an ``executemany`` batch;
* ``INSERT`` values compile to per-binding getters (constants and bind
  parameters short-circuit), with ``executemany`` feeding
  :meth:`repro.datamodel.database.Database.create_many` in one bulk
  maintenance pass;
* DDL and every mutation's *apply* phase run under the owner's write guard
  (the service's writer-preferring gate), so in-flight readers drain before
  state changes; cache invalidation rides on the datamodel's version
  clock — schema bumps for ``CREATE CLASS``, index bumps for index DDL,
  data drift for DML.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Union

from repro.algebra.expressions import Const, Expression, Parameter, bind_parameters
from repro.datamodel import ddl
from repro.datamodel.database import Database
from repro.datamodel.oid import OID
from repro.errors import ServiceError, TransactionError
from repro.physical.evaluator import evaluate
from repro.physical.profile import ExplainReport
from repro.telemetry.spans import child_span
from repro.vql.analyzer import AnalyzedStatement, analyze_statement
from repro.vql.ast import Statement
from repro.vql.bindings import ParameterValues, resolve_bindings
from repro.vql.parser import parse_statement

__all__ = ["StatementResult", "StatementRouter", "QueryRunner"]

#: how owners execute queries: (statement, parameters, optimize) -> result
#: with ``rows`` (list of Row) and ``output_ref`` attributes; the statement
#: is a query or an UPDATE/DELETE, whose WHERE-query runs
QueryRunner = Callable[[AnalyzedStatement, ParameterValues, bool], Any]

StatementInput = Union[str, Statement, AnalyzedStatement]


@dataclass
class StatementResult:
    """The outcome of a DDL or DML statement.

    Mirrors the query results' ``rows``/``__len__`` surface so callers can
    treat every statement execution uniformly; ``rowcount`` counts created,
    updated or deleted objects (0 for DDL).
    """

    kind: str
    rowcount: int = 0
    oids: tuple[OID, ...] = ()
    description: str = ""

    @property
    def rows(self) -> list:
        return []

    @property
    def lastoid(self) -> Optional[OID]:
        """The last OID touched (PEP 249's ``lastrowid`` analogue)."""
        return self.oids[-1] if self.oids else None

    def __len__(self) -> int:
        return self.rowcount


class StatementRouter:
    """Resolves (through its owner) and dispatches statements for one
    database."""

    def __init__(self, database: Database,
                 run_query: QueryRunner,
                 explain_query: Optional[Callable[..., str]] = None,
                 write_guard: Optional[Callable[[], Any]] = None,
                 resolve: Optional[Callable[[str], AnalyzedStatement]] = None):
        self.database = database
        self._run_query = run_query
        self._explain_query = explain_query
        self._write_guard = write_guard or nullcontext
        self._resolve = resolve or self.parse

    # ------------------------------------------------------------------
    # statement resolution
    # ------------------------------------------------------------------
    def parse(self, text: str) -> AnalyzedStatement:
        """Parse and analyze *text*."""
        return analyze_statement(parse_statement(text), self.database.schema)

    def analyze(self, statement: StatementInput) -> AnalyzedStatement:
        """Resolve *statement* (text, AST or already analyzed) once."""
        if isinstance(statement, AnalyzedStatement):
            return statement
        if isinstance(statement, Statement):
            return analyze_statement(statement, self.database.schema)
        with child_span("analyze") as span:
            analyzed = self._resolve(statement)
            if span is not None:
                span.annotate(kind=analyzed.kind)
        return analyzed

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def execute(self, statement: StatementInput,
                parameters: ParameterValues = None,
                optimize: bool = True) -> Any:
        """Execute one statement.

        Queries return whatever the owner's query runner returns
        (:class:`~repro.session.QueryResult` /
        :class:`~repro.service.service.ServiceResult`); DDL and DML return
        a :class:`StatementResult`.
        """
        analyzed = self.analyze(statement)
        kind = analyzed.kind
        if kind == "select":
            return self._run_query(analyzed, parameters, optimize)
        if kind == "insert":
            return self._insert(analyzed, [parameters])
        if kind == "update":
            return self._update(analyzed, parameters, optimize)
        if kind == "delete":
            return self._delete(analyzed, parameters, optimize)
        if kind == "analyze":
            return self._analyze_statistics(analyzed)
        if kind == "explain":
            report = self.explain(analyzed, optimize=optimize,
                                  parameters=parameters)
            return StatementResult(kind="explain", description=report)
        if kind in ("begin", "commit", "rollback"):
            raise TransactionError(
                f"{kind.upper()} requires a transactional connection — "
                "execute it through the repro.api Connection/Cursor facade")
        return self._ddl(analyzed, parameters)

    def executemany(self, statement: StatementInput,
                    parameter_sets: Iterable[ParameterValues],
                    optimize: bool = True) -> StatementResult:
        """Execute one DML statement once per parameter set.

        INSERT batches collapse into a single bulk
        :meth:`~repro.datamodel.database.Database.create_many` call;
        UPDATE/DELETE reuse the statement's analyzed shape (and, under a
        service-backed router, one cached WHERE plan) across the batch.
        """
        analyzed = self.analyze(statement)
        sets = list(parameter_sets)
        if analyzed.kind == "insert":
            return self._insert(analyzed, sets)
        if analyzed.kind in ("update", "delete"):
            runner = (self._update if analyzed.kind == "update"
                      else self._delete)
            total = 0
            touched: list[OID] = []
            for parameters in sets:
                result = runner(analyzed, parameters, optimize)
                total += result.rowcount
                touched.extend(result.oids)
            return StatementResult(kind=analyzed.kind, rowcount=total,
                                   oids=tuple(touched))
        raise ServiceError(
            f"executemany supports INSERT/UPDATE/DELETE, not "
            f"{analyzed.kind.upper()} statements")

    def explain(self, statement: StatementInput, *, optimize: bool = True,
                analyze: bool = False,
                parameters: ParameterValues = None) -> str:
        """Describe how *statement* would be evaluated.

        For UPDATE/DELETE the derived WHERE-query's plan is shown — this is
        where an indexed mutation predicate surfaces its
        ``index_eq_scan``/``index_range_scan`` access path.  With
        ``analyze=True`` (or an ``EXPLAIN ANALYZE ...`` statement) the plan
        is additionally *executed* under per-operator instrumentation and
        the report includes measured row counts and timings next to the
        estimates; mutations never apply — only their WHERE-query runs.
        """
        analyzed = self.analyze(statement)
        if analyzed.kind == "explain":
            # ``EXPLAIN [ANALYZE] <stmt>``: unwrap to the target statement.
            analyze = analyze or analyzed.statement.analyze
            analyzed = analyzed.target
        if analyzed.kind == "select":
            return self._explain(analyzed, optimize, analyze, parameters)
        if analyzed.kind in ("update", "delete"):
            header = (f"{analyzed.kind.upper()} {analyzed.class_name}: "
                      "WHERE clause planned as a query")
            report = self._explain(analyzed, optimize, analyze, parameters)
            # keep the structured records of the underlying query report
            return ExplainReport(header + "\n" + report,
                                 getattr(report, "records", None))
        return str(analyzed.statement)

    def _explain(self, statement: AnalyzedStatement, optimize: bool,
                 analyze: bool = False,
                 parameters: ParameterValues = None) -> str:
        if self._explain_query is None:
            raise ServiceError("this router has no query explainer")
        return self._explain_query(statement, optimize, analyze=analyze,
                                   parameters=parameters)

    def _analyze_statistics(self, analyzed: AnalyzedStatement
                            ) -> StatementResult:
        """Run ``ANALYZE [Class]``: refresh the statistics catalog under the
        owner's write guard (statistics collection must not race DML) and
        bump the stats version so cached plans re-optimize."""
        with self._write_guard():
            collected = self.database.analyze(analyzed.statement.class_name)
        catalog = self.database.stats_catalog
        return StatementResult(
            kind="analyze", rowcount=len(collected),
            description=catalog.describe())

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _insert(self, analyzed: AnalyzedStatement,
                parameter_sets: list[ParameterValues]) -> StatementResult:
        rows = self._insert_rows(analyzed, parameter_sets)
        with child_span("apply", kind="insert", rows=len(rows)):
            with self._write_guard():
                created = self._apply_insert(analyzed.class_name, rows)
        return StatementResult(kind="insert", rowcount=len(created),
                               oids=tuple(created))

    def _update(self, analyzed: AnalyzedStatement,
                parameters: ParameterValues,
                optimize: bool) -> StatementResult:
        bindings = resolve_bindings(analyzed.parameters, parameters)
        targets = self._matching_oids(analyzed, bindings, optimize)
        # The WHERE-query above ran against a snapshot; the apply phase
        # takes the write guard and one commit scope, so concurrent readers
        # never observe a half-applied statement and a mid-apply failure
        # rolls the whole statement back.  Targets may drift between the
        # two phases (autocommit has no long transaction): objects deleted
        # in the gap are skipped, not crashed on.
        with child_span("apply", kind="update", targets=len(targets)):
            with self._write_guard():
                with self.database.commit_scope():
                    applied = self._apply_update(analyzed, bindings, targets)
        return StatementResult(kind="update", rowcount=len(applied),
                               oids=tuple(applied))

    def _delete(self, analyzed: AnalyzedStatement,
                parameters: ParameterValues,
                optimize: bool) -> StatementResult:
        bindings = resolve_bindings(analyzed.parameters, parameters)
        targets = self._matching_oids(analyzed, bindings, optimize)
        with child_span("apply", kind="delete", targets=len(targets)):
            with self._write_guard():
                with self.database.commit_scope():
                    applied = self._apply_delete(targets)
        return StatementResult(kind="delete", rowcount=len(applied),
                               oids=tuple(applied))

    # ------------------------------------------------------------------
    # guard-less apply helpers (callers own the write guard / commit scope)
    # ------------------------------------------------------------------
    def _insert_rows(self, analyzed: AnalyzedStatement,
                     parameter_sets: list[ParameterValues]) -> list[dict]:
        """Evaluate an INSERT's value rows (no database mutation)."""
        getters = analyzed.cache.get("insert_getters")
        if getters is None:
            getters = [(prop, self._value_getter(expr))
                       for prop, expr in analyzed.assignments]
            analyzed.cache["insert_getters"] = getters
        rows = []
        for parameters in parameter_sets:
            bindings = resolve_bindings(analyzed.parameters, parameters)
            rows.append({prop: getter(bindings) for prop, getter in getters})
        return rows

    def _apply_insert(self, class_name: str, rows: list[dict]) -> list[OID]:
        return self.database.create_many(class_name, rows)

    def _apply_update(self, analyzed: AnalyzedStatement, bindings,
                      targets) -> list[OID]:
        getters = analyzed.cache.get("update_getters")
        if getters is None:
            getters = [(prop, self._value_getter(expr, row_expr=True))
                       for prop, expr in analyzed.assignments]
            analyzed.cache["update_getters"] = getters
        alias = analyzed.alias
        applied: list[OID] = []
        for oid in targets:
            if not self.database.exists(oid):
                continue  # deleted since the targets were resolved
            row = {alias: oid}
            values = {prop: getter(bindings, row)
                      for prop, getter in getters}
            self.database.update(oid, **values)
            applied.append(oid)
        return applied

    def _apply_delete(self, targets) -> list[OID]:
        # objects deleted since the targets were resolved are skipped
        applied = [oid for oid in targets if self.database.exists(oid)]
        self.database.delete_many(applied)
        return applied

    # ------------------------------------------------------------------
    # atomic multi-statement apply (deferred buffers and transactions)
    # ------------------------------------------------------------------
    # Durability note: the WAL hooks at the commit-scope level, so each
    # autocommit statement above, each apply_batch call, and each
    # apply_transaction call serializes exactly ONE logical WAL record —
    # the unit of atomicity and the unit of durability coincide.
    def apply_batch(self, entries) -> int:
        """Apply a deferred ``autocommit=False`` buffer atomically.

        *entries* is a list of ``(analyzed, parameter_sets)`` pairs.  The
        whole buffer applies under one write guard and one commit scope:
        either every statement applies (at one commit timestamp) or — on
        the first failure — the scope's undo log restores the database
        byte-identically and the caller's buffer is left untouched.
        UPDATE/DELETE WHERE-queries resolve *inside* the scope, so later
        statements of the batch observe the effects of earlier ones.
        """
        total = 0
        with child_span("apply", kind="batch", statements=len(entries)):
            with self._write_guard():
                with self.database.commit_scope():
                    for analyzed, parameter_sets in entries:
                        if analyzed.kind == "insert":
                            rows = self._insert_rows(analyzed, parameter_sets)
                            total += len(self._apply_insert(
                                analyzed.class_name, rows))
                            continue
                        for parameters in parameter_sets:
                            bindings = resolve_bindings(analyzed.parameters,
                                                        parameters)
                            targets = self._matching_oids(analyzed, bindings,
                                                          True)
                            if analyzed.kind == "update":
                                total += len(self._apply_update(
                                    analyzed, bindings, targets))
                            else:
                                total += len(self._apply_delete(targets))
        return total

    def apply_transaction(self, operations) -> int:
        """Apply a validated transaction's buffered operations.

        The caller (the service's commit path) already holds the write
        guard and has validated the write set first-writer-wins; this
        method only owns atomicity: one commit scope covers every
        operation, so an apply failure rolls the whole transaction back.
        Targets were resolved against the begin snapshot when the
        transaction executed each statement; objects the transaction
        itself deleted earlier in its own sequence are skipped.
        """
        total = 0
        with child_span("apply", kind="transaction",
                        operations=len(operations)):
            with self.database.commit_scope():
                for op in operations:
                    if op.kind == "insert":
                        rows = self._insert_rows(op.analyzed,
                                                 op.parameter_sets)
                        total += len(self._apply_insert(
                            op.analyzed.class_name, rows))
                    elif op.kind == "update":
                        total += len(self._apply_update(
                            op.analyzed, op.bindings, op.targets))
                    else:
                        total += len(self._apply_delete(op.targets))
        return total

    def _matching_oids(self, analyzed: AnalyzedStatement,
                       bindings: Mapping[str, Any],
                       optimize: bool) -> list[OID]:
        """Run the mutation's WHERE-query and return the distinct targets."""
        where = analyzed.query
        sub_parameters = ({key: bindings[key] for key in where.parameters}
                          or None)
        with child_span("where-query"):
            result = self._run_query(analyzed, sub_parameters, optimize)
        ref = result.output_ref
        return list(dict.fromkeys(row[ref] for row in result.rows))

    def _value_getter(self, expression: Expression, row_expr: bool = False):
        """Compile one DML value expression into a fast getter.

        Constants and bind parameters (the overwhelmingly common case,
        and the whole of every ``executemany`` INSERT batch) short-circuit
        to direct lookups; anything else — e.g. ``SET number = p.number + 1``
        — substitutes the bindings and evaluates against the database.
        """
        if isinstance(expression, Const):
            value = expression.value

            def constant(bindings, row=None, value=value):
                return value
            return constant
        if isinstance(expression, Parameter):
            key = expression.key

            def bound(bindings, row=None, key=key):
                return bindings[key]
            return bound
        database = self.database

        if row_expr:
            def general(bindings, row, expression=expression):
                return evaluate(bind_parameters(expression, bindings),
                                row, database)
            return general

        def general_const(bindings, row=None, expression=expression):
            return evaluate(bind_parameters(expression, bindings),
                            {}, database)
        return general_const

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _ddl(self, analyzed: AnalyzedStatement,
             parameters: ParameterValues) -> StatementResult:
        resolve_bindings((), parameters)  # DDL takes no bind parameters
        statement = analyzed.statement
        with self._write_guard():
            if analyzed.kind == "create_class":
                self.database.create_class(
                    statement.class_name, superclass=statement.superclass,
                    properties=analyzed.property_defs)
            elif analyzed.kind == "create_index":
                ddl.create_index(self.database, statement.kind,
                                 statement.class_name, statement.prop)
            elif analyzed.kind == "drop_index":
                ddl.drop_index(self.database, statement.class_name,
                               statement.prop,
                               text=statement.kind == "text")
            else:  # pragma: no cover - analyze_statement covers every kind
                raise ServiceError(f"unroutable statement {analyzed.kind!r}")
        return StatementResult(kind=analyzed.kind, description=str(statement))
