"""Reference interpreter for physical plans (the seed execution engine).

This module preserves the original interpretive executor: every operator
fully materializes its input into a list of rows and every expression is
evaluated by the recursive tree-walking :mod:`repro.physical.evaluator`.

It is retained as the *independent oracle* of the one compiled engine in
:mod:`repro.physical.executor`: the differential suites
(``tests/test_property_based.py``, ``tests/test_fuzz_differential.py``,
``tests/test_compiled_engine.py``) hold the engine to this module's rows,
row order and work counters on identical physical plans, and
``tests/test_compiled_engine.py`` fails when an operator is known to one of
the two only.  It therefore shares no operator code with
the engine.

Production code should use :func:`repro.physical.executor.execute_plan` /
``prepare_plan``; both engines implement exactly the same list-of-Row
contract with set semantics (duplicate elimination at projections, unions
and set scans).

The helpers ``_iterate_set``, ``_distinct``, ``_require_index``,
``_eq_oids`` and ``_range_oids`` are imported by the compiled engine and the
restricted executor so that the set-coercion and index-lookup semantics —
including what a NULL key or bound means — are defined in exactly one place.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Optional

from repro.algebra.expressions import Expression
from repro.datamodel.database import Database
from repro.datamodel.oid import OID, is_collection
from repro.errors import ExecutionError
from repro.physical.evaluator import (
    EMPTY_ROW,
    evaluate,
    evaluate_predicate,
    make_hashable,
)
from repro.physical.plans import (
    ClassScan,
    DiffOp,
    ExpressionSetScan,
    Filter,
    FlattenEval,
    HashJoin,
    IndexEqScan,
    IndexNestedLoopJoin,
    IndexRangeScan,
    MapEval,
    NaturalMergeJoin,
    NestedLoopJoin,
    PhysicalOperator,
    ProjectOp,
    SetProbeFilter,
    UnionOp,
)
from repro.telemetry.spans import child_span

__all__ = ["execute_plan_interpreted", "Row"]

Row = dict[str, Any]


def execute_plan_interpreted(plan: PhysicalOperator,
                             database: Database,
                             profile=None) -> list[Row]:
    """Execute *plan* against *database* interpretively (reference engine).

    *profile* (a :class:`repro.physical.profile.PlanProfile`) enables the
    per-operator EXPLAIN ANALYZE counters; since this engine materializes
    rather than streams, each operator records its whole (inclusive)
    evaluation in one step.
    """
    with child_span("execute", engine="interpreter") as span:
        rows = _interpret(plan, database, profile)
        if span is not None:
            span.annotate(rows=len(rows))
    return rows


def _interpret(plan: PhysicalOperator, database: Database,
               profile) -> list[Row]:
    """One recursion step: evaluate *plan*, recording counters if asked."""
    if profile is None:
        return _interpret_node(plan, database, profile)
    started = time.perf_counter()
    rows = _interpret_node(plan, database, profile)
    profile.record(plan, len(rows), time.perf_counter() - started)
    return rows


def _interpret_node(plan: PhysicalOperator, database: Database,
                    profile) -> list[Row]:
    """The operator dispatch of the reference engine."""
    if isinstance(plan, ClassScan):
        return [{plan.ref: oid} for oid in database.extension(plan.class_name)]

    if isinstance(plan, IndexEqScan):
        index = _require_index(plan, database)
        # Expression keys and bounds (bind parameters) are resolved per
        # execution; an unbound Parameter raises, as everywhere in this engine.
        return [{plan.ref: oid}
                for oid in _eq_oids(plan, database, index,
                                    _resolve(plan.key, database))]

    if isinstance(plan, IndexRangeScan):
        index = _require_index(plan, database, kind="sorted")
        return [{plan.ref: oid}
                for oid in _range_oids(plan, database, index,
                                       _resolve(plan.low, database),
                                       _resolve(plan.high, database))]

    if isinstance(plan, ExpressionSetScan):
        value = evaluate(plan.expression, {}, database)
        return [{plan.ref: element} for element in _iterate_set(value, plan)]

    if isinstance(plan, Filter):
        rows = _interpret(plan.input, database, profile)
        return [row for row in rows
                if evaluate_predicate(plan.condition, row, database)]

    if isinstance(plan, SetProbeFilter):
        rows = _interpret(plan.input, database, profile)
        members = {make_hashable(v)
                   for v in _iterate_set(
                       evaluate(plan.set_expression, {}, database), plan)}
        return [row for row in rows
                if make_hashable(row.get(plan.ref)) in members]

    if isinstance(plan, NestedLoopJoin):
        left_rows = _interpret(plan.left, database, profile)
        right_rows = _interpret(plan.right, database, profile)
        result: list[Row] = []
        for left_row in left_rows:
            for right_row in right_rows:
                combined = {**left_row, **right_row}
                if evaluate_predicate(plan.condition, combined, database):
                    result.append(combined)
        return result

    if isinstance(plan, IndexNestedLoopJoin):
        index = _require_index(plan, database)
        left_rows = _interpret(plan.left, database, profile)
        result = []
        for left_row in left_rows:
            key = evaluate(plan.left_key, left_row, database)
            for oid in _eq_oids(plan, database, index, key):
                result.append({**left_row, plan.ref: oid})
        return result

    if isinstance(plan, HashJoin):
        left_rows = _interpret(plan.left, database, profile)
        right_rows = _interpret(plan.right, database, profile)
        table: dict[Any, list[Row]] = defaultdict(list)
        for right_row in right_rows:
            key = make_hashable(evaluate(plan.right_key, right_row, database))
            table[key].append(right_row)
        result = []
        for left_row in left_rows:
            key = make_hashable(evaluate(plan.left_key, left_row, database))
            for right_row in table.get(key, ()):
                result.append({**left_row, **right_row})
        return result

    if isinstance(plan, NaturalMergeJoin):
        left_rows = _interpret(plan.left, database, profile)
        right_rows = _interpret(plan.right, database, profile)
        common = plan.common_refs()
        if not common:
            # Degenerates to a cartesian product, as in the logical algebra.
            return [{**l, **r} for l in left_rows for r in right_rows]
        table = defaultdict(list)
        for right_row in right_rows:
            key = tuple(make_hashable(right_row.get(ref)) for ref in common)
            table[key].append(right_row)
        result = []
        for left_row in left_rows:
            key = tuple(make_hashable(left_row.get(ref)) for ref in common)
            for right_row in table.get(key, ()):
                result.append({**left_row, **right_row})
        return result

    if isinstance(plan, MapEval):
        rows = _interpret(plan.input, database, profile)
        return [{**row, plan.ref: evaluate(plan.expression, row, database)}
                for row in rows]

    if isinstance(plan, FlattenEval):
        rows = _interpret(plan.input, database, profile)
        result = []
        for row in rows:
            value = evaluate(plan.expression, row, database)
            for element in _iterate_set(value, plan, allow_none=True):
                result.append({**row, plan.ref: element})
        return result

    if isinstance(plan, ProjectOp):
        rows = _interpret(plan.input, database, profile)
        return _distinct([{ref: row.get(ref) for ref in plan.kept} for row in rows])

    if isinstance(plan, UnionOp):
        left_rows = _interpret(plan.left, database, profile)
        right_rows = _interpret(plan.right, database, profile)
        return _distinct(left_rows + right_rows)

    if isinstance(plan, DiffOp):
        left_rows = _interpret(plan.left, database, profile)
        right_rows = _interpret(plan.right, database, profile)
        right_keys = {make_hashable(row) for row in right_rows}
        return [row for row in _distinct(left_rows)
                if make_hashable(row) not in right_keys]

    raise ExecutionError(f"unknown physical operator {plan!r}")


def _resolve(value: Any, database: Database) -> Any:
    """A scan key or bound at execution time: expressions are evaluated
    (they are row-free), plan-time values pass through."""
    if isinstance(value, Expression):
        return evaluate(value, EMPTY_ROW, database)
    return value


def _require_index(plan: IndexEqScan | IndexRangeScan | IndexNestedLoopJoin,
                   database: Database, kind: Optional[str] = None):
    index = database.indexes.get(plan.class_name, plan.prop)
    if index is None:
        raise ExecutionError(
            f"{plan.describe()} needs an index on "
            f"{plan.class_name}.{plan.prop}, but none is registered")
    if kind is not None and index.kind != kind:
        raise ExecutionError(
            f"{plan.describe()} requires a {kind} index, found "
            f"{index.kind!r}")
    # When the calling thread is pinned to a snapshot, wrap the index so
    # lookups answer as of that snapshot (the raw index otherwise).
    return database.index_view(index)


def _eq_oids(plan: IndexEqScan | IndexNestedLoopJoin, database: Database,
             index, key: Any) -> list[OID]:
    """The objects of ``plan.class_name`` whose ``plan.prop`` equals *key*,
    in OID order, charged as one index lookup.

    NULLs are never indexed, yet ``NULL == NULL`` holds in the evaluator:
    a NULL key is answered the way the filter plan answers it — by the
    objects of the extension whose property is NULL, charged as an
    extension scan (plus its property reads) instead of an index lookup.
    """
    if key is None:
        prop = plan.prop
        return sorted(oid for oid in database.extension(plan.class_name)
                      if database.value(oid, prop) is None)
    database.statistics.record_index_lookup()
    return sorted(index.lookup(key))


def _range_oids(plan: IndexRangeScan, database: Database, index,
                low: Any, high: Any) -> list[OID]:
    """The objects inside the scan's interval with its bounds resolved to
    *low*/*high*, in OID order, charged as one index lookup.

    ``None`` means open-ended only for a side the plan leaves open; a bound
    that *resolved* to NULL matches nothing, because ``x >= NULL`` is false
    in the evaluator (the index would read it as "no bound").  Crossed
    bounds select nothing; a bound the keys cannot be compared with raises
    the ``TypeError`` the per-row comparison raises.
    """
    database.statistics.record_index_lookup()
    if ((low is None and plan.low is not None)
            or (high is None and plan.high is not None)):
        return []
    return sorted(index.range(low, high, include_low=plan.include_low,
                              include_high=plan.include_high))


def _iterate_set(value: Any, plan: PhysicalOperator,
                 allow_none: bool = False) -> list[Any]:
    """Interpret *value* as a set of elements for scanning/flattening."""
    if value is None:
        if allow_none:
            return []
        raise ExecutionError(
            f"{plan.describe()} evaluated to None instead of a set")
    if isinstance(value, (set, frozenset)):
        # Set elements are distinct hashables, which make_hashable maps to
        # distinct keys: the dedup pass below could drop nothing.
        return list(value)
    if is_collection(value):
        seen: set[Any] = set()
        elements: list[Any] = []
        for element in value:
            key = make_hashable(element)
            if key not in seen:
                seen.add(key)
                elements.append(element)
        return elements
    # A scalar is treated as a singleton set, which keeps single-valued
    # expressions (e.g. a path ending in a single object) usable in FROM.
    return [value]


def _distinct(rows: list[Row]) -> list[Row]:
    seen: set[Any] = set()
    result: list[Row] = []
    for row in rows:
        key = make_hashable(row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result
