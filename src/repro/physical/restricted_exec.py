"""Direct interpreter for restricted-algebra plans.

The restricted algebra (Section 6.1) is executable on its own; this
interpreter is used by the expressive-power experiments (EXP-6) and by tests
that check normalization preserves query results.  It reuses the shared
expression evaluator for constants and the lifted access semantics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.algebra.expressions import Const
from repro.algebra.operators import (
    Diff,
    ExpressionSource,
    Get,
    LogicalOperator,
    NaturalJoin,
    Project,
    Union,
)
from repro.algebra.restricted import (
    CrossProduct,
    FlatMethod,
    FlatProperty,
    FlatRef,
    JoinCmp,
    MapClassMethod,
    MapConst,
    MapExtent,
    MapMethod,
    MapOperator,
    MapProperty,
    Operand,
    SelectCmp,
)
from repro.datamodel.database import Database
from repro.datamodel.oid import OID, is_collection
from repro.errors import ExecutionError
from repro.physical.evaluator import evaluate, make_hashable
from repro.physical.executor import Row
from repro.physical.interpreter import _distinct, _iterate_set

__all__ = ["execute_restricted"]


def execute_restricted(plan: LogicalOperator, database: Database) -> list[Row]:
    """Execute a restricted-algebra plan directly."""
    if isinstance(plan, Get):
        return [{plan.ref: oid} for oid in database.extension(plan.class_name)]

    if isinstance(plan, ExpressionSource):
        value = evaluate(plan.expression, {}, database)
        return [{plan.ref: element} for element in _iterate_set(value, plan)]

    if isinstance(plan, Project):
        rows = execute_restricted(plan.input, database)
        return _distinct([{ref: row.get(ref) for ref in plan.kept} for row in rows])

    if isinstance(plan, (NaturalJoin, Union, Diff, CrossProduct)):
        return _execute_binary(plan, database)

    if isinstance(plan, SelectCmp):
        rows = execute_restricted(plan.input, database)
        return [row for row in rows
                if _compare(plan.op,
                            _operand_value(plan.left, row),
                            _operand_value(plan.right, row))]

    if isinstance(plan, JoinCmp):
        left_rows = execute_restricted(plan.left, database)
        right_rows = execute_restricted(plan.right, database)
        if plan.op == "==":
            table: dict[Any, list[Row]] = defaultdict(list)
            for right_row in right_rows:
                table[make_hashable(right_row.get(plan.right_ref))].append(right_row)
            result: list[Row] = []
            for left_row in left_rows:
                key = make_hashable(left_row.get(plan.left_ref))
                for right_row in table.get(key, ()):
                    result.append({**left_row, **right_row})
            return result
        result = []
        for left_row in left_rows:
            for right_row in right_rows:
                if _compare(plan.op, left_row.get(plan.left_ref),
                            right_row.get(plan.right_ref)):
                    result.append({**left_row, **right_row})
        return result

    if isinstance(plan, MapConst):
        rows = execute_restricted(plan.input, database)
        return [{**row, plan.new_ref: plan.value.value} for row in rows]

    if isinstance(plan, MapExtent):
        rows = execute_restricted(plan.input, database)
        extent = set(database.extension(plan.class_name))
        return [{**row, plan.new_ref: extent} for row in rows]

    if isinstance(plan, MapProperty):
        rows = execute_restricted(plan.input, database)
        return [{**row, plan.new_ref: _access(row.get(plan.src_ref),
                                              plan.prop, database)}
                for row in rows]

    if isinstance(plan, MapMethod):
        rows = execute_restricted(plan.input, database)
        result = []
        for row in rows:
            args = [_operand_value(arg, row) for arg in plan.args]
            receiver = row.get(plan.receiver_ref)
            result.append({**row, plan.new_ref: _invoke(receiver, plan.method,
                                                        args, database)})
        return result

    if isinstance(plan, MapClassMethod):
        rows = execute_restricted(plan.input, database)
        result = []
        for row in rows:
            args = [_operand_value(arg, row) for arg in plan.args]
            value = database.invoke_class_method(plan.class_name, plan.method, *args)
            result.append({**row, plan.new_ref: value})
        return result

    if isinstance(plan, MapOperator):
        rows = execute_restricted(plan.input, database)
        return [{**row, plan.new_ref: _apply_operator(
            plan.op, [_operand_value(op, row) for op in plan.operands])}
            for row in rows]

    if isinstance(plan, FlatProperty):
        rows = execute_restricted(plan.input, database)
        result = []
        for row in rows:
            value = _access(row.get(plan.src_ref), plan.prop, database)
            for element in _iterate_set(value, plan, allow_none=True):
                result.append({**row, plan.new_ref: element})
        return result

    if isinstance(plan, FlatMethod):
        rows = execute_restricted(plan.input, database)
        result = []
        for row in rows:
            args = [_operand_value(arg, row) for arg in plan.args]
            value = _invoke(row.get(plan.receiver_ref), plan.method, args, database)
            for element in _iterate_set(value, plan, allow_none=True):
                result.append({**row, plan.new_ref: element})
        return result

    if isinstance(plan, FlatRef):
        rows = execute_restricted(plan.input, database)
        result = []
        for row in rows:
            for element in _iterate_set(row.get(plan.src_ref), plan, allow_none=True):
                result.append({**row, plan.new_ref: element})
        return result

    raise ExecutionError(
        f"operator {plan.describe()} is not executable by the restricted "
        "interpreter")


def _execute_binary(plan: LogicalOperator, database: Database) -> list[Row]:
    left_rows = execute_restricted(plan.inputs()[0], database)
    right_rows = execute_restricted(plan.inputs()[1], database)
    if isinstance(plan, CrossProduct):
        return [{**l, **r} for l in left_rows for r in right_rows]
    if isinstance(plan, Union):
        return _distinct(left_rows + right_rows)
    if isinstance(plan, Diff):
        right_keys = {make_hashable(row) for row in right_rows}
        return [row for row in _distinct(left_rows)
                if make_hashable(row) not in right_keys]
    if isinstance(plan, NaturalJoin):
        common = plan.common_refs()
        if not common:
            return [{**l, **r} for l in left_rows for r in right_rows]
        table: dict[Any, list[Row]] = defaultdict(list)
        for right_row in right_rows:
            key = tuple(make_hashable(right_row.get(ref)) for ref in common)
            table[key].append(right_row)
        result: list[Row] = []
        for left_row in left_rows:
            key = tuple(make_hashable(left_row.get(ref)) for ref in common)
            for right_row in table.get(key, ()):
                result.append({**left_row, **right_row})
        return result
    raise ExecutionError(f"unexpected binary operator {plan.describe()}")


def _operand_value(operand: Operand, row: Row) -> Any:
    if isinstance(operand, Const):
        return operand.value
    return row.get(operand)


def _access(base: Any, prop: str, database: Database) -> Any:
    if base is None:
        return None
    if isinstance(base, OID):
        return database.value(base, prop)
    if is_collection(base):
        collected: set = set()
        for member in base:
            value = _access(member, prop, database)
            if value is None:
                continue
            if is_collection(value):
                collected.update(value)
            else:
                collected.add(value)
        return collected
    raise ExecutionError(f"cannot access property {prop!r} on {base!r}")


def _invoke(receiver: Any, method: str, args: list[Any],
            database: Database) -> Any:
    if receiver is None:
        return None
    if isinstance(receiver, OID):
        return database.invoke(receiver, method, *args)
    if is_collection(receiver):
        collected: set = set()
        for member in receiver:
            value = _invoke(member, method, args, database)
            if value is None:
                continue
            if is_collection(value):
                collected.update(value)
            else:
                collected.add(value)
        return collected
    raise ExecutionError(f"cannot invoke {method!r} on {receiver!r}")


def _compare(op: str, left: Any, right: Any) -> bool:
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op in ("<", "<=", ">", ">="):
        if left is None or right is None:
            return False
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    if op == "IS-IN":
        if right is None:
            return False
        return left in right
    if op == "IS-SUBSET":
        left_set = left if isinstance(left, (set, frozenset)) else {left}
        right_set = right if isinstance(right, (set, frozenset)) else {right}
        return set(left_set).issubset(set(right_set))
    raise ExecutionError(f"unknown comparison {op!r}")


def _apply_operator(op: str, values: list[Any]) -> Any:
    if op == "IDENTITY":
        return values[0]
    if op == "NOT":
        return not bool(values[0])
    if op == "AND":
        return all(bool(v) for v in values)
    if op == "OR":
        return any(bool(v) for v in values)
    if op in ("==", "!=", "<", "<=", ">", ">=", "IS-IN", "IS-SUBSET"):
        return _compare(op, values[0], values[1])
    if op == "+":
        return values[0] + values[1]
    if op == "-":
        return values[0] - values[1] if len(values) == 2 else -values[0]
    if op == "*":
        return values[0] * values[1]
    if op == "/":
        return values[0] / values[1]
    if op in ("INTERSECT", "UNION", "DIFF"):
        left = set(values[0]) if values[0] is not None else set()
        right = set(values[1]) if values[1] is not None else set()
        if op == "INTERSECT":
            return left & right
        if op == "UNION":
            return left | right
        return left - right
    raise ExecutionError(f"unknown map_operator operation {op!r}")
