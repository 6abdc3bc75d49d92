"""Expression evaluation against database objects.

The evaluator interprets :mod:`repro.algebra.expressions` nodes for one input
tuple (a mapping from references to values) against a database.  It
implements the paper's conventions:

* property access and method calls are *lifted* over set values
  (``D.sections`` is the union of the sections of all documents in ``D``);
* ``IS-IN`` is membership, ``IS-SUBSET`` is set inclusion;
* all database work (property reads, method calls) goes through the
  database so that it is charged to the work counters.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    Expression,
    MethodCall,
    Parameter,
    PropertyAccess,
    SetConstructor,
    TupleConstructor,
    UnaryOp,
    Var,
)
from repro.datamodel.database import Database
from repro.datamodel.oid import OID, is_collection
from repro.errors import ExecutionError

__all__ = ["evaluate", "evaluate_predicate", "make_hashable",
           "hashable_values", "EMPTY_ROW"]

EMPTY_ROW: Mapping[str, Any] = {}


def evaluate(expression: Expression, row: Mapping[str, Any],
             database: Database) -> Any:
    """Evaluate *expression* for the input tuple *row*."""
    if isinstance(expression, Const):
        return expression.value
    if isinstance(expression, Parameter):
        # The interpretive engines run on fully bound plans; substitute the
        # binding first (algebra.expressions.bind_parameters) or execute via
        # the service layer's prepared path.
        raise ExecutionError(
            f"bind parameter {expression} has no bound value")
    if isinstance(expression, Var):
        if expression.name not in row:
            raise ExecutionError(
                f"reference {expression.name!r} is not bound in the input tuple")
        return row[expression.name]
    if isinstance(expression, ClassExtent):
        return set(database.extension(expression.class_name))
    if isinstance(expression, PropertyAccess):
        base = evaluate(expression.base, row, database)
        return _access_property(base, expression.prop, database)
    if isinstance(expression, MethodCall):
        receiver = evaluate(expression.receiver, row, database)
        args = [evaluate(arg, row, database) for arg in expression.args]
        return _invoke_method(receiver, expression.method, args, database)
    if isinstance(expression, ClassMethodCall):
        args = [evaluate(arg, row, database) for arg in expression.args]
        return database.invoke_class_method(expression.class_name,
                                            expression.method, *args)
    if isinstance(expression, BinaryOp):
        return _evaluate_binary(expression, row, database)
    if isinstance(expression, UnaryOp):
        if expression.op == "NOT":
            return not _truthy(evaluate(expression.operand, row, database))
        if expression.op == "-":
            return -evaluate(expression.operand, row, database)
        raise ExecutionError(f"unknown unary operator {expression.op!r}")
    if isinstance(expression, TupleConstructor):
        return {name: evaluate(value, row, database)
                for name, value in expression.fields}
    if isinstance(expression, SetConstructor):
        return {make_hashable(evaluate(element, row, database))
                for element in expression.elements}
    raise ExecutionError(f"cannot evaluate expression {expression!r}")


def evaluate_predicate(condition: Expression, row: Mapping[str, Any],
                       database: Database) -> bool:
    """Evaluate a boolean condition, treating ``None`` as false."""
    return _truthy(evaluate(condition, row, database))


def _truthy(value: Any) -> bool:
    if value is None:
        return False
    return bool(value)


def _access_property(base: Any, prop: str, database: Database) -> Any:
    """Property access, lifted over sets of objects."""
    if base is None:
        return None
    if isinstance(base, OID):
        return database.value(base, prop)
    if is_collection(base):
        collected: set = set()
        for member in base:
            value = _access_property(member, prop, database)
            if value is None:
                continue
            if is_collection(value):
                collected.update(value)
            else:
                collected.add(value)
        return collected
    raise ExecutionError(
        f"cannot access property {prop!r} on non-object value {base!r}")


def _invoke_method(receiver: Any, method: str, args: list[Any],
                   database: Database) -> Any:
    """Method invocation, lifted over sets of objects."""
    if receiver is None:
        return None
    if isinstance(receiver, OID):
        return database.invoke(receiver, method, *args)
    if is_collection(receiver):
        collected: set = set()
        for member in receiver:
            value = _invoke_method(member, method, args, database)
            if value is None:
                continue
            if is_collection(value):
                collected.update(value)
            else:
                collected.add(value)
        return collected
    raise ExecutionError(
        f"cannot invoke method {method!r} on non-object value {receiver!r}")


def _evaluate_binary(expression: BinaryOp, row: Mapping[str, Any],
                     database: Database) -> Any:
    op = expression.op
    if isinstance(expression.right, ClassExtent) and op in ("IS-IN",
                                                            "INTERSECT"):
        return _class_check(expression, row, database)
    if op == "AND":
        return (_truthy(evaluate(expression.left, row, database))
                and _truthy(evaluate(expression.right, row, database)))
    if op == "OR":
        return (_truthy(evaluate(expression.left, row, database))
                or _truthy(evaluate(expression.right, row, database)))

    left = evaluate(expression.left, row, database)
    right = evaluate(expression.right, row, database)

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
        if not _is_container(right):
            raise ExecutionError(
                f"right operand of IS-IN is not a collection: {right!r}")
        return left in right
    if op == "IS-SUBSET":
        left_set = _as_set(left)
        right_set = _as_set(right)
        return left_set.issubset(right_set)
    if op in ("INTERSECT", "UNION", "DIFF"):
        left_set = _as_set(left)
        right_set = _as_set(right)
        if op == "INTERSECT":
            return left_set & right_set
        if op == "UNION":
            return left_set | right_set
        return left_set - right_set
    if op in ("+", "-", "*", "/"):
        if left is None or right is None:
            return None
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        return left / right
    raise ExecutionError(f"unknown binary operator {op!r}")


def _class_check(expression: BinaryOp, row: Mapping[str, Any],
                 database: Database) -> Any:
    """``x IS-IN C`` and ``xs INTERSECT C`` for a class extension ``C``:
    the membership the extension's set would answer, checked per object
    (:meth:`Database.instance_checker`) instead of building the set."""
    check = database.instance_checker(expression.right.class_name)
    left = evaluate(expression.left, row, database)
    if expression.op == "IS-IN":
        return check([left])[0]
    members = list(_as_set(left))
    return {member for member, kept in zip(members, check(members)) if kept}


def _is_container(value: Any) -> bool:
    """May *value* stand on the right of ``IS-IN`` (a collection or a
    dictionary — never an OID)?"""
    return is_collection(value) or isinstance(value, dict)


def _as_set(value: Any) -> set:
    if value is None:
        return set()
    if is_collection(value):
        return set(value)
    return {value}


#: value types that are their own hashable representation (checked by exact
#: type first: the common case costs one set probe, not an isinstance chain)
_ATOMIC_TYPES = frozenset({int, str, float, bool, type(None), OID})


def make_hashable(value: Any) -> Any:
    """Convert a value into a hashable representation for deduplication."""
    if type(value) in _ATOMIC_TYPES:
        return value
    if isinstance(value, dict):
        if set(map(type, value.values())) <= _ATOMIC_TYPES:
            # keys are distinct, so sorting the items never compares values
            return tuple(sorted(value.items()))
        return tuple(sorted(zip(value, map(make_hashable, value.values()))))
    if isinstance(value, (set, frozenset)):
        return frozenset(hashable_values(value))
    if is_collection(value):
        return tuple(hashable_values(value))
    return value


def hashable_values(values: Iterable[Any]) -> list[Any]:
    """:func:`make_hashable` of every element of *values*, in order (atomic
    elements pass through without a call)."""
    return [value if type(value) in _ATOMIC_TYPES else make_hashable(value)
            for value in values]
