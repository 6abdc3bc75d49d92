"""One-pass compilation of algebra expressions into column closures.

The interpretive evaluator (:mod:`repro.physical.evaluator`) re-walks the
expression tree with an ``isinstance`` dispatch chain for every input row.
This module translates an expression once per plan into a closure
``Batch -> list`` (:mod:`repro.physical.batch`): one call evaluates the
expression for every row of a column batch, so per-row work is a loop over
lists inside one closure instead of a chain of calls:

* **constant hoisting** — subexpressions that are reference-free and touch
  no database state (no property reads, method calls or extents) are folded
  to a value at compile time;
* **batched property reads** — a property path reads a whole column through
  :meth:`Database.property_batch_reader`, which resolves the snapshot pin
  once per batch; method calls resolve their target once per receiver class
  via :meth:`Database.instance_invoker` (the same statistics are charged,
  so work counters match the interpreter);
* **specialized predicates** — comparisons against constants capture the
  constant directly, and ``IS-IN`` against a constant collection probes a
  prebuilt hashed set;
* **short-circuit by selection** — ``AND``/``OR`` evaluate their right
  operand only on the rows the left operand leaves undecided, so method
  calls and property reads are charged exactly as row-at-a-time evaluation
  charges them.

Compilation itself performs *no* database work and raises no errors the
interpreter would not raise: anything that can fail at runtime (unknown
methods, bad operand types) fails on evaluation.  When a batch fails, the
closure :meth:`ExpressionCompiler.compile` returns re-evaluates the batch
row by row to raise the exception of the *first* failing row — the one the
interpreter raises.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Expression,
    MethodCall,
    Parameter,
    PropertyAccess,
    SetConstructor,
    TupleConstructor,
    UnaryOp,
    Var,
    walk,
)
from repro.datamodel.database import Database
from repro.datamodel.oid import OID, is_collection
from repro.errors import ExecutionError, ObjectNotFoundError
from repro.physical.batch import UNIT, Batch
from repro.physical.evaluator import (
    EMPTY_ROW,
    _access_property,
    _as_set,
    _invoke_method,
    _is_container,
    evaluate,
    hashable_values,
)

__all__ = ["CompiledExpr", "ExpressionCompiler"]

#: a compiled expression: the value of every row of a batch, in row order
CompiledExpr = Callable[[Batch], list]

_DATABASE_NODES = (PropertyAccess, MethodCall, ClassMethodCall, ClassExtent)
#: exact types of the IS-IN containers the fast path accepts (an OID's type
#: is not among them: it is an atom, not a pair)
_CONTAINER_TYPES = {set, frozenset, list, tuple, dict}

_COMPARATORS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}
_SET_OPERATORS = {
    "IS-SUBSET": set.issubset,
    "INTERSECT": operator.and_,
    "UNION": operator.or_,
    "DIFF": operator.sub,
}


def _is_pure(expression: Expression) -> bool:
    """True when *expression* uses no references, no database state and no
    bind parameters (a parameter's value changes between executions of one
    compiled plan, so it must never be folded into a constant)."""
    return not any(isinstance(node, (Var, Parameter, *_DATABASE_NODES))
                   for node in walk(expression))


def _first_failure(column: CompiledExpr) -> CompiledExpr:
    """Guard *column* so that a failing batch raises the exception of its
    first failing row, as row-at-a-time evaluation would: the batch is
    re-evaluated one row at a time (work counters of a failed statement
    are not part of the contract)."""
    def guarded(batch: Batch) -> list:
        try:
            return column(batch)
        except Exception:
            if batch.length > 1:
                for row in range(batch.length):
                    try:
                        column(batch.take((row,)))
                    except Exception as first:
                        raise first from None
            raise

    return guarded


def _select(values: list, truth: bool) -> list[int]:
    """Positions of the *values* whose truthiness is *truth*."""
    if truth:
        return [row for row, value in enumerate(values) if value]
    return [row for row, value in enumerate(values) if not value]


class ExpressionCompiler:
    """Compiles expressions into column closures bound to one database.

    ``parameter_resolver`` supplies bind-parameter values at evaluation time
    (``key -> value``); the service layer passes a thread-local binding
    environment so that one compiled plan can serve many concurrent
    executions with different bindings.  Without a resolver, evaluating a
    :class:`~repro.algebra.expressions.Parameter` raises, exactly like the
    interpreter does on an unbound plan.
    """

    def __init__(self, database: Database,
                 parameter_resolver: Callable[[str], Any] | None = None,
                 profile=None):
        self._database = database
        self._parameter_resolver = parameter_resolver
        #: optional :class:`repro.physical.profile.PlanProfile` the engines
        #: thread to their operator builders (the compiler itself never
        #: consults it; it rides here because one compiler instance spans
        #: exactly one plan build, the granularity profiling needs)
        self.profile = profile

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compile(self, expression: Expression) -> CompiledExpr:
        """Compile *expression* into a ``Batch -> list`` closure.

        A predicate compiles the same way: a row satisfies it when its
        value is truthy (``None`` counts as false).
        """
        column = self._column(expression)
        if hasattr(column, "constant_value") or isinstance(expression, Var):
            return column  # fails on no row, or on every row alike
        return _first_failure(column)

    def compile_scalar(self, expression: Expression) -> Callable[[], Any]:
        """Compile a row-free expression (a scan key, an index bound, a set
        expression) into a closure evaluating it once, per execution (on
        the one-row batch :data:`~repro.physical.batch.UNIT`, whose first
        failing row is its only row: no guard needed).  Bind parameters and
        constants — the usual keys — resolve directly."""
        resolver = self._parameter_resolver
        if isinstance(expression, Parameter) and resolver is not None:
            key = expression.key
            return lambda: resolver(key)
        column = self._column(expression)
        if hasattr(column, "constant_value"):
            value = column.constant_value
            return lambda: value
        return lambda: column(UNIT)[0]

    # ------------------------------------------------------------------
    # constant hoisting
    # ------------------------------------------------------------------
    def _fold(self, expression: Expression) -> CompiledExpr | None:
        """Fold a pure subexpression into a constant closure, or None."""
        if not _is_pure(expression):
            return None
        try:
            value = evaluate(expression, EMPTY_ROW, self._database)
        except Exception:
            # A pure expression that fails (e.g. 1/0) must keep failing at
            # evaluation time, not at compile time.
            return None

        def constant(batch: Batch) -> list:
            return [value] * batch.length

        constant.constant_value = value  # type: ignore[attr-defined]
        return constant

    def _const_value(self, expression: Expression) -> tuple[bool, Any]:
        """(True, value) when *expression* folds to a constant."""
        folded = self._fold(expression)
        if folded is None:
            return False, None
        return True, folded.constant_value  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # node compilation
    # ------------------------------------------------------------------
    def _column(self, expression: Expression) -> CompiledExpr:
        folded = self._fold(expression)
        if folded is not None:
            return folded  # every constant folds
        if isinstance(expression, Var):
            return self._compile_var(expression)
        if isinstance(expression, Parameter):
            return self._compile_parameter(expression)
        if isinstance(expression, ClassExtent):
            extension = self._database.extension
            class_name = expression.class_name
            return lambda batch: [set(extension(class_name))
                                  for _ in range(batch.length)]
        if isinstance(expression, PropertyAccess):
            return self._compile_property(expression)
        if isinstance(expression, MethodCall):
            return self._compile_method_call(expression)
        if isinstance(expression, ClassMethodCall):
            return self._compile_class_method_call(expression)
        if isinstance(expression, BinaryOp):
            return self._compile_binary(expression)
        if isinstance(expression, UnaryOp):
            return self._compile_unary(expression)
        if isinstance(expression, TupleConstructor):
            return self._compile_tuple(expression)
        if isinstance(expression, SetConstructor):
            elements = [self._column(element)
                        for element in expression.elements]

            def build_sets(batch: Batch) -> list:
                # an empty constructor is constant: it folded above
                return [set(hashable_values(values))
                        for values in zip(*[fn(batch) for fn in elements])]

            return build_sets
        # Unknown nodes fall back to the interpreter so that any error is
        # raised at evaluation time, like the reference engine does.
        database = self._database
        return lambda batch: [evaluate(expression, row, database)
                              for row in batch.rows()]

    def _compile_var(self, expression: Var) -> CompiledExpr:
        name = expression.name

        def read_var(batch: Batch) -> list:
            try:
                return batch.columns[name]
            except KeyError:
                raise ExecutionError(
                    f"reference {name!r} is not bound in the input tuple"
                ) from None

        return read_var

    def _compile_parameter(self, expression: Parameter) -> CompiledExpr:
        resolver = self._parameter_resolver
        key = expression.key
        if resolver is None:
            message = f"bind parameter {expression} has no bound value"

            def unbound(batch: Batch) -> list:
                raise ExecutionError(message)

            return unbound
        return lambda batch: [resolver(key)] * batch.length

    def _compile_tuple(self, expression: TupleConstructor) -> CompiledExpr:
        names = [name for name, _ in expression.fields]
        values = [self._column(value) for _, value in expression.fields]

        def build_tuples(batch: Batch) -> list:
            # one dict per row, zipping the field columns (an empty
            # constructor is constant: it never compiles here)
            columns = [fn(batch) for fn in values]
            return [dict(zip(names, row)) for row in zip(*columns)]

        return build_tuples

    def _compile_property(self, expression: PropertyAccess) -> CompiledExpr:
        base = self._column(expression.base)
        prop = expression.prop
        database = self._database
        read_oids = database.property_batch_reader(prop)

        def read_lifted(objs: list) -> list:
            # NULL receivers read NULL; OIDs, and the members of every
            # collection holding OIDs only, join one batch read and are
            # regrouped after it: the same values and the same
            # property_reads as the interpreter's member-by-member read.
            values: list = [None] * len(objs)
            oids: list[OID] = []
            spans: list[tuple[int, int, int]] = []  # row, first, end
            for row, obj in enumerate(objs):
                if isinstance(obj, OID):
                    spans.append((row, len(oids), -1))
                    oids.append(obj)
                elif obj is None:
                    continue
                elif is_collection(obj):
                    members = list(obj)
                    if all(type(member) is OID for member in members):
                        spans.append((row, len(oids), len(oids) + len(members)))
                        oids.extend(members)
                    else:  # NULL or non-object members: one by one
                        values[row] = _access_property(obj, prop, database)
                else:
                    raise ExecutionError(
                        f"cannot access property {prop!r} on non-object "
                        f"value {obj!r}")
            read = read_oids(oids)
            for row, first, end in spans:
                if end < 0:
                    values[row] = read[first]
                    continue
                collected: set = set()
                for value in read[first:end]:
                    if value is None:
                        continue
                    if is_collection(value):
                        collected.update(value)
                    else:
                        collected.add(value)
                values[row] = collected
            return values

        def read_property(batch: Batch) -> list:
            objs = base(batch)
            try:
                return read_oids(objs)
            except TypeError:
                pass  # not all OIDs (the reader charged nothing)
            try:
                return read_lifted(objs)
            except ObjectNotFoundError:
                # A dangling reference: read row by row to raise for the one
                # the interpreter meets first.
                return [_access_property(obj, prop, database) for obj in objs]

        return read_property

    def _compile_method_call(self, expression: MethodCall) -> CompiledExpr:
        receiver = self._column(expression.receiver)
        method = expression.method
        database = self._database
        invokers: dict[str, Callable[[Any, tuple], Any]] = {}

        # When every argument folds to a constant (the common case for
        # predicates like ``p->contains_string('term')``), the argument
        # tuple is built once at compile time instead of per row.
        folded_args = [self._const_value(arg) for arg in expression.args]
        if all(is_const for is_const, _ in folded_args):
            const_args = tuple(value for _, value in folded_args)
            arg_fns = None
        else:
            arg_fns = [self._column(arg) for arg in expression.args]

        def call_method(batch: Batch) -> list:
            objs = receiver(batch)
            if arg_fns is None:  # no arguments are constant arguments
                arg_rows: Any = [const_args] * len(objs)
            else:
                arg_rows = list(zip(*[fn(batch) for fn in arg_fns]))
            values = []
            append = values.append
            for obj, args in zip(objs, arg_rows):
                if isinstance(obj, OID):
                    invoke = invokers.get(obj.class_name)
                    if invoke is None:
                        invoke = database.instance_invoker(obj.class_name,
                                                           method)
                        invokers[obj.class_name] = invoke
                    append(invoke(obj, args))
                elif obj is None:
                    append(None)
                elif is_collection(obj):
                    append(_invoke_method(obj, method, list(args), database))
                else:
                    raise ExecutionError(
                        f"cannot invoke method {method!r} on non-object "
                        f"value {obj!r}")
            return values

        return call_method

    def _compile_class_method_call(self, expression: ClassMethodCall
                                   ) -> CompiledExpr:
        arg_fns = [self._column(arg) for arg in expression.args]
        class_name = expression.class_name
        method = expression.method
        database = self._database
        cell: list[Callable[[Any, tuple], Any]] = []

        def call_class_method(batch: Batch) -> list:
            if arg_fns:
                arg_rows: Any = zip(*[fn(batch) for fn in arg_fns])
            else:
                arg_rows = [()] * batch.length
            if not cell:
                cell.append(database.class_invoker(class_name, method))
            invoke = cell[0]
            return [invoke(class_name, args) for args in arg_rows]

        return call_class_method

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def _compile_binary(self, expression: BinaryOp) -> CompiledExpr:
        op = expression.op
        if op in ("AND", "OR"):
            return self._compile_connective(expression)

        left = self._column(expression.left)
        if isinstance(expression.right, ClassExtent) and op in ("IS-IN",
                                                                "INTERSECT"):
            return self._compile_class_check(left, op,
                                             expression.right.class_name)
        right_is_const, right_value = self._const_value(expression.right)
        right = self._column(expression.right)

        if op == "==":
            if right_is_const:
                return lambda batch: [value == right_value
                                      for value in left(batch)]
            return lambda batch: [a == b for a, b in
                                  zip(left(batch), right(batch))]
        if op == "!=":
            if right_is_const:
                return lambda batch: [value != right_value
                                      for value in left(batch)]
            return lambda batch: [a != b for a, b in
                                  zip(left(batch), right(batch))]

        if op in _COMPARATORS:
            compare = _COMPARATORS[op]
            if right_is_const and right_value is not None:
                return lambda batch: [value is not None
                                      and compare(value, right_value)
                                      for value in left(batch)]
            return lambda batch: [a is not None and b is not None
                                  and compare(a, b)
                                  for a, b in zip(left(batch), right(batch))]

        if op == "IS-IN":
            return self._compile_membership(left, right,
                                            right_is_const, right_value)

        if op in _SET_OPERATORS:
            combine = _SET_OPERATORS[op]
            return lambda batch: [combine(_as_set(a), _as_set(b)) for a, b
                                  in zip(left(batch), right(batch))]

        if op in _ARITHMETIC:
            arithmetic = _ARITHMETIC[op]
            return lambda batch: [None if a is None or b is None
                                  else arithmetic(a, b)
                                  for a, b in zip(left(batch), right(batch))]

        def unknown(batch: Batch) -> list:
            raise ExecutionError(f"unknown binary operator {op!r}")

        return unknown

    def _compile_class_check(self, left: CompiledExpr, op: str,
                             class_name: str) -> CompiledExpr:
        """``x IS-IN C`` / ``xs INTERSECT C`` against a class extension:
        one :meth:`Database.instance_checker` call per batch, no extension
        built (the interpreter answers alike, see its ``_class_check``)."""
        check = self._database.instance_checker(class_name)
        if op == "IS-IN":
            return lambda batch: check(left(batch))

        def intersect(batch: Batch) -> list:
            values = []
            for value in left(batch):
                members = list(_as_set(value))
                values.append({member for member, kept
                               in zip(members, check(members)) if kept})
            return values

        return intersect

    def _compile_connective(self, expression: BinaryOp) -> CompiledExpr:
        """``AND`` / ``OR``: the right operand runs only on the rows whose
        left value leaves the result open (truthy for AND, falsy for OR)."""
        left = self._column(expression.left)
        right = self._column(expression.right)
        # AND is decided (False) by a falsy left value, OR (True) by a
        # truthy one; the remaining rows take the right operand's truth.
        open_on = expression.op == "AND"

        def connective(batch: Batch) -> list:
            left_values = left(batch)
            undecided = _select(left_values, open_on)
            if len(undecided) == batch.length:
                return [bool(value) for value in right(batch)]
            result = [not open_on] * batch.length
            if undecided:
                for row, value in zip(undecided,
                                      right(batch.take(undecided))):
                    result[row] = bool(value)
            return result

        return connective

    def _compile_membership(self, left: CompiledExpr, right: CompiledExpr,
                            right_is_const: bool, right_value: Any
                            ) -> CompiledExpr:
        """``IS-IN`` — probe a prebuilt hashed set for constant collections."""
        if right_is_const and _is_container(right_value):
            try:
                members = frozenset(right_value)
            except TypeError:
                members = None
            if members is not None:
                def probe_one(value: Any) -> bool:
                    try:
                        return value in members
                    except TypeError:
                        # unhashable probe values fall back to the linear
                        # semantics of the original collection
                        return value in right_value

                def probe(batch: Batch) -> list:
                    values = left(batch)
                    try:
                        return [value in members for value in values]
                    except TypeError:
                        return [probe_one(value) for value in values]

                return probe

        def contains(value: Any, container: Any) -> bool:
            if container is None:
                return False
            if not _is_container(container):
                raise ExecutionError(
                    f"right operand of IS-IN is not a collection: "
                    f"{container!r}")
            return value in container

        def membership(batch: Batch) -> list:
            # The probe values are evaluated first, like the interpreter, so
            # that any database work on the left side is charged identically.
            values = left(batch)
            containers = right(batch)
            if set(map(type, containers)) <= _CONTAINER_TYPES:
                return [value in container
                        for value, container in zip(values, containers)]
            return [contains(value, container)
                    for value, container in zip(values, containers)]

        return membership

    def _compile_unary(self, expression: UnaryOp) -> CompiledExpr:
        operand = self._column(expression.operand)
        if expression.op == "NOT":
            return lambda batch: [not value for value in operand(batch)]
        if expression.op == "-":
            return lambda batch: [-value for value in operand(batch)]
        op = expression.op

        def unknown(batch: Batch) -> list:
            raise ExecutionError(f"unknown unary operator {op!r}")

        return unknown
