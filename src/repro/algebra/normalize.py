"""Normalization: general algebra → restricted algebra.

Section 6.1 argues that both algebras have the same expressive power because
*expression composition* in operator parameters can be translated to
*operator composition*.  This module performs that translation: every complex
parameter expression is decomposed into a chain of ``map_*`` operators
computing intermediate references, followed by an atomic selection/join,
followed by a projection that removes the intermediate references again
(mirroring the ``project<..., Ref(?A)>`` wrappers in the paper's Example 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    Expression,
    MethodCall,
    PropertyAccess,
    UnaryOp,
    Var,
)
from repro.algebra.operators import (
    Diff,
    ExpressionSource,
    Flat,
    Get,
    Join,
    LogicalOperator,
    Map,
    NaturalJoin,
    Project,
    Select,
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
from repro.errors import AlgebraError

__all__ = ["Normalizer", "normalize"]

#: comparison operators usable directly in select_cmp / join_cmp
_ATOMIC_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=", "IS-IN", "IS-SUBSET")


def normalize(plan: LogicalOperator) -> LogicalOperator:
    """Translate *plan* from the general to the restricted algebra."""
    return Normalizer().normalize(plan)


@dataclass
class Normalizer:
    """Stateful normalizer (carries the temporary-reference counter)."""

    _counter: int = 0
    temp_prefix: str = "_t"

    def fresh_ref(self) -> str:
        self._counter += 1
        return f"{self.temp_prefix}{self._counter}"

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def normalize(self, plan: LogicalOperator) -> LogicalOperator:
        original_refs = plan.refs()

        if isinstance(plan, (Get, ExpressionSource)):
            return plan
        if isinstance(plan, Select):
            result = self._normalize_select(plan)
        elif isinstance(plan, Join):
            result = self._normalize_join(plan)
        elif isinstance(plan, NaturalJoin):
            result = NaturalJoin(self.normalize(plan.left), self.normalize(plan.right))
        elif isinstance(plan, Union):
            result = Union(self.normalize(plan.left), self.normalize(plan.right))
        elif isinstance(plan, Diff):
            result = Diff(self.normalize(plan.left), self.normalize(plan.right))
        elif isinstance(plan, Map):
            result = self._normalize_map(plan)
        elif isinstance(plan, Flat):
            result = self._normalize_flat(plan)
        elif isinstance(plan, Project):
            result = Project(plan.kept, self.normalize(plan.input))
        else:
            raise AlgebraError(
                f"cannot normalize operator {plan.describe()} — not part of "
                "the general algebra")

        return self._project_to(result, original_refs)

    def _project_to(self, plan: LogicalOperator,
                    refs: tuple[str, ...]) -> LogicalOperator:
        """Drop temporary references so the output schema matches *refs*."""
        if tuple(sorted(plan.refs())) == tuple(sorted(refs)):
            return plan
        return Project(refs, plan)

    # -- select ---------------------------------------------------------
    def _normalize_select(self, plan: Select) -> LogicalOperator:
        inner = self.normalize(plan.input)
        return self._compile_condition(plan.condition, inner)

    def _compile_condition(self, condition: Expression,
                           plan: LogicalOperator) -> LogicalOperator:
        """Compile a boolean condition into restricted operators + select_cmp."""
        if isinstance(condition, BinaryOp) and condition.op == "AND":
            plan = self._compile_condition(condition.left, plan)
            return self._compile_condition(condition.right, plan)
        if isinstance(condition, BinaryOp) and condition.op in _ATOMIC_COMPARISONS:
            left, plan = self.compile_expression(condition.left, plan)
            right, plan = self.compile_expression(condition.right, plan)
            return SelectCmp(left, condition.op, right, plan)
        # General boolean expression (OR, NOT, a boolean method call, ...):
        # compute it into a reference and compare with TRUE.
        operand, plan = self.compile_expression(condition, plan)
        return SelectCmp(operand, "==", Const(True), plan)

    # -- join -----------------------------------------------------------
    def _normalize_join(self, plan: Join) -> LogicalOperator:
        left = self.normalize(plan.left)
        right = self.normalize(plan.right)
        condition = plan.condition
        if condition == Const(True):
            return CrossProduct(left, right)
        if (isinstance(condition, BinaryOp)
                and condition.op in _ATOMIC_COMPARISONS
                and isinstance(condition.left, Var)
                and isinstance(condition.right, Var)):
            left_refs = set(left.refs())
            right_refs = set(right.refs())
            if condition.left.name in left_refs and condition.right.name in right_refs:
                return JoinCmp(condition.left.name, condition.op,
                               condition.right.name, left, right)
            if condition.left.name in right_refs and condition.right.name in left_refs:
                return JoinCmp(condition.right.name,
                               _mirror_comparison(condition.op),
                               condition.left.name, left, right)
        # Fall back to cross product followed by a compiled selection.
        return self._compile_condition(condition, CrossProduct(left, right))

    # -- map / flat ------------------------------------------------------
    def _normalize_map(self, plan: Map) -> LogicalOperator:
        inner = self.normalize(plan.input)
        return self._bind_expression(plan.expression, inner, plan.ref)

    def _normalize_flat(self, plan: Flat) -> LogicalOperator:
        inner = self.normalize(plan.input)
        expression = plan.expression
        if isinstance(expression, PropertyAccess) and isinstance(expression.base, Var):
            return FlatProperty(plan.ref, expression.prop, expression.base.name, inner)
        if isinstance(expression, MethodCall) and isinstance(expression.receiver, Var):
            args, inner = self._compile_operands(expression.args, inner)
            return FlatMethod(plan.ref, expression.method,
                              expression.receiver.name, args, inner)
        # General case: compute the set into a temporary and flatten it.
        operand, inner = self.compile_expression(expression, inner)
        if isinstance(operand, Const):
            temp = self.fresh_ref()
            inner = MapConst(temp, operand, inner)
            operand = temp
        return FlatRef(plan.ref, operand, inner)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def compile_expression(self, expression: Expression,
                           plan: LogicalOperator
                           ) -> tuple[Operand, LogicalOperator]:
        """Compile *expression* to an operand over *plan*.

        Returns the operand (a reference or a constant) together with the
        plan extended by whatever ``map_*`` operators were required.
        """
        if isinstance(expression, Var):
            if expression.name not in set(plan.refs()):
                raise AlgebraError(
                    f"expression references unknown reference {expression.name!r}")
            return expression.name, plan
        if isinstance(expression, Const):
            return expression, plan
        ref = self.fresh_ref()
        plan = self._bind_expression(expression, plan, ref)
        return ref, plan

    def _compile_operands(self, expressions: tuple[Expression, ...],
                          plan: LogicalOperator
                          ) -> tuple[tuple[Operand, ...], LogicalOperator]:
        operands: list[Operand] = []
        for expression in expressions:
            operand, plan = self.compile_expression(expression, plan)
            operands.append(operand)
        return tuple(operands), plan

    def _bind_expression(self, expression: Expression, plan: LogicalOperator,
                         target: str) -> LogicalOperator:
        """Extend *plan* so that *target* holds the value of *expression*."""
        if isinstance(expression, Const):
            return MapConst(target, expression, plan)
        if isinstance(expression, Var):
            return MapOperator(target, "IDENTITY", (expression.name,), plan)
        if isinstance(expression, ClassExtent):
            return MapExtent(target, expression.class_name, plan)
        if isinstance(expression, PropertyAccess):
            base, plan = self.compile_expression(expression.base, plan)
            if isinstance(base, Const):
                temp = self.fresh_ref()
                plan = MapConst(temp, base, plan)
                base = temp
            return MapProperty(target, expression.prop, base, plan)
        if isinstance(expression, MethodCall):
            receiver, plan = self.compile_expression(expression.receiver, plan)
            if isinstance(receiver, Const):
                temp = self.fresh_ref()
                plan = MapConst(temp, receiver, plan)
                receiver = temp
            args, plan = self._compile_operands(expression.args, plan)
            return MapMethod(target, expression.method, receiver, args, plan)
        if isinstance(expression, ClassMethodCall):
            args, plan = self._compile_operands(expression.args, plan)
            return MapClassMethod(target, expression.class_name,
                                  expression.method, args, plan)
        if isinstance(expression, BinaryOp):
            left, plan = self.compile_expression(expression.left, plan)
            right, plan = self.compile_expression(expression.right, plan)
            return MapOperator(target, expression.op, (left, right), plan)
        if isinstance(expression, UnaryOp):
            operand, plan = self.compile_expression(expression.operand, plan)
            return MapOperator(target, expression.op, (operand,), plan)
        raise AlgebraError(
            f"expression {expression} cannot be decomposed into restricted "
            "algebra operators (tuple/set constructors are not supported in "
            "the restricted normalization)")


def _mirror_comparison(op: str) -> str:
    """The comparison to use when the operands of θ are swapped."""
    mirror = {"<": ">", ">": "<", "<=": ">=", ">=": "<=",
              "==": "==", "!=": "!="}
    if op in mirror:
        return mirror[op]
    raise AlgebraError(f"comparison {op!r} cannot be mirrored")
