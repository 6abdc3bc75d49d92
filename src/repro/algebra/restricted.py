"""The restricted query algebra of Section 6.1.

The Volcano optimizer generator can pattern-match on operators and inputs but
not on the *content* of operator arguments; the paper therefore restricts the
operator parameters to atomic expressions and introduces specialized
operators.  The substitution table of Section 6.1 maps the general algebra to
this restricted one::

    select<a1,θ,a2>(S)                    select<a1 θ a2>(S)
    join<a1,θ,a2>(S1,S2)                  join<a1 θ a2>(S1,S2)
    map_property<anew, p, a1>(S)          map<anew, a1.p>(S)
    map_method<anew, m, a1, <a2,...>>(S)  map<anew, a1→m(a2,...)>(S)
    flat_property<anew, p, a1>(S)         flat<anew, a1.p>(S)
    flat_method<anew, m, a1, <a2,...>>(S) flat<anew, a1→m(a2,...)>(S)
    map_operator<anew, ⊕, a1,...,an>(S)   map<anew, ⊕(a1,...,an)>(S)

The operators not mentioned (get, natural_join, union, diff, project) are
shared with :mod:`repro.algebra.operators`.  A few auxiliary operators
(``map_const``, ``map_extent``, ``map_class_method``, ``flat_ref``,
``cross_product``) are needed so that *every* general-algebra expression can
be decomposed into operator composition — this is exactly the
"expression composition on the parameter level becomes operator composition"
argument the paper uses for the equal-expressive-power claim.

θ ranges over the boolean binary operations on built-in data types and ⊕ over
the non-boolean ones, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.algebra.expressions import COMPARISON_OPS, Const
from repro.algebra.operators import LogicalOperator, references_of
from repro.errors import AlgebraError

__all__ = [
    "Operand",
    "SelectCmp",
    "JoinCmp",
    "CrossProduct",
    "MapProperty",
    "MapMethod",
    "MapClassMethod",
    "MapExtent",
    "MapOperator",
    "MapConst",
    "FlatProperty",
    "FlatMethod",
    "FlatRef",
    "operand_refs",
    "is_restricted_operator",
]

#: an operand of a restricted operator: a reference name or a constant
Operand = Union[str, Const]


def operand_refs(operands: Sequence[Operand]) -> set[str]:
    """The reference names among *operands*."""
    return {op for op in operands if isinstance(op, str)}


def _check_operands(operands: Sequence[Operand], available: set[str],
                    operator_name: str) -> None:
    unknown = operand_refs(operands) - available
    if unknown:
        raise AlgebraError(
            f"{operator_name} uses unknown reference(s) "
            f"{', '.join(sorted(unknown))}")


def _check_new_ref(new_ref: str, available: set[str], operator_name: str) -> None:
    if new_ref in available:
        raise AlgebraError(
            f"{operator_name} introduces existing reference {new_ref!r}")


@dataclass(frozen=True)
class SelectCmp(LogicalOperator):
    """``select<a1, θ, a2>(S)`` — selection on an atomic comparison."""

    left: Operand
    op: str
    right: Operand
    input: LogicalOperator
    name = "select_cmp"

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise AlgebraError(f"select_cmp operator {self.op!r} is not a "
                               "boolean binary operation")
        _check_operands((self.left, self.right), references_of(self.input),
                        "select_cmp")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "SelectCmp":
        (only,) = inputs
        return SelectCmp(self.left, self.op, self.right, only)

    def refs(self) -> tuple[str, ...]:
        return self.input.refs()

    def describe(self) -> str:
        return f"select_cmp<{self.left}, {self.op}, {self.right}>"


@dataclass(frozen=True)
class JoinCmp(LogicalOperator):
    """``join<a1, θ, a2>(S1, S2)`` — θ-join on an atomic comparison."""

    left_ref: str
    op: str
    right_ref: str
    left: LogicalOperator
    right: LogicalOperator
    name = "join_cmp"

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise AlgebraError(f"join_cmp operator {self.op!r} is not a "
                               "boolean binary operation")
        left_refs = references_of(self.left)
        right_refs = references_of(self.right)
        if left_refs & right_refs:
            raise AlgebraError("join_cmp inputs must have disjoint references")
        if self.left_ref not in left_refs:
            raise AlgebraError(
                f"join_cmp left operand {self.left_ref!r} not in left input")
        if self.right_ref not in right_refs:
            raise AlgebraError(
                f"join_cmp right operand {self.right_ref!r} not in right input")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "JoinCmp":
        left, right = inputs
        return JoinCmp(self.left_ref, self.op, self.right_ref, left, right)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.left) | references_of(self.right)))

    def describe(self) -> str:
        return f"join_cmp<{self.left_ref}, {self.op}, {self.right_ref}>"


@dataclass(frozen=True)
class CrossProduct(LogicalOperator):
    """Cartesian product (``join<true>`` of the general algebra)."""

    left: LogicalOperator
    right: LogicalOperator
    name = "cross_product"

    def __post_init__(self) -> None:
        if references_of(self.left) & references_of(self.right):
            raise AlgebraError("cross_product inputs must have disjoint references")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "CrossProduct":
        left, right = inputs
        return CrossProduct(left, right)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.left) | references_of(self.right)))

    def describe(self) -> str:
        return "cross_product"


@dataclass(frozen=True)
class MapProperty(LogicalOperator):
    """``map_property<anew, p, a1>(S)`` — property access as an operator.

    When the value under ``src_ref`` is a set of objects the access is lifted
    (the union of the members' property values), matching the paper's
    convention for expressions such as ``D.sections``."""

    new_ref: str
    prop: str
    src_ref: str
    input: LogicalOperator
    name = "map_property"

    def __post_init__(self) -> None:
        available = references_of(self.input)
        _check_new_ref(self.new_ref, available, "map_property")
        _check_operands((self.src_ref,), available, "map_property")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "MapProperty":
        (only,) = inputs
        return MapProperty(self.new_ref, self.prop, self.src_ref, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.new_ref}))

    def describe(self) -> str:
        return f"map_property<{self.new_ref}, {self.prop}, {self.src_ref}>"


@dataclass(frozen=True)
class MapMethod(LogicalOperator):
    """``map_method<anew, m, a1, <a2,...>>(S)`` — instance method call."""

    new_ref: str
    method: str
    receiver_ref: str
    args: tuple[Operand, ...]
    input: LogicalOperator
    name = "map_method"

    def __post_init__(self) -> None:
        available = references_of(self.input)
        _check_new_ref(self.new_ref, available, "map_method")
        _check_operands((self.receiver_ref, *self.args), available, "map_method")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "MapMethod":
        (only,) = inputs
        return MapMethod(self.new_ref, self.method, self.receiver_ref,
                         self.args, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.new_ref}))

    def describe(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return (f"map_method<{self.new_ref}, {self.method}, "
                f"{self.receiver_ref}, <{args}>>")


@dataclass(frozen=True)
class MapClassMethod(LogicalOperator):
    """``map_class_method<anew, C, m, <args>>(S)`` — class-level method call
    (methods as algebraic operators, Section 3.2)."""

    new_ref: str
    class_name: str
    method: str
    args: tuple[Operand, ...]
    input: LogicalOperator
    name = "map_class_method"

    def __post_init__(self) -> None:
        available = references_of(self.input)
        _check_new_ref(self.new_ref, available, "map_class_method")
        _check_operands(self.args, available, "map_class_method")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "MapClassMethod":
        (only,) = inputs
        return MapClassMethod(self.new_ref, self.class_name, self.method,
                              self.args, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.new_ref}))

    def describe(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return (f"map_class_method<{self.new_ref}, {self.class_name}, "
                f"{self.method}, <{args}>>")


@dataclass(frozen=True)
class MapExtent(LogicalOperator):
    """``map_extent<anew, C>(S)`` — bind the extension of a class to a
    reference (the operator form of a class name used as a value)."""

    new_ref: str
    class_name: str
    input: LogicalOperator
    name = "map_extent"

    def __post_init__(self) -> None:
        _check_new_ref(self.new_ref, references_of(self.input), "map_extent")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "MapExtent":
        (only,) = inputs
        return MapExtent(self.new_ref, self.class_name, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.new_ref}))

    def describe(self) -> str:
        return f"map_extent<{self.new_ref}, {self.class_name}>"


@dataclass(frozen=True)
class MapOperator(LogicalOperator):
    """``map_operator<anew, ⊕, a1,...,an>(S)`` — built-in data type operation."""

    new_ref: str
    op: str
    operands: tuple[Operand, ...]
    input: LogicalOperator
    name = "map_operator"

    def __post_init__(self) -> None:
        available = references_of(self.input)
        _check_new_ref(self.new_ref, available, "map_operator")
        _check_operands(self.operands, available, "map_operator")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "MapOperator":
        (only,) = inputs
        return MapOperator(self.new_ref, self.op, self.operands, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.new_ref}))

    def describe(self) -> str:
        operands = ", ".join(str(o) for o in self.operands)
        return f"map_operator<{self.new_ref}, {self.op}, {operands}>"


@dataclass(frozen=True)
class MapConst(LogicalOperator):
    """``map_const<anew, c>(S)`` — bind a constant to a reference."""

    new_ref: str
    value: Const
    input: LogicalOperator
    name = "map_const"

    def __post_init__(self) -> None:
        _check_new_ref(self.new_ref, references_of(self.input), "map_const")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "MapConst":
        (only,) = inputs
        return MapConst(self.new_ref, self.value, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.new_ref}))

    def describe(self) -> str:
        return f"map_const<{self.new_ref}, {self.value}>"


@dataclass(frozen=True)
class FlatProperty(LogicalOperator):
    """``flat_property<anew, p, a1>(S)`` — one output tuple per element of
    the (set-valued) property."""

    new_ref: str
    prop: str
    src_ref: str
    input: LogicalOperator
    name = "flat_property"

    def __post_init__(self) -> None:
        available = references_of(self.input)
        _check_new_ref(self.new_ref, available, "flat_property")
        _check_operands((self.src_ref,), available, "flat_property")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "FlatProperty":
        (only,) = inputs
        return FlatProperty(self.new_ref, self.prop, self.src_ref, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.new_ref}))

    def describe(self) -> str:
        return f"flat_property<{self.new_ref}, {self.prop}, {self.src_ref}>"


@dataclass(frozen=True)
class FlatMethod(LogicalOperator):
    """``flat_method<anew, m, a1, <a2,...>>(S)`` — one output tuple per
    element of the method's set-valued result."""

    new_ref: str
    method: str
    receiver_ref: str
    args: tuple[Operand, ...]
    input: LogicalOperator
    name = "flat_method"

    def __post_init__(self) -> None:
        available = references_of(self.input)
        _check_new_ref(self.new_ref, available, "flat_method")
        _check_operands((self.receiver_ref, *self.args), available, "flat_method")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "FlatMethod":
        (only,) = inputs
        return FlatMethod(self.new_ref, self.method, self.receiver_ref,
                          self.args, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.new_ref}))

    def describe(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return (f"flat_method<{self.new_ref}, {self.method}, "
                f"{self.receiver_ref}, <{args}>>")


@dataclass(frozen=True)
class FlatRef(LogicalOperator):
    """``flat_ref<anew, a1>(S)`` — one output tuple per element of the set
    already bound to ``a1`` (used to flatten previously computed values)."""

    new_ref: str
    src_ref: str
    input: LogicalOperator
    name = "flat_ref"

    def __post_init__(self) -> None:
        available = references_of(self.input)
        _check_new_ref(self.new_ref, available, "flat_ref")
        _check_operands((self.src_ref,), available, "flat_ref")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "FlatRef":
        (only,) = inputs
        return FlatRef(self.new_ref, self.src_ref, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.new_ref}))

    def describe(self) -> str:
        return f"flat_ref<{self.new_ref}, {self.src_ref}>"


_RESTRICTED_TYPES = (
    SelectCmp, JoinCmp, CrossProduct, MapProperty, MapMethod, MapClassMethod,
    MapExtent, MapOperator, MapConst, FlatProperty, FlatMethod, FlatRef,
)


def is_restricted_operator(operator: LogicalOperator) -> bool:
    """True for operators specific to the restricted algebra."""
    return isinstance(operator, _RESTRICTED_TYPES)
