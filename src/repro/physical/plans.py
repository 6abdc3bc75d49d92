"""Physical algebra: executable plan nodes.

Physical operators correspond to concrete algorithms with cost functions,
exactly as in the Volcano optimizer generator.  Implementation rules map
logical operators onto these nodes; the executor
(:mod:`repro.physical.executor`) interprets them against a database.

The physically interesting nodes for the paper's experiments are:

* :class:`ExpressionSetScan` — produce tuples from a reference-free
  set-valued expression evaluated once (this is how an externally implemented
  bulk method such as ``Paragraph→retrieve_by_string`` becomes a physical
  operator, Section 3.2 / Section 4.2 "implementation rules");
* :class:`SetProbeFilter` — precompute a reference-free set once and keep
  only input tuples whose reference value belongs to it (the physical
  counterpart of a semantically derived ``IS-IN`` restriction);
* :class:`Filter` with a method call in the predicate — the naive expensive
  evaluation the semantic rules are designed to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Sequence

from repro.algebra.expressions import (Expression, cached_hash, free_vars,
                                       with_hints)
from repro.errors import AlgebraError

__all__ = [
    "PhysicalOperator",
    "ClassScan",
    "IndexEqScan",
    "IndexRangeScan",
    "ExpressionSetScan",
    "Filter",
    "SetProbeFilter",
    "NestedLoopJoin",
    "IndexNestedLoopJoin",
    "HashJoin",
    "NaturalMergeJoin",
    "MapEval",
    "FlattenEval",
    "ProjectOp",
    "UnionOp",
    "DiffOp",
    "walk_physical",
    "describe_physical_tree",
    "with_plan_hints",
]


class PhysicalOperator:
    """Abstract base class of physical plan nodes."""

    name: str = "physical"

    def inputs(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def with_inputs(self, inputs: Sequence["PhysicalOperator"]) -> "PhysicalOperator":
        if self.inputs():
            raise NotImplementedError(type(self).__name__)
        return self

    def refs(self) -> tuple[str, ...]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


@cached_hash
@dataclass(frozen=True)
class ClassScan(PhysicalOperator):
    """Sequential scan over a class extension."""

    ref: str
    class_name: str
    name = "class_scan"

    def refs(self) -> tuple[str, ...]:
        return (self.ref,)

    def describe(self) -> str:
        return f"class_scan<{self.ref}, {self.class_name}>"


@cached_hash
@dataclass(frozen=True)
class IndexEqScan(PhysicalOperator):
    """Exact-match lookup in a user-defined index on one property.

    Produces the instances of *class_name* whose *prop* equals *key*, in
    OID order, without scanning the class extension.  Implementation rules
    create this node for ``select<a.prop == const>(get<a, C>)`` shapes when
    the database's :class:`~repro.datamodel.indexes.IndexRegistry` holds a
    matching index (hash or sorted — both support equality lookups)."""

    ref: str
    class_name: str
    prop: str
    key: Any
    name = "index_eq_scan"

    def refs(self) -> tuple[str, ...]:
        return (self.ref,)

    def describe(self) -> str:
        return (f"index_eq_scan<{self.ref}, {self.class_name}.{self.prop} == "
                f"{_bound_text(self.key)}>")


@cached_hash
@dataclass(frozen=True)
class IndexRangeScan(PhysicalOperator):
    """Range lookup in a sorted index on one property.

    Produces the instances of *class_name* whose *prop* falls into the
    interval described by ``low``/``high``, in OID order.  Requires a
    :class:`~repro.datamodel.indexes.SortedIndex`.

    A bound is ``None`` (that side is open-ended), a plain value fixed at
    plan time, or — like :attr:`IndexEqScan.key` — an
    :class:`~repro.algebra.expressions.Expression` (a bind parameter) that
    the engines resolve once per execution.  A bound *expression* that
    resolves to NULL closes the interval instead of opening it: the scan
    yields no rows, as ``x >= NULL`` holds for no ``x``."""

    ref: str
    class_name: str
    prop: str
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    name = "index_range_scan"

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise AlgebraError("IndexRangeScan needs at least one bound")

    def refs(self) -> tuple[str, ...]:
        return (self.ref,)

    def describe(self) -> str:
        low_bracket = "[" if self.include_low else "("
        high_bracket = "]" if self.include_high else ")"
        return (f"index_range_scan<{self.ref}, {self.class_name}.{self.prop} IN "
                f"{low_bracket}{_bound_text(self.low)}, "
                f"{_bound_text(self.high)}{high_bracket}>")


def _bound_text(bound: Any) -> str:
    """An index key or range bound as EXPLAIN prints it: ``:lo`` for a bind
    parameter (as ``select<...>`` prints it), the ``repr`` of a plan-time
    value."""
    return str(bound) if isinstance(bound, Expression) else repr(bound)


@cached_hash
@dataclass(frozen=True)
class ExpressionSetScan(PhysicalOperator):
    """Evaluate a reference-free set-valued expression once and emit one
    tuple per element (e.g. ``Paragraph→retrieve_by_string('x')``)."""

    ref: str
    expression: Expression
    name = "expr_set_scan"

    def __post_init__(self) -> None:
        if free_vars(self.expression):
            raise AlgebraError(
                "ExpressionSetScan expression must be reference-free, got "
                f"{self.expression}")

    def refs(self) -> tuple[str, ...]:
        return (self.ref,)

    def describe(self) -> str:
        return f"expr_set_scan<{self.ref}, {self.expression}>"


@cached_hash
@dataclass(frozen=True)
class Filter(PhysicalOperator):
    """Per-tuple predicate evaluation (may invoke methods per tuple)."""

    condition: Expression
    input: PhysicalOperator
    name = "filter"

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]) -> "Filter":
        (only,) = inputs
        return Filter(self.condition, only)

    def refs(self) -> tuple[str, ...]:
        return self.input.refs()

    def describe(self) -> str:
        return f"filter<{self.condition}>"


@cached_hash
@dataclass(frozen=True)
class SetProbeFilter(PhysicalOperator):
    """Precompute ``set_expression`` once, keep tuples with
    ``row[ref] ∈ set``."""

    ref: str
    set_expression: Expression
    input: PhysicalOperator
    name = "set_probe"

    def __post_init__(self) -> None:
        if free_vars(self.set_expression):
            raise AlgebraError(
                "SetProbeFilter set expression must be reference-free, got "
                f"{self.set_expression}")
        if self.ref not in self.input.refs():
            raise AlgebraError(
                f"SetProbeFilter probes unknown reference {self.ref!r}")

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]) -> "SetProbeFilter":
        (only,) = inputs
        return SetProbeFilter(self.ref, self.set_expression, only)

    def refs(self) -> tuple[str, ...]:
        return self.input.refs()

    def describe(self) -> str:
        return f"set_probe<{self.ref} IS-IN {self.set_expression}>"


@cached_hash
@dataclass(frozen=True)
class NestedLoopJoin(PhysicalOperator):
    """Nested-loop θ-join; the condition is evaluated per tuple pair."""

    condition: Expression
    left: PhysicalOperator
    right: PhysicalOperator
    name = "nested_loop_join"

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]) -> "NestedLoopJoin":
        left, right = inputs
        return NestedLoopJoin(self.condition, left, right)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.left.refs()) | set(self.right.refs())))

    def describe(self) -> str:
        return f"nested_loop_join<{self.condition}>"


@cached_hash
@dataclass(frozen=True)
class IndexNestedLoopJoin(PhysicalOperator):
    """Equi-join that probes a user-defined index per outer tuple.

    For every tuple of *left*, evaluate *left_key* and look the value up in
    the index on ``class_name.prop``; each matching instance extends the
    tuple under *ref*.  This is the index-nested-loop strategy the join
    enumerator emits when the inner side is a bare class extension with a
    registered index on the join property — it reuses the same index
    machinery as :class:`IndexEqScan`, just keyed per outer row."""

    left_key: Expression
    ref: str
    class_name: str
    prop: str
    left: PhysicalOperator
    name = "index_nested_loop_join"

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.left,)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]
                    ) -> "IndexNestedLoopJoin":
        (only,) = inputs
        return IndexNestedLoopJoin(self.left_key, self.ref, self.class_name,
                                   self.prop, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.left.refs()) | {self.ref}))

    def describe(self) -> str:
        return (f"index_nested_loop_join<{self.left_key} == "
                f"{self.ref}:{self.class_name}.{self.prop}>")


@cached_hash
@dataclass(frozen=True)
class HashJoin(PhysicalOperator):
    """Equi-join on computed key expressions (build on the right input)."""

    left_key: Expression
    right_key: Expression
    left: PhysicalOperator
    right: PhysicalOperator
    name = "hash_join"

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]) -> "HashJoin":
        left, right = inputs
        return HashJoin(self.left_key, self.right_key, left, right)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.left.refs()) | set(self.right.refs())))

    def describe(self) -> str:
        return f"hash_join<{self.left_key} == {self.right_key}>"


@cached_hash
@dataclass(frozen=True)
class NaturalMergeJoin(PhysicalOperator):
    """Natural join on the shared references (hash-based implementation)."""

    left: PhysicalOperator
    right: PhysicalOperator
    name = "natural_join_impl"

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]) -> "NaturalMergeJoin":
        left, right = inputs
        return NaturalMergeJoin(left, right)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.left.refs()) | set(self.right.refs())))

    def common_refs(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.left.refs()) & set(self.right.refs())))

    def describe(self) -> str:
        return "natural_join_impl"


@cached_hash
@dataclass(frozen=True)
class MapEval(PhysicalOperator):
    """Per-tuple computation of an expression into a new reference."""

    ref: str
    expression: Expression
    input: PhysicalOperator
    name = "map_eval"

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]) -> "MapEval":
        (only,) = inputs
        return MapEval(self.ref, self.expression, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.input.refs()) | {self.ref}))

    def describe(self) -> str:
        return f"map_eval<{self.ref}, {self.expression}>"


@cached_hash
@dataclass(frozen=True)
class FlattenEval(PhysicalOperator):
    """Per-tuple evaluation of a set-valued expression, emitting one tuple
    per element."""

    ref: str
    expression: Expression
    input: PhysicalOperator
    name = "flatten_eval"

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]) -> "FlattenEval":
        (only,) = inputs
        return FlattenEval(self.ref, self.expression, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.input.refs()) | {self.ref}))

    def describe(self) -> str:
        return f"flatten_eval<{self.ref}, {self.expression}>"


@cached_hash
@dataclass(frozen=True)
class ProjectOp(PhysicalOperator):
    """Projection with duplicate elimination (set semantics)."""

    kept: tuple[str, ...]
    input: PhysicalOperator
    name = "project_impl"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kept", tuple(sorted(set(self.kept))))

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]) -> "ProjectOp":
        (only,) = inputs
        return ProjectOp(self.kept, only)

    def refs(self) -> tuple[str, ...]:
        return self.kept

    def describe(self) -> str:
        return f"project_impl<{', '.join(self.kept)}>"


@cached_hash
@dataclass(frozen=True)
class UnionOp(PhysicalOperator):
    """Set union of two inputs over identical references."""

    left: PhysicalOperator
    right: PhysicalOperator
    name = "union_impl"

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]) -> "UnionOp":
        left, right = inputs
        return UnionOp(left, right)

    def refs(self) -> tuple[str, ...]:
        return self.left.refs()

    def describe(self) -> str:
        return "union_impl"


@cached_hash
@dataclass(frozen=True)
class DiffOp(PhysicalOperator):
    """Set difference of two inputs over identical references."""

    left: PhysicalOperator
    right: PhysicalOperator
    name = "diff_impl"

    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[PhysicalOperator]) -> "DiffOp":
        left, right = inputs
        return DiffOp(left, right)

    def refs(self) -> tuple[str, ...]:
        return self.left.refs()

    def describe(self) -> str:
        return "diff_impl"


def walk_physical(plan: PhysicalOperator):
    """Yield *plan* and all nodes below it, pre-order."""
    yield plan
    for child in plan.inputs():
        yield from walk_physical(child)


def with_plan_hints(plan: PhysicalOperator,
                    hints: Mapping[str, Any]) -> PhysicalOperator:
    """*plan* with every bind parameter it carries — in its own fields and
    in its inputs' — given its costing hint from *hints* (see
    :func:`~repro.algebra.expressions.with_hints`): an equal plan, priced
    for other values."""
    changes = {}
    for spec in fields(plan):
        value = getattr(plan, spec.name)
        if isinstance(value, Expression):
            changes[spec.name] = with_hints(value, hints)
    if changes:
        plan = replace(plan, **changes)
    if plan.inputs():
        plan = plan.with_inputs([with_plan_hints(child, hints)
                                 for child in plan.inputs()])
    return plan


def describe_physical_tree(plan: PhysicalOperator, depth: int = 0) -> str:
    """Render the whole operator tree, one indented line per node."""
    lines = ["  " * depth + plan.describe()]
    for child in plan.inputs():
        lines.append(describe_physical_tree(child, depth + 1))
    return "\n".join(lines)

