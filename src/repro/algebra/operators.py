"""The general (logical) query algebra of Section 4.1.

Operators manipulate bulk values of relation type ``{ [a1: D1, ..., an: Dn] }``
where the ``ai`` are called *references*.  Operator parameters may contain
arbitrarily complex expressions — in particular method calls, which is how
method semantics enters the algebra (Section 3.1).

All operator nodes are immutable, hashable dataclasses so that they can serve
as keys of the optimizer's memo structure.  Reference-set computation
(``refs()``) validates the well-formedness conditions the paper states for
each operator (matching reference sets for union/diff, disjointness for join,
fresh reference for map/flat, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.algebra.expressions import Expression, cached_hash, free_vars
from repro.errors import AlgebraError

__all__ = [
    "LogicalOperator",
    "Get",
    "Select",
    "Join",
    "NaturalJoin",
    "Union",
    "Diff",
    "Map",
    "Flat",
    "Project",
    "ExpressionSource",
    "walk_operators",
    "operator_size",
    "references_of",
]


class LogicalOperator:
    """Abstract base class of logical algebra operators."""

    #: short operator name used by printers and rule tracing
    name: str = "operator"

    def inputs(self) -> tuple["LogicalOperator", ...]:
        """The operator's input operators (empty for leaves)."""
        return ()

    def with_inputs(self, inputs: Sequence["LogicalOperator"]) -> "LogicalOperator":
        """Return a copy of this operator with *inputs* substituted."""
        if self.inputs():
            raise NotImplementedError(type(self).__name__)
        if inputs:
            raise AlgebraError(f"{self.name} is a leaf operator")
        return self

    def refs(self) -> tuple[str, ...]:
        """The references of the operator's output relation, sorted."""
        raise NotImplementedError

    def parameters(self) -> tuple[Expression, ...]:
        """The expression parameters of the operator (may be empty)."""
        return ()

    def arity(self) -> int:
        return len(self.inputs())

    def describe(self) -> str:
        """One-line description: name plus parameters."""
        return self.name


def references_of(operator: LogicalOperator) -> set[str]:
    """The reference set of an operator's output, as a set."""
    return set(operator.refs())


@cached_hash
@dataclass(frozen=True)
class Get(LogicalOperator):
    """``get<a, class>`` — the extension of a class as unary tuples."""

    ref: str
    class_name: str
    name = "get"

    def refs(self) -> tuple[str, ...]:
        return (self.ref,)

    def describe(self) -> str:
        return f"get<{self.ref}, {self.class_name}>"


@cached_hash
@dataclass(frozen=True)
class ExpressionSource(LogicalOperator):
    """``source<a, expr>`` — a reference-free, set-valued expression as a
    relation of unary tuples.

    Not part of the paper's §4.1 operator list but needed to represent the
    *result* of applying a query↔method-call equivalence at the logical level
    (e.g. ``Paragraph→retrieve_by_string(s)`` standing alone, as in plan PQ).
    The expression must not mention any references.
    """

    ref: str
    expression: Expression
    name = "source"

    def __post_init__(self) -> None:
        if free_vars(self.expression):
            raise AlgebraError(
                "ExpressionSource expressions must be reference-free, got "
                f"{self.expression}")

    def refs(self) -> tuple[str, ...]:
        return (self.ref,)

    def parameters(self) -> tuple[Expression, ...]:
        return (self.expression,)

    def describe(self) -> str:
        return f"source<{self.ref}, {self.expression}>"


@cached_hash
@dataclass(frozen=True)
class Select(LogicalOperator):
    """``select<condition>(S)`` — keep tuples satisfying the condition."""

    condition: Expression
    input: LogicalOperator
    name = "select"

    def __post_init__(self) -> None:
        unknown = free_vars(self.condition) - references_of(self.input)
        if unknown:
            raise AlgebraError(
                f"select condition uses unknown reference(s) "
                f"{', '.join(sorted(unknown))}")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "Select":
        (only,) = inputs
        return Select(self.condition, only)

    def refs(self) -> tuple[str, ...]:
        return self.input.refs()

    def parameters(self) -> tuple[Expression, ...]:
        return (self.condition,)

    def describe(self) -> str:
        return f"select<{self.condition}>"


@cached_hash
@dataclass(frozen=True)
class Join(LogicalOperator):
    """``join<condition>(S1, S2)`` — θ-join over disjoint reference sets."""

    condition: Expression
    left: LogicalOperator
    right: LogicalOperator
    name = "join"

    def __post_init__(self) -> None:
        left_refs = references_of(self.left)
        right_refs = references_of(self.right)
        overlap = left_refs & right_refs
        if overlap:
            raise AlgebraError(
                f"join inputs must have disjoint references, share "
                f"{', '.join(sorted(overlap))}")
        unknown = free_vars(self.condition) - (left_refs | right_refs)
        if unknown:
            raise AlgebraError(
                f"join condition uses unknown reference(s) "
                f"{', '.join(sorted(unknown))}")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "Join":
        left, right = inputs
        return Join(self.condition, left, right)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.left) | references_of(self.right)))

    def parameters(self) -> tuple[Expression, ...]:
        return (self.condition,)

    def describe(self) -> str:
        return f"join<{self.condition}>"


@cached_hash
@dataclass(frozen=True)
class NaturalJoin(LogicalOperator):
    """``natural_join(S1, S2)`` — join on the shared references."""

    left: LogicalOperator
    right: LogicalOperator
    name = "natural_join"

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "NaturalJoin":
        left, right = inputs
        return NaturalJoin(left, right)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.left) | references_of(self.right)))

    def common_refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.left) & references_of(self.right)))

    def describe(self) -> str:
        return "natural_join"


@cached_hash
@dataclass(frozen=True)
class Union(LogicalOperator):
    """``union(S1, S2)`` over identical reference sets."""

    left: LogicalOperator
    right: LogicalOperator
    name = "union"

    def __post_init__(self) -> None:
        if references_of(self.left) != references_of(self.right):
            raise AlgebraError("union inputs must have identical references")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "Union":
        left, right = inputs
        return Union(left, right)

    def refs(self) -> tuple[str, ...]:
        return self.left.refs()

    def describe(self) -> str:
        return "union"


@cached_hash
@dataclass(frozen=True)
class Diff(LogicalOperator):
    """``diff(S1, S2)`` over identical reference sets."""

    left: LogicalOperator
    right: LogicalOperator
    name = "diff"

    def __post_init__(self) -> None:
        if references_of(self.left) != references_of(self.right):
            raise AlgebraError("diff inputs must have identical references")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.left, self.right)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "Diff":
        left, right = inputs
        return Diff(left, right)

    def refs(self) -> tuple[str, ...]:
        return self.left.refs()

    def describe(self) -> str:
        return "diff"


@cached_hash
@dataclass(frozen=True)
class Map(LogicalOperator):
    """``map<a, expression>(S)`` — add reference *a* holding the expression
    value computed per input tuple."""

    ref: str
    expression: Expression
    input: LogicalOperator
    name = "map"

    def __post_init__(self) -> None:
        input_refs = references_of(self.input)
        if self.ref in input_refs:
            raise AlgebraError(f"map introduces existing reference {self.ref!r}")
        unknown = free_vars(self.expression) - input_refs
        if unknown:
            raise AlgebraError(
                f"map expression uses unknown reference(s) "
                f"{', '.join(sorted(unknown))}")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "Map":
        (only,) = inputs
        return Map(self.ref, self.expression, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.ref}))

    def parameters(self) -> tuple[Expression, ...]:
        return (self.expression,)

    def describe(self) -> str:
        return f"map<{self.ref}, {self.expression}>"


@cached_hash
@dataclass(frozen=True)
class Flat(LogicalOperator):
    """``flat<a, expression>(S)`` — like map for a set-valued expression,
    producing one output tuple per element of the expression value."""

    ref: str
    expression: Expression
    input: LogicalOperator
    name = "flat"

    def __post_init__(self) -> None:
        input_refs = references_of(self.input)
        if self.ref in input_refs:
            raise AlgebraError(f"flat introduces existing reference {self.ref!r}")
        unknown = free_vars(self.expression) - input_refs
        if unknown:
            raise AlgebraError(
                f"flat expression uses unknown reference(s) "
                f"{', '.join(sorted(unknown))}")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "Flat":
        (only,) = inputs
        return Flat(self.ref, self.expression, only)

    def refs(self) -> tuple[str, ...]:
        return tuple(sorted(references_of(self.input) | {self.ref}))

    def parameters(self) -> tuple[Expression, ...]:
        return (self.expression,)

    def describe(self) -> str:
        return f"flat<{self.ref}, {self.expression}>"


@cached_hash
@dataclass(frozen=True)
class Project(LogicalOperator):
    """``project<a1,...,ai>(S)`` — restrict tuples to the listed references
    (duplicate elimination is implied by the set semantics)."""

    kept: tuple[str, ...]
    input: LogicalOperator
    name = "project"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kept", tuple(sorted(set(self.kept))))
        missing = set(self.kept) - references_of(self.input)
        if missing:
            raise AlgebraError(
                f"project keeps unknown reference(s) "
                f"{', '.join(sorted(missing))}")
        if not self.kept:
            raise AlgebraError("project must keep at least one reference")

    def inputs(self) -> tuple[LogicalOperator, ...]:
        return (self.input,)

    def with_inputs(self, inputs: Sequence[LogicalOperator]) -> "Project":
        (only,) = inputs
        return Project(self.kept, only)

    def refs(self) -> tuple[str, ...]:
        return self.kept

    def describe(self) -> str:
        return f"project<{', '.join(self.kept)}>"


# ----------------------------------------------------------------------
# traversal helpers
# ----------------------------------------------------------------------
def walk_operators(operator: LogicalOperator) -> Iterator[LogicalOperator]:
    """Yield *operator* and all operators below it, pre-order."""
    yield operator
    for child in operator.inputs():
        yield from walk_operators(child)


def operator_size(operator: LogicalOperator) -> int:
    """Number of operator nodes in the tree."""
    return sum(1 for _ in walk_operators(operator))
