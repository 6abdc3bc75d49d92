"""Expression nodes.

These nodes serve two purposes:

1. they are the expression part of the VQL abstract syntax tree (the
   ``ACCESS`` expression, ``WHERE`` condition and dependent ``FROM`` sources);
2. they appear as *operator parameters* of the general query algebra
   (Section 3.1 of the paper: methods enter the algebra through the iterate
   operator's lambda bodies).

All nodes are immutable and hashable so that algebra expressions can be used
as memo keys in the optimizer.  Variables (:class:`Var`) denote query/range
variables at the language level and references at the algebra level — the
translation from queries to algebra keeps the names aligned, exactly as in
the paper where range variable ``p`` becomes reference ``a_p``.

:class:`PatternVar` is an expression *pattern* leaf used by the optimizer's
rule matcher; it never appears in executable expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

__all__ = [
    "cached_hash",
    "Expression",
    "Var",
    "Const",
    "Parameter",
    "PropertyAccess",
    "MethodCall",
    "ClassMethodCall",
    "ClassExtent",
    "BinaryOp",
    "UnaryOp",
    "TupleConstructor",
    "SetConstructor",
    "PatternVar",
    "COMPARISON_OPS",
    "LOGICAL_OPS",
    "ARITHMETIC_OPS",
    "free_vars",
    "substitute",
    "replace_subexpression",
    "walk",
    "contains",
    "conjuncts",
    "make_conjunction",
    "rename_vars",
    "methods_used",
    "properties_used",
    "parameters_used",
    "bind_parameters",
    "with_hints",
]

#: comparison operators of the restricted algebra's θ parameter
COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=", "IS-IN", "IS-SUBSET")
LOGICAL_OPS = ("AND", "OR")
ARITHMETIC_OPS = ("+", "-", "*", "/")


def cached_hash(cls):
    """Cache the structural hash of a frozen dataclass on first use.

    Expression and operator trees serve as keys of the optimizer's memo and
    seen-plan structures, and the dataclass-generated ``__hash__`` re-walks
    the entire subtree on every call.  Since the trees are immutable the
    value can be computed once and stored on the instance (outside the
    declared fields, so equality and repr are unaffected).
    """
    generated = cls.__hash__

    def __hash__(self):
        value = self.__dict__.get("_structural_hash")
        if value is None:
            value = generated(self)
            object.__setattr__(self, "_structural_hash", value)
        return value

    cls.__hash__ = __hash__
    return cls


def _postfix_base_str(base: "Expression") -> str:
    """Render a postfix base (property access / method call receiver),
    parenthesizing it whenever re-parsing would otherwise bind differently
    (negative literals, unary/binary operations)."""
    text = str(base)
    needs_parens = isinstance(base, (BinaryOp, UnaryOp)) or (
        isinstance(base, Const) and isinstance(base.value, (int, float))
        and not isinstance(base.value, bool) and base.value < 0)
    return f"({text})" if needs_parens else text


def _freeze(value: Any) -> Any:
    """Make literal values hashable (lists→tuples, sets→frozensets)."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class Expression:
    """Abstract base class of all expression nodes."""

    def children(self) -> tuple["Expression", ...]:
        """The direct sub-expressions of this node."""
        return ()

    def rebuild(self, children: Sequence["Expression"]) -> "Expression":
        """Return a copy of this node with *children* as sub-expressions."""
        if self.children():
            raise NotImplementedError(type(self).__name__)
        return self

    def is_boolean(self) -> bool:
        """Heuristic: does this expression denote a truth value?"""
        return False

    # The dataclass subclasses supply __eq__/__hash__/__repr__.


@cached_hash
@dataclass(frozen=True)
class Var(Expression):
    """A query/range variable or an algebra reference."""

    name: str

    def __str__(self) -> str:
        return self.name


@cached_hash
@dataclass(frozen=True)
class Const(Expression):
    """A literal constant (string, number, boolean, or frozen collection).

    ``token`` records where the VQL parser read a string or number literal:
    ``(index of its token, sign)``, the sign ``-1`` when a unary minus was
    folded into it.  The query service maps a text's literals onto a cached
    statement with it (:func:`repro.service.fingerprint.slot_rules`).
    Like :attr:`Parameter.hint` it takes no part in equality or hashing.
    """

    value: Any
    token: Optional[tuple[int, int]] = field(default=None, compare=False,
                                             hash=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _freeze(self.value))

    def is_boolean(self) -> bool:
        return isinstance(self.value, bool)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@cached_hash
@dataclass(frozen=True)
class Parameter(Expression):
    """A bind-parameter placeholder (``?`` / ``?3`` positional, ``:name``).

    Parameters are opaque typed constants to the optimizer: a plan prepared
    from a parametrized query is valid for *every* binding, so the plan cache
    can serve repeated executions of the same query shape.  The value is
    supplied at execution time — either by substitution
    (:func:`bind_parameters`, used by the interpretive paths) or by the
    compiled engine's binding environment
    (:class:`repro.physical.executor.BindingEnv`).

    ``key`` is the canonical name: positional parameters use their decimal
    position (``"1"``, ``"2"``, …), named parameters their identifier.

    ``hint`` is a *costing hint*, not a binding: the literal a synthetic
    parameter replaced when the plan cache auto-parameterized a statement
    (:func:`repro.service.fingerprint.generalize`).  The cost model prices
    the plan with it where it would read a constant; it takes no part in
    equality or hashing, so every value of one statement shape shares one
    plan-cache key.  ``None`` means no hint (NULL literals are never
    auto-parameterized).
    """

    key: str
    hint: Any = field(default=None, compare=False, hash=False, repr=False)

    @property
    def is_positional(self) -> bool:
        return self.key.isdigit()

    def __str__(self) -> str:
        if self.is_positional:
            return f"?{self.key}"
        return f":{self.key}"


@cached_hash
@dataclass(frozen=True)
class PropertyAccess(Expression):
    """``base.prop`` — property access, lifted pointwise over sets.

    Following the paper's convention, when ``base`` evaluates to a set of
    objects the access denotes the union of the property values of the
    members (``D.sections``)."""

    base: Expression
    prop: str

    def children(self) -> tuple[Expression, ...]:
        return (self.base,)

    def rebuild(self, children: Sequence[Expression]) -> "PropertyAccess":
        (base,) = children
        return PropertyAccess(base, self.prop)

    def __str__(self) -> str:
        return f"{_postfix_base_str(self.base)}.{self.prop}"


@cached_hash
@dataclass(frozen=True)
class MethodCall(Expression):
    """``receiver→method(args...)`` — instance method invocation."""

    receiver: Expression
    method: str
    args: tuple[Expression, ...] = ()

    def children(self) -> tuple[Expression, ...]:
        return (self.receiver, *self.args)

    def rebuild(self, children: Sequence[Expression]) -> "MethodCall":
        receiver, *args = children
        return MethodCall(receiver, self.method, tuple(args))

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"{_postfix_base_str(self.receiver)}->{self.method}({args})"


@cached_hash
@dataclass(frozen=True)
class ClassMethodCall(Expression):
    """``Class→method(args...)`` — class-level (OWNTYPE) method invocation."""

    class_name: str
    method: str
    args: tuple[Expression, ...] = ()

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def rebuild(self, children: Sequence[Expression]) -> "ClassMethodCall":
        return ClassMethodCall(self.class_name, self.method, tuple(children))

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"{self.class_name}->{self.method}({args})"


@cached_hash
@dataclass(frozen=True)
class ClassExtent(Expression):
    """The extension of a class used as a value (e.g. ``p IS-IN Paragraph``)."""

    class_name: str

    def __str__(self) -> str:
        return self.class_name


@cached_hash
@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary operation: comparison, logical connective or arithmetic."""

    op: str
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Sequence[Expression]) -> "BinaryOp":
        left, right = children
        return BinaryOp(self.op, left, right)

    def is_boolean(self) -> bool:
        return self.op in COMPARISON_OPS or self.op in LOGICAL_OPS

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@cached_hash
@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary operation: ``NOT`` or arithmetic negation."""

    op: str
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def rebuild(self, children: Sequence[Expression]) -> "UnaryOp":
        (operand,) = children
        return UnaryOp(self.op, operand)

    def is_boolean(self) -> bool:
        return self.op == "NOT"

    def __str__(self) -> str:
        # NOT is printed parenthesized so that the rendering re-parses with
        # the same structure in any operand position.
        if self.op == "NOT":
            return f"(NOT {self.operand})"
        return f"{self.op}{self.operand}"


@cached_hash
@dataclass(frozen=True)
class TupleConstructor(Expression):
    """``[name: expr, ...]`` — tuple construction in the ACCESS clause."""

    fields: tuple[tuple[str, Expression], ...]

    def children(self) -> tuple[Expression, ...]:
        return tuple(expr for _, expr in self.fields)

    def rebuild(self, children: Sequence[Expression]) -> "TupleConstructor":
        names = [name for name, _ in self.fields]
        return TupleConstructor(tuple(zip(names, children)))

    def __str__(self) -> str:
        inner = ", ".join(f"{name}: {expr}" for name, expr in self.fields)
        return f"[{inner}]"


@cached_hash
@dataclass(frozen=True)
class SetConstructor(Expression):
    """``{expr, ...}`` — set construction."""

    elements: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.elements

    def rebuild(self, children: Sequence[Expression]) -> "SetConstructor":
        return SetConstructor(tuple(children))

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


@cached_hash
@dataclass(frozen=True)
class PatternVar(Expression):
    """A pattern variable (``?x``) binding an arbitrary sub-expression.

    ``restrict`` optionally constrains what the variable may bind to:
    a callable receiving the candidate expression and returning a bool.
    """

    name: str
    restrict: Optional[Callable[[Expression], bool]] = field(
        default=None, compare=False, hash=False)

    def __str__(self) -> str:
        return f"?{self.name}"


# ----------------------------------------------------------------------
# traversal and manipulation helpers
# ----------------------------------------------------------------------
def walk(expr: Expression) -> Iterator[Expression]:
    """Yield *expr* and all its sub-expressions, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def contains(expr: Expression, needle: Expression) -> bool:
    """True when *needle* occurs (structurally) inside *expr*."""
    return any(node == needle for node in walk(expr))


def free_vars(expr: Expression) -> set[str]:
    """The names of all :class:`Var` leaves in *expr*."""
    return {node.name for node in walk(expr) if isinstance(node, Var)}


def methods_used(expr: Expression) -> set[tuple[str, str]]:
    """All ``(kind, method_name)`` pairs used in *expr*, where kind is
    ``"instance"`` or ``"class"``."""
    found: set[tuple[str, str]] = set()
    for node in walk(expr):
        if isinstance(node, MethodCall):
            found.add(("instance", node.method))
        elif isinstance(node, ClassMethodCall):
            found.add(("class", node.method))
    return found


def properties_used(expr: Expression) -> set[str]:
    """All property names accessed in *expr*."""
    return {node.prop for node in walk(expr) if isinstance(node, PropertyAccess)}


def parameters_used(expr: Expression) -> list[str]:
    """Keys of all :class:`Parameter` leaves, in first-occurrence order."""
    found: list[str] = []
    for node in walk(expr):
        if isinstance(node, Parameter) and node.key not in found:
            found.append(node.key)
    return found


def bind_parameters(expr: Expression, bindings: Mapping[str, Any]) -> Expression:
    """Replace every :class:`Parameter` whose key appears in *bindings* with
    the bound value as a :class:`Const` (values are frozen by ``Const``)."""
    if isinstance(expr, Parameter):
        if expr.key in bindings:
            return Const(bindings[expr.key])
        return expr
    children = expr.children()
    if not children:
        return expr
    new_children = [bind_parameters(child, bindings) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.rebuild(new_children)


def with_hints(expr: Expression, hints: Mapping[str, Any]) -> Expression:
    """Give every :class:`Parameter` whose key appears in *hints* that
    value as its costing hint (the expression stays equal to *expr*, and is
    *expr* itself when every such hint already is that value)."""
    if isinstance(expr, Parameter):
        if expr.key in hints and expr.hint is not hints[expr.key]:
            return Parameter(expr.key, hint=hints[expr.key])
        return expr
    children = expr.children()
    if not children:
        return expr
    new_children = [with_hints(child, hints) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.rebuild(new_children)


def substitute(expr: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace every :class:`Var` whose name appears in *mapping*."""
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    children = expr.children()
    if not children:
        return expr
    new_children = [substitute(child, mapping) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.rebuild(new_children)


def replace_subexpression(expr: Expression, old: Expression,
                          new: Expression) -> Expression:
    """Replace every structural occurrence of *old* inside *expr* by *new*."""
    if expr == old:
        return new
    children = expr.children()
    if not children:
        return expr
    new_children = [replace_subexpression(child, old, new) for child in children]
    if all(n is o for n, o in zip(new_children, children)):
        return expr
    return expr.rebuild(new_children)


def rename_vars(expr: Expression, renaming: Mapping[str, str]) -> Expression:
    """Rename variables according to *renaming* (name → new name)."""
    return substitute(expr, {old: Var(new) for old, new in renaming.items()})


def conjuncts(expr: Optional[Expression]) -> list[Expression]:
    """Split a condition into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def make_conjunction(parts: Iterable[Expression]) -> Optional[Expression]:
    """Rebuild a condition from conjuncts (None for the empty conjunction)."""
    result: Optional[Expression] = None
    for part in parts:
        result = part if result is None else BinaryOp("AND", result, part)
    return result
