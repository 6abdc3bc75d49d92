"""Pattern matching on parameter expressions.

Semantic knowledge is written as pairs of expressions over a bound variable
(``x IN C: expr1(x) == expr2(x)``).  To turn such a pair into an optimizer
rule we need to find occurrences of ``expr1`` — with the bound variable (and
any parameter variables) acting as pattern variables — inside the parameter
expressions of algebra operators, and rewrite them to ``expr2`` under the
same binding.  This module provides that matcher.

Unlike the Volcano rule matcher, which cannot inspect operator arguments
(Section 6.1), a Python implementation can match expression structure
directly; the restricted algebra remains available to demonstrate the
paper's workaround, but the production rule path uses this matcher on the
general algebra.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Optional

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    Expression,
    MethodCall,
    PatternVar,
    PropertyAccess,
    SetConstructor,
    TupleConstructor,
    UnaryOp,
    Var,
    walk,
)

__all__ = [
    "Binding",
    "match_expression",
    "find_matches",
    "instantiate",
    "rewrite_matches",
    "pattern_from_template",
]

#: a binding of pattern-variable names to matched sub-expressions
Binding = dict[str, Expression]


def match_expression(pattern: Expression, expression: Expression,
                     binding: Optional[Binding] = None) -> Optional[Binding]:
    """Match *expression* against *pattern*.

    Pattern variables (:class:`PatternVar`) bind arbitrary sub-expressions;
    a variable occurring twice must bind to structurally equal expressions.
    Returns the (possibly extended) binding, or ``None`` when the match
    fails.  The input binding is never mutated.
    """
    binding = dict(binding) if binding else {}
    result = _match(pattern, expression, binding)
    return result


def _match(pattern: Expression, expression: Expression,
           binding: Binding) -> Optional[Binding]:
    if isinstance(pattern, PatternVar):
        if pattern.restrict is not None and not pattern.restrict(expression):
            return None
        bound = binding.get(pattern.name)
        if bound is not None:
            return binding if bound == expression else None
        binding[pattern.name] = expression
        return binding

    if type(pattern) is not type(expression):
        return None

    if isinstance(pattern, Var):
        return binding if pattern.name == expression.name else None
    if isinstance(pattern, Const):
        return binding if pattern.value == expression.value else None
    if isinstance(pattern, ClassExtent):
        return binding if pattern.class_name == expression.class_name else None
    if isinstance(pattern, PropertyAccess):
        if pattern.prop != expression.prop:
            return None
        return _match(pattern.base, expression.base, binding)
    if isinstance(pattern, MethodCall):
        if pattern.method != expression.method or len(pattern.args) != len(expression.args):
            return None
        result = _match(pattern.receiver, expression.receiver, binding)
        if result is None:
            return None
        return _match_all(pattern.args, expression.args, result)
    if isinstance(pattern, ClassMethodCall):
        if (pattern.class_name != expression.class_name
                or pattern.method != expression.method
                or len(pattern.args) != len(expression.args)):
            return None
        return _match_all(pattern.args, expression.args, binding)
    if isinstance(pattern, BinaryOp):
        if pattern.op != expression.op:
            return None
        result = _match(pattern.left, expression.left, binding)
        if result is None:
            return None
        return _match(pattern.right, expression.right, result)
    if isinstance(pattern, UnaryOp):
        if pattern.op != expression.op:
            return None
        return _match(pattern.operand, expression.operand, binding)
    if isinstance(pattern, TupleConstructor):
        if len(pattern.fields) != len(expression.fields):
            return None
        for (p_name, p_expr), (e_name, e_expr) in zip(pattern.fields, expression.fields):
            if p_name != e_name:
                return None
            next_binding = _match(p_expr, e_expr, binding)
            if next_binding is None:
                return None
            binding = next_binding
        return binding
    if isinstance(pattern, SetConstructor):
        if len(pattern.elements) != len(expression.elements):
            return None
        return _match_all(pattern.elements, expression.elements, binding)
    return None


def _match_all(patterns: tuple[Expression, ...],
               expressions: tuple[Expression, ...],
               binding: Binding) -> Optional[Binding]:
    current: Optional[Binding] = binding
    for pattern, expression in zip(patterns, expressions):
        current = _match(pattern, expression, current)
        if current is None:
            return None
    return current


def find_matches(pattern: Expression, expression: Expression
                 ) -> Iterator[tuple[Expression, Binding]]:
    """Yield every sub-expression of *expression* that matches *pattern*,
    together with its binding."""
    for node in walk(expression):
        binding = match_expression(pattern, node)
        if binding is not None:
            yield node, binding


def instantiate(template: Expression, binding: Mapping[str, Expression]) -> Expression:
    """Replace pattern variables in *template* by their bound expressions."""
    if isinstance(template, PatternVar):
        try:
            return binding[template.name]
        except KeyError:
            raise KeyError(
                f"pattern variable ?{template.name} is unbound") from None
    children = template.children()
    if not children:
        return template
    new_children = [instantiate(child, binding) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return template
    return template.rebuild(new_children)


def rewrite_matches(expression: Expression, pattern: Expression,
                    template: Expression,
                    guard: Optional[Callable[[Expression, Binding], bool]] = None
                    ) -> list[Expression]:
    """Return all single-occurrence rewrites of *expression*.

    For every sub-expression matching *pattern* (and passing *guard*), one
    result is produced in which exactly that occurrence is replaced by the
    instantiated *template*.  Producing one alternative per occurrence (as
    opposed to rewriting all occurrences at once) matches how the optimizer
    explores alternatives.
    """
    alternatives: list[Expression] = []
    for occurrence, binding in find_matches(pattern, expression):
        if guard is not None and not guard(occurrence, binding):
            continue
        replacement = instantiate(template, binding)
        if replacement == occurrence:
            continue
        alternatives.append(
            _replace_once(expression, occurrence, replacement))
    return alternatives


def _replace_once(expression: Expression, old: Expression,
                  new: Expression) -> Expression:
    """Replace the first structural occurrence of *old* by *new*."""
    replaced = False

    def visit(node: Expression) -> Expression:
        nonlocal replaced
        if not replaced and node == old:
            replaced = True
            return new
        children = node.children()
        if not children:
            return node
        new_children = [visit(child) for child in children]
        if all(n is o for n, o in zip(new_children, children)):
            return node
        return node.rebuild(new_children)

    return visit(expression)


def pattern_from_template(expression: Expression,
                          variables: Mapping[str, Optional[Callable[[Expression], bool]]]
                          ) -> Expression:
    """Turn an ordinary expression into a pattern.

    Every :class:`Var` whose name appears in *variables* becomes a
    :class:`PatternVar`, optionally carrying the supplied restriction.
    This is how the schema designer's ``x IN C: expr1(x) == expr2(x)``
    notation is compiled: the bound variable ``x`` and any free parameters
    become pattern variables.
    """
    if isinstance(expression, Var) and expression.name in variables:
        return PatternVar(expression.name, variables[expression.name])
    children = expression.children()
    if not children:
        return expression
    new_children = [pattern_from_template(child, variables) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expression
    return expression.rebuild(new_children)
