"""Statement shapes: what the plan cache keys on.

Two query texts that differ only in whitespace, comments, keyword case of
hyphenated operators, or placeholder spelling (``?`` vs ``?1``) analyze to
structurally identical :class:`~repro.vql.ast.Query` values, because the
analyzer resolves class references and canonicalizes parameters.  Texts
that differ only in their *literals* are one shape too:
:func:`generalize` turns each eligible literal into a synthetic bind
parameter, so ``p.number == 3`` and ``p.number == 4`` share one cached
plan, bound to the statement's own value at run time.

* Every literal *occurrence* gets its own parameter (equal values are
  never merged: ``x == 5 AND y == 5`` stays two parameters).
* The key — ``$1:int``, ``$2:str`` — cannot be written in VQL (a client
  can neither send nor bind one) and records the literal's Python type, so
  ``5``, ``5.0`` and ``'5'`` never share a plan.
* The parameter carries the literal as a *costing hint* (excluded from
  equality and hashing): the cost model prices the plan with it exactly as
  it priced the literal, so histograms and most-common values still choose
  the access path.

A literal stays a literal when the semantic rules or the compiler depend on
its value: it equals a constant of a registered knowledge declaration's
patterns (I1's ``wordCount() > 40``, U2's ``gpa >= 3.5`` — a rule matches
those literally), it is NULL, a boolean or a collection, or it is an
operand of an all-literal subexpression (``3 + 4``), which the compiler
folds into one constant.

The plan cache keys on the generic query itself — its expression subtrees
carry cached structural hashes, so hashing the key is a few integer mixes,
not a tree walk.  :func:`query_fingerprint` additionally renders a short,
deterministic hex digest of the canonical generic text for logging and
metrics (Python's ``hash()`` is salted per process and unsuitable for
reporting): one fingerprint per shape, whatever its literals.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from repro.algebra.expressions import (
    BinaryOp,
    Const,
    Expression,
    Parameter,
    SetConstructor,
    TupleConstructor,
    UnaryOp,
    walk,
)
from repro.vql.analyzer import AnalyzedQuery
from repro.vql.ast import Query, RangeDeclaration

__all__ = ["AUTO_PARAMETER_MARK", "cache_key", "generalize",
           "query_fingerprint"]

#: first character of a synthetic parameter key: no VQL parameter name
#: starts with it, so synthetic keys never collide with a client's
AUTO_PARAMETER_MARK = "$"

#: literal types that become synthetic parameters (exact types: ``bool``,
#: an ``int`` subclass, stays literal)
_ELIGIBLE_TYPES = (int, float, str)

#: the nodes an all-literal subexpression is built from besides constants —
#: the pure operators the compiler folds into a single constant
_FOLDABLE = (BinaryOp, UnaryOp, TupleConstructor, SetConstructor)


def generalize(analyzed: AnalyzedQuery, keep: frozenset
               ) -> tuple[AnalyzedQuery, Optional[dict[str, Any]]]:
    """The generic form of *analyzed*: every eligible literal replaced by a
    synthetic parameter, numbered in ACCESS, FROM, WHERE order.

    *keep* holds the values that stay literal (the knowledge patterns'
    constants).  Returns the generic query — whose ``parameters`` list the
    client's parameters, then the synthetic ones — and ``key -> literal``
    for the synthetic ones; a query without an eligible literal comes back
    as itself with ``None``.
    """
    values: dict[str, Any] = {}

    def visit(expression: Expression) -> Expression:
        if isinstance(expression, Const):
            value = expression.value
            if type(value) not in _ELIGIBLE_TYPES or value in keep:
                return expression
            key = (f"{AUTO_PARAMETER_MARK}{len(values) + 1}:"
                   f"{type(value).__name__}")
            values[key] = value
            return Parameter(key, hint=value)
        children = expression.children()
        if not children or _all_literal(expression):
            return expression
        new_children = [visit(child) for child in children]
        if all(new is old for new, old in zip(new_children, children)):
            return expression
        return expression.rebuild(new_children)

    query = analyzed.query
    access = visit(query.access)
    ranges = tuple(RangeDeclaration(decl.variable, visit(decl.source))
                   for decl in query.ranges)
    where = None if query.where is None else visit(query.where)
    if not values:
        return analyzed, None
    generic = AnalyzedQuery(
        query=Query(access=access, ranges=ranges, where=where),
        variable_types=analyzed.variable_types,
        parameters=analyzed.parameters + tuple(values))
    return generic, values


def _all_literal(expression: Expression) -> bool:
    """True when *expression* is a pure operator over constants only."""
    return all(isinstance(node, (Const, *_FOLDABLE))
               for node in walk(expression))


def cache_key(analyzed: AnalyzedQuery, optimize: bool) -> tuple[Query, bool]:
    """The plan-cache key: the (generic) query plus the optimize flag.

    Keying on the :class:`Query` value (structural equality) makes textually
    different but shape-identical queries share one cached plan.
    """
    return (analyzed.query, optimize)


def query_fingerprint(analyzed: AnalyzedQuery, optimize: bool = True) -> str:
    """A short deterministic digest of the normalized query shape."""
    canonical = str(analyzed.query)
    if not optimize:
        canonical += "\n-- naive"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
