"""Statement shapes: what the statement cache keys on.

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

A text the statement cache has not seen verbatim is matched by its *token
key* (:func:`repro.vql.lexer.token_key`) before it is parsed.  The first
full parse of a text with that key derives a rule for each literal slot
(:func:`slot_rules`) — bind the slot to synthetic parameter ``$k``, or (a
pattern constant, an operand of foldable arithmetic) repeat the first
text's literal verbatim.  A text whose literals keep those rules
(:func:`slot_values`) generalizes to the same query, so it skips parse,
analyze and generalize and reaches its shape's cache entry directly.

The statement cache keys shapes on the generic query itself — its
expression subtrees carry cached structural hashes, so hashing the key is
a few integer mixes, not a tree walk.  :func:`query_fingerprint` additionally renders a short,
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
    conjuncts,
    walk,
    with_hints,
)
from repro.vql.analyzer import AnalyzedQuery
from repro.vql.ast import Query, RangeDeclaration

__all__ = ["AUTO_PARAMETER_MARK", "cache_key", "generalize", "priced",
           "query_fingerprint", "slot_rules", "slot_values"]

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


def priced(generic: AnalyzedQuery, values: dict[str, Any]) -> AnalyzedQuery:
    """*generic* with *values* as its synthetic parameters' costing hints —
    what a plan for a statement with those values is priced with (*generic*
    itself when they already are its hints)."""
    query = generic.query
    access = with_hints(query.access, values)
    ranges = tuple(RangeDeclaration(decl.variable, with_hints(decl.source, values))
                   for decl in query.ranges)
    where = None if query.where is None else with_hints(query.where, values)
    if access is query.access and where is query.where and all(
            new.source is old.source for new, old in zip(ranges, query.ranges)):
        return generic
    return AnalyzedQuery(query=Query(access=access, ranges=ranges, where=where),
                         variable_types=generic.variable_types,
                         parameters=generic.parameters)


def slot_rules(token_key: tuple, literals: dict[int, str],
               analyzed: AnalyzedQuery, generic: AnalyzedQuery,
               values: Optional[dict[str, Any]]
               ) -> Optional[tuple[tuple, tuple, tuple]]:
    """The slot rules of a parsed query text: ``(bound, kept, twins)``.

    *token_key* and *literals* are the text's token key and ``token index
    -> literal text`` (:func:`repro.vql.lexer.token_key`), *analyzed* its
    parsed query and
    *generic*, *values* what :func:`generalize` made of it.  ``bound``
    lists ``(synthetic key, token index, sign)``: the parser recorded on
    each literal which token it read it from (``Const.token``), and the
    generic query has the synthetic parameter where *analyzed* has that
    literal.  ``kept`` lists ``(token index, text)`` for every other slot,
    whose literal the generic query holds as it is.  None when a synthetic
    parameter's literal did not come from a slot of *literals*, or does
    not read back from it as the very same value, or when a slot's literal
    is not in *analyzed* at all: the analyzer drops a repeated conjunct,
    so the query's shape then depends on two slots holding equal values.
    ``twins`` lists the synthetic keys of each pair of WHERE conjuncts
    that differ only in those keys: a text binding both alike would
    repeat a conjunct, which its full parse drops.
    """
    values = values or {}
    sources: dict[str, tuple[int, int]] = {}
    present: set[int] = set()
    for written, general in zip(_clauses(analyzed.query), _clauses(generic.query)):
        for literal, node in zip(walk(written), walk(general)):
            if isinstance(literal, Const) and literal.token is not None:
                present.add(literal.token[0])
                if isinstance(node, Parameter) and node.key in values:
                    sources[node.key] = literal.token
    if not present.issuperset(literals):
        return None
    bound = []
    for key, value in values.items():
        index, sign = sources.get(key, (None, 1))
        if index not in literals:
            return None
        read = _read(token_key, literals, index, sign)
        if type(read) is not type(value) or read != value:
            return None
        bound.append((key, index, sign))
    used = {index for _, index, _ in bound}
    kept = tuple((index, text) for index, text in literals.items()
                 if index not in used)
    return tuple(bound), kept, _twins(generic.query.where, values)


def _twins(where: Optional[Expression], values: dict[str, Any]) -> tuple:
    """``((keys, keys), ...)``: the synthetic keys, in tree order, of every
    pair of top-level conjuncts of *where* equal up to those keys."""
    groups: dict[Expression, list[tuple[str, ...]]] = {}
    for part in conjuncts(where):
        keys = tuple(node.key for node in walk(part)
                     if isinstance(node, Parameter) and node.key in values)
        if keys:
            groups.setdefault(_masked(part, values), []).append(keys)
    return tuple((first, second) for members in groups.values()
                 for position, first in enumerate(members)
                 for second in members[position + 1:])


def _masked(expression: Expression, values: dict[str, Any]) -> Expression:
    """*expression* with every synthetic parameter replaced by one
    placeholder (types dropped too: ``1`` and ``1.0`` are equal literals)."""
    if isinstance(expression, Parameter):
        return (Parameter(AUTO_PARAMETER_MARK) if expression.key in values
                else expression)
    children = expression.children()
    if not children:
        return expression
    return expression.rebuild([_masked(child, values) for child in children])


def _clauses(query: Query) -> list[Expression]:
    return [query.access, *(decl.source for decl in query.ranges),
            *(() if query.where is None else (query.where,))]


def _read(token_key: tuple, literals: dict[int, str], index: int,
          sign: int) -> Any:
    """The value of the literal in slot *index*: its text converted by the
    slot's type, negated for sign -1."""
    value = token_key[index](literals[index])
    return -value if sign < 0 else value


def slot_values(bound: tuple, kept: tuple, twins: tuple, token_key: tuple,
                literals: dict[int, str], keep: frozenset
                ) -> Optional[dict[str, Any]]:
    """The synthetic parameters' values of a text with *token_key* and
    *literals*, by the slot rules *bound*, *kept* and *twins*
    (:func:`slot_rules`); None when the text's full parse would generalize
    with *keep* to another query — a kept literal differs, a bound one is
    in *keep*, or twin conjuncts bind equal values (a repeat)."""
    for index, text in kept:
        if literals[index] != text:
            return None
    values = {}
    for key, index, sign in bound:
        value = _read(token_key, literals, index, sign)
        if value in keep:
            return None
        values[key] = value
    for first, second in twins:
        if all(values[a] == values[b] for a, b in zip(first, second)):
            return None
    return values


def _all_literal(expression: Expression) -> bool:
    """True when *expression* is a pure operator over constants only."""
    return all(isinstance(node, (Const, *_FOLDABLE))
               for node in walk(expression))


def cache_key(analyzed: AnalyzedQuery, optimize: bool) -> tuple[Query, bool]:
    """The key of a shape's cache entry: the (generic) query plus the
    optimize flag.

    Keying on the :class:`Query` value (structural equality) makes textually
    different but shape-identical queries share one cached plan.
    """
    return (analyzed.query, optimize)


def query_fingerprint(analyzed: AnalyzedQuery, optimize: bool = True) -> str:
    """A short deterministic digest of the normalized query shape."""
    text = str(analyzed.query)
    if not optimize:
        text += "\n-- naive"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
