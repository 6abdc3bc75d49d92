"""Range inversion: navigation replaced by a range over its targets.

A query that navigates from every object of a class to the objects it
reaches walks the whole class even when a condition on the reached objects
has a cheap access path of its own.  The two rewrites here offer the
inverted form as an alternative; the cost model chooses.

* **Dependent-range form.**  ``d IN C, p IN d.a.b WHERE c(p)`` —
  ``select<c(p)>(flat<p, d.a.b>(get<d, C>))`` — becomes
  ``flat<d, p.b'.a' INTERSECT C>(S)``, ``S`` the objects of ``P`` meeting
  ``c``, when every hop has an inverse link whose back side (``b'``,
  ``a'``) is single-valued; ``P`` is the class the last link names, and
  the source may also be an internal method whose body follows such a
  path (``d->paragraphs()``).
  Because the database maintains inverse links at every write
  (:meth:`repro.datamodel.database.Database.update`), ``p`` is in
  ``d.a.b`` exactly when ``p.b'.a'`` is ``d``.  ``INTERSECT C`` is the
  check ``d IS-IN C``: it keeps the range's own class and drops a NULL.
  The range over ``p`` is its cheapest source meeting ``c``: the method
  a query↔method equivalence names (E5's ``retrieve_by_string``), or the
  selection itself when user-defined indexes answer every conjunct.
  Without one there is no alternative: ranging over all of ``P`` reads as
  much as the navigation, and every offered alternative widens the search.
* **Membership form.**  ``select<p IS-IN p.x.y.S>(get<p, P>)`` becomes
  ``project<p>(select<p.x.y == Y>(flat<p, Y.S INTERSECT P>(get<Y, C>)))``,
  ``C`` the class ``p.x.y`` reaches through single-valued references and
  ``Y`` a fresh reference.  It is algebraic — it holds whether or not
  anything maintains ``S`` — and ``INTERSECT P`` is ``p``'s class check:
  an object still listed in ``S`` after it was deleted is dropped there,
  before any property of it is read.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    Expression,
    MethodCall,
    PropertyAccess,
    Var,
    free_vars,
)
from repro.algebra.operators import (
    Flat,
    Get,
    LogicalOperator,
    Project,
    Select,
)
from repro.datamodel.methods import body_path
from repro.datamodel.schema import MethodKind
from repro.datamodel.types import SetType
from repro.errors import ReproError
from repro.optimizer.builtin_rules import _property_comparison
from repro.optimizer.rules import RuleContext

__all__ = ["INVERSION_MARK", "indexed_comparison", "invert_dependent_range",
           "invert_membership"]

#: first character of the references the membership form introduces — not
#: one a VQL identifier can start with, so they never clash with a range
#: variable
INVERSION_MARK = "@"


def _path_from(expression: Expression, ref: str) -> Optional[list[str]]:
    """The property names of a path ``ref.a.b…`` (at least one hop)."""
    props: list[str] = []
    while isinstance(expression, PropertyAccess):
        props.append(expression.prop)
        expression = expression.base
    if not props or expression != Var(ref):
        return None
    return props[::-1]


def _range_path(expression: Expression, source: Get,
                context: RuleContext) -> Optional[list[str]]:
    """The property path a dependent range's source follows from the
    reference *source* scans: the path itself, or the path an internal
    method's body follows (``d->paragraphs()`` is ``d.sections.paragraphs``,
    :func:`repro.datamodel.methods.body_path`)."""
    if (isinstance(expression, MethodCall) and not expression.args
            and expression.receiver == Var(source.ref)):
        try:
            method = context.schema.resolve_instance_method(
                source.class_name, expression.method)
        except ReproError:
            return None
        if method.kind != MethodKind.INTERNAL:
            return None
        path = body_path(method.implementation)
        return list(path) if path else None
    return _path_from(expression, source.ref)


def indexed_comparison(condition: Expression, source: Get,
                       context: RuleContext) -> bool:
    """Does *condition* compare a property of *source*'s reference with a
    value in a way a user-defined index on it can answer?"""
    if context.database is None:
        return False
    match = _property_comparison(condition, source.ref, allow_parameter=True)
    if match is None:
        return False
    index = context.database.indexes.get(source.class_name, match[0])
    return index is not None and (match[1] == "==" or index.kind == "sorted")


def invert_dependent_range(plan: LogicalOperator, context: RuleContext,
                           access_path: Callable[[Expression, Get, RuleContext],
                                                 Optional[LogicalOperator]]
                           ) -> Optional[Iterable[LogicalOperator]]:
    """select<c(p)>(flat<p, d.a.b>(get<d, C>)) →
    flat<d, p.b'.a' INTERSECT C>(S), where ``S = access_path(c,
    get<p, P>, context)`` is ``p``'s source meeting ``c`` — a method call
    or an indexed selection; no alternative when there is none."""
    if not (isinstance(plan, Select) and isinstance(plan.input, Flat)
            and isinstance(plan.input.input, Get)):
        return None
    flat = plan.input
    source = flat.input
    if free_vars(plan.condition) != {flat.ref}:
        return None
    hops = _range_path(flat.expression, source, context)
    if hops is None:
        return None
    class_name = source.class_name
    back: list[str] = []
    for prop in hops:
        link = context.schema.links_from(class_name).get(prop)
        if link is None or link.target_cardinality != "one":
            return None
        back.append(link.target_property)
        class_name = link.target_class
    targets = access_path(plan.condition, Get(flat.ref, class_name), context)
    if targets is None:
        return None
    inverse: Expression = Var(flat.ref)
    for prop in reversed(back):
        inverse = PropertyAccess(inverse, prop)
    return [Flat(source.ref,
                 BinaryOp("INTERSECT", inverse, ClassExtent(source.class_name)),
                 targets)]


def invert_membership(plan: LogicalOperator, context: RuleContext
                      ) -> Optional[Iterable[LogicalOperator]]:
    """select<p IS-IN p.x.S>(get<p, P>) →
    project<p>(select<p.x == Y>(flat<p, Y.S INTERSECT P>(get<Y, C>)))."""
    if not (isinstance(plan, Select) and isinstance(plan.input, Get)):
        return None
    get = plan.input
    condition = plan.condition
    if not (isinstance(condition, BinaryOp) and condition.op == "IS-IN"
            and condition.left == Var(get.ref)
            and isinstance(condition.right, PropertyAccess)):
        return None
    members = condition.right
    hops = _path_from(members.base, get.ref)
    if hops is None:
        return None
    schema = context.schema
    class_name = get.class_name
    try:
        for prop in hops:
            prop_def = schema.resolve_property(class_name, prop)
            if prop_def.target_class is None or isinstance(prop_def.vml_type,
                                                           SetType):
                return None
            class_name = prop_def.target_class
        if not isinstance(schema.resolve_property(class_name,
                                                  members.prop).vml_type,
                          SetType):
            return None
    except ReproError:
        return None
    owner = INVERSION_MARK + "_".join([get.ref, *hops])
    source = Flat(get.ref,
                  BinaryOp("INTERSECT", PropertyAccess(Var(owner), members.prop),
                           ClassExtent(get.class_name)),
                  Get(owner, class_name))
    return [Project((get.ref,),
                    Select(BinaryOp("==", members.base, Var(owner)), source))]
