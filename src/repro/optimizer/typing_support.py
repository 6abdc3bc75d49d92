"""Reference typing for logical algebra plans.

Pattern constraints (``?A<?a1, Paragraph>`` — "an algebraic expression
producing instances of class Paragraph under reference ?a1") and several
implementation rules need to know which class a reference ranges over.  This
module infers a type for every reference of a logical operator tree from the
schema, reusing the VQL expression type inference.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.algebra.expressions import Expression
from repro.algebra.operators import (
    ExpressionSource,
    Flat,
    Get,
    LogicalOperator,
    Map,
    Project,
    Select,
)
from repro.datamodel.schema import Schema
from repro.datamodel.types import ANY, ObjectType, SetType, VMLType
from repro.errors import ReproError
from repro.vql.analyzer import class_of_type, infer_expression_type

__all__ = ["infer_ref_types", "ref_class", "expression_class", "element_type"]


def element_type(vml_type: VMLType) -> VMLType:
    """The member type of a set type; other types pass through."""
    if isinstance(vml_type, SetType):
        return vml_type.element
    return vml_type


def infer_ref_types(plan: LogicalOperator, schema: Schema) -> dict[str, VMLType]:
    """Infer the VML type of every output reference of *plan*.

    Inference is best-effort: references whose type cannot be determined map
    to :data:`~repro.datamodel.types.ANY`, they never cause an error.
    """
    if isinstance(plan, Get):
        return {plan.ref: ObjectType(plan.class_name)}
    if isinstance(plan, ExpressionSource):
        return {plan.ref: _safe_element(plan.expression, {}, schema)}
    if isinstance(plan, Select):
        return infer_ref_types(plan.input, schema)
    if isinstance(plan, Project):
        inner = infer_ref_types(plan.input, schema)
        return {ref: inner.get(ref, ANY) for ref in plan.kept}
    if isinstance(plan, Map):
        types = infer_ref_types(plan.input, schema)
        types[plan.ref] = _safe_infer(plan.expression, types, schema)
        return types
    if isinstance(plan, Flat):
        types = infer_ref_types(plan.input, schema)
        types[plan.ref] = _safe_element(plan.expression, types, schema)
        return types
    # joins, union, difference: the inputs' references; a reference no
    # input types (an operator this module does not know) is ANY
    types: dict[str, VMLType] = {}
    for child in plan.inputs():
        types.update(infer_ref_types(child, schema))
    for ref in plan.refs():
        types.setdefault(ref, ANY)
    return types


def ref_class(plan: LogicalOperator, ref: str,
              schema: Schema) -> Optional[str]:
    """The class a reference ranges over, or None when not object-typed."""
    types = infer_ref_types(plan, schema)
    return class_of_type(types.get(ref, ANY))


def expression_class(expression: Expression, env: Mapping[str, VMLType],
                     schema: Schema) -> Optional[str]:
    """The class of the objects an expression evaluates to (element class
    for set-valued expressions), or None."""
    return class_of_type(_safe_infer(expression, env, schema))


def _safe_infer(expression: Expression, env: Mapping[str, VMLType],
                schema: Schema) -> VMLType:
    try:
        return infer_expression_type(expression, dict(env), schema)
    except ReproError:
        return ANY


def _safe_element(expression: Expression, env: Mapping[str, VMLType],
                  schema: Schema) -> VMLType:
    return element_type(_safe_infer(expression, env, schema))
