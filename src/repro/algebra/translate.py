"""Translation of analyzed VQL queries into the general query algebra.

Section 4.1 of the paper gives the canonical mapping::

    ACCESS expression(x1,...,xn)
    FROM x1 IN C1, ..., xn IN Cn
    WHERE condition(x1,...,xn)

    ==>  project<a>(
           map<a, expression(a1,...,an)>(
             select<condition(a1,...,an)>(
               join<true>(get<an,Cn>, ... join<true>(get<a1,C1>, get<a2,C2>) ...))))

We keep the range-variable names as algebra references (``a_p`` is simply
``p``), build a left-deep chain of cartesian ``join<true>`` operators for the
class ranges, and encode dependent ranges (``p IN d->paragraphs()``) as
``flat`` operators, which is the iterate-operator encoding of Section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.algebra.expressions import (
    ClassExtent,
    Const,
    Var,
    free_vars,
)
from repro.algebra.operators import (
    Flat,
    Get,
    Join,
    LogicalOperator,
    Map,
    Project,
    Select,
)
from repro.errors import TranslationError

if TYPE_CHECKING:  # avoid a circular import with the vql package
    from repro.vql.analyzer import AnalyzedQuery

__all__ = ["TranslationResult", "translate_query", "OUTPUT_REF"]

#: reference under which a computed ACCESS expression is returned
OUTPUT_REF = "__result"


@dataclass(frozen=True)
class TranslationResult:
    """The root of the translated plan plus the reference holding the
    query's output values."""

    plan: LogicalOperator
    output_ref: str


def translate_query(analyzed: "AnalyzedQuery") -> TranslationResult:
    """Translate an analyzed query into the general algebra."""
    query = analyzed.query
    if not query.ranges:
        raise TranslationError("query has no range declarations")

    plan: Optional[LogicalOperator] = None
    bound: set[str] = set()

    for declaration in query.ranges:
        variable = declaration.variable
        source = declaration.source
        if isinstance(source, ClassExtent):
            leaf: LogicalOperator = Get(variable, source.class_name)
            if plan is None:
                plan = leaf
            else:
                plan = Join(Const(True), plan, leaf)
        else:
            # Dependent range: the source expression refers to previously
            # bound variables and is flattened per input tuple.
            unknown = free_vars(source) - bound
            if unknown:
                raise TranslationError(
                    f"range source for {variable!r} uses unbound "
                    f"variable(s) {', '.join(sorted(unknown))}")
            if plan is None:
                raise TranslationError(
                    f"first range declaration ({variable!r}) cannot be "
                    "dependent on other variables")
            plan = Flat(variable, source, plan)
        bound.add(variable)

    assert plan is not None  # guaranteed by the range loop

    if query.where is not None:
        plan = Select(query.where, plan)

    access = query.access
    if isinstance(access, Var):
        # the analyzer resolved every variable the query reads
        output_ref = access.name
        plan = Project((output_ref,), plan)
    else:
        plan = Map(OUTPUT_REF, access, plan)
        output_ref = OUTPUT_REF
        plan = Project((output_ref,), plan)

    return TranslationResult(plan=plan, output_ref=output_ref)
