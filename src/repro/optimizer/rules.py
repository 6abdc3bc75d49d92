"""Rule framework for the rule-based optimizer.

Following the Volcano optimizer generator (and Section 4.2 of the paper), two
kinds of rules exist:

* **transformation rules** reorder/rewrite logical algebra expressions and
  may in principle be applied in both directions — our rules generate the
  alternatives of one application step and the search keeps every distinct
  plan, which subsumes bidirectionality;
* **implementation rules** map a logical operator (whose inputs have already
  been implemented) onto a physical algorithm and are applicable in one
  direction only.

Rules carry *tags* so that whole groups can be switched off; the ablation
experiment (EXP-3) disables each semantic-knowledge kind through its tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.algebra.expressions import Expression
from repro.algebra.operators import LogicalOperator
from repro.datamodel.database import Database
from repro.datamodel.schema import Schema
from repro.datamodel.types import VMLType
from repro.optimizer.typing_support import (
    expression_class,
    infer_ref_types,
    ref_class,
)
from repro.physical.plans import PhysicalOperator

__all__ = [
    "RuleContext",
    "Rule",
    "TransformationRule",
    "ImplementationRule",
    "CallableTransformationRule",
    "CallableImplementationRule",
    "RuleSet",
]


class RuleContext:
    """Shared services available to rules during matching and rewriting."""

    def __init__(self, schema: Schema, database: Optional[Database] = None):
        self.schema = schema
        self.database = database
        self._ref_type_cache: dict[LogicalOperator, dict[str, VMLType]] = {}

    def ref_types(self, plan: LogicalOperator) -> dict[str, VMLType]:
        """Types of the output references of *plan* (cached)."""
        cached = self._ref_type_cache.get(plan)
        if cached is None:
            cached = infer_ref_types(plan, self.schema)
            self._ref_type_cache[plan] = cached
        return cached

    def ref_class(self, plan: LogicalOperator, ref: str) -> Optional[str]:
        """Class a reference of *plan* ranges over, or None."""
        return ref_class(plan, ref, self.schema)

    def expression_class(self, expression: Expression,
                         plan: LogicalOperator) -> Optional[str]:
        """Class of the objects *expression* denotes, typed in the
        environment given by *plan*'s references."""
        return expression_class(expression, self.ref_types(plan), self.schema)

    def conforms_to_class(self, plan: LogicalOperator, ref: str,
                          class_name: str) -> bool:
        """True when reference *ref* of *plan* ranges over *class_name* or a
        subclass of it."""
        actual = self.ref_class(plan, ref)
        if actual is None:
            return False
        if actual == class_name:
            return True
        current = actual
        while current is not None:
            class_def = self.schema.get_class(current)
            if class_def.superclass == class_name:
                return True
            current = class_def.superclass
        return False


@dataclass
class Rule:
    """Common rule metadata."""

    name: str
    description: str = ""
    tags: frozenset[str] = frozenset()
    #: rules marked apply-once guard themselves against re-application; the
    #: flag documents the paper's "⇒!" marker and is used in traces
    apply_once: bool = False

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


@dataclass
class TransformationRule(Rule):
    """A logical-to-logical rewrite rule."""

    #: operator kinds along the first-input chain every match starts with
    #: (empty: any node); the search offers the rule no other node.  Each
    #: offer is an attempt charged to ``max_transformations``, so a rule
    #: that can match few nodes would otherwise spend that budget on every
    #: node of every plan and move where exploration is cut short
    shape: tuple[type, ...] = ()

    def fits(self, plan: LogicalOperator) -> bool:
        """True when *plan*'s first-input chain starts with :attr:`shape`."""
        node: Optional[LogicalOperator] = plan
        for kind in self.shape:
            if not isinstance(node, kind):
                return False
            inputs = node.inputs()
            node = inputs[0] if inputs else None
        return True

    def apply(self, plan: LogicalOperator,
              context: RuleContext) -> Iterable[LogicalOperator]:
        """Return alternative operators equivalent to *plan* (possibly none).

        The returned operators must have the same reference set as *plan*.
        """
        raise NotImplementedError


@dataclass
class ImplementationRule(Rule):
    """A logical-to-physical mapping rule."""

    def implement(self, plan: LogicalOperator,
                  child_plans: tuple[PhysicalOperator, ...],
                  context: RuleContext) -> Iterable[PhysicalOperator]:
        """Return physical alternatives for *plan* given already implemented
        inputs (one physical plan per logical input, in order)."""
        raise NotImplementedError


@dataclass
class CallableTransformationRule(TransformationRule):
    """Transformation rule defined by a plain function.

    The function receives ``(plan, context)`` and returns an iterable of
    alternatives (or ``None``).
    """

    function: Optional[Callable[[LogicalOperator, RuleContext],
                                Optional[Iterable[LogicalOperator]]]] = None

    def apply(self, plan: LogicalOperator,
              context: RuleContext) -> Iterable[LogicalOperator]:
        if self.function is None:
            return ()
        result = self.function(plan, context)
        return () if result is None else list(result)


@dataclass
class CallableImplementationRule(ImplementationRule):
    """Implementation rule defined by a plain function.

    The function receives ``(plan, child_plans, context)`` and returns an
    iterable of physical alternatives (or ``None``).
    """

    function: Optional[Callable[
        [LogicalOperator, tuple[PhysicalOperator, ...], RuleContext],
        Optional[Iterable[PhysicalOperator]]]] = None

    def implement(self, plan: LogicalOperator,
                  child_plans: tuple[PhysicalOperator, ...],
                  context: RuleContext) -> Iterable[PhysicalOperator]:
        if self.function is None:
            return ()
        result = self.function(plan, child_plans, context)
        return () if result is None else list(result)


class RuleSet:
    """A named collection of transformation and implementation rules."""

    def __init__(self, name: str = "rules",
                 transformations: Sequence[TransformationRule] = (),
                 implementations: Sequence[ImplementationRule] = ()):
        self.name = name
        self.transformations: list[TransformationRule] = list(transformations)
        self.implementations: list[ImplementationRule] = list(implementations)

    def add(self, rule: Rule) -> Rule:
        if isinstance(rule, TransformationRule):
            self.transformations.append(rule)
        elif isinstance(rule, ImplementationRule):
            self.implementations.append(rule)
        else:
            raise TypeError(f"not a rule: {rule!r}")
        return rule

    def extend(self, other: "RuleSet") -> "RuleSet":
        self.transformations.extend(other.transformations)
        self.implementations.extend(other.implementations)
        return self

    def merged_with(self, other: "RuleSet", name: str = "merged") -> "RuleSet":
        return RuleSet(name,
                       transformations=[*self.transformations, *other.transformations],
                       implementations=[*self.implementations, *other.implementations])

    def without_tag(self, tag: str) -> "RuleSet":
        """A copy of the rule set with every rule carrying *tag* removed
        (used by the ablation experiments)."""
        return RuleSet(
            f"{self.name}-without-{tag}",
            transformations=[r for r in self.transformations if not r.has_tag(tag)],
            implementations=[r for r in self.implementations if not r.has_tag(tag)])

    def only_tags(self, *tags: str) -> "RuleSet":
        """A copy keeping only rules carrying at least one of *tags*."""
        wanted = set(tags)
        return RuleSet(
            f"{self.name}-only-{'-'.join(sorted(wanted))}",
            transformations=[r for r in self.transformations if set(r.tags) & wanted],
            implementations=[r for r in self.implementations if set(r.tags) & wanted])

    def rule_names(self) -> list[str]:
        return ([rule.name for rule in self.transformations]
                + [rule.name for rule in self.implementations])

    def __len__(self) -> int:
        return len(self.transformations) + len(self.implementations)

    def __str__(self) -> str:
        return (f"RuleSet({self.name!r}, {len(self.transformations)} "
                f"transformations, {len(self.implementations)} implementations)")
