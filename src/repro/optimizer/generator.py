"""The optimizer generator.

Section 7: "We integrate schema-specific semantics in the optimization
process by mapping them to transformation and implementation rules, adding
these rules and the methods which are defined as physical operators to the
predefined rules and operators, and generating an individual optimizer
module for each schema."

:class:`OptimizerGenerator` is that component: given a schema and its
semantic knowledge it derives the schema-specific rules, merges them with the
predefined rule set and produces a ready-to-use
:class:`~repro.optimizer.search.Optimizer` instance.  Tags can be excluded to
generate *ablated* optimizers (used by EXP-3).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.datamodel.database import Database
from repro.datamodel.schema import Schema
from repro.optimizer.builtin_rules import standard_rules
from repro.optimizer.cost import CostModel
from repro.optimizer.knowledge import SchemaKnowledge
from repro.optimizer.rules import Rule, RuleSet
from repro.optimizer.search import Optimizer, OptimizerOptions

__all__ = ["OptimizerGenerator"]


class OptimizerGenerator:
    """Generates per-schema optimizer instances from rules and knowledge."""

    def __init__(self, schema: Schema,
                 knowledge: Optional[SchemaKnowledge] = None,
                 options: Optional[OptimizerOptions] = None):
        self.schema = schema
        self.knowledge = knowledge or SchemaKnowledge(schema)
        self.options = options or OptimizerOptions()

    # ------------------------------------------------------------------
    # rule assembly
    # ------------------------------------------------------------------
    def predefined_rule_set(self) -> RuleSet:
        """The schema-independent rules (Section 6.1's predefined set)."""
        return standard_rules()

    def semantic_rule_set(self) -> RuleSet:
        """The rules derived from the schema-specific knowledge."""
        return self.knowledge.derive_rule_set()

    def combined_rule_set(self, exclude_tags: Sequence[str] = (),
                          extra_rules: Iterable[Rule] = ()) -> RuleSet:
        """Predefined + semantic rules, minus excluded tags, plus extras."""
        combined = self.predefined_rule_set().merged_with(
            self.semantic_rule_set(), name=f"optimizer[{self.schema.name}]")
        for rule in extra_rules:
            combined.add(rule)
        for tag in exclude_tags:
            combined = combined.without_tag(tag)
        return combined

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def generate(self, database: Optional[Database] = None,
                 exclude_tags: Sequence[str] = (),
                 extra_rules: Iterable[Rule] = (),
                 options: Optional[OptimizerOptions] = None,
                 cost_model: Optional[CostModel] = None) -> Optimizer:
        """Generate an optimizer instance for this schema.

        ``exclude_tags`` removes rule groups (e.g. ``"semantic"`` for a purely
        structural optimizer, or ``"semantic:query-method"`` for the EXP-3
        ablation); ``extra_rules`` adds application-supplied rules on top.
        """
        rule_set = self.combined_rule_set(exclude_tags=exclude_tags,
                                          extra_rules=extra_rules)
        return Optimizer(
            schema=self.schema,
            rule_set=rule_set,
            database=database,
            cost_model=cost_model or CostModel(self.schema, database),
            options=options or self.options)

    def generate_without_semantics(self, database: Optional[Database] = None,
                                   options: Optional[OptimizerOptions] = None
                                   ) -> Optimizer:
        """An optimizer using only the predefined (structural) rules —
        the baseline the paper compares against implicitly."""
        return self.generate(database=database, exclude_tags=("semantic",),
                             options=options)
