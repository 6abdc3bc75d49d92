"""Tests for the four semantic-knowledge kinds and their rule derivation."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Const
from repro.algebra.operators import (
    ExpressionSource,
    Get,
    Join,
    Map,
    Select,
)
from repro.errors import RuleDerivationError
from repro.optimizer.knowledge import (
    ConditionEquivalence,
    ConditionImplication,
    ExpressionEquivalence,
    QueryMethodEquivalence,
    SchemaKnowledge,
    equivalences_from_inverse_link,
)
from repro.optimizer.rules import RuleContext
from repro.physical.plans import ClassScan, ExpressionSetScan, SetProbeFilter
from repro.vql.parser import parse_expression

GET_P = Get("p", "Paragraph")


@pytest.fixture()
def context(doc_database):
    return RuleContext(doc_database.schema, doc_database)


def apply_all(rule_set, plan, context):
    """Apply every transformation rule of *rule_set* at the plan root."""
    results = []
    for rule in rule_set.transformations:
        results.extend(rule.apply(plan, context))
    return results


class TestExpressionEquivalence:
    def equivalence(self):
        return ExpressionEquivalence(
            class_name="Paragraph", variable="p",
            left="p->document()", right="p.section.document", name="E1")

    def test_requires_bound_variable_on_both_sides(self):
        with pytest.raises(RuleDerivationError):
            ExpressionEquivalence("Paragraph", "p", "q->document()",
                                  "p.section.document")

    def test_derives_two_directions(self, doc_schema):
        rules = self.equivalence().derive_rules(doc_schema)
        assert len(rules.transformations) == 2
        assert all("semantic" in rule.tags for rule in rules.transformations)

    def test_rewrites_method_to_path_inside_map(self, doc_schema, context):
        rules = self.equivalence().derive_rules(doc_schema)
        plan = Map("t", parse_expression("p->document()"), GET_P)
        results = apply_all(rules, plan, context)
        assert Map("t", parse_expression("p.section.document"), GET_P) in results

    def test_rewrites_path_to_method_in_reverse_direction(self, doc_schema, context):
        rules = self.equivalence().derive_rules(doc_schema)
        plan = Map("t", parse_expression("p.section.document"), GET_P)
        results = apply_all(rules, plan, context)
        assert Map("t", parse_expression("p->document()"), GET_P) in results

    def test_rewrites_nested_occurrence_in_condition(self, doc_schema, context):
        rules = self.equivalence().derive_rules(doc_schema)
        plan = Select(parse_expression("p->document().title == 'x'"), GET_P)
        results = apply_all(rules, plan, context)
        assert Select(parse_expression("p.section.document.title == 'x'"),
                      GET_P) in results

    def test_class_guard_blocks_wrong_receiver(self, doc_schema, context):
        rules = self.equivalence().derive_rules(doc_schema)
        # d ranges over Document, whose title is not a Paragraph: the rule
        # must not fire on a Document-typed receiver.
        plan = Map("t", parse_expression("d.section.document"),
                   Get("d", "Document"))
        results = apply_all(rules, plan, context)
        assert results == []

    def test_no_rules_without_parameters_are_lost(self, doc_schema):
        # A one-sided parameter restricts the usable directions.
        equivalence = ExpressionEquivalence(
            class_name="Document", variable="d",
            left="d.title", right="d->render(fmt)", name="one-sided",
            parameter_classes={})
        rules = equivalence.derive_rules(doc_schema)
        # only the direction whose pattern contains all template variables
        assert len(rules.transformations) == 1
        assert "[<-]" in rules.transformations[0].name


class TestConditionEquivalence:
    def test_rejects_non_boolean_pair(self):
        with pytest.raises(RuleDerivationError):
            ConditionEquivalence("Paragraph", "p", "p.number", "p.section")

    def test_accepts_method_call_on_one_side(self):
        ConditionEquivalence("Paragraph", "p", "p->sameDocument(q)",
                             "p->document() == q->document()",
                             parameter_classes={"q": "Paragraph"})

    def test_inverse_link_rewrite(self, doc_schema, context):
        equivalence = ConditionEquivalence(
            class_name="Paragraph", variable="x",
            left="x.section IS-IN Ys",
            right="x IS-IN Ys.paragraphs",
            parameter_classes={"Ys": "Section"}, name="E4")
        rules = equivalence.derive_rules(doc_schema)
        condition = parse_expression("p.section IS-IN d.sections")
        plan = Select(condition, Join(Const(True), GET_P, Get("d", "Document")))
        results = apply_all(rules, plan, context)
        rewritten = Select(parse_expression("p IS-IN d.sections.paragraphs"),
                           Join(Const(True), GET_P, Get("d", "Document")))
        assert rewritten in results

    def test_parameter_class_guard(self, doc_schema, context):
        equivalence = ConditionEquivalence(
            class_name="Paragraph", variable="x",
            left="x.section IS-IN Ys",
            right="x IS-IN Ys.paragraphs",
            parameter_classes={"Ys": "Section"}, name="E4")
        rules = equivalence.derive_rules(doc_schema)
        # Ys bound to a set of Documents must NOT trigger the rewrite
        plan = Select(parse_expression("p.section IS-IN d.largeParagraphs"),
                      Join(Const(True), GET_P, Get("d", "Document")))
        assert apply_all(rules, plan, context) == []


class TestEquivalencesFromInverseLinks:
    def test_two_rules_per_link(self, doc_schema):
        link = doc_schema.find_inverse("Section", "document")
        equivalences = equivalences_from_inverse_link(link)
        # only the single-valued side generates a rule (Section.document);
        # the reversed direction starts from the set-valued Document.sections
        assert len(equivalences) == 1
        assert equivalences[0].class_name == "Section"

    def test_derive_from_inverse_links_adds_equivalences(self, doc_schema):
        knowledge = SchemaKnowledge(doc_schema)
        knowledge.derive_from_inverse_links()
        assert len(knowledge.condition_equivalences) == 2  # one per declared link


class TestConditionImplication:
    def implication(self):
        return ConditionImplication(
            class_name="Paragraph", variable="p",
            antecedent="p->wordCount() > 40",
            consequent="p IS-IN p->document().largeParagraphs", name="I1")

    def test_requires_variable_on_both_sides(self):
        with pytest.raises(RuleDerivationError):
            ConditionImplication("Paragraph", "p", "q->wordCount() > 1",
                                 "p IS-IN p->document().largeParagraphs")
        with pytest.raises(RuleDerivationError):
            ConditionImplication("Paragraph", "p", "p->wordCount() > 1",
                                 "q IS-IN q->document().largeParagraphs")

    def test_adds_consequent_as_conjunct(self, doc_schema, context):
        rules = self.implication().derive_rules(doc_schema)
        assert rules.transformations[0].apply_once
        plan = Select(parse_expression("p->wordCount() > 40"), GET_P)
        (result,) = apply_all(rules, plan, context)
        conjunct_texts = str(result.condition)
        assert "largeParagraphs" in conjunct_texts
        assert "wordCount" in conjunct_texts

    def test_does_not_reapply_when_consequent_present(self, doc_schema, context):
        rules = self.implication().derive_rules(doc_schema)
        plan = Select(parse_expression("p->wordCount() > 40"), GET_P)
        (once,) = apply_all(rules, plan, context)
        assert apply_all(rules, once, context) == []

    def test_ignores_non_matching_antecedent(self, doc_schema, context):
        rules = self.implication().derive_rules(doc_schema)
        plan = Select(parse_expression("p->wordCount() > 10"), GET_P)
        assert apply_all(rules, plan, context) == []


class TestQueryMethodEquivalence:
    def equivalence(self):
        return QueryMethodEquivalence(
            query="ACCESS p FROM p IN Paragraph WHERE p->contains_string(s)",
            method_call="Paragraph->retrieve_by_string(s)", name="E5")

    def test_requires_single_class_range(self, doc_schema):
        bad = QueryMethodEquivalence(
            query="ACCESS p FROM p IN Paragraph, q IN Paragraph "
                  "WHERE p->sameDocument(q)",
            method_call="Paragraph->retrieve_by_string(s)")
        with pytest.raises(RuleDerivationError):
            bad.derive_rules(doc_schema)

    def test_requires_where_clause(self, doc_schema):
        bad = QueryMethodEquivalence(
            query="ACCESS p FROM p IN Paragraph",
            method_call="Paragraph->retrieve_by_string(s)")
        with pytest.raises(RuleDerivationError):
            bad.derive_rules(doc_schema)

    def test_requires_access_of_range_variable(self, doc_schema):
        bad = QueryMethodEquivalence(
            query="ACCESS p.number FROM p IN Paragraph WHERE p->contains_string(s)",
            method_call="Paragraph->retrieve_by_string(s)")
        with pytest.raises(RuleDerivationError):
            bad.derive_rules(doc_schema)

    def test_rejects_unbound_method_parameters(self, doc_schema):
        bad = QueryMethodEquivalence(
            query="ACCESS p FROM p IN Paragraph WHERE p->contains_string(s)",
            method_call="Paragraph->retrieve_by_string(other)")
        with pytest.raises(RuleDerivationError):
            bad.derive_rules(doc_schema)

    def test_derives_logical_and_implementation_rules(self, doc_schema):
        rules = self.equivalence().derive_rules(doc_schema)
        assert len(rules.transformations) == 1
        assert len(rules.implementations) == 1

    def test_logical_rule_replaces_select_over_get(self, doc_schema, context):
        rules = self.equivalence().derive_rules(doc_schema)
        plan = Select(parse_expression("p->contains_string('Implementation')"), GET_P)
        (source,) = apply_all(rules, plan, context)
        assert isinstance(source, ExpressionSource)
        assert "retrieve_by_string" in str(source.expression)
        assert "'Implementation'" in str(source.expression)

    def test_implementation_rule_produces_probe_and_scan(self, doc_schema, context):
        rules = self.equivalence().derive_rules(doc_schema)
        plan = Select(parse_expression("p->contains_string('x')"), GET_P)
        implementations = list(rules.implementations[0].implement(
            plan, (ClassScan("p", "Paragraph"),), context))
        assert any(isinstance(p, SetProbeFilter) for p in implementations)
        assert any(isinstance(p, ExpressionSetScan) for p in implementations)

    def test_implementation_rule_probe_only_for_general_input(self, doc_schema,
                                                              context):
        rules = self.equivalence().derive_rules(doc_schema)
        inner = Select(parse_expression("p.number == 1"), GET_P)
        plan = Select(parse_expression("p->contains_string('x')"), inner)
        implementations = list(rules.implementations[0].implement(
            plan, (ClassScan("p", "Paragraph"),), context))
        assert all(isinstance(p, SetProbeFilter) for p in implementations)

    def test_does_not_fire_on_different_condition(self, doc_schema, context):
        rules = self.equivalence().derive_rules(doc_schema)
        plan = Select(parse_expression("p.number == 1"), GET_P)
        assert apply_all(rules, plan, context) == []

    def test_parameter_must_be_reference_free(self, doc_schema, context):
        rules = self.equivalence().derive_rules(doc_schema)
        # the argument mentions the tuple reference q -> cannot hoist
        plan = Select(parse_expression("p->contains_string(q.content)"),
                      Join(Const(True), GET_P, Get("q", "Paragraph")))
        assert apply_all(rules, plan, context) == []


class TestSchemaKnowledge:
    def test_add_dispatches_on_type(self, doc_schema):
        knowledge = SchemaKnowledge(doc_schema)
        knowledge.add(ExpressionEquivalence("Paragraph", "p", "p->document()",
                                            "p.section.document"))
        knowledge.add(ConditionImplication(
            "Paragraph", "p", "p->wordCount() > 40",
            "p IS-IN p->document().largeParagraphs"))
        knowledge.add(QueryMethodEquivalence(
            query="ACCESS p FROM p IN Paragraph WHERE p->contains_string(s)",
            method_call="Paragraph->retrieve_by_string(s)"))
        assert len(knowledge) == 3
        with pytest.raises(TypeError):
            knowledge.add("not knowledge")

    def test_derive_rule_set_collects_all_rules(self, doc_knowledge):
        rules = doc_knowledge.derive_rule_set()
        assert len(rules.transformations) >= 8
        assert len(rules.implementations) >= 1
        assert all("semantic" in rule.tags
                   for rule in rules.transformations + rules.implementations)

    def test_describe_lists_items(self, doc_knowledge):
        text = doc_knowledge.describe()
        assert "E1-path-method" in text
        assert "E5-retrieve-by-string" in text
