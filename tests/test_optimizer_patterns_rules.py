"""Tests for expression pattern matching, the rule framework and the
predefined (builtin) transformation/implementation rules."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    MethodCall,
    Parameter,
    PatternVar,
    PropertyAccess,
    SetConstructor,
    TupleConstructor,
    UnaryOp,
    Var,
)
from repro.algebra.operators import Flat, Get, Join, Map, Project, Select
from repro.datamodel.schema import ClassDef, Schema
from repro.optimizer.builtin_rules import (
    standard_implementations,
    standard_rules,
    standard_transformations,
)
from repro.optimizer.patterns import (
    find_matches,
    instantiate,
    match_expression,
    pattern_from_template,
    rewrite_matches,
)
from repro.optimizer.rules import (
    CallableTransformationRule,
    RuleContext,
    RuleSet,
)
from repro.physical.plans import (
    ClassScan,
    ExpressionSetScan,
    Filter,
    HashJoin,
    NestedLoopJoin,
    SetProbeFilter,
)
from repro.vql.parser import parse_expression

GET_P = Get("p", "Paragraph")
GET_Q = Get("q", "Paragraph")
GET_D = Get("d", "Document")


@pytest.fixture()
def context(doc_database):
    return RuleContext(doc_database.schema, doc_database)


class TestPatternMatching:
    def test_exact_match_without_variables(self):
        pattern = parse_expression("p.title == 'x'")
        assert match_expression(pattern, parse_expression("p.title == 'x'")) == {}
        assert match_expression(pattern, parse_expression("p.title == 'y'")) is None

    def test_pattern_variable_binds_subexpression(self):
        pattern = BinaryOp("==", PropertyAccess(PatternVar("d"), "title"),
                           PatternVar("s"))
        expression = parse_expression("p->document().title == 'QO'")
        binding = match_expression(pattern, expression)
        assert binding == {"d": parse_expression("p->document()"), "s": Const("QO")}

    def test_repeated_variable_must_bind_equal_expressions(self):
        pattern = BinaryOp("==", PatternVar("x"), PatternVar("x"))
        assert match_expression(pattern, parse_expression("a.b == a.b")) is not None
        assert match_expression(pattern, parse_expression("a.b == a.c")) is None

    def test_restriction_callback(self):
        pattern = PatternVar("x", restrict=lambda e: isinstance(e, Const))
        assert match_expression(pattern, Const(1)) == {"x": Const(1)}
        assert match_expression(pattern, Var("v")) is None

    def test_method_name_and_arity_must_match(self):
        pattern = MethodCall(PatternVar("x"), "document", ())
        assert match_expression(pattern, parse_expression("p->document()")) is not None
        assert match_expression(pattern, parse_expression("p->paragraphs()")) is None
        assert match_expression(pattern, parse_expression("p->document(1)")) is None

    @pytest.mark.parametrize("pattern,matching,other", [
        # unary operators: the operator and the operand must match
        (UnaryOp("-", PatternVar("x")), "-p.number", "NOT p.number"),
        (UnaryOp("NOT", PropertyAccess(PatternVar("x"), "ok")), "NOT p.ok",
         "NOT p.bad"),
        # tuples: field names in order, then field values
        (TupleConstructor((("a", PatternVar("x")), ("b", Const(1)))),
         "[a: p.title, b: 1]", "[b: p.title, a: 1]"),
        (TupleConstructor((("a", PatternVar("x")), ("b", Const(1)))),
         "[a: p.title, b: 1]", "[a: p.title, b: 2]"),
        (TupleConstructor((("a", PatternVar("x")),)), "[a: p.title]",
         "[a: p.title, b: 1]"),
        # set constructors: element count, then elements
        (SetConstructor((PatternVar("x"), Const(2))), "{p.number, 2}",
         "{p.number, 3}"),
        (SetConstructor((PatternVar("x"),)), "{p.number}",
         "{p.number, 2}"),
        # class methods: class, method and arity
        (ClassMethodCall("Document", "select_by_index", (PatternVar("x"),)),
         ClassMethodCall("Document", "select_by_index", (Const("t"),)),
         ClassMethodCall("Section", "select_by_index", (Const("t"),))),
        # class extents by name
        (ClassExtent("Document"), ClassExtent("Document"),
         ClassExtent("Section")),
    ])
    def test_structure_must_match(self, pattern, matching, other):
        def expression(value):
            return parse_expression(value) if isinstance(value, str) \
                else value

        assert match_expression(pattern, expression(matching)) is not None
        assert match_expression(pattern, expression(other)) is None

    def test_a_pattern_of_no_known_kind_matches_nothing(self):
        assert match_expression(Parameter("k"), Parameter("k")) is None

    def test_find_matches_locates_nested_occurrences(self):
        pattern = MethodCall(PatternVar("x"), "document", ())
        expression = parse_expression(
            "p->document().title == 'a' AND q->document().title == 'b'")
        matches = list(find_matches(pattern, expression))
        assert len(matches) == 2

    def test_instantiate_substitutes_bindings(self):
        template = PropertyAccess(PropertyAccess(PatternVar("p"), "section"),
                                  "document")
        result = instantiate(template, {"p": Var("q")})
        assert result == parse_expression("q.section.document")

    def test_instantiate_unbound_variable_raises(self):
        with pytest.raises(KeyError):
            instantiate(PatternVar("missing"), {})

    def test_rewrite_matches_produces_one_alternative_per_occurrence(self):
        pattern = MethodCall(PatternVar("p"), "document", ())
        template = PropertyAccess(PropertyAccess(PatternVar("p"), "section"),
                                  "document")
        expression = parse_expression(
            "p->document() == q->document()")
        rewrites = rewrite_matches(expression, pattern, template)
        assert len(rewrites) == 2
        assert parse_expression("p.section.document == q->document()") in rewrites
        assert parse_expression("p->document() == q.section.document") in rewrites

    def test_rewrite_matches_respects_guard(self):
        pattern = MethodCall(PatternVar("p"), "document", ())
        template = PropertyAccess(PatternVar("p"), "never")
        expression = parse_expression("p->document() == q->document()")
        rewrites = rewrite_matches(
            expression, pattern, template,
            guard=lambda occ, binding: binding["p"] == Var("p"))
        assert len(rewrites) == 1

    def test_pattern_from_template(self):
        expression = parse_expression("d.title == s")
        pattern = pattern_from_template(expression, {"d": None, "s": None})
        assert isinstance(pattern.left.base, PatternVar)
        assert isinstance(pattern.right, PatternVar)
        # variables not listed stay ordinary variables
        partial = pattern_from_template(expression, {"d": None})
        assert isinstance(partial.right, Var)


class TestRuleSet:
    def test_tag_filtering(self):
        rules = standard_rules()
        assert len(rules.without_tag("builtin")) == 0
        assert len(rules.only_tags("builtin")) == len(rules)
        assert len(rules) == (len(rules.transformations) + len(rules.implementations))

    def test_merged_with(self):
        first = RuleSet("a", transformations=[CallableTransformationRule(name="t1")])
        second = RuleSet("b", transformations=[CallableTransformationRule(name="t2")])
        merged = first.merged_with(second)
        assert set(merged.rule_names()) == {"t1", "t2"}

    def test_add_rejects_non_rules(self):
        with pytest.raises(TypeError):
            RuleSet().add("not a rule")

    def test_rule_context_ref_class(self, context):
        assert context.ref_class(GET_P, "p") == "Paragraph"
        assert context.conforms_to_class(GET_P, "p", "Paragraph")
        assert not context.conforms_to_class(GET_P, "p", "Document")

    def test_rule_context_expression_class(self, context):
        expr = parse_expression("p->document()")
        assert context.expression_class(expr, GET_P) == "Document"
        assert context.expression_class(Const(5), GET_P) is None


def _rule(name):
    rules = {r.name: r for r in standard_transformations()}
    return rules[name]


def _impl(name):
    rules = {r.name: r for r in standard_implementations()}
    return rules[name]


class TestBuiltinTransformations:
    def test_select_split_generates_both_orderings(self, context):
        plan = Select(parse_expression("p.number == 1 AND p.number == 2"), GET_P)
        results = list(_rule("select-split").apply(plan, context))
        assert len(results) == 2
        assert all(isinstance(r, Select) and isinstance(r.input, Select)
                   for r in results)

    def test_select_split_ignores_single_conjunct(self, context):
        plan = Select(parse_expression("p.number == 1"), GET_P)
        assert list(_rule("select-split").apply(plan, context)) == []

    def test_select_merge(self, context):
        plan = Select(parse_expression("p.number == 1"),
                      Select(parse_expression("p.number == 2"), GET_P))
        (merged,) = _rule("select-merge").apply(plan, context)
        assert merged == Select(
            parse_expression("p.number == 1 AND p.number == 2"), GET_P)

    def test_select_commute(self, context):
        inner = parse_expression("p.number == 2")
        outer = parse_expression("p.number == 1")
        plan = Select(outer, Select(inner, GET_P))
        (commuted,) = _rule("select-commute").apply(plan, context)
        assert commuted.condition == inner
        assert commuted.input.condition == outer

    def test_select_true_elimination(self, context):
        plan = Select(Const(True), GET_P)
        assert list(_rule("select-true-elim").apply(plan, context)) == [GET_P]

    def test_select_pushdown_join_left_and_right(self, context):
        join = Join(Const(True), GET_P, GET_D)
        left_cond = Select(parse_expression("p.number == 1"), join)
        (pushed,) = _rule("select-pushdown-join").apply(left_cond, context)
        assert isinstance(pushed.left, Select)
        right_cond = Select(parse_expression("d.title == 'x'"), join)
        (pushed_right,) = _rule("select-pushdown-join").apply(right_cond, context)
        assert isinstance(pushed_right.right, Select)

    def test_select_pushdown_not_applicable_across_sides(self, context):
        join = Join(Const(True), GET_P, GET_D)
        both = Select(parse_expression("p.section == d"), join)
        assert list(_rule("select-pushdown-join").apply(both, context)) == []

    def test_select_into_join(self, context):
        join = Join(Const(True), GET_P, GET_Q)
        plan = Select(parse_expression("p == q"), join)
        (theta,) = _rule("select-into-join").apply(plan, context)
        assert isinstance(theta, Join)
        assert theta.condition == parse_expression("p == q")

    def test_join_condition_to_select(self, context):
        join = Join(parse_expression("p == q"), GET_P, GET_Q)
        (lifted,) = _rule("join-condition-to-select").apply(join, context)
        assert isinstance(lifted, Select)
        assert lifted.input.condition == Const(True)

    def test_join_commute(self, context):
        join = Join(Const(True), GET_P, GET_D)
        (commuted,) = _rule("join-commute").apply(join, context)
        assert commuted.left == GET_D and commuted.right == GET_P

    def test_select_pushdown_below_flat(self, context):
        flat = Flat("s", parse_expression("d.sections"), GET_D)
        plan = Select(parse_expression("d.title == 'x'"), flat)
        (pushed,) = _rule("select-pushdown-map-flat").apply(plan, context)
        assert isinstance(pushed, Flat) and isinstance(pushed.input, Select)
        # not applicable when the condition uses the flattened reference
        dependent = Select(parse_expression("s.number == 1"), flat)
        assert list(_rule("select-pushdown-map-flat").apply(dependent, context)) == []

    def test_select_pullup_above_map(self, context):
        plan = Map("t", parse_expression("p.number"),
                   Select(parse_expression("p.number == 1"), GET_P))
        (pulled,) = _rule("select-pullup-map-flat").apply(plan, context)
        assert isinstance(pulled, Select) and isinstance(pulled.input, Map)



def _same_document(fields: str, condition: str = "p.section.document == "
                   "q.section.document") -> Project:
    """project<r>(map<r, fields>(join<condition>(select(get p), get q)))."""
    join = Join(parse_expression(condition),
                Select(parse_expression("p.number == 3"), GET_P), GET_Q)
    return Project(("r",), Map("r", parse_expression(fields), join))


class TestEagerDistinct:
    def test_reduces_each_join_input_to_its_key_and_fields(self, context):
        plan = _same_document("[pn: p.number, qn: q.number, c: 7]")
        (rewritten,) = _rule("eager-distinct").apply(plan, context)
        assert rewritten.refs() == plan.refs()
        outer = rewritten.input
        assert outer.expression == TupleConstructor((
            ("pn", Var("#p.number")), ("qn", Var("#q.number")),
            ("c", Const(7))))
        join = outer.input
        assert join.condition == BinaryOp("==", Var("#p.section.document"),
                                          Var("#q.section.document"))
        left, right = join.left, join.right
        assert left.kept == ("#p.number", "#p.section.document")
        assert right.kept == ("#q.number", "#q.section.document")
        # the key is mapped innermost; the side's own selection stays below
        assert left.input.ref == "#p.number"
        assert left.input.input.ref == "#p.section.document"
        assert isinstance(left.input.input.input, Select)

    def test_a_field_may_read_through_objects_the_key_reads(self, context):
        plan = _same_document("[n: p.section.number, t: q.section.title]")
        (rewritten,) = _rule("eager-distinct").apply(plan, context)
        assert rewritten.input.input.left.kept == (
            "#p.section.document", "#p.section.number")

    def test_a_field_equal_to_the_key_reuses_its_column(self, context):
        plan = _same_document("[d: p.section.document, n: q.number]")
        (rewritten,) = _rule("eager-distinct").apply(plan, context)
        assert rewritten.input.input.left.kept == ("#p.section.document",)

    @pytest.mark.parametrize("fields, condition", [
        # a method must never run on rows the join would drop
        ("[w: p->wordCount(), n: q.number]", None),
        # a field mixing both sides has no side to be computed on
        ("[s: p.number + q.number]", None),
        ("[s: p.number == q.number]", None),
        # a field reading through an object the key does not read: a
        # dangling p.section raises on rows the join would drop
        ("[n: p.section.number, m: q.number]", "p.section == q.section"),
        ("[t: p.section.document.title]", None),
        # computed keys and non-equi joins
        ("[n: p.number]", "p->document() == q->document()"),
        ("[n: p.number]", "p.number < q.number"),
        ("[n: p.number]", "p.number == q.number AND p.section == q.section"),
    ])
    def test_does_not_match(self, context, fields, condition):
        plan = (_same_document(fields) if condition is None
                else _same_document(fields, condition))
        assert list(_rule("eager-distinct").apply(plan, context)) == []

    def test_does_not_fire_on_its_own_output(self, context):
        plan = _same_document("[pn: p.number, qn: q.number]")
        (rewritten,) = _rule("eager-distinct").apply(plan, context)
        assert list(_rule("eager-distinct").apply(rewritten, context)) == []

    def test_join_inputs_must_be_join_free(self, context):
        three = Project(("r",), Map("r", parse_expression("[t: d.title]"), Join(
            parse_expression("p.section.document == d"),
            Join(parse_expression("p.section == q.section"), GET_P, GET_Q),
            GET_D)))
        assert list(_rule("eager-distinct").apply(three, context)) == []

    def test_other_rules_leave_the_reduced_inputs_alone(self, context):
        plan = _same_document("[pn: p.number, qn: q.number]")
        (rewritten,) = _rule("eager-distinct").apply(plan, context)
        join = rewritten.input.input
        assert list(_rule("join-condition-to-select").apply(join, context)) == []
        key_map = join.left.input.input
        assert list(_rule("select-pullup-map-flat").apply(key_map, context)) == []


class TestBuiltinImplementations:
    def test_get_to_class_scan(self, context):
        (scan,) = _impl("impl-get-scan").implement(GET_P, (), context)
        assert scan == ClassScan("p", "Paragraph")

    def test_select_to_filter(self, context):
        plan = Select(parse_expression("p.number == 1"), GET_P)
        (filtered,) = _impl("impl-select-filter").implement(
            plan, (ClassScan("p", "Paragraph"),), context)
        assert isinstance(filtered, Filter)

    def test_membership_select_to_probe(self, context):
        from repro.vql.analyzer import resolve_class_references
        member = resolve_class_references(
            parse_expression("p IS-IN Paragraph->retrieve_by_string('x')"),
            context.schema, set())
        plan = Select(member, GET_P)
        (probe,) = _impl("impl-select-probe").implement(
            plan, (ClassScan("p", "Paragraph"),), context)
        assert isinstance(probe, SetProbeFilter)

    def test_membership_select_over_get_becomes_set_scan(self, context):
        from repro.vql.analyzer import resolve_class_references
        member = resolve_class_references(
            parse_expression("p IS-IN Paragraph->retrieve_by_string('x')"),
            context.schema, set())
        plan = Select(member, GET_P)
        (scan,) = _impl("impl-select-membership-scan").implement(plan, (), context)
        assert isinstance(scan, ExpressionSetScan)

    def test_membership_scan_requires_matching_class(self, context):
        from repro.vql.analyzer import resolve_class_references
        member = resolve_class_references(
            parse_expression("d IS-IN Paragraph->retrieve_by_string('x')"),
            context.schema, set())
        plan = Select(member, GET_D)
        assert list(_impl("impl-select-membership-scan").implement(
            plan, (), context)) == []

    def test_join_to_nested_loop_and_hash(self, context):
        join = Join(parse_expression("p.section.document == d"), GET_P, GET_D)
        children = (ClassScan("p", "Paragraph"), ClassScan("d", "Document"))
        (nested,) = _impl("impl-join-nested-loop").implement(join, children, context)
        assert isinstance(nested, NestedLoopJoin)
        (hashed,) = _impl("impl-join-hash").implement(join, children, context)
        assert isinstance(hashed, HashJoin)
        assert hashed.left_key == parse_expression("p.section.document")

    def test_hash_join_not_applicable_to_non_equi_join(self, context):
        join = Join(parse_expression("p.number < d.title"), GET_P, GET_D)
        children = (ClassScan("p", "Paragraph"), ClassScan("d", "Document"))
        assert list(_impl("impl-join-hash").implement(join, children, context)) == []

    def test_hash_join_handles_swapped_sides(self, context):
        join = Join(parse_expression("d == p.section.document"), GET_P, GET_D)
        children = (ClassScan("p", "Paragraph"), ClassScan("d", "Document"))
        (hashed,) = _impl("impl-join-hash").implement(join, children, context)
        assert hashed.left_key == parse_expression("p.section.document")
        assert hashed.right_key == parse_expression("d")

    def test_project_map_flat_union_diff_impls(self, context):
        scan = ClassScan("p", "Paragraph")
        project = Project(("p",), GET_P)
        assert _impl("impl-project").implement(project, (scan,), context)
        mapped = Map("t", parse_expression("p.number"), GET_P)
        assert _impl("impl-map").implement(mapped, (scan,), context)
        flat = Flat("s", parse_expression("d.sections"), GET_D)
        assert _impl("impl-flat").implement(flat, (ClassScan("d", "Document"),), context)


def test_rule_context_class_conformance():
    schema = Schema("staff")
    for name, parent in (("Person", None), ("Employee", "Person"),
                         ("Manager", "Employee")):
        schema.add_class(ClassDef(name, superclass=parent))
    context = RuleContext(schema, None)
    plan = Get("m", "Manager")
    for ancestor in ("Manager", "Employee", "Person"):
        assert context.conforms_to_class(plan, "m", ancestor)
    assert not context.conforms_to_class(Get("p", "Person"), "p", "Manager")
    # a reference the plan does not bind conforms to nothing
    assert not context.conforms_to_class(plan, "x", "Person")
