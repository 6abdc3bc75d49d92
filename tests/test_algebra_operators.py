"""Tests for the general algebra operators, VQL translation, printers and
tree-rewriting helpers."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Const, Var
from repro.algebra.operators import (
    Diff,
    ExpressionSource,
    Flat,
    Get,
    Join,
    Map,
    NaturalJoin,
    Project,
    Select,
    Union,
    operator_size,
    references_of,
    walk_operators,
)
from repro.algebra.printer import format_inline, format_tree
from repro.algebra.translate import OUTPUT_REF, translate_query
from repro.algebra.visitors import (
    node_at,
    positions,
    replace_at,
    replace_node,
    transform_bottom_up,
    transform_top_down,
)
from repro.errors import AlgebraError, TranslationError
from repro.vql.analyzer import analyze_query
from repro.vql.parser import parse_expression, parse_query

GET_P = Get("p", "Paragraph")
GET_Q = Get("q", "Paragraph")
GET_D = Get("d", "Document")


class TestOperatorConstruction:
    def test_get_refs(self):
        assert GET_P.refs() == ("p",)
        assert references_of(GET_P) == {"p"}

    def test_select_refs_and_params(self):
        select = Select(parse_expression("p.number == 1"), GET_P)
        assert select.refs() == ("p",)
        assert select.parameters() == (parse_expression("p.number == 1"),)

    def test_select_rejects_unknown_reference(self):
        with pytest.raises(AlgebraError):
            Select(parse_expression("q.number == 1"), GET_P)

    def test_join_requires_disjoint_refs(self):
        with pytest.raises(AlgebraError):
            Join(Const(True), GET_P, Get("p", "Document"))

    def test_join_condition_reference_check(self):
        with pytest.raises(AlgebraError):
            Join(parse_expression("z.a == 1"), GET_P, GET_D)

    def test_join_refs_are_union(self):
        join = Join(Const(True), GET_P, GET_D)
        assert set(join.refs()) == {"p", "d"}

    def test_union_and_diff_require_equal_refs(self):
        with pytest.raises(AlgebraError):
            Union(GET_P, GET_D)
        with pytest.raises(AlgebraError):
            Diff(GET_P, GET_D)
        assert Union(GET_P, Get("p", "Section")).refs() == ("p",)

    def test_natural_join_common_refs(self):
        join = NaturalJoin(Select(Const(True), GET_P),
                           Join(Const(True), Get("p", "Paragraph"), GET_D))
        assert join.common_refs() == ("p",)

    def test_map_introduces_new_ref(self):
        mapped = Map("t", parse_expression("p.title"), GET_P)
        assert set(mapped.refs()) == {"p", "t"}
        with pytest.raises(AlgebraError):
            Map("p", parse_expression("p.title"), GET_P)
        with pytest.raises(AlgebraError):
            Map("t", parse_expression("z.title"), GET_P)

    def test_flat_introduces_new_ref(self):
        flattened = Flat("s", parse_expression("d.sections"), GET_D)
        assert set(flattened.refs()) == {"d", "s"}
        with pytest.raises(AlgebraError):
            Flat("d", parse_expression("d.sections"), GET_D)

    def test_project_validates_and_sorts_refs(self):
        join = Join(Const(True), GET_P, GET_D)
        project = Project(("d", "p"), join)
        assert project.refs() == ("d", "p")
        with pytest.raises(AlgebraError):
            Project(("missing",), GET_P)
        with pytest.raises(AlgebraError):
            Project((), GET_P)

    def test_expression_source_must_be_reference_free(self):
        from repro.algebra.expressions import ClassMethodCall
        ExpressionSource("p", ClassMethodCall("Paragraph", "retrieve_by_string",
                                              (Const("x"),)))
        with pytest.raises(AlgebraError):
            ExpressionSource("p", parse_expression("q.sections"))

    def test_with_inputs_replaces_children(self):
        select = Select(parse_expression("p.number == 1"), GET_P)
        replaced = select.with_inputs([Get("p", "Section")])
        assert replaced.input == Get("p", "Section")
        join = Join(Const(True), GET_P, GET_D)
        swapped = join.with_inputs([GET_D, GET_P])
        assert swapped.left == GET_D

    def test_operators_are_hashable_memo_keys(self):
        a = Select(parse_expression("p.number == 1"), GET_P)
        b = Select(parse_expression("p.number == 1"), Get("p", "Paragraph"))
        assert a == b and hash(a) == hash(b)

    def test_walk_and_size(self):
        plan = Project(("p",), Select(Const(True), GET_P))
        assert operator_size(plan) == 3
        assert [type(node).__name__ for node in walk_operators(plan)] == \
            ["Project", "Select", "Get"]


class TestTranslation:
    def translate(self, text, schema):
        return translate_query(analyze_query(parse_query(text), schema))

    def test_single_class_range_shape(self, doc_schema):
        result = self.translate(
            "ACCESS p FROM p IN Paragraph WHERE p.number == 1", doc_schema)
        assert isinstance(result.plan, Project)
        select = result.plan.input
        assert isinstance(select, Select)
        assert isinstance(select.input, Get)
        assert result.output_ref == "p"

    def test_access_expression_introduces_result_ref(self, doc_schema):
        result = self.translate("ACCESS d.title FROM d IN Document", doc_schema)
        assert result.output_ref == OUTPUT_REF
        assert isinstance(result.plan.input, Map)

    def test_two_class_ranges_become_cartesian_join(self, doc_schema):
        result = self.translate(
            "ACCESS p FROM p IN Paragraph, q IN Paragraph WHERE p->sameDocument(q)",
            doc_schema)
        select = result.plan.input
        join = select.input
        assert isinstance(join, Join)
        assert join.condition == Const(True)

    def test_dependent_range_becomes_flat(self, doc_schema):
        result = self.translate(
            "ACCESS d.title FROM d IN Document, p IN d->paragraphs()", doc_schema)
        nodes = [type(n).__name__ for n in walk_operators(result.plan)]
        assert "Flat" in nodes

    def test_first_range_cannot_be_dependent(self, doc_schema):
        # the analyzer rejects it first, so build the error via the translator
        from repro.vql.analyzer import AnalyzedQuery
        from repro.vql.ast import Query, RangeDeclaration
        query = Query(access=Var("p"),
                      ranges=(RangeDeclaration("p", parse_expression("d->paragraphs()")),),
                      where=None)
        with pytest.raises(TranslationError):
            translate_query(AnalyzedQuery(query=query, variable_types={"p": None}))

    def test_query_without_ranges_rejected(self, doc_schema):
        from repro.vql.analyzer import AnalyzedQuery
        from repro.vql.ast import Query
        with pytest.raises(TranslationError):
            translate_query(AnalyzedQuery(
                query=Query(access=Var("p"), ranges=(), where=None)))


class TestPrinters:
    def test_format_inline_follows_paper_notation(self):
        plan = Select(parse_expression("p.number == 1"), GET_P)
        assert format_inline(plan) == "select<(p.number == 1)>(get<p, Paragraph>)"

    def test_format_tree_indents_children(self):
        plan = Project(("p",), Select(Const(True), GET_P))
        lines = format_tree(plan).splitlines()
        assert lines[0].startswith("project")
        assert lines[1].startswith("  select")
        assert lines[2].startswith("    get")


class TestVisitors:
    def plan(self):
        return Project(("p",), Select(parse_expression("p.number == 1"), GET_P))

    def test_positions_and_node_at(self):
        plan = self.plan()
        paths = list(positions(plan))
        assert () in paths and (0,) in paths and (0, 0) in paths
        assert isinstance(node_at(plan, (0, 0)), Get)

    def test_replace_at(self):
        plan = self.plan()
        new_plan = replace_at(plan, (0, 0), Get("p", "Section"))
        assert node_at(new_plan, (0, 0)) == Get("p", "Section")
        # original untouched
        assert node_at(plan, (0, 0)) == GET_P

    def test_replace_node(self):
        plan = self.plan()
        new_plan = replace_node(plan, GET_P, Get("p", "Section"))
        assert Get("p", "Section") in list(walk_operators(new_plan))

    def test_transform_bottom_up(self):
        plan = self.plan()
        renamed = transform_bottom_up(
            plan, lambda node: Get("p", "Section") if isinstance(node, Get) else None)
        assert node_at(renamed, (0, 0)) == Get("p", "Section")

    def test_transform_top_down(self):
        plan = self.plan()
        result = transform_top_down(
            plan,
            lambda node: node.input if isinstance(node, Project) else None)
        assert isinstance(result, Select)
        # a rewritten leaf rebuilds every operator above it
        retargeted = transform_top_down(
            plan, lambda node: Get("p", "Section") if isinstance(node, Get)
            else None)
        assert node_at(retargeted, (0, 0)) == Get("p", "Section")
        assert type(retargeted) is type(plan)
