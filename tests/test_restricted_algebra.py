"""Tests for the restricted algebra (Section 6.1): operator validation,
normalization from the general algebra and the restricted interpreter."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    MethodCall,
    PropertyAccess,
    UnaryOp,
    Var,
)
from repro.algebra.normalize import Normalizer, normalize
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
    walk_operators,
)
from repro.algebra.restricted import (
    CrossProduct,
    FlatMethod,
    FlatProperty,
    FlatRef,
    JoinCmp,
    MapClassMethod,
    MapConst,
    MapExtent,
    MapMethod,
    MapOperator,
    MapProperty,
    SelectCmp,
    is_restricted_operator,
    operand_refs,
)
from repro.errors import AlgebraError, ExecutionError
from repro.physical.evaluator import make_hashable
from repro.physical.executor import execute_plan
from repro.physical.naive import naive_implementation
from repro.physical.restricted_exec import execute_restricted
from repro.vql.analyzer import analyze_query
from repro.vql.parser import parse_query
from repro.algebra.translate import translate_query

GET_P = Get("p", "Paragraph")
GET_D = Get("d", "Document")


class TestRestrictedOperatorValidation:
    def test_select_cmp_requires_boolean_op(self):
        with pytest.raises(AlgebraError):
            SelectCmp("p", "+", Const(1), GET_P)

    def test_select_cmp_checks_references(self):
        SelectCmp("p", "==", Const(1), GET_P)
        with pytest.raises(AlgebraError):
            SelectCmp("z", "==", Const(1), GET_P)

    def test_join_cmp_checks_sides(self):
        JoinCmp("p", "==", "d", GET_P, GET_D)
        with pytest.raises(AlgebraError):
            JoinCmp("d", "==", "p", GET_P, GET_D)
        with pytest.raises(AlgebraError):
            JoinCmp("p", "==", "p", GET_P, Get("p", "Document"))

    def test_map_property_checks_refs(self):
        mapped = MapProperty("t", "title", "p", GET_P)
        assert set(mapped.refs()) == {"p", "t"}
        with pytest.raises(AlgebraError):
            MapProperty("p", "title", "p", GET_P)
        with pytest.raises(AlgebraError):
            MapProperty("t", "title", "z", GET_P)

    def test_map_method_checks_operands(self):
        MapMethod("t", "m", "p", (Const(1), "p"), GET_P)
        with pytest.raises(AlgebraError):
            MapMethod("t", "m", "p", ("z",), GET_P)

    def test_cross_product_requires_disjoint(self):
        with pytest.raises(AlgebraError):
            CrossProduct(GET_P, Get("p", "Document"))

    def test_operand_refs_filters_constants(self):
        assert operand_refs(("a", Const(1), "b")) == {"a", "b"}

    def test_is_restricted_operator(self):
        assert is_restricted_operator(SelectCmp("p", "==", Const(1), GET_P))
        assert not is_restricted_operator(GET_P)

    def test_describe_renders_every_parameter(self):
        described = [
            JoinCmp("p", "<", "d", GET_P, GET_D),
            CrossProduct(GET_P, GET_D),
            MapMethod("t", "m", "p", (Const(1), "p"), GET_P),
            MapClassMethod("t", "Document", "m", ("p",), GET_P),
            MapExtent("t", "Document", GET_P),
            MapOperator("t", "+", ("p", Const(2)), GET_P),
            MapConst("t", Const(3), GET_P),
            FlatProperty("t", "sections", "d", GET_D),
            FlatMethod("t", "paragraphs", "d", (Const("x"),), GET_D),
            FlatRef("t", "p", GET_P),
        ]
        assert [node.describe() for node in described] == [
            "join_cmp<p, <, d>",
            "cross_product",
            "map_method<t, m, p, <1, p>>",
            "map_class_method<t, Document, m, <p>>",
            "map_extent<t, Document>",
            "map_operator<t, +, p, 2>",
            "map_const<t, 3>",
            "flat_property<t, sections, d>",
            "flat_method<t, paragraphs, d, <'x'>>",
            "flat_ref<t, p>",
        ]
        for node in described:
            assert node.with_inputs(node.inputs()) == node

    def test_describe_contains_parameters(self):
        assert "map_property<t, title, p>" in MapProperty("t", "title", "p", GET_P).describe()
        assert "select_cmp" in SelectCmp("p", "==", Const(1), GET_P).describe()


class TestNormalizer:
    def _normalized(self, text, schema):
        translation = translate_query(analyze_query(parse_query(text), schema))
        return translation, normalize(translation.plan)

    def test_refs_preserved(self, doc_schema):
        translation, restricted = self._normalized(
            "ACCESS p FROM p IN Paragraph WHERE p.number == 1", doc_schema)
        assert set(restricted.refs()) == set(translation.plan.refs())

    def test_only_restricted_or_shared_operators(self, doc_schema):
        _, restricted = self._normalized(
            "ACCESS p FROM p IN Paragraph "
            "WHERE p->contains_string('x') AND (p->document()).title == 'y'",
            doc_schema)
        from repro.algebra.operators import (
            Diff, ExpressionSource, Get, NaturalJoin, Project, Union)
        allowed_shared = (Get, Project, NaturalJoin, Union, Diff, ExpressionSource)
        for node in walk_operators(restricted):
            assert is_restricted_operator(node) or isinstance(node, allowed_shared), \
                f"{node.describe()} is not a restricted-algebra operator"

    def test_comparison_becomes_select_cmp(self, doc_schema):
        _, restricted = self._normalized(
            "ACCESS p FROM p IN Paragraph WHERE p.number == 1", doc_schema)
        kinds = [type(node).__name__ for node in walk_operators(restricted)]
        assert "SelectCmp" in kinds
        assert "MapProperty" in kinds

    def test_method_call_becomes_map_method(self, doc_schema):
        _, restricted = self._normalized(
            "ACCESS p FROM p IN Paragraph WHERE p->contains_string('x')", doc_schema)
        kinds = [type(node).__name__ for node in walk_operators(restricted)]
        assert "MapMethod" in kinds

    def test_class_method_becomes_map_class_method(self, doc_schema):
        _, restricted = self._normalized(
            "ACCESS p FROM p IN Paragraph "
            "WHERE p IS-IN Document->select_by_index('t').sections.paragraphs",
            doc_schema)
        assert any(isinstance(node, MapClassMethod)
                   for node in walk_operators(restricted))

    def test_equi_join_becomes_join_cmp(self, doc_schema):
        from repro.algebra.expressions import BinaryOp, Var
        from repro.algebra.operators import Join
        join = Join(BinaryOp("==", Var("p"), Var("q")), GET_P,
                    Get("q", "Paragraph"))
        restricted = normalize(join)
        assert any(isinstance(node, JoinCmp) for node in walk_operators(restricted))

    def test_equi_join_with_swapped_sides_mirrors_comparison(self, doc_schema):
        from repro.algebra.expressions import BinaryOp, Var
        from repro.algebra.operators import Join
        join = Join(BinaryOp("<", Var("q"), Var("p")), GET_P,
                    Get("q", "Paragraph"))
        restricted = normalize(join)
        join_cmp = next(node for node in walk_operators(restricted)
                        if isinstance(node, JoinCmp))
        assert (join_cmp.left_ref, join_cmp.op, join_cmp.right_ref) == ("p", ">", "q")

    def test_cartesian_join_becomes_cross_product(self, doc_schema):
        translation = translate_query(analyze_query(parse_query(
            "ACCESS d FROM d IN Document, p IN Paragraph"), doc_schema))
        restricted = normalize(translation.plan)
        assert any(isinstance(node, CrossProduct)
                   for node in walk_operators(restricted))

    def test_fresh_refs_are_unique(self):
        normalizer = Normalizer()
        refs = {normalizer.fresh_ref() for _ in range(100)}
        assert len(refs) == 100

    def test_tuple_constructor_not_supported(self, doc_schema):
        translation = translate_query(analyze_query(parse_query(
            "ACCESS [a: d.title] FROM d IN Document"), doc_schema))
        with pytest.raises(AlgebraError):
            normalize(translation.plan)


class TestRestrictedExecution:
    QUERIES = [
        "ACCESS p FROM p IN Paragraph WHERE p.number == 1",
        "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation')",
        "ACCESS p FROM p IN Paragraph WHERE p.number == 1 AND p->contains_string('Implementation')",
        "ACCESS p FROM p IN Paragraph WHERE NOT p.number == 1",
        "ACCESS p FROM p IN Paragraph WHERE p.number == 1 OR p.number == 2",
        "ACCESS d.title FROM d IN Document",
        "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
        "WHERE p->contains_string('Implementation')",
        "ACCESS p FROM p IN Paragraph "
        "WHERE (p->document()).title == 'Query Optimization'",
    ]

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_restricted_execution_matches_general(self, doc_database, query_text):
        """Equal expressive power: the normalized plan computes the same
        result as the general plan (Section 6.1)."""
        analyzed = analyze_query(parse_query(query_text), doc_database.schema)
        translation = translate_query(analyzed)
        general_rows = execute_plan(naive_implementation(translation.plan),
                                    doc_database)
        restricted_rows = execute_restricted(normalize(translation.plan),
                                             doc_database)

        def values(rows):
            return {make_hashable(row.get(translation.output_ref)) for row in rows}

        assert values(general_rows) == values(restricted_rows)

    def test_flat_property_direct_execution(self, doc_database):
        plan = Project(("s",), FlatProperty("s", "sections", "d",
                                            Get("d", "Document")))
        rows = execute_restricted(plan, doc_database)
        assert len(rows) == doc_database.extension_size("Section")

    def test_map_operator_identity_and_arithmetic(self, doc_database):
        plan = MapOperator("t", "+", (Const(1), Const(2)),
                           MapConst("c", Const(5), Get("p", "Paragraph")))
        rows = execute_restricted(plan, doc_database)
        assert rows and all(row["t"] == 3 and row["c"] == 5 for row in rows)


def _paragraphs_numbered(number: int) -> Select:
    return Select(BinaryOp("==", PropertyAccess(Var("p"), "number"),
                           Const(number)), GET_P)


#: general-algebra plans the VQL translator does not emit (explicit joins,
#: union, difference, natural joins, computed references); each one
#: normalizes to the restricted operator named in its id
HAND_BUILT_PLANS = {
    # join<ps == s>: equi join_cmp, executed as a hash join
    "join_cmp-hash": Join(
        BinaryOp("==", Var("ps"), Var("s")),
        Map("ps", PropertyAccess(Var("p"), "section"), GET_P),
        Get("s", "Section")),
    # join<sn < pn> with the right side's reference on the left: mirrored
    # into join_cmp<pn, >, sn>, executed as a nested loop
    "join_cmp-theta-mirrored": Join(
        BinaryOp("<", Var("sn"), Var("pn")),
        Map("pn", PropertyAccess(Var("p"), "number"), GET_P),
        Map("sn", PropertyAccess(Var("s"), "number"), Get("s", "Section"))),
    # a join condition over computed values: cross product + select_cmp
    "cross_product-join-condition": Join(
        BinaryOp("==", PropertyAccess(Var("p"), "section"), Var("s")),
        GET_P, Get("s", "Section")),
    "cross_product-join-true": Join(Const(True), _paragraphs_numbered(1),
                                    GET_D),
    "source": ExpressionSource("p", ClassMethodCall(
        "Paragraph", "retrieve_by_string", (Const("Implementation"),))),
    "union": Union(_paragraphs_numbered(1), _paragraphs_numbered(2)),
    "diff": Diff(GET_P, _paragraphs_numbered(1)),
    "natural_join": NaturalJoin(
        _paragraphs_numbered(2),
        Select(MethodCall(Var("p"), "contains_string",
                          (Const("Implementation"),)), GET_P)),
    "natural_join-disjoint": NaturalJoin(_paragraphs_numbered(1), GET_D),
    # map<c, Paragraph>: a class used as a value
    "map_extent": Map("c", ClassExtent("Paragraph"), _paragraphs_numbered(3)),
    # map<n, 2 * p.number - 1>: arithmetic over a computed reference
    "map_operator-arithmetic": Map(
        "n", BinaryOp("-", BinaryOp("*", Const(2),
                                    PropertyAccess(Var("p"), "number")),
                      Const(1)), GET_P),
    "map_operator-negation": Map(
        "n", UnaryOp("-", PropertyAccess(Var("p"), "number")), GET_P),
    "map_operator-set-ops": Map(
        "members", BinaryOp("DIFF", BinaryOp(
            "UNION", PropertyAccess(Var("d"), "largeParagraphs"),
            PropertyAccess(PropertyAccess(Var("d"), "sections"),
                           "paragraphs")),
            PropertyAccess(Var("d"), "largeParagraphs")), GET_D),
    "cross_product-unmirrorable": Join(
        BinaryOp("IS-IN", Var("s"), Var("ss")),
        Map("ss", PropertyAccess(Var("d"), "sections"), GET_D),
        Get("s", "Section")),
    "map_const": Map("c", Const(7), GET_D),
    "map_operator-identity": Map("q", Var("p"), _paragraphs_numbered(1)),
    # comparisons with NULL are false, inside OR and AND
    "map_operator-null-comparisons": Select(
        BinaryOp("OR", BinaryOp(
            "OR", BinaryOp("<", PropertyAccess(Var("p"), "number"),
                           Const(None)),
            BinaryOp("IS-IN", Var("p"), Const(None))),
            BinaryOp("AND", BinaryOp("==", PropertyAccess(Var("p"), "number"),
                                     Const(1)),
                     BinaryOp("<", PropertyAccess(Var("p"), "number"),
                              Const(3)))), GET_P),
    # a property and a method of NULL are NULL
    "map_property-of-null": Map("t", PropertyAccess(Const(None), "title"),
                                GET_D),
    "map_method-of-null": Map("t", MethodCall(Const(None), "document", ()),
                              GET_D),
    "flat_ref-constant-set": Flat("x", Const(frozenset({1, 2})), GET_D),
    # flat over a method of a computed receiver (a set of paragraphs)
    "flat_ref-method-over-set": Flat(
        "owner", MethodCall(PropertyAccess(PropertyAccess(Var("d"), "sections"),
                                           "paragraphs"), "document", ()),
        GET_D),
}


class TestNormalizedVsGeneral:
    """Equal expressive power (Section 6.1), checked operator by operator:
    every plan normalizes to restricted operators only, and the restricted
    interpreter returns the rows the general plan returns."""

    QUERIES = [
        "ACCESS p FROM p IN Paragraph WHERE p.number * 2 - 1 > 3",
        "ACCESS p FROM p IN Paragraph WHERE p.number / 2 >= 1 "
        "AND -p.number <= -2 AND p.number != 4",
        "ACCESS p FROM p IN Paragraph WHERE p IS-IN Paragraph",
        "ACCESS s FROM d IN Document, s IN d.sections.paragraphs",
        "ACCESS d FROM d IN Document WHERE d.sections IS-SUBSET d.sections",
        "ACCESS d FROM d IN Document WHERE d.title IS-SUBSET d.title",
        "ACCESS p FROM d IN Document, p IN Paragraph "
        "WHERE p IS-IN (d.largeParagraphs INTERSECTION Paragraph)",
        "ACCESS p FROM d IN Document, p IN Paragraph WHERE p.number == 1 "
        "AND p IS-IN (Paragraph DIFFERENCE d.largeParagraphs)",
        "ACCESS p FROM p IN Paragraph WHERE p IS-IN Document->select_by_index("
        "'Query Optimization').sections.paragraphs",
        "ACCESS d FROM d IN Document WHERE TRUE IS-IN "
        "d.sections.paragraphs->contains_string('Implementation')",
        "ACCESS s FROM s IN Section WHERE s.number == 1 OR NOT s.number > 2",
        "ACCESS p FROM d IN Document, p IN d->paragraphs() "
        "WHERE p.number < 2",
        "ACCESS s FROM d IN Document, s IN d.sections",
        "ACCESS d FROM d IN Document WHERE 1 IS-IN d.sections.number",
        "ACCESS q FROM d IN Document, "
        "q IN d.sections.document->paragraphs()",
    ]

    @staticmethod
    def _assert_same_rows(plan, database):
        restricted = normalize(plan)
        for node in walk_operators(restricted):
            assert is_restricted_operator(node) or isinstance(
                node, (Get, ExpressionSource, Project, NaturalJoin, Union,
                       Diff)), node.describe()
            assert node.with_inputs(node.inputs()) == node
        refs = plan.refs()

        def rows(result):
            return sorted(make_hashable({ref: row.get(ref) for ref in refs})
                          for row in result)

        general = rows(execute_plan(naive_implementation(plan), database))
        assert general, "the differential needs rows to compare"
        assert rows(execute_restricted(restricted, database)) == general
        return restricted

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_query(self, doc_database, query_text):
        translation = translate_query(analyze_query(parse_query(query_text),
                                                    doc_database.schema))
        self._assert_same_rows(translation.plan, doc_database)

    def test_constant_receivers(self, doc_database):
        document = doc_database.extension("Document")[0]
        for plan in (Map("t", PropertyAccess(Const(document), "title"), GET_P),
                     Flat("q", MethodCall(Const(document), "paragraphs", ()),
                          GET_D)):
            restricted = self._assert_same_rows(plan, doc_database)
            assert "map_const" in {node.name
                                   for node in walk_operators(restricted)}

    @pytest.mark.parametrize("name", sorted(HAND_BUILT_PLANS))
    def test_hand_built_plan(self, doc_database, name):
        restricted = self._assert_same_rows(HAND_BUILT_PLANS[name],
                                            doc_database)
        kinds = {node.name for node in walk_operators(restricted)}
        assert name.split("-")[0] in kinds, sorted(kinds)


class TestRestrictedErrors:
    def test_restricted_operator_is_not_normalized_again(self):
        with pytest.raises(AlgebraError, match="not part of the general"):
            normalize(SelectCmp("p", "==", Const(1), GET_P))

    def test_unknown_reference_in_an_expression(self):
        with pytest.raises(AlgebraError, match="unknown reference 'z'"):
            Normalizer().compile_expression(Var("z"), GET_P)

    def test_join_cmp_checks_operator_and_right_operand(self):
        with pytest.raises(AlgebraError, match="not a boolean"):
            JoinCmp("p", "+", "d", GET_P, GET_D)
        with pytest.raises(AlgebraError, match="right operand 'z'"):
            JoinCmp("p", "==", "z", GET_P, GET_D)


    def test_general_operator_is_not_executable(self, doc_database):
        with pytest.raises(ExecutionError, match="restricted interpreter"):
            execute_restricted(_paragraphs_numbered(1), doc_database)

    def test_property_of_a_non_object(self, doc_database):
        plan = MapProperty("t", "title", "c",
                           MapConst("c", Const(5), GET_D))
        with pytest.raises(ExecutionError, match="cannot access property"):
            execute_restricted(plan, doc_database)

    def test_method_of_a_non_object(self, doc_database):
        plan = MapMethod("t", "document", "c", (),
                         MapConst("c", Const("x"), GET_D))
        with pytest.raises(ExecutionError, match="cannot invoke"):
            execute_restricted(plan, doc_database)

    def test_unknown_map_operator(self, doc_database):
        plan = MapOperator("t", "%", (Const(5), Const(2)), GET_D)
        with pytest.raises(ExecutionError, match="unknown map_operator"):
            execute_restricted(plan, doc_database)
