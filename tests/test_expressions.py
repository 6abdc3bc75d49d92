"""Tests for the expression node helpers shared by VQL and the algebra."""

from __future__ import annotations

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    MethodCall,
    Parameter,
    PropertyAccess,
    SetConstructor,
    TupleConstructor,
    Var,
    bind_parameters,
    conjuncts,
    contains,
    free_vars,
    make_conjunction,
    methods_used,
    properties_used,
    rename_vars,
    replace_subexpression,
    substitute,
    walk,
)
from repro.vql.parser import parse_expression


class TestNodeBasics:
    def test_const_freezes_collections(self):
        assert Const([1, 2]).value == (1, 2)
        assert Const({1, 2}).value == frozenset({1, 2})
        assert Const({"a": 1}).value == (("a", 1),)

    def test_nodes_are_hashable(self):
        expr = parse_expression("p->document().title == 'x'")
        assert hash(expr) == hash(parse_expression("p->document().title == 'x'"))
        assert len({expr, expr}) == 1

    def test_structural_equality(self):
        assert parse_expression("a.b.c") == parse_expression("a.b.c")
        assert parse_expression("a.b.c") != parse_expression("a.b.d")

    def test_is_boolean(self):
        assert parse_expression("a == b").is_boolean()
        assert parse_expression("NOT a").is_boolean()
        assert Const(True).is_boolean()
        assert not parse_expression("a.b").is_boolean()
        assert not parse_expression("a + b").is_boolean()

    def test_str_round_trips_through_parser(self):
        for text in ["p.section.document", "p->m(q, 1)", "(a == 1)",
                     "[x: p.number]", "NOT a"]:
            expr = parse_expression(text)
            assert parse_expression(str(expr)) == expr

    def test_rebuild_preserves_structure(self):
        expr = parse_expression("p->m(a, b)")
        rebuilt = expr.rebuild(list(expr.children()))
        assert rebuilt == expr

    def test_rebuild_on_leaf_without_children(self):
        assert Var("x").rebuild([]) == Var("x")


class TestTraversal:
    def test_walk_visits_all_nodes(self):
        expr = parse_expression("a.b == c->m(d)")
        kinds = [type(node).__name__ for node in walk(expr)]
        assert kinds[0] == "BinaryOp"
        assert "PropertyAccess" in kinds
        assert "MethodCall" in kinds
        assert kinds.count("Var") == 3

    def test_contains(self):
        expr = parse_expression("p->document().title == 'x'")
        assert contains(expr, parse_expression("p->document()"))
        assert not contains(expr, parse_expression("q->document()"))

    def test_free_vars(self):
        assert free_vars(parse_expression("p.a == q->m(r, 's')")) == {"p", "q", "r"}
        assert free_vars(Const(1)) == set()

    def test_methods_and_properties_used(self):
        expr = parse_expression("p->document().title == 'x' AND p->m(q)")
        assert ("instance", "document") in methods_used(expr)
        assert ("instance", "m") in methods_used(expr)
        assert methods_used(ClassMethodCall("C", "cm", ())) == {("class", "cm")}
        assert properties_used(expr) == {"title"}


class TestSubstitution:
    def test_substitute_variables(self):
        expr = parse_expression("p.title == s")
        result = substitute(expr, {"p": parse_expression("q->document()"),
                                   "s": Const("x")})
        assert result == parse_expression("q->document().title == 'x'")

    def test_substitute_leaves_unmentioned_untouched(self):
        expr = parse_expression("a == b")
        assert substitute(expr, {"c": Var("d")}) is expr

    def test_replace_subexpression(self):
        expr = parse_expression("p->document().title == p->document().author")
        replaced = replace_subexpression(expr, parse_expression("p->document()"),
                                         Var("d"))
        assert replaced == parse_expression("d.title == d.author")

    def test_rename_vars(self):
        expr = parse_expression("p.a == q.b")
        assert rename_vars(expr, {"p": "x"}) == parse_expression("x.a == q.b")


class TestConjunctions:
    def test_conjuncts_split_nested_ands(self):
        expr = parse_expression("a == 1 AND b == 2 AND c == 3")
        assert len(conjuncts(expr)) == 3

    def test_conjuncts_do_not_split_or(self):
        expr = parse_expression("a == 1 OR b == 2")
        assert conjuncts(expr) == [expr]

    def test_conjuncts_of_none(self):
        assert conjuncts(None) == []

    def test_make_conjunction_round_trip(self):
        expr = parse_expression("a == 1 AND b == 2 AND c == 3")
        rebuilt = make_conjunction(conjuncts(expr))
        assert conjuncts(rebuilt) == conjuncts(expr)

    def test_make_conjunction_empty(self):
        assert make_conjunction([]) is None

    def test_make_conjunction_single(self):
        single = parse_expression("a == 1")
        assert make_conjunction([single]) == single


class TestConstructors:
    def test_tuple_constructor_children(self):
        expr = TupleConstructor((("a", Var("x")), ("b", Const(1))))
        assert expr.children() == (Var("x"), Const(1))
        rebuilt = expr.rebuild([Var("y"), Const(2)])
        assert rebuilt.fields == (("a", Var("y")), ("b", Const(2)))

    def test_set_constructor_children(self):
        expr = SetConstructor((Var("x"), Const(1)))
        assert free_vars(expr) == {"x"}

    def test_class_extent_str(self):
        assert str(ClassExtent("Paragraph")) == "Paragraph"

    def test_method_call_str(self):
        assert str(MethodCall(Var("p"), "m", (Const(1),))) == "p->m(1)"
        assert str(ClassMethodCall("C", "m", ())) == "C->m()"


def test_replace_subexpression_keeps_untouched_trees_and_rebuilds_sets():
    expression = parse_expression("{p.number, 2} == x")
    # nothing to replace: the very same object comes back
    assert replace_subexpression(expression, Var("q"), Var("r")) is expression
    replaced = replace_subexpression(expression, Var("p"), Var("q"))
    assert replaced == parse_expression("{q.number, 2} == x")
    assert isinstance(replaced.left, SetConstructor)


def test_bind_parameters_leaves_unbound_parameters():
    expression = parse_expression("p.number == :a AND p.rank == :b")
    bound = bind_parameters(expression, {"a": 3})
    assert bound == BinaryOp("AND", parse_expression("p.number == 3"),
                             BinaryOp("==", PropertyAccess(Var("p"), "rank"),
                                      Parameter("b")))
