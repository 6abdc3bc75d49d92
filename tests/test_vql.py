"""Tests for the VQL lexer, parser and semantic analyzer."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    MethodCall,
    PropertyAccess,
    TupleConstructor,
    UnaryOp,
    Var,
)
from repro.datamodel.types import ANY, BOOL, INT, ObjectType, SetType
from repro.errors import VQLAnalysisError, VQLSyntaxError
from repro.vql.analyzer import analyze_query, infer_expression_type
from repro.vql.lexer import tokenize
from repro.vql.parser import parse_expression, parse_query


class TestLexer:
    def test_keywords_and_identifiers(self):
        kinds = [(t.kind, t.text) for t in tokenize("ACCESS p FROM p IN Paragraph")]
        assert kinds[0] == ("KEYWORD", "ACCESS")
        assert kinds[1] == ("IDENT", "p")
        assert kinds[-1] == ("EOF", "")

    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("access p from p in Paragraph")
        assert tokens[0].is_keyword("ACCESS")

    def test_string_literals(self):
        tokens = tokenize("'hello world' \"double\"")
        assert tokens[0].kind == "STRING" and tokens[0].text == "hello world"
        assert tokens[1].text == "double"

    def test_unterminated_string_raises(self):
        with pytest.raises(VQLSyntaxError):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("42 3.5")
        assert tokens[0].text == "42"
        assert tokens[1].text == "3.5"

    def test_arrow_variants(self):
        ascii_arrow = tokenize("p->m()")
        typographic = tokenize("p→m()")
        assert [t.text for t in ascii_arrow] == [t.text for t in typographic]

    def test_is_in_and_is_subset(self):
        tokens = tokenize("a IS-IN b IS-SUBSET c")
        ops = [t.text for t in tokens if t.kind == "OP"]
        assert ops == ["IS-IN", "IS-SUBSET"]

    def test_comparison_operators(self):
        ops = [t.text for t in tokenize("== != <= >= < >") if t.kind == "OP"]
        assert ops == ["==", "!=", "<=", ">=", "<", ">"]

    def test_comments_are_skipped(self):
        tokens = tokenize("ACCESS /* comment */ p -- trailing\nFROM p IN C")
        assert [t.text for t in tokens if t.kind == "IDENT"] == ["p", "p", "C"]

    def test_unterminated_comment_raises(self):
        with pytest.raises(VQLSyntaxError):
            tokenize("/* never closed")

    def test_illegal_character_raises_with_position(self):
        with pytest.raises(VQLSyntaxError) as excinfo:
            tokenize("a § b")
        assert excinfo.value.line == 1

    def test_line_and_column_tracking(self):
        tokens = tokenize("ACCESS p\nFROM p IN C")
        from_token = next(t for t in tokens if t.is_keyword("FROM"))
        assert from_token.line == 2
        assert from_token.column == 1

    def test_lexer_error_reports_line_column_and_caret(self):
        with pytest.raises(VQLSyntaxError) as excinfo:
            tokenize("ACCESS p\nFROM p § C")
        error = excinfo.value
        assert error.line == 2 and error.column == 8
        rendered = str(error)
        assert "(line 2, column 8)" in rendered
        # the caret snippet shows the offending source line with a marker
        # under the offending column
        assert "FROM p § C" in rendered
        lines = rendered.splitlines()
        caret_line = lines[-1]
        source_line = lines[-2]
        assert caret_line.strip() == "^"
        assert caret_line.index("^") == source_line.index("§")

    def test_unterminated_string_error_carries_caret(self):
        with pytest.raises(VQLSyntaxError) as excinfo:
            tokenize("ACCESS 'oops")
        rendered = str(excinfo.value)
        assert "(line 1, column 8)" in rendered
        # snippet lines carry a two-space prefix; the caret sits under
        # column 8 of the source line
        assert rendered.splitlines()[-1].index("^") == 2 + 7


class TestExpressionParser:
    def test_path_expression(self):
        expr = parse_expression("p.section.document")
        assert expr == PropertyAccess(PropertyAccess(Var("p"), "section"), "document")

    def test_method_call_with_arguments(self):
        expr = parse_expression("p->contains_string('x')")
        assert expr == MethodCall(Var("p"), "contains_string", (Const("x"),))

    def test_method_call_without_arguments(self):
        assert parse_expression("p->document()") == MethodCall(Var("p"), "document", ())

    def test_chained_postfix(self):
        expr = parse_expression("Document->select_by_index('t').sections")
        assert isinstance(expr, PropertyAccess)
        assert isinstance(expr.base, MethodCall)

    def test_comparison_and_boolean_precedence(self):
        expr = parse_expression("a == 1 AND b == 2 OR NOT c == 3")
        assert isinstance(expr, BinaryOp) and expr.op == "OR"
        assert expr.left.op == "AND"
        assert isinstance(expr.right, UnaryOp) and expr.right.op == "NOT"

    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr == BinaryOp("+", Const(1), BinaryOp("*", Const(2), Const(3)))

    def test_parentheses_override_precedence(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_unary_minus_folds_numeric_literals(self):
        assert parse_expression("-5") == Const(-5)
        assert parse_expression("-3.5") == Const(-3.5)
        assert parse_expression("-x") == UnaryOp("-", Var("x"))

    def test_is_in(self):
        expr = parse_expression("p IS-IN D.sections")
        assert expr.op == "IS-IN"

    def test_tuple_constructor(self):
        expr = parse_expression("[a: p.number, b: q.number]")
        assert isinstance(expr, TupleConstructor)
        assert [name for name, _ in expr.fields] == ["a", "b"]

    def test_set_constructor(self):
        expr = parse_expression("{1, 2, 3}")
        assert len(expr.elements) == 3

    def test_boolean_literals(self):
        assert parse_expression("TRUE") == Const(True)
        assert parse_expression("FALSE") == Const(False)

    def test_set_operators(self):
        expr = parse_expression("a INTERSECTION b UNION c")
        assert expr.op == "UNION"
        assert expr.left.op == "INTERSECT"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(VQLSyntaxError):
            parse_expression("a == 1 garbage garbage")

    def test_missing_operand_rejected(self):
        with pytest.raises(VQLSyntaxError):
            parse_expression("a ==")


class TestQueryParser:
    def test_single_range_query(self):
        query = parse_query("ACCESS p FROM p IN Paragraph WHERE p.number == 1")
        assert query.range_variables == ("p",)
        assert query.where is not None

    def test_query_without_where(self):
        query = parse_query("ACCESS d.title FROM d IN Document")
        assert query.where is None
        assert isinstance(query.access, PropertyAccess)

    def test_multiple_ranges(self):
        query = parse_query(
            "ACCESS p FROM p IN Paragraph, q IN Paragraph WHERE p->sameDocument(q)")
        assert query.range_variables == ("p", "q")

    def test_dependent_range(self):
        query = parse_query(
            "ACCESS d.title FROM d IN Document, p IN d->paragraphs()")
        assert query.ranges[1].depends_on() == {"d"}

    def test_missing_from_rejected(self):
        with pytest.raises(VQLSyntaxError):
            parse_query("ACCESS p WHERE p.number == 1")

    def test_str_round_trip_parses_again(self):
        text = "ACCESS p FROM p IN Paragraph WHERE p.number == 1"
        assert parse_query(str(parse_query(text))) == parse_query(text)

    def test_parser_error_reports_line_column_and_caret(self):
        with pytest.raises(VQLSyntaxError) as excinfo:
            parse_query("ACCESS p\nFORM p IN Paragraph")
        error = excinfo.value
        assert error.line == 2 and error.column == 1
        rendered = str(error)
        assert "(line 2, column 2)" in rendered or \
            "(line 2, column 1)" in rendered
        lines = rendered.splitlines()
        assert lines[-2].endswith("FORM p IN Paragraph")
        assert lines[-1].strip() == "^"

    def test_parser_error_caret_points_at_offending_token(self):
        with pytest.raises(VQLSyntaxError) as excinfo:
            parse_query("ACCESS p FROM p IN Paragraph WHERE p.number ==")
        rendered = str(excinfo.value)
        # the error is at end-of-input: the caret sits one past the text
        assert "expected expression" in rendered
        # two-space snippet prefix + one-past-the-end caret column
        assert rendered.splitlines()[-1].index("^") == 2 + len(
            "ACCESS p FROM p IN Paragraph WHERE p.number ==")


class TestAnalyzer:
    def test_class_range_resolution(self, doc_schema):
        analyzed = analyze_query(
            parse_query("ACCESS p FROM p IN Paragraph"), doc_schema)
        assert analyzed.query.ranges[0].source == ClassExtent("Paragraph")
        assert analyzed.variable_types["p"] == ObjectType("Paragraph")
        assert analyzed.variable_class("p") == "Paragraph"

    def test_class_method_call_resolution(self, doc_schema):
        analyzed = analyze_query(parse_query(
            "ACCESS p FROM p IN Paragraph "
            "WHERE p IS-IN Document->select_by_index('t').sections.paragraphs"),
            doc_schema)
        where = analyzed.query.where
        # the receiver has been rewritten into a ClassMethodCall
        assert any(isinstance(node, ClassMethodCall)
                   for node in _walk(where))

    def test_dependent_range_element_type(self, doc_schema):
        analyzed = analyze_query(parse_query(
            "ACCESS d.title FROM d IN Document, p IN d->paragraphs()"), doc_schema)
        assert analyzed.variable_types["p"] == ObjectType("Paragraph")

    def test_unknown_class_rejected(self, doc_schema):
        with pytest.raises(VQLAnalysisError):
            analyze_query(parse_query("ACCESS x FROM x IN Nonexistent"), doc_schema)

    def test_unknown_property_rejected(self, doc_schema):
        with pytest.raises(VQLAnalysisError):
            analyze_query(parse_query(
                "ACCESS p FROM p IN Paragraph WHERE p.nonexistent == 1"), doc_schema)

    def test_unknown_method_rejected(self, doc_schema):
        with pytest.raises(VQLAnalysisError):
            analyze_query(parse_query(
                "ACCESS p FROM p IN Paragraph WHERE p->fly()"), doc_schema)

    def test_method_arity_checked(self, doc_schema):
        with pytest.raises(VQLAnalysisError):
            analyze_query(parse_query(
                "ACCESS p FROM p IN Paragraph WHERE p->contains_string()"), doc_schema)

    def test_duplicate_range_variable_rejected(self, doc_schema):
        with pytest.raises(VQLAnalysisError):
            analyze_query(parse_query(
                "ACCESS p FROM p IN Paragraph, p IN Section"), doc_schema)

    def test_unbound_variable_in_range_source_rejected(self, doc_schema):
        with pytest.raises(VQLAnalysisError):
            analyze_query(parse_query(
                "ACCESS p FROM p IN d->paragraphs()"), doc_schema)

    def test_non_set_range_source_rejected(self, doc_schema):
        with pytest.raises(VQLAnalysisError):
            analyze_query(parse_query(
                "ACCESS s FROM d IN Document, s IN d.title"), doc_schema)

    def test_parameters_prebind_free_variables(self, doc_schema):
        analyzed = analyze_query(
            parse_query("ACCESS p FROM p IN Paragraph WHERE p.number == n"),
            doc_schema, parameters={"n": INT})
        assert analyzed.query.where is not None


class TestTypeInference:
    def env(self, doc_schema):
        return {"p": ObjectType("Paragraph"), "d": ObjectType("Document")}

    def test_property_type(self, doc_schema):
        expr = parse_expression("p.number")
        assert infer_expression_type(expr, self.env(doc_schema), doc_schema) == INT

    def test_path_type(self, doc_schema):
        expr = parse_expression("p.section.document")
        inferred = infer_expression_type(expr, self.env(doc_schema), doc_schema)
        assert inferred == ObjectType("Document")

    def test_lifted_property_over_set(self, doc_schema):
        expr = parse_expression("d.sections.paragraphs")
        inferred = infer_expression_type(expr, self.env(doc_schema), doc_schema)
        assert inferred == SetType(ObjectType("Paragraph"))

    def test_method_return_type(self, doc_schema):
        expr = parse_expression("p->document()")
        assert infer_expression_type(
            expr, self.env(doc_schema), doc_schema) == ObjectType("Document")

    def test_comparison_is_bool(self, doc_schema):
        expr = parse_expression("p.number == 3")
        assert infer_expression_type(expr, self.env(doc_schema), doc_schema) == BOOL

    def test_arithmetic_types(self, doc_schema):
        assert infer_expression_type(parse_expression("1 + 2"), {}, doc_schema) == INT
        assert infer_expression_type(parse_expression("1 / 2"), {}, doc_schema).name == "REAL"

    def test_unknown_variable_raises(self, doc_schema):
        with pytest.raises(VQLAnalysisError):
            infer_expression_type(parse_expression("zz.number"), {}, doc_schema)

    def test_any_typed_receiver_is_tolerated(self, doc_schema):
        inferred = infer_expression_type(
            parse_expression("x.anything"), {"x": ANY}, doc_schema)
        assert inferred == ANY


def _walk(expr):
    yield expr
    for child in expr.children():
        yield from _walk(child)
