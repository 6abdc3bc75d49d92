"""Tests for the VQL lexer, parser and semantic analyzer."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    MethodCall,
    PatternVar,
    PropertyAccess,
    TupleConstructor,
    UnaryOp,
    Var,
)
from repro.datamodel.types import (
    ANY,
    BOOL,
    INT,
    REAL,
    STRING,
    ObjectType,
    SetType,
)
from repro.errors import VQLAnalysisError, VQLSyntaxError
from repro.vql.analyzer import (
    _assignable,
    analyze_query,
    analyze_statement,
    infer_expression_type,
)
from repro.vql.lexer import KEYWORDS, token_key, tokenize
from repro.vql.parser import parse_expression, parse_query, parse_statement


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


# ----------------------------------------------------------------------
# the lexer against the character-loop scanner it replaced
# ----------------------------------------------------------------------
def _ascii_digit(char: str) -> bool:
    return "0" <= char <= "9"


def _line_column(text: str, position: int) -> tuple[int, int]:
    """Line and column of *position*: newlines before it, and the
    characters since the last of them."""
    line_start = 0
    line = 1
    for index in range(position):
        if text[index] == "\n":
            line += 1
            line_start = index + 1
    return line, position - line_start + 1


def reference_scan(text: str, digit=_ascii_digit):
    """The character-loop lexer the master-regex lexer replaced, kept as its
    oracle: ``(kind, text, position, line, column)`` per token.  *digit*
    is the one rule that changed — numbers are ASCII digits only; with
    ``str.isdigit`` the scanner reads ``²`` and ``٣`` as digits, as it
    once did.  Line and column count the newlines before a position,
    inside a string literal or a comment too."""
    position = 0
    length = len(text)
    tokens = []

    def make(kind, token_text):
        tokens.append((kind, token_text, position,
                       *_line_column(text, position)))

    def error(message):
        return VQLSyntaxError(message, position,
                              *_line_column(text, position), source=text)

    while position < length:
        char = text[position]
        if char in " \t\r\n":
            position += 1
            continue
        if text.startswith("/*", position):
            end = text.find("*/", position + 2)
            if end < 0:
                raise error("unterminated comment")
            position = end + 2
            continue
        if text.startswith("--", position):
            end = text.find("\n", position)
            position = length if end < 0 else end
            continue
        if char == "→":
            make("OP", "->")
            position += 1
            continue
        if char in "'\"":
            end = position + 1
            while end < length and text[end] != char:
                end += 1
            if end >= length:
                raise error("unterminated string literal")
            make("STRING", text[position + 1:end])
            position = end + 1
            continue
        if digit(char):
            end = position
            seen_dot = False
            while end < length and (digit(text[end]) or
                                    (text[end] == "." and not seen_dot and
                                     end + 1 < length and digit(text[end + 1]))):
                if text[end] == ".":
                    seen_dot = True
                end += 1
            make("NUMBER", text[position:end])
            position = end
            continue
        if char.isalpha() or char == "_":
            end = position
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[position:end]
            upper = word.upper()
            if upper == "IS" and text[end:end + 1] == "-":
                rest_end = end + 1
                while rest_end < length and (text[rest_end].isalnum()
                                             or text[rest_end] == "_"):
                    rest_end += 1
                rest = text[end + 1:rest_end].upper()
                if rest in ("IN", "SUBSET"):
                    make("OP", f"IS-{rest}")
                    position = rest_end
                    continue
            make("KEYWORD" if upper in KEYWORDS else "IDENT",
                 upper if upper in KEYWORDS else word)
            position = end
            continue
        for op in ("==", "!=", "<=", ">=", "->"):
            if text.startswith(op, position):
                make("OP", op)
                position += len(op)
                break
        else:
            if char in "()[]{}.,:<>+-*/?=":
                make("OP", char)
                position += 1
                continue
            raise error(f"illegal character {char!r}")
    make("EOF", "")
    return tokens


def lexed(scan, text):
    """What *scan* makes of *text*: its tokens, or the error it raises."""
    try:
        return scan(text)
    except VQLSyntaxError as error:
        return ("error", error.args[0], error.position, error.line, error.column)


def new_scan(text):
    return [(t.kind, t.text, t.position, t.line, t.column)
            for t in tokenize(text)]


#: the characters the lexer treats specially, a non-ASCII digit of each
#: kind (``²`` is a digit but no decimal, ``٣`` a decimal), a letter and a
#: symbol outside ASCII, and the case-insensitive spellings of keywords
LEXER_ALPHABET = st.sampled_from(
    list("²٣é→'\"/*-\n?: \t\r.=<>!()[]{},+_§0123456789")
    + ["/*", "*/", "--", "IS", "is", "-IN", "-subset", "ACCESS", "ı", "ſ",
       "ß", "x", "p", "1.5", "'a\nb'", "/*\n*/"])


class TestLexerOracle:
    @settings(max_examples=400, deadline=None)
    @given(pieces=st.lists(st.one_of(LEXER_ALPHABET, st.text(max_size=3)),
                           max_size=14))
    @example(pieces=["ACCESS 'a\nb' ", "x", " §"])
    @example(pieces=["p /* a\n */ ", '"\n"', " -- c"])
    def test_master_regex_lexer_equals_the_character_loop(self, pieces):
        """Tokens (kind, text, position, line, column) or the error
        (message, position, line, column) equal the reference scanner's;
        with the old digit rule the reference differs only on texts that
        hold a non-ASCII digit."""
        text = "".join(pieces)
        assert lexed(new_scan, text) == lexed(reference_scan, text), text
        if not any(char.isdigit() and not char.isascii() for char in text):
            assert lexed(reference_scan, text) == \
                lexed(lambda t: reference_scan(t, str.isdigit), text)

    @settings(max_examples=200, deadline=None)
    @given(pieces=st.lists(LEXER_ALPHABET, max_size=14))
    def test_token_key_mirrors_the_tokens(self, pieces):
        text = "".join(pieces)
        try:
            tokens = tokenize(text)
        except VQLSyntaxError as error:
            with pytest.raises(VQLSyntaxError) as raised:
                token_key(text)
            assert (raised.value.args, raised.value.position) == \
                (error.args, error.position)
            return
        key, literals = token_key(text)
        assert len(key) == len(tokens) - 1
        for index, (element, token) in enumerate(zip(key, tokens)):
            if element in (int, float, str):
                assert token.kind == {int: "NUMBER", float: "NUMBER",
                                      str: "STRING"}[element]
                assert literals[index] == token.text
            else:
                assert index not in literals
                assert element.endswith(token.text)

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digits_are_illegal_characters(self, digit):
        text = f"ACCESS p FROM p IN Paragraph\nWHERE p.number == {digit}"
        with pytest.raises(VQLSyntaxError) as raised:
            parse_statement(text)
        error = raised.value
        assert error.args[0] == f"illegal character {digit!r}"
        assert (error.position, error.line, error.column) == \
            (len(text) - 1, 2, 19)
        with pytest.raises(VQLSyntaxError):
            parse_statement(text.replace(digit, "1" + digit))

    def test_end_of_input_after_a_line_comment_is_at_the_end_column(self):
        with pytest.raises(VQLSyntaxError) as raised:
            parse_statement("ACCESS p FROM  -- no range")
        assert (raised.value.line, raised.value.column) == (1, 27)
        assert tokenize("ACCESS x -- c")[-1].column == 14

    def test_a_newline_inside_a_string_literal_starts_a_line(self):
        with pytest.raises(VQLSyntaxError) as raised:
            tokenize("ACCESS 'a\nb' §")
        error = raised.value
        assert (error.line, error.column) == (2, 4)
        source_line, caret_line = str(error).splitlines()[-2:]
        assert source_line == "  b' §"
        assert caret_line.index("^") == source_line.index("§")


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


class TestExpressionTypes:
    """Static types of the rarer expression shapes, and the analysis errors
    that guard the query and statement entry points."""

    DOCUMENT = ObjectType("Document")

    @pytest.mark.parametrize("text,expected", [
        ("{}", SetType(ANY)),
        ("{1, 2}", SetType(INT)),
        ("{1, 'a'}", SetType(ANY)),
        ("'a' + 'b'", STRING),
        ("TRUE + 1", ANY),
        ("d.sections.title", SetType(STRING)),
        ("d.sections.paragraphs", SetType(ObjectType("Paragraph"))),
        ("d.sections.paragraphs->document()", SetType(DOCUMENT)),
        ("d->paragraphs()", SetType(ObjectType("Paragraph"))),
        ("x->anything()", ANY),
        ("x.anything", ANY),
    ])
    def test_inferred_type(self, doc_schema, text, expected):
        env = {"d": self.DOCUMENT, "x": ANY}
        assert infer_expression_type(parse_expression(text), env,
                                     doc_schema) == expected

    def test_unknown_expression_node_is_any(self, doc_schema):
        assert infer_expression_type(PatternVar("?a"), {}, doc_schema) == ANY

    @pytest.mark.parametrize("expression,message", [
        (ClassMethodCall("Ghost", "m", ()), "unknown class 'Ghost'"),
        (ClassMethodCall("Document", "nope", ()), "no class method 'nope'"),
        (ClassMethodCall("Document", "select_by_index", ()),
         r"Document.select_by_index expects 1 argument\(s\), got 0"),
        (ClassExtent("Ghost"), "unknown class 'Ghost'"),
    ])
    def test_class_level_errors(self, doc_schema, expression, message):
        with pytest.raises(VQLAnalysisError, match=message):
            infer_expression_type(expression, {}, doc_schema)

    @pytest.mark.parametrize("text,message", [
        ("ACCESS d FROM d IN Document WHERE d.title",
         "WHERE clause must be boolean"),
        ("ACCESS t FROM d IN Document, t IN d.title",
         "range source for 't' is not set-valued"),
        ("CREATE CLASS Memo ISA Ghost (text: STRING)",
         "unknown superclass 'Ghost'"),
        ("CREATE CLASS Memo (text: STRING, text: INT)",
         "declares property 'text' twice"),
    ])
    def test_statement_errors(self, doc_schema, text, message):
        with pytest.raises(VQLAnalysisError, match=message):
            analyze_statement(parse_statement(text), doc_schema)

    def test_unsupported_statement(self, doc_schema):
        with pytest.raises(VQLAnalysisError, match="unsupported statement"):
            analyze_statement(object(), doc_schema)

    @pytest.mark.parametrize("expected,actual,assignable", [
        (SetType(INT), SetType(INT), True),
        (SetType(INT), SetType(STRING), False),
        (ObjectType("Document"), ObjectType("Section"), True),
        (REAL, INT, True),
        (INT, REAL, False),
        (STRING, ANY, True),
    ])
    def test_assignability(self, expected, actual, assignable):
        assert _assignable(expected, actual) is assignable


class TestSyntaxErrorRendering:
    def test_without_a_position_or_a_source_only_the_message(self):
        assert str(VQLSyntaxError("bad")) == "bad"
        located = VQLSyntaxError("bad", line=1, column=3)
        assert located.snippet() is None
        assert str(located) == "bad (line 1, column 3)"

    def test_a_line_outside_the_source_has_no_snippet(self):
        error = VQLSyntaxError("bad", line=5, column=1, source="ACCESS p")
        assert error.snippet() is None
        assert str(error) == "bad (line 5, column 1)"

    def test_the_snippet_points_at_the_column(self):
        error = VQLSyntaxError("bad", line=2, column=3,
                               source="ACCESS p\nFROM ?")
        assert str(error) == "bad (line 2, column 3)\n  FROM ?\n    ^"
