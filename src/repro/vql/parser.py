"""Recursive-descent parser for VQL.

Produces the raw AST; class-name resolution (distinguishing range variables
from class objects) is left to the analyzer because it requires the schema.

Besides full ``ACCESS ... FROM ... WHERE ...`` queries the module also parses
standalone expressions (``parse_expression``), which is how schema designers
write down the semantic knowledge of Section 4.2
(e.g. ``"p->document()" ≡ "p.section.document"``).
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.expressions import (
    BinaryOp,
    Const,
    Expression,
    MethodCall,
    Parameter,
    PropertyAccess,
    SetConstructor,
    TupleConstructor,
    UnaryOp,
    Var,
)
from repro.errors import VQLSyntaxError
from repro.vql.ast import (
    DEFAULT_DML_ALIAS,
    AnalyzeStatement,
    BeginStatement,
    CommitStatement,
    CreateClassStatement,
    CreateIndexStatement,
    DeleteStatement,
    DropIndexStatement,
    ExplainStatement,
    InsertStatement,
    PropertySpec,
    Query,
    RangeDeclaration,
    RollbackStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.vql.lexer import Token, line_and_column, tokenize

__all__ = ["parse_query", "parse_expression", "parse_statement", "Parser"]

#: set-valued binary operators allowed in expressions (plan-level operators)
_SET_OPS = {"INTERSECTION": "INTERSECT", "UNION": "UNION", "DIFFERENCE": "DIFF"}

#: soft keywords introducing DDL/DML/utility statements.  They are
#: deliberately NOT lexer keywords: adding them there would steal ordinary
#: identifiers (``update``, ``set``, ``analyze``, ...) from existing
#: queries, so the statement parser recognises them case-insensitively from
#: IDENT tokens instead.
_STATEMENT_WORDS = ("CREATE", "DROP", "INSERT", "UPDATE", "DELETE",
                    "ANALYZE", "EXPLAIN", "BEGIN", "COMMIT", "ROLLBACK")


def parse_query(text: str) -> Query:
    """Parse a complete VQL query."""
    parser = Parser(text)
    query = parser.parse_query()
    parser.expect_eof()
    return query


def parse_statement(text: str) -> Statement:
    """Parse one VQL statement: a query or a DDL/DML statement."""
    parser = Parser(text)
    statement = parser.parse_statement()
    parser.expect_eof()
    return statement


def parse_expression(text: str) -> Expression:
    """Parse a standalone VQL expression (used for semantic knowledge)."""
    parser = Parser(text)
    expr = parser.parse_expression()
    parser.expect_eof()
    return expr


class Parser:
    """Hand-written recursive-descent parser over the token stream."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        # Highest positional bind-parameter number seen so far; a plain ``?``
        # takes the next free position (SQLite's ?NNN numbering discipline).
        self._max_parameter = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self.index += 1
        return token

    def check_keyword(self, word: str) -> bool:
        return self.current.is_keyword(word)

    def accept_keyword(self, word: str) -> bool:
        if self.check_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        if not self.check_keyword(word):
            raise self._error(f"expected keyword {word}")
        return self.advance()

    def accept_op(self, op: str) -> bool:
        if self.current.is_op(op):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> Token:
        if not self.current.is_op(op):
            raise self._error(f"expected {op!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind != "IDENT":
            raise self._error("expected identifier")
        return self.advance()

    def expect_eof(self) -> None:
        if self.current.kind != "EOF":
            raise self._error("unexpected trailing input")

    # -- soft keywords (IDENT tokens matched case-insensitively) --------
    def check_word(self, word: str) -> bool:
        token = self.current
        return token.kind in ("IDENT", "KEYWORD") and token.text.upper() == word

    def accept_word(self, word: str) -> bool:
        if self.check_word(word):
            self.advance()
            return True
        return False

    def expect_word(self, word: str) -> Token:
        if not self.check_word(word):
            raise self._error(f"expected {word}")
        return self.advance()

    def _error(self, message: str) -> VQLSyntaxError:
        token = self.current
        found = token.text or "<end of input>"
        line, column = line_and_column(self.text, token.position)
        return VQLSyntaxError(f"{message}, found {found!r}",
                              token.position, line, column, source=self.text)

    # ------------------------------------------------------------------
    # grammar: query
    # ------------------------------------------------------------------
    def parse_query(self) -> Query:
        self.expect_keyword("ACCESS")
        access = self.parse_expression()
        self.expect_keyword("FROM")
        ranges = [self._parse_range()]
        while self.accept_op(","):
            ranges.append(self._parse_range())
        where: Optional[Expression] = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return Query(access=access, ranges=tuple(ranges), where=where)

    def _parse_range(self) -> RangeDeclaration:
        variable = self.expect_ident().text
        self.expect_keyword("IN")
        source = self.parse_expression()
        return RangeDeclaration(variable=variable, source=source)

    # ------------------------------------------------------------------
    # grammar: statements (DDL / DML / query)
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        token = self.current
        if token.is_keyword("ACCESS"):
            return SelectStatement(self.parse_query())
        if token.kind == "IDENT":
            word = token.text.upper()
            if word == "CREATE":
                return self._parse_create()
            if word == "DROP":
                return self._parse_drop()
            if word == "INSERT":
                return self._parse_insert()
            if word == "UPDATE":
                return self._parse_update()
            if word == "DELETE":
                return self._parse_delete()
            if word == "ANALYZE":
                return self._parse_analyze()
            if word == "EXPLAIN":
                return self._parse_explain()
            if word == "BEGIN":
                return self._parse_transaction_word("BEGIN", BeginStatement)
            if word == "COMMIT":
                return self._parse_transaction_word("COMMIT", CommitStatement)
            if word == "ROLLBACK":
                return self._parse_transaction_word("ROLLBACK",
                                                    RollbackStatement)
        raise self._error(
            "expected a statement (ACCESS, CREATE, DROP, INSERT, UPDATE, "
            "DELETE, ANALYZE, EXPLAIN, BEGIN, COMMIT or ROLLBACK)")

    def _parse_create(self) -> Statement:
        self.expect_word("CREATE")
        if self.check_word("CLASS"):
            return self._parse_create_class()
        kind = "hash"
        for candidate in ("HASH", "SORTED", "TEXT"):
            if self.accept_word(candidate):
                kind = candidate.lower()
                break
        self.expect_word("INDEX")
        class_name, prop = self._parse_index_target()
        return CreateIndexStatement(kind=kind, class_name=class_name, prop=prop)

    def _parse_create_class(self) -> CreateClassStatement:
        self.expect_word("CLASS")
        name = self.expect_ident().text
        superclass: Optional[str] = None
        if self.accept_word("ISA"):
            superclass = self.expect_ident().text
        properties: list[PropertySpec] = []
        if self.accept_op("("):
            if not self.current.is_op(")"):
                properties.append(self._parse_property_spec())
                while self.accept_op(","):
                    properties.append(self._parse_property_spec())
            self.expect_op(")")
        return CreateClassStatement(class_name=name, superclass=superclass,
                                    properties=tuple(properties))

    def _parse_property_spec(self) -> PropertySpec:
        name = self.expect_ident().text
        self.expect_op(":")
        if self.accept_op("{"):
            type_name = self.expect_ident().text
            self.expect_op("}")
            return PropertySpec(name=name, type_name=type_name, is_set=True)
        return PropertySpec(name=name, type_name=self.expect_ident().text)

    def _parse_drop(self) -> DropIndexStatement:
        self.expect_word("DROP")
        kind = "text" if self.accept_word("TEXT") else "index"
        self.expect_word("INDEX")
        class_name, prop = self._parse_index_target()
        return DropIndexStatement(kind=kind, class_name=class_name, prop=prop)

    def _parse_index_target(self) -> tuple[str, str]:
        self.expect_word("ON")
        class_name = self.expect_ident().text
        self.expect_op("(")
        prop = self.expect_ident().text
        self.expect_op(")")
        return class_name, prop

    def _parse_insert(self) -> InsertStatement:
        self.expect_word("INSERT")
        self.expect_word("INTO")
        class_name = self.expect_ident().text
        self.expect_op("(")
        names = [self.expect_ident().text]
        while self.accept_op(","):
            names.append(self.expect_ident().text)
        self.expect_op(")")
        self.expect_word("VALUES")
        self.expect_op("(")
        values = [self.parse_expression()]
        while self.accept_op(","):
            values.append(self.parse_expression())
        self.expect_op(")")
        if len(names) != len(values):
            raise self._error(
                f"INSERT lists {len(names)} propert"
                f"{'y' if len(names) == 1 else 'ies'} but "
                f"{len(values)} value(s)")
        return InsertStatement(class_name=class_name,
                               assignments=tuple(zip(names, values)))

    def _parse_update(self) -> UpdateStatement:
        self.expect_word("UPDATE")
        class_name = self.expect_ident().text
        alias = DEFAULT_DML_ALIAS
        if self.current.kind == "IDENT" and not self.check_word("SET"):
            alias = self.advance().text
        self.expect_word("SET")
        assignments = [self._parse_assignment()]
        while self.accept_op(","):
            assignments.append(self._parse_assignment())
        where: Optional[Expression] = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return UpdateStatement(class_name=class_name, alias=alias,
                               assignments=tuple(assignments), where=where)

    def _parse_assignment(self) -> tuple[str, Expression]:
        prop = self.expect_ident().text
        self.expect_op("=")
        return prop, self.parse_expression()

    def _parse_delete(self) -> DeleteStatement:
        self.expect_word("DELETE")
        self.expect_keyword("FROM")
        class_name = self.expect_ident().text
        alias = DEFAULT_DML_ALIAS
        if self.current.kind == "IDENT":
            alias = self.advance().text
        where: Optional[Expression] = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return DeleteStatement(class_name=class_name, alias=alias, where=where)

    def _parse_analyze(self) -> AnalyzeStatement:
        self.expect_word("ANALYZE")
        class_name: Optional[str] = None
        if self.current.kind == "IDENT":
            class_name = self.advance().text
        return AnalyzeStatement(class_name=class_name)

    def _parse_transaction_word(self, word: str, node_type) -> Statement:
        self.expect_word(word)
        # SQL's optional noise words: ``BEGIN TRANSACTION`` / ``COMMIT WORK``.
        if not self.accept_word("TRANSACTION"):
            self.accept_word("WORK")
        return node_type()

    def _parse_explain(self) -> ExplainStatement:
        self.expect_word("EXPLAIN")
        analyze = False
        # ``EXPLAIN ANALYZE <stmt>`` vs ``EXPLAIN ANALYZE [Class]``: the word
        # after ANALYZE decides — a statement opener means the ANALYZE was
        # the profiling modifier, anything else makes it the target.
        if self.check_word("ANALYZE"):
            follower = self.tokens[self.index + 1]
            opens_statement = follower.is_keyword("ACCESS") or (
                follower.kind == "IDENT"
                and follower.text.upper() in _STATEMENT_WORDS)
            if opens_statement or follower.kind == "EOF":
                if follower.kind == "EOF":
                    # ``EXPLAIN ANALYZE`` alone explains the ANALYZE statement
                    self.advance()
                    return ExplainStatement(target=AnalyzeStatement())
                self.advance()
                analyze = True
        target = self.parse_statement()
        if isinstance(target, ExplainStatement):
            raise self._error("EXPLAIN cannot be nested")
        return ExplainStatement(target=target, analyze=analyze)

    # ------------------------------------------------------------------
    # grammar: expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.check_keyword("OR"):
            self.advance()
            right = self._parse_and()
            left = BinaryOp("OR", left, right)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.check_keyword("AND"):
            self.advance()
            right = self._parse_not()
            left = BinaryOp("AND", left, right)
        return left

    def _parse_not(self) -> Expression:
        if self.check_keyword("NOT"):
            self.advance()
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_set_op()
        for op in ("==", "!=", "<=", ">=", "<", ">", "IS-IN", "IS-SUBSET"):
            if self.current.is_op(op):
                self.advance()
                right = self._parse_set_op()
                return BinaryOp(op, left, right)
        return left

    def _parse_set_op(self) -> Expression:
        left = self._parse_additive()
        while self.current.kind == "KEYWORD" and self.current.text in _SET_OPS:
            op = _SET_OPS[self.advance().text]
            right = self._parse_additive()
            left = BinaryOp(op, left, right)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self.current.is_op("+") or self.current.is_op("-"):
            op = self.advance().text
            right = self._parse_multiplicative()
            left = BinaryOp(op, left, right)
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self.current.is_op("*") or self.current.is_op("/"):
            op = self.advance().text
            right = self._parse_unary()
            left = BinaryOp(op, left, right)
        return left

    def _parse_unary(self) -> Expression:
        if self.current.is_op("-"):
            self.advance()
            operand = self._parse_unary()
            # Fold negative numeric literals so that "-1" is the constant -1
            # (keeps printing/parsing round-trips structural); the minus
            # joins the literal's token record as its sign.
            if isinstance(operand, Const) and isinstance(operand.value, (int, float)) \
                    and not isinstance(operand.value, bool):
                token = operand.token
                return Const(-operand.value, token=None if token is None
                             else (token[0], -token[1]))
            return UnaryOp("-", operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expression:
        expr = self._parse_primary()
        while True:
            if self.current.is_op("."):
                self.advance()
                prop = self.expect_ident().text
                expr = PropertyAccess(expr, prop)
            elif self.current.is_op("->"):
                self.advance()
                method = self.expect_ident().text
                self.expect_op("(")
                args: list[Expression] = []
                if not self.current.is_op(")"):
                    args.append(self.parse_expression())
                    while self.accept_op(","):
                        args.append(self.parse_expression())
                self.expect_op(")")
                expr = MethodCall(expr, method, tuple(args))
            else:
                return expr

    def _parse_primary(self) -> Expression:
        token = self.current
        if token.kind == "STRING":
            self.advance()
            return Const(token.text, token=(self.index - 1, 1))
        if token.kind == "NUMBER":
            self.advance()
            if "." in token.text:
                return Const(float(token.text), token=(self.index - 1, 1))
            return Const(int(token.text), token=(self.index - 1, 1))
        if token.is_keyword("TRUE"):
            self.advance()
            return Const(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Const(False)
        if token.kind == "IDENT":
            self.advance()
            return Var(token.text)
        if token.is_op("?"):
            return self._parse_positional_parameter()
        if token.is_op(":"):
            return self._parse_named_parameter()
        if token.is_op("("):
            self.advance()
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        if token.is_op("["):
            return self._parse_tuple_constructor()
        if token.is_op("{"):
            return self._parse_set_constructor()
        raise self._error("expected expression")

    def _parse_positional_parameter(self) -> Expression:
        marker = self.advance()  # the '?'
        follower = self.current
        # ``?3`` — the number must be glued to the marker, so that ``x == ?``
        # followed by unrelated input still reports a sensible error.
        if (follower.kind == "NUMBER" and follower.position == marker.position + 1
                and "." not in follower.text):
            self.advance()
            position = int(follower.text)
            if position <= 0:
                raise self._error("parameter positions start at 1")
            self._max_parameter = max(self._max_parameter, position)
            return Parameter(str(position))
        self._max_parameter += 1
        return Parameter(str(self._max_parameter))

    def _parse_named_parameter(self) -> Expression:
        marker = self.advance()  # the ':'
        follower = self.current
        if follower.kind != "IDENT" or follower.position != marker.position + 1:
            raise self._error("expected a parameter name after ':'")
        self.advance()
        return Parameter(follower.text)

    def _parse_tuple_constructor(self) -> Expression:
        self.expect_op("[")
        fields: list[tuple[str, Expression]] = []
        if not self.current.is_op("]"):
            fields.append(self._parse_tuple_field())
            while self.accept_op(","):
                fields.append(self._parse_tuple_field())
        self.expect_op("]")
        return TupleConstructor(tuple(fields))

    def _parse_tuple_field(self) -> tuple[str, Expression]:
        name = self.expect_ident().text
        self.expect_op(":")
        return name, self.parse_expression()

    def _parse_set_constructor(self) -> Expression:
        self.expect_op("{")
        elements: list[Expression] = []
        if not self.current.is_op("}"):
            elements.append(self.parse_expression())
            while self.accept_op(","):
                elements.append(self.parse_expression())
        self.expect_op("}")
        return SetConstructor(tuple(elements))
