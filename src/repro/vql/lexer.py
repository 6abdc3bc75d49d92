"""Tokenizer for VQL query text.

The lexer recognises the subset of VQL exercised by the paper: keywords
(ACCESS, FROM, WHERE, IN, IS-IN, IS-SUBSET, AND, OR, NOT, TRUE, FALSE,
INTERSECTION, UNION, DIFFERENCE), identifiers, string and numeric literals
(numbers are ASCII digits only), the method-call arrow (``->`` or the
typographic ``→``), path dots, brackets,
the comparison/arithmetic operators, bind-parameter markers
(``?`` / ``?3`` positional, ``:name`` named — the ``:`` doubles as the tuple
constructor separator, the parser disambiguates by context), and the plain
``=`` used by ``UPDATE ... SET`` assignments.  The DDL/DML/utility
statement words (CREATE, INSERT, SET, ANALYZE, EXPLAIN, ...) are
deliberately *not* keywords — the statement parser matches them
case-insensitively from identifier tokens so they stay usable as ordinary
identifiers inside queries.

One compiled master regex does the scanning: each match is the skipped
whitespace and comments before one token plus the token itself, in a named
group.  Line and column are derived from a token's position only when
somebody asks for them (an error message), so a text that lexes cleanly
never pays for them.  :func:`token_key` builds, from the same matches, the
statement's *token key*: its token stream with every literal replaced by a
typed slot, under which the query service finds an earlier statement of
the same shape without parsing (:mod:`repro.service.cache`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import VQLSyntaxError

__all__ = ["Token", "tokenize", "token_key", "line_and_column", "KEYWORDS"]

KEYWORDS = {
    "ACCESS", "FROM", "WHERE", "IN", "AND", "OR", "NOT", "TRUE", "FALSE",
    "INTERSECTION", "UNION", "DIFFERENCE", "IS",
}

#: whitespace and comments (``/* ... */`` VML style, ``--`` to end of line)
#: before a token, then the token.  Alternatives are tried in order: an
#: unterminated comment or string lands in ``UNCLOSED``, any other
#: character no token starts with in ``ILLEGAL``.  ``REST`` looks past ``IS`` for the hyphenated
#: operators ``IS-IN`` / ``IS-SUBSET`` without consuming anything.
_MASTER = re.compile(r"""
    [ \t\r\n]* (?: (?: /\*.*?\*/ | --[^\n]* ) [ \t\r\n]* )*
    (?:
        (?P<WORD> [^\W\d]\w* ) (?: (?= - (?P<REST> \w* ) ) | )
      | (?P<STRING> '[^']*' | "[^"]*" )
      | (?P<UNCLOSED> /\* | ['"] )
      | (?P<OP> == | != | <= | >= | -> | [()\[\]{}.,:<>+\-*/?=] )
      | (?P<NUMBER> [0-9]+ (?:\.[0-9]+)? )
      | (?P<ARROW> → )
      | (?P<END> \Z )
      | (?P<ILLEGAL> . )
    )""", re.VERBOSE | re.DOTALL)

@dataclass(slots=True)
class Token:
    """One lexical token; ``line`` and ``column`` are derived from its
    position in ``source`` on demand."""

    kind: str          # KEYWORD, IDENT, STRING, NUMBER, OP, EOF
    text: str
    position: int
    source: str = field(default="", repr=False, compare=False)

    @property
    def line(self) -> int:
        return line_and_column(self.source, self.position)[0]

    @property
    def column(self) -> int:
        return line_and_column(self.source, self.position)[1]

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind == "OP" and self.text == op

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*, raising :class:`VQLSyntaxError` on illegal input."""
    tokens = [Token(kind, token_text, position, text)
              for kind, token_text, position in _lex(text)]
    tokens.append(Token("EOF", "", len(text), text))
    return tokens


def token_key(text: str) -> tuple[tuple, dict[int, str]]:
    """The token key of *text* and its literals.

    The key holds one element per token (EOF excluded): the token's text,
    except that a STRING or NUMBER literal becomes a slot — the type its
    value parses to, ``str``, ``int`` or ``float`` — and the literal's text
    goes into the returned ``token index -> text`` map.  The parser also
    reads which tokens touch: a ``?`` glued to an integer is a positional
    marker (``?2``), whose number stays in the key as text, and a ``:``
    glued to an identifier is a named one, whose identifier is keyed as
    ``:name``.  So two texts with one key parse to one tree, up to the
    values of their literals.  Raises :class:`VQLSyntaxError` exactly where
    :func:`tokenize` does.
    """
    key: list = []
    literals: dict[int, str] = {}
    previous = previous_position = None
    for index, (kind, token_text, position) in enumerate(_lex(text)):
        glued = previous_position == position - 1
        if kind == "NUMBER":
            if "." in token_text:
                element = float
            elif glued and previous == "?":
                element = token_text
            else:
                element = int
        elif kind == "STRING":
            element = str
        elif kind == "IDENT" and glued and previous == ":":
            element = ":" + token_text
        else:
            element = token_text
        if element is str or element is int or element is float:
            literals[index] = token_text
        key.append(element)
        previous = token_text if kind == "OP" else None
        previous_position = position
    return tuple(key), literals


def _lex(text: str) -> Iterator[tuple[str, str, int]]:
    """``(kind, text, position)`` of every token of *text* but EOF."""
    resume = 0  # the end of an IS-IN / IS-SUBSET operator already emitted
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        if kind == "WORD" or kind == "REST":
            position = match.start("WORD")
            if position < resume:
                continue
            word = match.group("WORD")
            first = word[0]
            if not (first.isalpha() or first == "_"):
                _fail(f"illegal character {first!r}", text, position)
            upper = word.upper()
            rest = match.group("REST")
            if upper == "IS" and rest is not None \
                    and rest.upper() in ("IN", "SUBSET"):
                resume = match.end() + 1 + len(rest)
                yield "OP", f"IS-{rest.upper()}", position
            elif upper in KEYWORDS:
                yield "KEYWORD", upper, position
            else:
                yield "IDENT", word, position
            continue
        position = match.start(kind)
        if position < resume:
            continue
        if kind == "OP" or kind == "NUMBER":
            yield kind, match.group(kind), position
        elif kind == "STRING":
            yield kind, match.group(kind)[1:-1], position
        elif kind == "ARROW":
            yield "OP", "->", position
        elif kind == "END":
            return
        elif kind == "UNCLOSED":
            _fail("unterminated comment" if match.group(kind) == "/*"
                  else "unterminated string literal", text, position)
        else:
            _fail(f"illegal character {match.group(kind)!r}", text, position)


def _fail(message: str, text: str, position: int):
    line, column = line_and_column(text, position)
    raise VQLSyntaxError(message, position, line, column, source=text)


def line_and_column(text: str, position: int) -> tuple[int, int]:
    """The 1-based line and column of *position* in *text*: one line per
    newline before it, wherever that newline sits (a string literal, a
    comment), and the column counted from the last of them."""
    return (text.count("\n", 0, position) + 1,
            position - text.rfind("\n", 0, position))
