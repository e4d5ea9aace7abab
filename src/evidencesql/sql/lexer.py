"""Tokenizer for the SQL subset.

Comments are a hard error rather than skipped content: comment smuggling is a
known injection vector for model-generated SQL, so `--` and `/* */` never
survive past this layer.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

from evidencesql.errors import SqlSyntaxError


class TokenKind(enum.Enum):
    IDENT = "identifier"
    NUMBER = "number"
    STRING = "string"
    DQSTRING = "double-quoted string"
    OP = "operator"
    EOF = "end of input"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    value: object
    offset: int

    def upper(self) -> str:
        return self.text.upper()


# Words the grammar itself uses.
KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AND", "OR", "NOT", "IN", "BETWEEN", "AS", "ASC", "DESC", "DISTINCT",
    "NULL",
})

# Words we recognize as SQL but refuse to support; they are never candidates
# for fuzzy keyword repair.
UNSUPPORTED_KEYWORDS = frozenset({
    "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "ON", "USING",
    "UNION", "INTERSECT", "EXCEPT", "OFFSET", "LIKE", "IS", "CASE", "CAST",
    "EXISTS", "WITH", "OVER", "WINDOW", "INSERT", "UPDATE", "DELETE", "DROP",
    "ALTER", "CREATE", "ATTACH", "DETACH", "PRAGMA", "TRUNCATE", "REPLACE",
    "GRANT", "REVOKE", "VACUUM", "EXPLAIN", "SET", "INTO", "VALUES", "TABLE",
})

# The token syntax, defined once: the tokenizer scans with these patterns and
# the guard screens raw text with the string, double-quote and word ones.
# `(?!')` makes the closing quote of a string the first quote that is not the
# start of a doubled `''`, so an unterminated `'a''b` matches nothing.
STRING_RE = re.compile(r"'(?:[^']|'')*'(?!')")
DQUOTED_RE = re.compile(r'"[^"]*"')
NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
WORD_RE = re.compile(r"[^\W\d]\w*")
OP_RE = re.compile(r"!=|<>|<=|>=|[-+*/=<>(),;]")

_SCAN_RE = re.compile(r"\s*(?:(?P<comment>--|/\*|\*/)|" + "|".join(
    f"(?P<{kind.name}>{pattern.pattern})" for kind, pattern in (
        (TokenKind.STRING, STRING_RE),
        (TokenKind.DQSTRING, DQUOTED_RE),
        (TokenKind.NUMBER, NUMBER_RE),
        (TokenKind.IDENT, WORD_RE),
        (TokenKind.OP, OP_RE),
    )
) + ")?")
_UNTERMINATED = {"'": "unterminated string literal", '"': "unterminated double-quoted token"}


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; the returned list always ends with an EOF token.

    Raises:
        SqlSyntaxError: on comment tokens, unterminated strings, numbers
            beyond float range, or characters outside the grammar.
    """
    tokens: list[Token] = []
    i = 0
    while True:
        match = _SCAN_RE.match(text, i)
        kind, i = match.lastgroup, match.end()
        if kind is None:
            if i == len(text):
                break
            ch = text[i]
            if ch in _UNTERMINATED:
                raise SqlSyntaxError(_UNTERMINATED[ch], i, token=text[i:])
            raise SqlSyntaxError(f"unexpected character {ch!r}", i, token=ch)
        lexeme = match.group(kind)
        start = match.start(kind)
        if kind == "comment":
            raise SqlSyntaxError("comment syntax is not allowed", start, token=lexeme)
        tokens.append(Token(TokenKind[kind], lexeme, _value(kind, lexeme, start), start))
    tokens.append(Token(TokenKind.EOF, "", None, len(text)))
    return tokens


def _value(kind: str, lexeme: str, start: int) -> object:
    if kind == "STRING":
        return lexeme[1:-1].replace("''", "'")
    if kind == "DQSTRING":
        return lexeme[1:-1]
    if kind == "OP":
        return "!=" if lexeme == "<>" else lexeme
    if kind == "NUMBER":
        if math.isinf(float(lexeme)):
            raise SqlSyntaxError("numeric literal out of range", start, token=lexeme)
        # Leading zeros are stripped so int()'s digit-count limit cannot trip
        # on a literal whose value is small.
        return int(lexeme.lstrip("0") or "0") if lexeme.isdigit() else float(lexeme)
    return lexeme
