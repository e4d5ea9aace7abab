"""The hand-written tokenizer that ``evidencesql.sql.lexer`` replaced with
compiled patterns, kept as the reference the token-identity test compares
against. On ASCII text the two differ on purpose in one place: a number
beyond float range is ``inf`` or a huge ``int`` here and a
``SqlSyntaxError`` in the package."""

from __future__ import annotations

from evidencesql.errors import SqlSyntaxError
from evidencesql.sql.lexer import Token, TokenKind

_TWO_CHAR_OPS = {"!=": "!=", "<>": "!=", "<=": "<=", ">=": ">="}
_ONE_CHAR_OPS = set("+-*/=<>(),;")


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; the returned list always ends with an EOF token.

    Raises:
        SqlSyntaxError: on comment tokens, unterminated strings, malformed
            numbers, or characters outside the grammar.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i) or text.startswith("/*", i) or text.startswith("*/", i):
            raise SqlSyntaxError("comment syntax is not allowed", i, token=text[i:i + 2])
        if ch == "'":
            token, i = _read_string(text, i)
            tokens.append(token)
            continue
        if ch == '"':
            token, i = _read_double_quoted(text, i)
            tokens.append(token)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            token, i = _read_number(text, i)
            tokens.append(token)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            tokens.append(Token(TokenKind.IDENT, word, word, start))
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, two, _TWO_CHAR_OPS[two], i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, ch, ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i, token=ch)
    tokens.append(Token(TokenKind.EOF, "", None, n))
    return tokens


def _read_string(text: str, start: int) -> tuple[Token, int]:
    i = start + 1
    parts: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return Token(TokenKind.STRING, text[start:i + 1], "".join(parts), start), i + 1
        parts.append(ch)
        i += 1
    raise SqlSyntaxError("unterminated string literal", start, token=text[start:])


def _read_double_quoted(text: str, start: int) -> tuple[Token, int]:
    i = start + 1
    n = len(text)
    while i < n:
        if text[i] == '"':
            return Token(TokenKind.DQSTRING, text[start:i + 1], text[start + 1:i], start), i + 1
        i += 1
    raise SqlSyntaxError("unterminated double-quoted token", start, token=text[start:])


def _read_number(text: str, start: int) -> tuple[Token, int]:
    i = start
    n = len(text)
    while i < n and text[i].isdigit():
        i += 1
    is_real = False
    if i < n and text[i] == ".":
        is_real = True
        i += 1
        while i < n and text[i].isdigit():
            i += 1
    if i < n and text[i] in "eE":
        mark = i
        i += 1
        if i < n and text[i] in "+-":
            i += 1
        if i < n and text[i].isdigit():
            is_real = True
            while i < n and text[i].isdigit():
                i += 1
        else:
            i = mark  # 'e' belongs to a following identifier, not the number
    lexeme = text[start:i]
    value: object = float(lexeme) if is_real else int(lexeme)
    return Token(TokenKind.NUMBER, lexeme, value, start), i
