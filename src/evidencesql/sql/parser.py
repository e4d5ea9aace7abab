"""Recursive-descent parser producing ``QueryAst`` trees.

Accepts exactly one SELECT statement. DDL/DML heads and recognizable SQL
outside the subset (joins, subqueries, set operations, ...) raise
``UnsupportedFeature`` naming the construct; everything else that fails the
grammar raises ``SqlSyntaxError`` with the offset of the first offending
token and the set of tokens that would have been legal there.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from evidencesql.errors import SqlSyntaxError, UnsupportedFeature
from evidencesql.sql.ast import (
    AGGREGATE_FUNCTIONS,
    LEFT_ASSOCIATIVE,
    PRECEDENCE,
    SCALAR_FUNCTIONS,
    AggFn,
    Between,
    Binary,
    ColumnRef,
    Expr,
    InList,
    Literal,
    OrderItem,
    Projection,
    QueryAst,
    Star,
    Unary,
    ScalarFn,
    contains_aggregate,
)
from evidencesql.sql.lexer import KEYWORDS, UNSUPPORTED_KEYWORDS, Token, TokenKind, tokenize

_OPERATOR_WORDS = KEYWORDS & PRECEDENCE.keys()
_NOT = PRECEDENCE["NOT"]
_NEG = PRECEDENCE["NEG"]
# Deepest expression the guard accepts: parentheses, prefixes and chained
# operators each count one level, so every later tree walk stays far from
# the interpreter's recursion limit.
MAX_EXPR_DEPTH = 64
_Item = TypeVar("_Item")


def parse(text: str) -> QueryAst:
    """Parse ``text`` into a query AST.

    Raises:
        SqlSyntaxError: text does not match the grammar (position and
            expected-token set attached).
        UnsupportedFeature: recognized SQL outside the subset, named.
    """
    return _Parser(tokenize(text)).parse_statement()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.in_aggregate = False
        self.no_aggregates_reason: str | None = None
        self.depth = 0

    # -- token plumbing ---------------------------------------------------

    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        """Whether the current token is the operator ``text`` or the word
        ``text`` in any case; no operator is a word."""
        tok = self.current()
        if tok.kind is TokenKind.OP:
            return tok.value == text
        return tok.kind is TokenKind.IDENT and tok.upper() == text

    def accept(self, text: str) -> Token | None:
        return self.advance() if self.at(text) else None

    def expect(self, text: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            self.fail(f"expected {text if text.isalpha() else repr(text)}", {text})
        return tok

    def parse_list(self, parse_item: Callable[[], _Item]) -> list[_Item]:
        """One item, then one more after each ','."""
        items = [parse_item()]
        while self.accept(","):
            items.append(parse_item())
        return items

    def fail(self, message: str, expected: set[str]) -> None:
        tok = self.current()
        self.reject_unsupported(tok)
        if tok.kind is TokenKind.DQSTRING:
            raise SqlSyntaxError(
                "string literals use single quotes", tok.offset,
                frozenset({"string literal"}), tok.text,
            )
        raise SqlSyntaxError(message, tok.offset, frozenset(expected), tok.text)

    def reject_unsupported(self, tok: Token) -> None:
        if tok.kind is TokenKind.IDENT and tok.upper() in UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(tok.upper(), tok.offset)

    def expect_identifier(self, what: str) -> Token:
        tok = self.current()
        if tok.kind is TokenKind.IDENT and tok.upper() not in KEYWORDS:
            self.reject_unsupported(tok)
            return self.advance()
        self.fail(f"expected {what}", {"identifier"})

    # -- statement ---------------------------------------------------------

    def parse_statement(self) -> QueryAst:
        head = self.current()
        if not self.accept("SELECT"):
            self.reject_unsupported(head)
            raise SqlSyntaxError(
                "expected SELECT", head.offset, frozenset({"SELECT"}), head.text,
            )

        projections = self.parse_projections()
        self.expect("FROM")
        if self.at("("):
            raise UnsupportedFeature("subquery", self.current().offset)
        from_table = self.expect_identifier("table name").text

        where = None
        if self.accept("WHERE"):
            self.no_aggregates_reason = "WHERE clause"
            where = self.parse_expr()
            self.no_aggregates_reason = None

        group_by: tuple[Expr, ...] = ()
        if self.accept("GROUP"):
            self.expect("BY")
            self.no_aggregates_reason = "GROUP BY clause"
            group_by = tuple(self.parse_list(self.parse_expr))
            self.no_aggregates_reason = None

        having = None
        having_tok = self.accept("HAVING")
        if having_tok:
            having = self.parse_expr()

        order_by: tuple[OrderItem, ...] = ()
        if self.accept("ORDER"):
            self.expect("BY")
            order_by = tuple(self.parse_list(self.parse_order_item))

        limit = None
        if self.accept("LIMIT"):
            tok = self.current()
            if tok.kind is not TokenKind.NUMBER or not isinstance(tok.value, int):
                self.fail("expected nonnegative integer after LIMIT", {"integer"})
            limit = tok.value
            self.advance()

        tail = self.current()
        if tail.kind is not TokenKind.EOF:
            if self.at(";"):
                raise SqlSyntaxError(
                    "statement separator: only a single statement is allowed",
                    tail.offset, frozenset({"end of input"}), tail.text,
                )
            self.fail("unexpected trailing input", {"end of input"})

        star = any(isinstance(p.expr, Star) for p in projections)
        if having is not None and not group_by:
            all_aggregated = all(
                isinstance(p.expr, Expr) and contains_aggregate(p.expr) for p in projections
            )
            if not all_aggregated:
                raise SqlSyntaxError(
                    "HAVING requires GROUP BY or fully aggregated projections",
                    having_tok.offset, frozenset(), "HAVING",
                )
        if star and group_by:
            raise SqlSyntaxError(
                "SELECT * cannot be combined with GROUP BY", head.offset,
                frozenset(), "*",
            )
        return QueryAst(
            projections=projections,
            from_table=from_table,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
        )

    def parse_projections(self) -> tuple[Projection, ...]:
        star_tok = self.accept("*")
        if star_tok:
            if self.accept(","):
                raise SqlSyntaxError(
                    "* must be the only projection", star_tok.offset,
                    frozenset({"FROM"}), "*",
                )
            return (Projection(Star(), None),)
        return tuple(self.parse_list(self.parse_projection))

    def parse_projection(self) -> Projection:
        expr = self.parse_expr()
        alias = None
        if self.accept("AS"):
            alias = self.expect_identifier("alias").text
        return Projection(expr, alias)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        if self.accept("DESC"):
            return OrderItem(expr, True)
        self.accept("ASC")
        return OrderItem(expr, False)

    # -- expressions ---------------------------------------------------------

    def nest(self) -> None:
        """Count one more level of expression nesting at the current token."""
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            tok = self.current()
            raise SqlSyntaxError("expression nested too deeply", tok.offset, frozenset(), tok.text)

    def infix_operator(self) -> str | None:
        """The ``PRECEDENCE`` key of the current token if it is an operator
        or one of the operator words; no identifier can match a key."""
        tok = self.current()
        if tok.kind is TokenKind.OP:
            return tok.value
        if tok.kind is TokenKind.IDENT and tok.upper() in _OPERATOR_WORDS:
            return tok.upper()
        return None

    def parse_expr(self, floor: int = 0) -> Expr:
        """Parse an expression whose operators all bind tighter than
        ``floor``, a ``PRECEDENCE`` level (0 admits every operator).

        NOT and unary minus are prefixes whose operand may repeat them. After
        an operator only a looser one may follow, or the same left-associative
        one, so comparisons, IN and BETWEEN never chain.
        """
        outer = self.depth
        self.nest()
        if floor < _NOT and self.accept("NOT"):
            left: Expr = Unary("NOT", self.parse_expr(_NOT - 1))
            ceiling = _NOT - 1
        elif self.accept("-"):
            operand = self.parse_expr(_NEG - 1)
            # Fold minus into numeric literals so '-3' round-trips as one node.
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                left = Literal(-operand.value)
            else:
                left = Unary("-", operand)
            ceiling = _NEG - 1
        else:
            left = self.parse_primary()
            ceiling = _NEG  # a primary binds tighter than any infix operator
        while True:
            op = self.infix_operator()
            # 'x NOT IN (...)' / 'x NOT BETWEEN a AND b' sugar.
            negated = op == "NOT"
            prec = PRECEDENCE["IN"] if negated else PRECEDENCE.get(op, 0)
            if not floor < prec <= ceiling:
                self.depth = outer
                return left
            self.nest()
            if negated:
                # a token follows NOT: the token list always ends with EOF
                op = self.tokens[self.pos + 1].upper()
                if op not in ("IN", "BETWEEN"):
                    self.fail("expected IN or BETWEEN after NOT", {"IN", "BETWEEN"})
                self.advance()
            self.advance()
            if op == "IN":
                left = self.parse_in_tail(left)
            elif op == "BETWEEN":
                left = self.parse_between_tail(left)
            else:
                left = Binary(op, left, self.parse_expr(prec))
            if negated:
                left = Unary("NOT", left)
            ceiling = prec if op in LEFT_ASSOCIATIVE else prec - 1

    def parse_between_tail(self, operand: Expr) -> Between:
        low = self.parse_literal("lower bound")
        self.expect("AND")
        high = self.parse_literal("upper bound")
        return Between(operand, low, high)

    def parse_in_tail(self, operand: Expr) -> InList:
        self.expect("(")
        items = self.parse_list(lambda: self.parse_literal("list item"))
        self.expect(")")
        return InList(operand, tuple(items))

    def accept_literal(self) -> Literal | None:
        tok = self.current()
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING):
            self.advance()
            return Literal(tok.value)
        if self.accept("NULL"):
            return Literal(None)
        return None

    def parse_literal(self, what: str) -> Literal:
        if self.accept("-"):
            tok = self.current()
            if tok.kind is not TokenKind.NUMBER:
                self.fail(f"expected number for {what}", {"number"})
            self.advance()
            return Literal(-tok.value)
        literal = self.accept_literal()
        if literal is None:
            self.fail(f"expected literal for {what}", {"number", "string", "NULL"})
        return literal

    def parse_primary(self) -> Expr:
        literal = self.accept_literal()
        if literal is not None:
            return literal
        tok = self.current()
        if self.accept("("):
            if self.at("SELECT"):
                raise UnsupportedFeature("subquery", self.current().offset)
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind is TokenKind.IDENT and tok.upper() not in KEYWORDS:
            self.reject_unsupported(tok)
            self.advance()
            if self.at("("):
                return self.parse_function_call(tok)
            return ColumnRef(tok.text)
        self.fail("expected expression", {"number", "string", "NULL", "identifier", "("})

    def parse_function_call(self, name_tok: Token) -> Expr:
        name = name_tok.upper()
        open_tok = self.expect("(")
        if name in AGGREGATE_FUNCTIONS:
            if self.in_aggregate or self.no_aggregates_reason is not None:
                reason = (
                    "aggregate functions cannot be nested"
                    if self.in_aggregate
                    else f"aggregate function not allowed in {self.no_aggregates_reason}"
                )
                raise SqlSyntaxError(reason, name_tok.offset, frozenset(), name_tok.text)
            distinct = bool(self.accept("DISTINCT"))
            star_tok = self.accept("*")
            if star_tok:
                if name != "COUNT":
                    raise SqlSyntaxError(
                        "* argument is only valid in COUNT", star_tok.offset,
                        frozenset({"expression"}), "*",
                    )
                if distinct:
                    raise SqlSyntaxError(
                        "COUNT(DISTINCT *) is not valid", star_tok.offset,
                        frozenset({"expression"}), "*",
                    )
                self.expect(")")
                return AggFn("COUNT", Star(), False)
            self.in_aggregate = True
            try:
                arg = self.parse_expr()
            finally:
                self.in_aggregate = False
            self.expect(")")
            return AggFn(name, arg, distinct)
        if name in SCALAR_FUNCTIONS:
            args = self.parse_list(self.parse_expr)
            self.expect(")")
            lo, hi = SCALAR_FUNCTIONS[name]
            if not lo <= len(args) <= hi:
                wanted = str(lo) if lo == hi else f"{lo} or {hi}"
                raise SqlSyntaxError(
                    f"{name} expects {wanted} argument(s), got {len(args)}",
                    open_tok.offset, frozenset(), name_tok.text,
                )
            return ScalarFn(name, tuple(args))
        raise UnsupportedFeature(f"function {name}", name_tok.offset)
