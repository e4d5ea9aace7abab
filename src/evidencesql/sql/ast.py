"""AST node types for the single-table SELECT subset.

Nodes are frozen dataclasses with tuple children so structural equality and
hashing come for free; the parser and the random query generators both build
trees out of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Union

from evidencesql.values import Value


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str


@dataclass(frozen=True)
class Literal(Expr):
    value: Value


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # '-' or 'NOT'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # one of + - * / = != < <= > >= AND OR
    left: Expr
    right: Expr


@dataclass(frozen=True)
class InList(Expr):
    expr: Expr
    items: tuple[Literal, ...]


@dataclass(frozen=True)
class Between(Expr):
    expr: Expr
    low: Literal
    high: Literal


@dataclass(frozen=True)
class ScalarFn(Expr):
    name: str  # a key of SCALAR_FUNCTIONS
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Star:
    """The ``*`` marker, valid only in COUNT(*) and as a sole projection."""


@dataclass(frozen=True)
class AggFn(Expr):
    name: str  # one of AGGREGATE_FUNCTIONS
    arg: Union[Expr, Star]
    distinct: bool = False


@dataclass(frozen=True)
class Projection:
    expr: Union[Expr, Star]
    alias: str | None = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class QueryAst:
    projections: tuple[Projection, ...]
    from_table: str
    where: Expr | None = None
    group_by: tuple[Expr, ...] = field(default=())
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = field(default=())
    limit: int | None = None


# Operator precedence, loosest first; "NEG" is unary minus. The parser and the
# renderer both read this table, which is what makes parse(render(ast)) == ast.
PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "NOT": 3,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4, "IN": 4, "BETWEEN": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6,
    "NEG": 7,
}
# Binary operators whose left operand may be the same operator; the other
# infix operators (comparisons, IN, BETWEEN) never chain.
LEFT_ASSOCIATIVE = frozenset({"OR", "AND", "+", "-", "*", "/"})

AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV")
# Scalar functions by name, with the (fewest, most) arguments each takes.
SCALAR_FUNCTIONS = {"SQRT": (1, 1), "ABS": (1, 1), "ROUND": (1, 2)}


def children(expr: Expr) -> tuple[Expr, ...]:
    """Direct sub-expressions of a node (aggregate Star args excluded)."""
    if isinstance(expr, Unary):
        return (expr.operand,)
    if isinstance(expr, Binary):
        return (expr.left, expr.right)
    if isinstance(expr, InList):
        return (expr.expr, *expr.items)
    if isinstance(expr, Between):
        return (expr.expr, expr.low, expr.high)
    if isinstance(expr, ScalarFn):
        return expr.args
    if isinstance(expr, AggFn):
        return (expr.arg,) if isinstance(expr.arg, Expr) else ()
    return ()


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every descendant, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def contains_aggregate(expr: Expr) -> bool:
    return any(isinstance(node, AggFn) for node in walk(expr))


def is_grouped(ast: QueryAst) -> bool:
    """Whether the query evaluates per group: it has GROUP BY or a projection
    containing an aggregate (one implicit group). The guard and the executor
    both decide grouping here."""
    return bool(ast.group_by) or any(
        isinstance(p.expr, Expr) and contains_aggregate(p.expr) for p in ast.projections
    )


def resolve_order_aliases(ast: QueryAst) -> QueryAst:
    """Rewrite ORDER BY items that are bare references to projection aliases
    into the aliased expression (output names take precedence over columns,
    as in common SQL engines). Only whole-item references resolve; aliases
    nested inside larger sort expressions do not."""
    aliases = {
        p.alias: p.expr for p in ast.projections
        if p.alias is not None and isinstance(p.expr, Expr)
    }
    if not aliases or not ast.order_by:
        return ast
    rewritten = tuple(
        OrderItem(aliases[item.expr.name], item.descending)
        if isinstance(item.expr, ColumnRef) and item.expr.name in aliases
        else item
        for item in ast.order_by
    )
    if rewritten == ast.order_by:
        return ast
    return replace(ast, order_by=rewritten)
