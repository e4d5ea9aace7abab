"""AST node types for the single-table SELECT subset.

Nodes are frozen dataclasses with tuple children so structural equality and
hashing come for free; the parser and the random query generators both build
trees out of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    name: str  # SQRT, ABS, ROUND
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Star:
    """The ``*`` marker, valid only in COUNT(*) and as a sole projection."""


@dataclass(frozen=True)
class AggFn(Expr):
    name: str  # COUNT, SUM, AVG, MIN, MAX, STDDEV
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


AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV")
SCALAR_FUNCTIONS = ("SQRT", "ABS", "ROUND")

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/")
LOGICAL_OPS = ("AND", "OR")


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
    return QueryAst(
        projections=ast.projections,
        from_table=ast.from_table,
        where=ast.where,
        group_by=ast.group_by,
        having=ast.having,
        order_by=rewritten,
        limit=ast.limit,
    )
