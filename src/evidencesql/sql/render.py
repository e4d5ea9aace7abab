"""Canonical SQL rendering: uppercase keywords, single spaces, minimal
parentheses driven by operator precedence.

``parse(render(ast))`` returns a structurally equal AST for every valid
tree, and rendering an already-canonical query is a fixed point.
"""

from __future__ import annotations

from evidencesql.sql.ast import (
    LEFT_ASSOCIATIVE,
    PRECEDENCE,
    AggFn,
    Between,
    Binary,
    ColumnRef,
    Expr,
    InList,
    Literal,
    Projection,
    QueryAst,
    ScalarFn,
    Star,
    Unary,
)
from evidencesql.values import Value

_ATOM = 100


def render_literal(value: Value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _operand(child: Expr, prec: int, associates: bool = False) -> str:
    """``child`` rendered as an operand of an operator of precedence ``prec``,
    in parentheses when it binds looser, or as loosely on a side where the
    operator does not associate."""
    text, child_prec = _render(child)
    if child_prec < prec or (child_prec == prec and not associates):
        return f"({text})"
    return text


def _render(expr: Expr) -> tuple[str, int]:
    """Render ``expr``; returns (text, precedence of the topmost operator)."""
    if isinstance(expr, ColumnRef):
        return expr.name, _ATOM
    if isinstance(expr, Literal):
        return render_literal(expr.value), _ATOM
    if isinstance(expr, Unary):
        prec = PRECEDENCE["NOT" if expr.op == "NOT" else "NEG"]
        text = _operand(expr.operand, prec, associates=True)
        # '-(-3)', since '--3' would lex as a comment
        if expr.op == "-" and text.startswith("-"):
            text = f"({text})"
        return ("NOT " if expr.op == "NOT" else "-") + text, prec
    if isinstance(expr, Binary):
        prec = PRECEDENCE[expr.op]
        left = _operand(expr.left, prec, associates=expr.op in LEFT_ASSOCIATIVE)
        right = _operand(expr.right, prec)
        return f"{left} {expr.op} {right}", prec
    if isinstance(expr, InList):
        prec = PRECEDENCE["IN"]
        items = ", ".join(render_literal(item.value) for item in expr.items)
        return f"{_operand(expr.expr, prec)} IN ({items})", prec
    if isinstance(expr, Between):
        prec = PRECEDENCE["BETWEEN"]
        low = render_literal(expr.low.value)
        high = render_literal(expr.high.value)
        return f"{_operand(expr.expr, prec)} BETWEEN {low} AND {high}", prec
    if isinstance(expr, ScalarFn):
        args = ", ".join(_render(a)[0] for a in expr.args)
        return f"{expr.name}({args})", _ATOM
    if isinstance(expr, AggFn):
        if isinstance(expr.arg, Star):
            return f"{expr.name}(*)", _ATOM
        inner = _render(expr.arg)[0]
        if expr.distinct:
            inner = f"DISTINCT {inner}"
        return f"{expr.name}({inner})", _ATOM
    raise TypeError(f"cannot render {expr!r}")


def render_expr(expr: Expr) -> str:
    return _render(expr)[0]


def _render_projection(projection: Projection) -> str:
    if isinstance(projection.expr, Star):
        return "*"
    text = render_expr(projection.expr)
    if projection.alias is not None:
        text += f" AS {projection.alias}"
    return text


def render(ast: QueryAst) -> str:
    """Render a query AST to its canonical SQL text."""
    parts = [
        "SELECT " + ", ".join(_render_projection(p) for p in ast.projections),
        f"FROM {ast.from_table}",
    ]
    if ast.where is not None:
        parts.append("WHERE " + render_expr(ast.where))
    if ast.group_by:
        parts.append("GROUP BY " + ", ".join(render_expr(e) for e in ast.group_by))
    if ast.having is not None:
        parts.append("HAVING " + render_expr(ast.having))
    if ast.order_by:
        items = []
        for item in ast.order_by:
            text = render_expr(item.expr)
            if item.descending:
                text += " DESC"
            items.append(text)
        parts.append("ORDER BY " + ", ".join(items))
    if ast.limit is not None:
        parts.append(f"LIMIT {ast.limit}")
    return " ".join(parts)
