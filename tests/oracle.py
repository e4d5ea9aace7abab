"""Brute-force reference evaluator for differential testing.

Implements the engine's documented semantics from scratch: rows as dicts,
nested-loop grouping, aggregates computed from their definitions with
math.fsum, an explicit decorate-sort-undecorate ordering with nulls last.
It shares the AST node types with the engine (parsing is covered by its own
round-trip tests) but none of the evaluation code.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from evidencesql.sql.ast import (
    AggFn,
    Between,
    Binary,
    ColumnRef,
    InList,
    Literal,
    QueryAst,
    ScalarFn,
    Star,
    Unary,
)


class OracleDomainError(Exception):
    """Square root of negative ``value``. ``row_index`` is the row the
    engine reports: the row being evaluated, or None where SQRT is
    evaluated per group (outside any aggregate's argument). ``clause``
    names the part of the query that met it (``where``, ``group_by``,
    ``having``, ``projection`` or ``order_by``), and ``in_aggregate`` tells
    whether it lay in an aggregate's argument."""

    def __init__(self, value, row_index):
        super().__init__(str(value))
        self.value, self.row_index = value, row_index
        self.clause, self.in_aggregate = None, False


class _Row(dict):
    """A row dict that knows its index in the table."""

    def __init__(self, values: dict, index: int):
        super().__init__(values)
        self.index = index


@contextmanager
def _clause(name: str):
    """Name the clause of a domain error raised inside."""
    try:
        yield
    except OracleDomainError as exc:
        exc.clause = name
        raise


def _scalar(expr, row):
    """Three-valued scalar evaluation over one row dict."""
    if isinstance(expr, ColumnRef):
        return row[expr.name]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Unary):
        v = _scalar(expr.operand, row)
        if expr.op == "NOT":
            return None if v is None else (not v)
        return None if v is None else -v
    if isinstance(expr, Binary):
        return _binary(expr, row)
    if isinstance(expr, InList):
        target = _scalar(expr.expr, row)
        if target is None:
            return None
        hit = False
        unknown = False
        for item in expr.items:
            if item.value is None:
                unknown = True
            elif target == item.value:
                hit = True
        if hit:
            return True
        return None if unknown else False
    if isinstance(expr, Between):
        target = _scalar(expr.expr, row)
        lo, hi = expr.low.value, expr.high.value
        below = None if (lo is None or target is None) else (lo <= target)
        above = None if (hi is None or target is None) else (target <= hi)
        if below is False or above is False:
            return False
        if below is None or above is None:
            return None
        return True
    if isinstance(expr, ScalarFn):
        return _scalar_fn(expr.name, [_scalar(a, row) for a in expr.args], row.index)
    raise TypeError(f"oracle cannot evaluate {expr!r}")


def _binary(expr, row):
    return _binary_on_values(expr.op, _scalar(expr.left, row), _scalar(expr.right, row))


def _in_range(out):
    """Null for a number ``float()`` cannot hold finitely."""
    try:
        return out if math.isfinite(out) else None
    except OverflowError:  # an integer beyond float range
        return None


def _scalar_fn(name, args, row_index):
    if any(a is None for a in args):
        return None
    if name == "SQRT":
        if args[0] < 0:
            raise OracleDomainError(args[0], row_index)
        return math.sqrt(args[0])
    if name == "ABS":
        return abs(args[0])
    # below -330 digits, every value in float range rounds to zero
    nd = max(args[1], -330) if len(args) == 2 else 0
    try:
        return _in_range(float(round(args[0], nd)))
    except OverflowError:
        return None


def _agg(fn: AggFn, rows: list[dict]) -> object:
    if isinstance(fn.arg, Star):
        return len(rows)
    try:
        values = [v for v in (_scalar(fn.arg, r) for r in rows) if v is not None]
    except OracleDomainError as exc:
        exc.in_aggregate = True
        raise
    if fn.distinct:
        seen = []
        for v in values:
            if v not in seen:
                seen.append(v)
        values = seen
    name = fn.name
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    try:
        if name == "SUM":
            if all(isinstance(v, int) for v in values):
                return _in_range(sum(values))  # the exact total
            return _in_range(math.fsum(values))
        if name == "AVG":
            return _in_range(math.fsum(float(v) for v in values) / len(values))
        # STDDEV, sample form
        if len(values) < 2:
            return None
        mean = math.fsum(float(v) for v in values) / len(values)
        var = math.fsum((float(v) - mean) ** 2 for v in values) / (len(values) - 1)
        return _in_range(math.sqrt(var))
    except OverflowError:  # fsum and ** raise where a finite result overflows
        return None


def _grouped_value(expr, group_rows: list[dict], key_values: list, group_by: tuple):
    for group_expr, value in zip(group_by, key_values):
        if expr == group_expr:
            return value
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, AggFn):
        return _agg(expr, group_rows)
    if isinstance(expr, Unary):
        v = _grouped_value(expr.operand, group_rows, key_values, group_by)
        if expr.op == "NOT":
            return None if v is None else (not v)
        return None if v is None else -v
    if isinstance(expr, Binary):
        left = _grouped_value(expr.left, group_rows, key_values, group_by)
        right = _grouped_value(expr.right, group_rows, key_values, group_by)
        return _binary_on_values(expr.op, left, right)
    if isinstance(expr, InList):
        target = _grouped_value(expr.expr, group_rows, key_values, group_by)
        if target is None:
            return None
        hit = False
        unknown = False
        for item in expr.items:
            if item.value is None:
                unknown = True
            elif target == item.value:
                hit = True
        if hit:
            return True
        return None if unknown else False
    if isinstance(expr, Between):
        target = _grouped_value(expr.expr, group_rows, key_values, group_by)
        lo, hi = expr.low.value, expr.high.value
        below = None if (lo is None or target is None) else (lo <= target)
        above = None if (hi is None or target is None) else (target <= hi)
        if below is False or above is False:
            return False
        if below is None or above is None:
            return None
        return True
    if isinstance(expr, ScalarFn):
        return _scalar_fn(expr.name, [
            _grouped_value(a, group_rows, key_values, group_by) for a in expr.args
        ], None)
    raise TypeError(f"oracle cannot evaluate {expr!r} per group")


def _binary_on_values(op, a, b):
    if op in ("AND", "OR"):
        if op == "AND":
            if a is False or b is False:
                return False
            if a is None or b is None:
                return None
            return True
        if a is True or b is True:
            return True
        if a is None or b is None:
            return None
        return False
    if op in ("=", "!=", "<", "<=", ">", ">="):
        if a is None or b is None:
            return None
        return {
            "=": a == b, "!=": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b,
        }[op]
    if a is None or b is None:
        return None
    if op == "+":
        return _in_range(a + b)
    if op == "-":
        return _in_range(a - b)
    if op == "*":
        return _in_range(a * b)
    return None if b == 0 else _in_range(a / b)


def _contains_agg(expr) -> bool:
    if isinstance(expr, AggFn):
        return True
    if isinstance(expr, Unary):
        return _contains_agg(expr.operand)
    if isinstance(expr, Binary):
        return _contains_agg(expr.left) or _contains_agg(expr.right)
    if isinstance(expr, (InList, Between)):
        return _contains_agg(expr.expr)
    if isinstance(expr, ScalarFn):
        return any(_contains_agg(a) for a in expr.args)
    return False


def _resolve_aliases(ast: QueryAst) -> QueryAst:
    aliases = {
        p.alias: p.expr for p in ast.projections
        if p.alias is not None and not isinstance(p.expr, Star)
    }
    new_items = []
    changed = False
    for item in ast.order_by:
        if isinstance(item.expr, ColumnRef) and item.expr.name in aliases:
            new_items.append(type(item)(aliases[item.expr.name], item.descending))
            changed = True
        else:
            new_items.append(item)
    if not changed:
        return ast
    return QueryAst(ast.projections, ast.from_table, ast.where, ast.group_by,
                    ast.having, tuple(new_items), ast.limit)


def evaluate(ast: QueryAst, rows: list[dict], column_order: list[str]) -> list[tuple]:
    """Evaluate ``ast`` over ``rows`` (dicts) and return result tuples in
    the contract's deterministic order."""
    ast = _resolve_aliases(ast)
    rows = [_Row(r, i) for i, r in enumerate(rows)]
    with _clause("where"):
        kept = [r for r in rows if ast.where is None or _scalar(ast.where, r) is True]

    has_agg = any(
        not isinstance(p.expr, Star) and _contains_agg(p.expr) for p in ast.projections
    )
    star = any(isinstance(p.expr, Star) for p in ast.projections)

    decorated: list[tuple[list, tuple, int]] = []
    if ast.group_by or has_agg:
        # nested-loop grouping, first-appearance order, nulls group together
        keys: list[list] = []
        buckets: list[list[dict]] = []
        if ast.group_by:
            for r in kept:
                with _clause("group_by"):
                    key = [_scalar(e, r) for e in ast.group_by]
                for i, existing in enumerate(keys):
                    if existing == key:
                        buckets[i].append(r)
                        break
                else:
                    keys.append(key)
                    buckets.append([r])
        else:
            keys.append([])
            buckets.append(kept)
        position = 0
        for key, bucket in zip(keys, buckets):
            if ast.having is not None:
                with _clause("having"):
                    if _grouped_value(ast.having, bucket, key, ast.group_by) is not True:
                        continue
            with _clause("projection"):
                out = tuple(
                    _grouped_value(p.expr, bucket, key, ast.group_by)
                    for p in ast.projections
                )
            with _clause("order_by"):
                sort_key = [
                    _grouped_value(item.expr, bucket, key, ast.group_by)
                    for item in ast.order_by
                ]
            decorated.append((sort_key, out, position))
            position += 1
    else:
        for position, r in enumerate(kept):
            if star:
                out = tuple(r[name] for name in column_order)
            else:
                with _clause("projection"):
                    out = tuple(_scalar(p.expr, r) for p in ast.projections)
            with _clause("order_by"):
                sort_key = [_scalar(item.expr, r) for item in ast.order_by]
            decorated.append((sort_key, out, position))

    if ast.order_by:
        directions = [item.descending for item in ast.order_by]

        def rank(entry):
            key, _, position = entry
            parts = []
            for value, descending in zip(key, directions):
                if value is None:
                    parts.append((1, 0))  # nulls last either direction
                elif descending:
                    parts.append((0, _Reversed(value)))
                else:
                    parts.append((0, _Forward(value)))
            parts.append(position)
            return parts

        decorated.sort(key=rank)

    out_rows = [out for _, out, _ in decorated]
    if ast.limit is not None:
        out_rows = out_rows[:ast.limit]
    return out_rows


class _Forward:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return self.v < other.v

    def __eq__(self, other):
        return self.v == other.v


class _Reversed:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return other.v < self.v

    def __eq__(self, other):
        return self.v == other.v