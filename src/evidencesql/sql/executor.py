"""In-memory execution of validated queries against one case's tables.

Semantics are pinned so the audit trail is reproducible bit for bit:

- WHERE and HAVING use three-valued logic; rows pass only on true.
- GROUP BY partitions by value tuple in first-appearance order; nulls group
  together. Aggregates ignore nulls except COUNT(*). SUM/AVG/STDDEV over
  empty or all-null input yield null, COUNT yields 0. STDDEV is the sample
  deviation (n - 1).
- Real accumulation uses ``math.fsum``, which is correctly rounded, so
  results do not depend on summation order or platform quirks.
- A query is grouped when it has GROUP BY or an aggregate in its
  projections (``ast.is_grouped``); an aggregate in ORDER BY needs an
  aggregating or grouped query, which the guard enforces.
- ORDER BY is a stable sort with nulls last in both directions; ties keep
  input order.
- Division by zero and non-finite float results yield null. Square root of
  a negative value is a hard error carrying the offending row index: a
  domain violation means the query is wrong and must surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key

from evidencesql.errors import ArithmeticDomain, TableNotInBundle
from evidencesql.feature_store import CaseBundle, FeatureTable
from evidencesql.sql.ast import (
    AggFn,
    Between,
    Binary,
    ColumnRef,
    Expr,
    InList,
    Literal,
    QueryAst,
    ScalarFn,
    Star,
    Unary,
    is_grouped,
    resolve_order_aliases,
)
from evidencesql.sql.guard import ValidatedQuery
from evidencesql.sql.render import render_expr
from evidencesql.values import Value


@dataclass(frozen=True)
class Provenance:
    canonical_text: str
    case_id: str


@dataclass(frozen=True)
class ResultTable:
    column_names: tuple[str, ...]
    rows: tuple[tuple[Value, ...], ...]
    provenance: Provenance

    def to_json_dict(self) -> dict:
        return {
            "columns": list(self.column_names),
            "rows": [list(row) for row in self.rows],
        }


@dataclass(frozen=True)
class ExecError:
    kind: str
    message: str
    row_index: int | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "message": self.message}
        if self.row_index is not None:
            doc["row_index"] = self.row_index
        return doc


def _finite_or_null(x: float) -> Value:
    return x if math.isfinite(x) else None


def _arith(result: Value) -> Value:
    if isinstance(result, float):
        return _finite_or_null(result)
    return result


def _compare(op: str, left: Value, right: Value) -> bool | None:
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _kleene_and(a: bool | None, b: bool | None) -> bool | None:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _kleene_or(a: bool | None, b: bool | None) -> bool | None:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


class _Evaluator:
    """Evaluates one expression either per row or per group.

    Per-row mode carries (row, row_index). Grouped mode carries the group's
    rows plus the resolved GROUP BY key values; aggregate nodes run over the
    group and any expression structurally equal to a GROUP BY key resolves
    to that key's value.
    """

    def __init__(
        self,
        row: dict[str, Value] | None = None,
        row_index: int | None = None,
        group_rows: list[tuple[int, dict[str, Value]]] | None = None,
        group_values: dict[Expr, Value] | None = None,
    ):
        self.row = row
        self.row_index = row_index
        self.group_rows = group_rows
        self.group_values = group_values

    def eval(self, expr: Expr) -> Value | bool:
        if self.group_values is not None and expr in self.group_values:
            return self.group_values[expr]
        if isinstance(expr, ColumnRef):
            if self.row is None:
                raise TypeError(f"column {expr.name!r} outside row context")
            return self.row[expr.name]
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, AggFn):
            if self.group_rows is None:
                raise TypeError("aggregate outside grouped context")
            return _aggregate(expr, self.group_rows)
        if isinstance(expr, Unary):
            operand = self.eval(expr.operand)
            if expr.op == "NOT":
                return None if operand is None else not operand
            return None if operand is None else -operand
        if isinstance(expr, Binary):
            return self._binary(expr)
        if isinstance(expr, InList):
            return self._in_list(expr)
        if isinstance(expr, Between):
            operand = self.eval(expr.expr)
            low = _compare("<=", expr.low.value, operand)
            high = _compare("<=", operand, expr.high.value)
            return _kleene_and(low, high)
        if isinstance(expr, ScalarFn):
            return self._scalar_fn(expr)
        raise TypeError(f"cannot evaluate {expr!r}")

    def _binary(self, expr: Binary) -> Value | bool:
        if expr.op == "AND":
            return _kleene_and(self.eval(expr.left), self.eval(expr.right))
        if expr.op == "OR":
            return _kleene_or(self.eval(expr.left), self.eval(expr.right))
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if expr.op in ("=", "!=", "<", "<=", ">", ">="):
            return _compare(expr.op, left, right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return _arith(left + right)
        if expr.op == "-":
            return _arith(left - right)
        if expr.op == "*":
            return _arith(left * right)
        if right == 0:
            return None
        return _finite_or_null(left / right)

    def _in_list(self, expr: InList) -> bool | None:
        operand = self.eval(expr.expr)
        saw_null = operand is None
        for item in expr.items:
            matched = _compare("=", operand, item.value)
            if matched is True:
                return True
            if matched is None:
                saw_null = True
        return None if saw_null else False

    def _scalar_fn(self, expr: ScalarFn) -> Value:
        args = [self.eval(a) for a in expr.args]
        if any(a is None for a in args):
            return None
        x = args[0]
        if expr.name == "SQRT":
            if x < 0:
                raise ArithmeticDomain(f"SQRT of negative value {x}", self.row_index)
            return math.sqrt(x)
        if expr.name == "ABS":
            return abs(x)
        digits = args[1] if len(args) == 2 else 0
        return _finite_or_null(float(round(x, digits)))


def _aggregate(fn: AggFn, rows: list[tuple[int, dict[str, Value]]]) -> Value:
    if isinstance(fn.arg, Star):
        return len(rows)
    values = []
    for row_index, row in rows:
        v = _Evaluator(row=row, row_index=row_index).eval(fn.arg)
        if v is not None:
            values.append(v)
    if fn.distinct:
        values = list(dict.fromkeys(values))
    if fn.name == "COUNT":
        return len(values)
    if not values:
        return None
    if fn.name == "MIN":
        return min(values)
    if fn.name == "MAX":
        return max(values)
    try:
        if fn.name == "SUM":
            if all(isinstance(v, int) for v in values):
                return sum(values)
            return math.fsum(values)
        if fn.name == "AVG":
            return math.fsum(values) / len(values)
        # STDDEV, sample definition; a constant input has exactly zero spread.
        if len(values) < 2:
            return None
        if min(values) == max(values):
            return 0.0
        mean = math.fsum(values) / len(values)
        squared = math.fsum((float(v) - mean) ** 2 for v in values)
        return _finite_or_null(math.sqrt(squared / (len(values) - 1)))
    except OverflowError:
        # fsum and ** raise where a result from finite inputs leaves float range
        return None


def _projection_names(ast: QueryAst, table: FeatureTable) -> tuple[str, ...]:
    if any(isinstance(p.expr, Star) for p in ast.projections):
        return table.schema.column_names
    names = []
    for p in ast.projections:
        names.append(p.alias if p.alias is not None else render_expr(p.expr))
    return tuple(names)


def _order_rows(
    entries: list[tuple[tuple[Value, ...], tuple[Value, ...]]],
    directions: tuple[bool, ...],
) -> list[tuple[Value, ...]]:
    """Stable sort of (sort_key, output_row) pairs, nulls last per key."""

    def compare(a, b) -> int:
        for (x, y), descending in zip(zip(a[0], b[0]), directions):
            if x is None and y is None:
                continue
            if x is None:
                return 1
            if y is None:
                return -1
            if x == y:
                continue
            if x < y:
                return 1 if descending else -1
            return -1 if descending else 1
        return 0

    entries.sort(key=cmp_to_key(compare))
    return [row for _, row in entries]


def execute(query: ValidatedQuery, bundle: CaseBundle) -> ResultTable:
    """Run ``query`` against the bundle's tables.

    Raises:
        TableNotInBundle: the FROM table is missing from this case.
        ArithmeticDomain: SQRT received a negative value.
    """
    ast = resolve_order_aliases(query.ast)
    table = bundle.tables.get(ast.from_table)
    if table is None:
        raise TableNotInBundle(ast.from_table, bundle.case_id)
    provenance = Provenance(query.canonical_text, bundle.case_id)

    rows = [(i, table.row(i)) for i in range(table.row_count)]
    if ast.where is not None:
        rows = [
            (i, row) for i, row in rows
            if _Evaluator(row=row, row_index=i).eval(ast.where) is True
        ]

    entries: list[tuple[tuple[Value, ...], tuple[Value, ...]]] = []
    if is_grouped(ast):
        groups: dict[tuple, list[tuple[int, dict[str, Value]]]] = {}
        if ast.group_by:
            for i, row in rows:
                key = tuple(
                    _Evaluator(row=row, row_index=i).eval(e) for e in ast.group_by
                )
                groups.setdefault(key, []).append((i, row))
        else:
            groups[()] = rows
        for key, group_rows in groups.items():
            evaluator = _Evaluator(
                group_rows=group_rows,
                group_values=dict(zip(ast.group_by, key)),
            )
            if ast.having is not None and evaluator.eval(ast.having) is not True:
                continue
            out = tuple(evaluator.eval(p.expr) for p in ast.projections)
            order_key = tuple(evaluator.eval(item.expr) for item in ast.order_by)
            entries.append((order_key, out))
    else:
        star = any(isinstance(p.expr, Star) for p in ast.projections)
        for i, row in rows:
            evaluator = _Evaluator(row=row, row_index=i)
            if star:
                out = tuple(row[name] for name in table.schema.column_names)
            else:
                out = tuple(evaluator.eval(p.expr) for p in ast.projections)
            order_key = tuple(evaluator.eval(item.expr) for item in ast.order_by)
            entries.append((order_key, out))

    if ast.order_by:
        ordered = _order_rows(entries, tuple(item.descending for item in ast.order_by))
    else:
        ordered = [row for _, row in entries]
    if ast.limit is not None:
        ordered = ordered[:ast.limit]

    return ResultTable(
        column_names=_projection_names(ast, table),
        rows=tuple(ordered),
        provenance=provenance,
    )

