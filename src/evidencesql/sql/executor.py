"""In-memory execution of validated queries against one case's tables.

Each query is compiled once: ``_compile`` turns every expression into a
closure over the column tuples ``FeatureTable`` stores. A closure takes one
evaluation context, a row index or a ``(row indices, GROUP BY values)``
group, and only the leaf resolver differs between the two. Per row, a column
reads its tuple. Per group, an expression equal to a GROUP BY key reads its
key slot and an aggregate runs its row-compiled argument over the group.

Semantics are pinned so the audit trail is reproducible bit for bit:

- WHERE and HAVING use three-valued logic; rows pass only on true. Both
  operands of AND and OR are always evaluated.
- Evaluation is one context at a time: per row the projections, then the
  sort keys; per group, in first-appearance order, HAVING, then the
  projections, then the sort keys. That order fixes which error surfaces.
- GROUP BY partitions by value tuple in first-appearance order; nulls group
  together. Aggregates ignore nulls except COUNT(*). SUM/AVG/STDDEV over
  empty or all-null input yield null, COUNT yields 0. STDDEV is the sample
  deviation (n - 1).
- Real accumulation uses ``math.fsum``, which is correctly rounded, so
  results do not depend on summation order or platform quirks.
- A query is grouped when it has GROUP BY or an aggregate in its
  projections (``ast.is_grouped``); an aggregate in ORDER BY needs an
  aggregating or grouped query, which the guard enforces.
- ORDER BY is one stable sort pass per key, from the last key to the first,
  keyed on (is null, value) so nulls come last in both directions; ties
  keep input order.
- Every value a query returns is null, text, a boolean, a finite float, or
  an integer that ``float()`` accepts (``values.fits_float``). Table cells
  and literals hold that already, so ``_in_range`` nulls any operator,
  ROUND or integer SUM result outside it, and so later layers need no range
  rule. Division by zero yields null too. A ROUND digit count below -330
  acts as -330: every value in range rounds to zero at either. Square root
  of a negative value is a hard error carrying the offending row index
  (None in a group context): a domain violation means the query is wrong
  and must surface.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from typing import Callable, Optional

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
    Projection,
    ScalarFn,
    Star,
    Unary,
    is_grouped,
    resolve_order_aliases,
)
from evidencesql.sql.guard import ValidatedQuery
from evidencesql.sql.render import render_expr
from evidencesql.values import Value, fits_float, render_value

# A compiled expression, called with a row index or a group context; a leaf
# resolver compiles the context-dependent nodes and returns None for the rest.
Compiled = Callable[[object], Value]
Leaf = Callable[[Expr], Optional[Compiled]]


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

    def text_lines(self) -> list[str]:
        """The header, then one line per row, fields joined by `` | ``."""
        return [" | ".join(self.column_names),
                *(" | ".join(map(render_value, row)) for row in self.rows)]


@dataclass(frozen=True)
class ExecError:
    kind: str
    message: str
    row_index: int | None = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _in_range(x: Value) -> Value:
    """Null for a non-finite float or an integer that ``float()`` rejects.
    Exact type tests let a boolean, always in range, through at once."""
    kind = type(x)
    if kind is float:
        return x if math.isfinite(x) else None
    if kind is int and not fits_float(x):
        return None
    return x


def _strict(op: Callable[[Value, Value], Value]) -> Callable[[Value, Value], Value]:
    """Null if either operand is null, or if the result is out of range. No
    operator raises on operands in range: a true quotient of integers is no
    larger than its dividend, and float overflow gives ``inf``."""
    def apply(left: Value, right: Value) -> Value:
        if left is None or right is None:
            return None
        return _in_range(op(left, right))
    return apply


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


_BINARY = {
    "AND": _kleene_and,
    "OR": _kleene_or,
    **{op: _strict(fn) for op, fn in (
        ("=", operator.eq), ("!=", operator.ne), ("<", operator.lt),
        ("<=", operator.le), (">", operator.gt), (">=", operator.ge),
        ("+", operator.add), ("-", operator.sub), ("*", operator.mul),
    )},
    "/": _strict(lambda a, b: None if b == 0 else a / b),
}


def _in_list(operand: Value, items: tuple[Value, ...]) -> bool | None:
    saw_null = operand is None
    for item in items:
        matched = _BINARY["="](operand, item)
        if matched is True:
            return True
        if matched is None:
            saw_null = True
    return None if saw_null else False


def _scalar_fn(name: str, args: list[Value], ctx: object) -> Value:
    if any(a is None for a in args):
        return None
    x = args[0]
    if name == "SQRT":
        if x < 0:
            # a row context is its row index; a group context is a tuple
            row_index = ctx if isinstance(ctx, int) else None
            raise ArithmeticDomain(f"SQRT of negative value {x}", row_index)
        return math.sqrt(x)
    if name == "ABS":
        return abs(x)
    # round(int, d) builds 10 ** -d, so a huge negative d would hang
    digits = max(args[1], -330) if len(args) == 2 else 0
    try:
        return float(round(x, digits))
    except OverflowError:  # rounded up past the largest float
        return None


def _compile(expr: Expr, leaf: Leaf) -> Compiled:
    """Compile ``expr`` into a closure over one evaluation context."""
    claimed = leaf(expr)
    if claimed is not None:
        return claimed
    if isinstance(expr, Literal):
        value = expr.value
        return lambda ctx: value
    if isinstance(expr, Unary):
        operand = _compile(expr.operand, leaf)
        if expr.op == "NOT":
            return lambda ctx: None if (v := operand(ctx)) is None else not v
        return lambda ctx: None if (v := operand(ctx)) is None else -v
    if isinstance(expr, Binary):
        op = _BINARY[expr.op]
        left, right = _compile(expr.left, leaf), _compile(expr.right, leaf)
        return lambda ctx: op(left(ctx), right(ctx))  # both sides, even AND/OR
    if isinstance(expr, InList):
        operand = _compile(expr.expr, leaf)
        items = tuple(item.value for item in expr.items)
        return lambda ctx: _in_list(operand(ctx), items)
    if isinstance(expr, Between):
        operand = _compile(expr.expr, leaf)
        low, high, le = expr.low.value, expr.high.value, _BINARY["<="]
        return lambda ctx: _kleene_and(le(low, v := operand(ctx)), le(v, high))
    if isinstance(expr, ScalarFn):
        name, args = expr.name, [_compile(a, leaf) for a in expr.args]
        return lambda ctx: _scalar_fn(name, [a(ctx) for a in args], ctx)
    raise TypeError(f"cannot evaluate {expr!r}")


def _row_leaf(table: FeatureTable) -> Leaf:
    return lambda e: table.columns[e.name].__getitem__ if isinstance(e, ColumnRef) else None


def _group_leaf(group_by: tuple[Expr, ...], row_leaf: Leaf) -> Leaf:
    slots = {e: slot for slot, e in enumerate(group_by)}

    def leaf(expr: Expr) -> Compiled | None:
        if expr in slots:
            slot = slots[expr]
            return lambda ctx: ctx[1][slot]
        if isinstance(expr, AggFn):
            arg = None if isinstance(expr.arg, Star) else _compile(expr.arg, row_leaf)
            return lambda ctx: _aggregate(expr, arg, ctx[0])
        return None
    return leaf


def _aggregate(fn: AggFn, arg: Compiled | None, rows: list[int]) -> Value:
    """``arg`` is the compiled per-row argument; None for COUNT(*)."""
    if arg is None:
        return len(rows)
    values = []
    for row_index in rows:
        v = arg(row_index)
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
                return _in_range(sum(values))
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
        return _in_range(math.sqrt(squared / (len(values) - 1)))
    except OverflowError:
        # fsum and ** raise where a result from finite inputs leaves float range
        return None


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
    projections = ast.projections
    if any(isinstance(p.expr, Star) for p in projections):
        projections = tuple(Projection(ColumnRef(n), n) for n in table.schema.column_names)

    row_leaf = _row_leaf(table)
    rows: list[int] | range = range(table.row_count)
    if ast.where is not None:
        where = _compile(ast.where, row_leaf)
        rows = [i for i in rows if where(i) is True]

    # A context is a row index, or a (row indices, GROUP BY values) group.
    leaf, having, contexts = row_leaf, None, rows
    if is_grouped(ast):
        keys = [_compile(e, row_leaf) for e in ast.group_by]
        # without GROUP BY there is exactly one group, even over no rows
        groups: dict[tuple, list[int]] = {} if keys else {(): []}
        for i in rows:
            groups.setdefault(tuple(k(i) for k in keys), []).append(i)
        leaf = _group_leaf(ast.group_by, row_leaf)
        having = None if ast.having is None else _compile(ast.having, leaf)
        contexts = [(members, key) for key, members in groups.items()]
    outputs = [_compile(p.expr, leaf) for p in projections]
    sort_keys = [_compile(item.expr, leaf) for item in ast.order_by]

    entries: list[tuple[tuple[Value, ...], tuple[Value, ...]]] = []
    for ctx in contexts:
        if having is not None and having(ctx) is not True:
            continue
        entries.append((tuple(f(ctx) for f in outputs), tuple(k(ctx) for k in sort_keys)))

    # Stable passes from the last sort key to the first; nulls last either way.
    for pos in reversed(range(len(ast.order_by))):
        desc = ast.order_by[pos].descending
        entries.sort(key=lambda e: ((e[1][pos] is None) != desc, e[1][pos]), reverse=desc)
    return ResultTable(
        column_names=tuple(
            p.alias if p.alias is not None else render_expr(p.expr) for p in projections
        ),
        rows=tuple(out for out, _ in entries[:ast.limit]),
        provenance=Provenance(query.canonical_text, bundle.case_id),
    )
