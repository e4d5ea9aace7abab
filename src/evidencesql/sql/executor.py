"""In-memory execution of validated queries against one case's tables.

Each query is compiled once, and runs a column at a time: ``_compile``
turns every expression into a function from a vector of contexts to the
vector of its values, so each node runs once per query, over every context
at once. A context is a row index, or a group ordinal, and only the leaf
resolver differs between the two. Per row, a column gathers its tuple's
values. Per group, an expression equal to a GROUP BY key gathers its key
column, and an aggregate runs its row-compiled argument over its groups'
rows.

Semantics are pinned so the audit trail is reproducible bit for bit:

- WHERE and HAVING use three-valued logic; rows pass only on true. Both
  operands of AND and OR are always evaluated.
- WHERE yields the passing row indices. GROUP BY buckets them by their key
  values; then HAVING yields the passing groups, and the projections and
  sort keys run over the rows or groups that pass. ORDER BY sorts indices
  on the key vectors, and only the rows LIMIT keeps are built.
- Errors surface as under one-context-at-a-time evaluation: first every
  WHERE row, then the GROUP BY keys of every row, then per row or group,
  in order, HAVING, the projections, the sort keys; within a context, each
  expression in evaluation order, and an aggregate's argument row by row.
  A vector run that faults at context c met no fault before that node
  anywhere, so ``_run`` runs again on the contexts before c until a run is
  clean, and the last fault is the first.
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
  over the non-null values, with the nulls after them in both directions;
  ties keep input order.
- Every value a query returns is null, text, a boolean, a finite float, or
  an integer that ``float()`` accepts (``values.fits_float``). Table cells
  and literals hold that already, so ``_arithmetic`` nulls any operator
  result outside it, as ROUND and integer SUM do theirs, and so later
  layers need no range rule. Division by zero yields null too. A ROUND
  digit count below -330 acts as -330: every value in range rounds to zero
  at either. Square root of a negative value is a hard error carrying the
  offending row index (None for SQRT over a group's values): a domain
  violation means the query is wrong and must surface.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, compress, pairwise, repeat
from typing import Callable, Optional, Sequence

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

# A compiled expression maps a vector of row indices or group ordinals to the
# vector of its values; a leaf resolver compiles the context-dependent nodes
# and returns None for the rest.
Compiled = Callable[[Sequence[int]], Sequence[Value]]
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


class _Fault(Exception):
    """SQRT met a negative value. Its args are the element of the index
    vector it met it at, the value, and the row to report when that is not
    the element (an aggregate's argument evaluated for a group), else None."""


def _compare(op: Callable[[Value, Value], Value]) -> Callable[[list, list], list]:
    return lambda xs, ys: [None if a is None or b is None else op(a, b) for a, b in zip(xs, ys)]


def _arithmetic(op: Callable[[Value, Value], Value]) -> Callable[[list, list], list]:
    """Null if either operand is null, or if the result is out of range. No
    operator raises on operands in range: a true quotient of integers is no
    larger than its dividend, and float overflow gives ``inf``."""
    return lambda xs, ys: [x if a is not None and b is not None and fits_float(x := op(a, b))
                           else None for a, b in zip(xs, ys)]


_BINARY = {
    "AND": lambda xs, ys: [False if a is False or b is False else None if a is None or b is None
                           else True for a, b in zip(xs, ys)],
    "OR": lambda xs, ys: [True if a is True or b is True else None if a is None or b is None
                          else False for a, b in zip(xs, ys)],
    **{op: _compare(fn) for op, fn in (
        ("=", operator.eq), ("!=", operator.ne), ("<", operator.lt),
        ("<=", operator.le), (">", operator.gt), (">=", operator.ge))},
    **{op: _arithmetic(fn) for op, fn in (
        ("+", operator.add), ("-", operator.sub), ("*", operator.mul),
        ("/", lambda a, b: a / b if b else math.nan))},
}


def _sqrt(idx: Sequence[int], xs: list) -> list:
    for at, x in zip(idx, xs):
        if x is not None and x < 0:
            raise _Fault(at, x, None)
    return [None if x is None else math.sqrt(x) for x in xs]


def _round(x: Value, digits: Value = 0) -> Value:
    # round(int, d) builds 10 ** -d, so a huge negative d would hang
    try:
        return float(round(x, max(digits, -330)))
    except OverflowError:  # rounded up past the largest float
        return None


def _compile(expr: Expr, leaf: Leaf) -> Compiled:
    """Compile ``expr`` into a function from an index vector to a value vector."""
    claimed = leaf(expr)
    if claimed is not None:
        return claimed
    if isinstance(expr, Literal):
        return lambda idx: [expr.value] * len(idx)
    if isinstance(expr, Unary):
        operand = _compile(expr.operand, leaf)
        fn = operator.not_ if expr.op == "NOT" else operator.neg
        return lambda idx: [None if v is None else fn(v) for v in operand(idx)]
    if isinstance(expr, Binary):
        op = _BINARY[expr.op]
        left, right = _compile(expr.left, leaf), _compile(expr.right, leaf)
        return lambda idx: op(left(idx), right(idx))  # both sides, even AND/OR
    if isinstance(expr, InList):
        operand, items = _compile(expr.expr, leaf), {item.value for item in expr.items}
        miss = None if None in items else False  # a null item makes a miss unknown
        return lambda idx: [None if v is None else v in items or miss for v in operand(idx)]
    if isinstance(expr, Between):
        operand, low, high = (_compile(e, leaf) for e in (expr.expr, expr.low, expr.high))
        le, both = _BINARY["<="], _BINARY["AND"]
        return lambda idx: both(le(low(idx), v := operand(idx)), le(v, high(idx)))
    if isinstance(expr, ScalarFn):
        args = [_compile(a, leaf) for a in expr.args]
        if expr.name == "SQRT":
            return lambda idx: _sqrt(idx, args[0](idx))
        fn = abs if expr.name == "ABS" else _round
        return lambda idx: [None if None in xs else fn(*xs)
                            for xs in zip(*(a(idx) for a in args))]
    raise TypeError(f"cannot evaluate {expr!r}")


def _run(compiled: Callable[[Sequence[int]], object], idx: Sequence[int]) -> tuple:
    """``(compiled(idx), None)``, or ``(None, args)`` of the fault that
    row-at-a-time evaluation meets first. A run that faults at element e
    met no fault in any node before the faulting one, at any element, so
    the first fault is this one or lies before e: run again on the elements
    before e until a run is clean."""
    try:
        return compiled(idx), None
    except _Fault as fault:
        first = fault.args
    while True:
        idx = idx[:idx.index(first[0])]
        try:
            compiled(idx)
            return None, first
        except _Fault as fault:
            first = fault.args


def _checked(compiled: Callable[[Sequence[int]], object], idx: Sequence[int], per_row: bool):
    """``compiled(idx)``, or the ``ArithmeticDomain`` that row-at-a-time
    evaluation raises first; ``per_row`` when ``idx`` holds row indices,
    not groups."""
    out, fault = _run(compiled, idx)
    if fault:
        at, value, row = fault
        raise ArithmeticDomain(f"SQRT of negative value {value}", at if per_row else row)
    return out


def _gather(column: Sequence[Value]) -> Compiled:
    """A column's values at each index; a range (no WHERE) is a slice."""
    return lambda idx: (column[idx.start:idx.stop] if isinstance(idx, range)
                        else [column[i] for i in idx])


def _row_leaf(table: FeatureTable) -> Leaf:
    return lambda e: _gather(table.columns[e.name]) if isinstance(e, ColumnRef) else None


def _group_leaf(group_by: tuple[Expr, ...], row_leaf: Leaf, members: list, keys: list) -> Leaf:
    """Group ordinals index ``members``, each group's rows, and ``keys``,
    each GROUP BY expression's column of values."""
    slots = {e: slot for slot, e in enumerate(group_by)}

    def leaf(expr: Expr) -> Compiled | None:
        if expr in slots:
            return _gather(keys[slots[expr]])
        if isinstance(expr, AggFn):
            arg = None if isinstance(expr.arg, Star) else _compile(expr.arg, row_leaf)
            return lambda gs: _aggregates(expr, arg, [members[g] for g in gs], gs)
        return None
    return leaf


def _aggregates(fn: AggFn, arg: Compiled | None, groups: list, gs: Sequence[int]) -> list:
    """``fn`` over each group's rows; ``arg`` is the compiled argument, None
    for COUNT(*). The argument runs once over the groups' rows in turn, so a
    fault names the first group that meets one, and reports its row."""
    if arg is None:
        return [len(rows) for rows in groups]
    values, fault = _run(arg, list(chain.from_iterable(groups)))
    if fault:
        raise _Fault(next(g for g, rows in zip(gs, groups) if fault[0] in rows), fault[1], fault[0])
    bounds = pairwise(accumulate(map(len, groups), initial=0))
    return [_aggregate(fn, values[start:end]) for start, end in bounds]


def _aggregate(fn: AggFn, values: list[Value]) -> Value:
    values = [v for v in values if v is not None]
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
                return total if fits_float(total := sum(values)) else None
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
        return math.sqrt(squared / (len(values) - 1))
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
    rows: Sequence[int] = range(table.row_count)
    if ast.where is not None:
        where = _checked(_compile(ast.where, row_leaf), rows, per_row=True)
        # a predicate yields only True, False or None, so compress keeps the true rows
        rows = list(compress(rows, where))

    # A context is a row index, or a group ordinal in first-appearance order.
    leaf, contexts, grouped = row_leaf, rows, is_grouped(ast)
    if grouped:
        keys = [_compile(e, row_leaf) for e in ast.group_by]
        key_vectors = _checked(lambda idx: [k(idx) for k in keys], rows, per_row=True)
        # a lone key groups by value, not 1-tuple; without GROUP BY there is
        # exactly one group, even over no rows
        single = len(keys) == 1
        groups = defaultdict(list, {} if keys else {(): []})
        for i, key in zip(rows, key_vectors[0] if single else zip(*key_vectors) if keys
                          else repeat(())):
            groups[key].append(i)
        key_columns = [list(groups)] if single else list(zip(*groups)) or [()] * len(keys)
        leaf = _group_leaf(ast.group_by, row_leaf, list(groups.values()), key_columns)
        contexts = range(len(groups))
    having = None if ast.having is None else _compile(ast.having, leaf)
    outputs = [_compile(p.expr, leaf) for p in projections]
    sort_keys = [_compile(item.expr, leaf) for item in ast.order_by]

    def evaluate(idx: Sequence[int]) -> tuple[list[list], list[list]]:
        if having is not None:
            idx = list(compress(idx, having(idx)))
        return [f(idx) for f in outputs], [k(idx) for k in sort_keys]

    columns, key_vectors = _checked(evaluate, contexts, per_row=not grouped)
    # Stable passes from the last sort key to the first; nulls last either way.
    order: list[int] | range = range(len(columns[0]))
    for item, values in reversed(list(zip(ast.order_by, key_vectors))):
        present = [p for p in order if values[p] is not None]
        present.sort(key=values.__getitem__, reverse=item.descending)
        order = present + [p for p in order if values[p] is None]
    order = order[:ast.limit]
    return ResultTable(
        column_names=tuple(p.alias if p.alias is not None else render_expr(p.expr)
                           for p in projections),
        rows=tuple(zip(*([column[p] for p in order] for column in columns))),
        provenance=Provenance(query.canonical_text, bundle.case_id),
    )
