"""Seeded random generators: tables, subset queries, and arbitrary ASTs.

Query generation is grammar-directed and type-aware so every emitted query
passes the guard's schema check; SQRT arguments are wrapped in ABS except
where a test explicitly wants potential domain errors.
"""

from __future__ import annotations

import random

from evidencesql.feature_store import (
    CaseBundle,
    ColumnSchema,
    FeatureTable,
    Level,
    SchemaManifest,
    TableSchema,
)
from evidencesql.sql.ast import (
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
    ScalarFn,
    Star,
    Unary,
)
from evidencesql.values import Dtype

_TEXT_VOCAB = ("alpha", "beta", "gamma", "delta", "epsilon")
_NAME_POOL = ("c0", "c1", "c2", "c3", "c4", "c5")


def random_schema(rng: random.Random, max_columns: int = 6) -> TableSchema:
    n = rng.randint(1, max_columns)
    columns = []
    for i in range(n):
        dtype = rng.choice((Dtype.INTEGER, Dtype.REAL, Dtype.REAL, Dtype.TEXT))
        domain = None
        if dtype is Dtype.TEXT and rng.random() < 0.5:
            domain = _TEXT_VOCAB[: rng.randint(2, len(_TEXT_VOCAB))]
        columns.append(ColumnSchema(name=_NAME_POOL[i], dtype=dtype,
                                    categorical_domain=domain))
    return TableSchema(name="t", level=Level.LOCAL_CELLULAR, columns=tuple(columns))


def random_value(rng: random.Random, column: ColumnSchema):
    if rng.random() < 0.15 and not column.is_key:
        return None
    if column.dtype is Dtype.INTEGER:
        return rng.randint(-50, 50)
    if column.dtype is Dtype.REAL:
        return round(rng.uniform(-100.0, 100.0), 3)
    if column.categorical_domain:
        return rng.choice(column.categorical_domain)
    return rng.choice(_TEXT_VOCAB)


def random_table(rng: random.Random, schema: TableSchema, max_rows: int = 100) -> FeatureTable:
    n = rng.randint(0, max_rows)
    columns = {
        c.name: tuple(random_value(rng, c) for _ in range(n)) for c in schema.columns
    }
    return FeatureTable(schema=schema, columns=columns, row_count=n)


def table_bundle(table: FeatureTable, case_id: str = "synthetic") -> CaseBundle:
    return CaseBundle(case_id=case_id, tables={table.schema.name: table})


def schema_manifest(schema: TableSchema) -> SchemaManifest:
    return SchemaManifest(version="test", tables=(schema,))


def _numeric_columns(schema: TableSchema) -> list[ColumnSchema]:
    return [c for c in schema.columns if c.dtype in (Dtype.INTEGER, Dtype.REAL)]


def _text_columns(schema: TableSchema) -> list[ColumnSchema]:
    return [c for c in schema.columns if c.dtype is Dtype.TEXT]


class QueryGenerator:
    """Random well-typed queries over one table schema."""

    def __init__(self, rng: random.Random, schema: TableSchema,
                 allow_raw_sqrt: bool = False):
        self.rng = rng
        self.schema = schema
        self.allow_raw_sqrt = allow_raw_sqrt

    # -- scalar expressions -------------------------------------------------

    def numeric_expr(self, depth: int = 0) -> Expr:
        rng = self.rng
        numeric = _numeric_columns(self.schema)
        roll = rng.random()
        if depth >= 2 or not numeric or roll < 0.35:
            if numeric and rng.random() < 0.7:
                return ColumnRef(rng.choice(numeric).name)
            if rng.random() < 0.5:
                return Literal(rng.randint(-20, 20))
            return Literal(round(rng.uniform(-50.0, 50.0), 3))
        if roll < 0.75:
            op = rng.choice(("+", "-", "*", "/"))
            return Binary(op, self.numeric_expr(depth + 1), self.numeric_expr(depth + 1))
        if roll < 0.85:
            return Unary("-", ColumnRef(rng.choice(numeric).name))
        name = rng.choice(("SQRT", "ABS", "ROUND"))
        inner = self.numeric_expr(depth + 1)
        if name == "SQRT" and not self.allow_raw_sqrt:
            inner = ScalarFn("ABS", (inner,))
        if name == "ROUND" and rng.random() < 0.5:
            return ScalarFn("ROUND", (inner, Literal(rng.randint(0, 3))))
        return ScalarFn(name, (inner,))

    def _text_literal_for(self, column: ColumnSchema) -> Literal:
        if column.categorical_domain:
            return Literal(self.rng.choice(column.categorical_domain))
        return Literal(self.rng.choice(_TEXT_VOCAB))

    def predicate(self, depth: int = 0) -> Expr:
        rng = self.rng
        roll = rng.random()
        if depth < 2 and roll < 0.3:
            op = rng.choice(("AND", "OR"))
            return Binary(op, self.predicate(depth + 1), self.predicate(depth + 1))
        if depth < 2 and roll < 0.38:
            return Unary("NOT", self.predicate(depth + 1))
        text_cols = _text_columns(self.schema)
        if text_cols and roll > 0.8:
            column = rng.choice(text_cols)
            ref = ColumnRef(column.name)
            if rng.random() < 0.4:
                items = tuple(
                    self._text_literal_for(column)
                    for _ in range(rng.randint(1, 3))
                )
                return InList(ref, items)
            op = rng.choice(("=", "!="))
            return Binary(op, ref, self._text_literal_for(column))
        left = self.numeric_expr(depth + 1)
        if rng.random() < 0.2:
            lo = rng.randint(-30, 10)
            return Between(left, Literal(lo), Literal(lo + rng.randint(0, 40)))
        if rng.random() < 0.15:
            items = tuple(Literal(rng.randint(-20, 20)) for _ in range(rng.randint(1, 4)))
            return InList(left, items)
        op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        right = (
            Literal(rng.randint(-30, 30))
            if rng.random() < 0.7
            else Literal(round(rng.uniform(-60.0, 60.0), 2))
        )
        return Binary(op, left, right)

    def having_comparison(self) -> Expr:
        """One aggregate compared with a numeric literal."""
        rng = self.rng
        numeric = _numeric_columns(self.schema)
        if rng.random() < 0.5 or not numeric:
            agg: Expr = AggFn("COUNT", Star(), False)
            value = Literal(rng.randint(0, 5))
        else:
            name = rng.choice(("SUM", "AVG", "MIN", "MAX", "STDDEV"))
            agg = AggFn(name, self.numeric_expr(depth=1), False)
            value = Literal(round(rng.uniform(-40.0, 40.0), 2))
        op = rng.choice((">", ">=", "<", "<=", "=", "!="))
        return Binary(op, agg, value)

    def having_predicate(self, depth: int = 0) -> Expr:
        """Aggregate comparisons joined by AND, OR and NOT, the way
        ``predicate`` joins row comparisons."""
        rng = self.rng
        roll = rng.random()
        if depth < 2 and roll < 0.3:
            op = rng.choice(("AND", "OR"))
            return Binary(op, self.having_predicate(depth + 1), self.having_predicate(depth + 1))
        if depth < 2 and roll < 0.38:
            return Unary("NOT", self.having_predicate(depth + 1))
        return self.having_comparison()

    def aggregate_expr(self) -> Expr:
        rng = self.rng
        roll = rng.random()
        if roll < 0.2:
            return AggFn("COUNT", Star(), False)
        numeric = _numeric_columns(self.schema)
        text_cols = _text_columns(self.schema)
        if roll < 0.3 and text_cols:
            name = rng.choice(("COUNT", "MIN", "MAX"))
            return AggFn(name, ColumnRef(rng.choice(text_cols).name),
                         distinct=(name == "COUNT" and rng.random() < 0.5))
        if not numeric:
            return AggFn("COUNT", Star(), False)
        name = rng.choice(("COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV"))
        arg = self.numeric_expr(depth=1)
        distinct = name in ("COUNT", "SUM") and rng.random() < 0.25
        agg = AggFn(name, arg, distinct)
        if rng.random() < 0.25:
            outer = rng.choice(("+", "*"))
            return Binary(outer, agg, Literal(rng.randint(1, 5)))
        return agg

    # -- whole queries -------------------------------------------------------

    def query(self) -> QueryAst:
        rng = self.rng
        shape = rng.random()
        if shape < 0.35:
            ast = self._plain_query()
        elif shape < 0.6:
            ast = self._implicit_group_query()
        else:
            ast = self._grouped_query()
        return ast

    def _where(self) -> Expr | None:
        return self.predicate() if self.rng.random() < 0.7 else None

    def _limit(self) -> int | None:
        return self.rng.randint(0, 20) if self.rng.random() < 0.3 else None

    def _plain_query(self) -> QueryAst:
        rng = self.rng
        if rng.random() < 0.12:
            projections: tuple[Projection, ...] = (Projection(Star(), None),)
        else:
            projections = tuple(
                self._maybe_alias(self._plain_projection(), i)
                for i in range(rng.randint(1, 3))
            )
        order_by = self._plain_order(projections)
        return QueryAst(
            projections=projections,
            from_table=self.schema.name,
            where=self._where(),
            order_by=order_by,
            limit=self._limit(),
        )

    def _plain_projection(self) -> Expr:
        rng = self.rng
        text_cols = _text_columns(self.schema)
        if text_cols and rng.random() < 0.3:
            return ColumnRef(rng.choice(text_cols).name)
        return self.numeric_expr()

    def _maybe_alias(self, expr: Expr, index: int) -> Projection:
        alias = f"out{index}" if self.rng.random() < 0.4 else None
        return Projection(expr, alias)

    def _plain_order(self, projections) -> tuple[OrderItem, ...]:
        rng = self.rng
        if rng.random() >= 0.5:
            return ()
        items = []
        for _ in range(rng.randint(1, 2)):
            aliased = [p for p in projections if p.alias is not None]
            if aliased and rng.random() < 0.3:
                expr: Expr = ColumnRef(rng.choice(aliased).alias)
            else:
                candidates = [c.name for c in self.schema.columns]
                expr = ColumnRef(rng.choice(candidates))
            items.append(OrderItem(expr, descending=rng.random() < 0.5))
        return tuple(items)

    def _implicit_group_query(self) -> QueryAst:
        rng = self.rng
        projections = tuple(
            self._maybe_alias(self.aggregate_expr(), i)
            for i in range(rng.randint(1, 3))
        )
        order_by = ()
        if rng.random() < 0.3:
            order_by = (OrderItem(self.aggregate_expr(), descending=rng.random() < 0.5),)
        return QueryAst(
            projections=projections,
            from_table=self.schema.name,
            where=self._where(),
            order_by=order_by,
            limit=self._limit(),
        )

    def _grouped_query(self) -> QueryAst:
        rng = self.rng
        group_candidates = list(self.schema.columns)
        n_keys = rng.randint(1, min(2, len(group_candidates)))
        key_columns = rng.sample(group_candidates, n_keys)
        group_by = tuple(ColumnRef(c.name) for c in key_columns)

        projections = [Projection(expr, None) for expr in group_by]
        for i in range(rng.randint(1, 2)):
            projections.append(self._maybe_alias(self.aggregate_expr(), i))

        having = self.having_comparison() if rng.random() < 0.4 else None

        order_by = []
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.5:
                    order_by.append(OrderItem(rng.choice(group_by), rng.random() < 0.5))
                else:
                    order_by.append(OrderItem(self.aggregate_expr(), rng.random() < 0.5))
        return QueryAst(
            projections=tuple(projections),
            from_table=self.schema.name,
            where=self._where(),
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            limit=self._limit(),
        )


# -- arbitrary ASTs for parser round-trips --------------------------------------


class AstGenerator:
    """Arbitrary structurally valid ASTs; types may be nonsense on purpose,
    the parser only enforces syntax-level invariants."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def literal(self) -> Literal:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            return Literal(rng.randint(-1000, 1000))
        if roll < 0.55:
            return Literal(round(rng.uniform(-1e4, 1e4), rng.randint(0, 6)))
        if roll < 0.62:
            return Literal(rng.choice((0.5e-7, 1e20, 3.25, -0.001)))
        if roll < 0.72:
            return Literal(None)
        text = rng.choice(("plain", "it's", "two''quotes", "", "x y z", "O'Neil"))
        return Literal(text)

    def identifier(self) -> str:
        return self.rng.choice(("col", "area", "value_1", "x", "measure", "grp"))

    def expr(self, depth: int = 0, allow_agg: bool = True) -> Expr:
        rng = self.rng
        if depth >= 3:
            return self.literal() if rng.random() < 0.5 else ColumnRef(self.identifier())
        roll = rng.random()
        if roll < 0.15:
            return self.literal()
        if roll < 0.3:
            return ColumnRef(self.identifier())
        if roll < 0.45:
            op = rng.choice(("+", "-", "*", "/", "=", "!=", "<", "<=", ">", ">=", "AND", "OR"))
            return Binary(op, self.expr(depth + 1, allow_agg),
                          self.expr(depth + 1, allow_agg))
        if roll < 0.55:
            op = rng.choice(("-", "NOT"))
            operand = self.expr(depth + 1, allow_agg)
            if op == "-" and isinstance(operand, Literal) and isinstance(
                    operand.value, (int, float)):
                # '-literal' parses back to a folded negative literal
                return Literal(-operand.value if operand.value != 0 else 0)
            return Unary(op, operand)
        if roll < 0.65:
            items = tuple(self.literal() for _ in range(rng.randint(1, 4)))
            return InList(self.expr(depth + 1, allow_agg), items)
        if roll < 0.75:
            return Between(self.expr(depth + 1, allow_agg), self.literal(), self.literal())
        if roll < 0.85:
            name = rng.choice(("SQRT", "ABS", "ROUND"))
            args: tuple[Expr, ...] = (self.expr(depth + 1, allow_agg),)
            if name == "ROUND" and rng.random() < 0.5:
                args = args + (self.expr(depth + 1, allow_agg),)
            return ScalarFn(name, args)
        if allow_agg:
            return self.agg(depth)
        return ColumnRef(self.identifier())

    def agg(self, depth: int = 0) -> AggFn:
        rng = self.rng
        if rng.random() < 0.2:
            return AggFn("COUNT", Star(), False)
        name = rng.choice(("COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV"))
        return AggFn(name, self.expr(depth + 1, allow_agg=False),
                     distinct=rng.random() < 0.25)

    def query(self) -> QueryAst:
        rng = self.rng
        if rng.random() < 0.08:
            projections: tuple[Projection, ...] = (Projection(Star(), None),)
            group_by: tuple[Expr, ...] = ()
            having = None
        else:
            projections = tuple(
                Projection(self.expr(), f"a{i}" if rng.random() < 0.4 else None)
                for i in range(rng.randint(1, 4))
            )
            group_by = ()
            having = None
            if rng.random() < 0.35:
                group_by = tuple(
                    self.expr(depth=2, allow_agg=False) for _ in range(rng.randint(1, 2))
                )
                if rng.random() < 0.5:
                    having = self.expr(depth=1)
            elif rng.random() < 0.15 and all(
                not isinstance(p.expr, Star) and _has_agg(p.expr) for p in projections
            ):
                having = self.expr(depth=1)
        where = self.expr(depth=1, allow_agg=False) if rng.random() < 0.6 else None
        order_by = tuple(
            OrderItem(self.expr(depth=2), rng.random() < 0.5)
            for _ in range(rng.randint(0, 2))
        )
        limit = rng.randint(0, 500) if rng.random() < 0.3 else None
        return QueryAst(
            projections=projections,
            from_table=rng.choice(("cells", "t", "features")),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
        )


def _has_agg(expr: Expr) -> bool:
    from evidencesql.sql.ast import contains_aggregate

    return contains_aggregate(expr)
