"""Read-only SQL subset: parsing, canonical rendering, guarding, execution."""

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
from evidencesql.sql.executor import ExecError, ResultTable, execute
from evidencesql.sql.guard import (
    GuardRejection,
    RepairAction,
    SchemaViolation,
    ValidatedQuery,
    check_schema,
    repair,
    sanitize,
    validate_pipeline,
)
from evidencesql.sql.parser import parse
from evidencesql.sql.render import render, render_expr

__all__ = [
    "AggFn",
    "Between",
    "Binary",
    "ColumnRef",
    "Expr",
    "InList",
    "Literal",
    "OrderItem",
    "Projection",
    "QueryAst",
    "ScalarFn",
    "Star",
    "Unary",
    "ExecError",
    "ResultTable",
    "execute",
    "GuardRejection",
    "RepairAction",
    "SchemaViolation",
    "ValidatedQuery",
    "check_schema",
    "repair",
    "sanitize",
    "validate_pipeline",
    "parse",
    "render",
    "render_expr",
]
