"""Validation pipeline for model-emitted SQL: sanitize, parse, schema-check,
and bounded automatic repair.

Rejections are values, not exceptions: a hostile or garbled query is an
expected outcome and the agent layer may regenerate. Repair is deliberately
conservative — it fixes keywords, identifiers and quoting within edit
distance 2 and drops unparseable trailing clauses, but never touches
literals and refuses to guess between equidistant candidates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from evidencesql.errors import SqlSyntaxError, UnsupportedFeature
from evidencesql.feature_store import SchemaManifest, TableSchema
from evidencesql.sql.ast import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
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
    contains_aggregate,
    is_grouped,
    resolve_order_aliases,
)
from evidencesql.sql.lexer import KEYWORDS, UNSUPPORTED_KEYWORDS
from evidencesql.sql.parser import parse
from evidencesql.sql.render import render
from evidencesql.values import Dtype

MAX_REPAIR_PASSES = 3
MAX_EDIT_DISTANCE = 2

# Statement heads that sanitize refuses outright; the parser accepting only
# SELECT is the second, independent line of defense.
FORBIDDEN_STATEMENT_KEYWORDS = (
    "INSERT", "UPDATE", "DELETE", "DROP", "ALTER", "CREATE", "ATTACH", "PRAGMA",
)

_FENCE_RE = re.compile(r"```[a-zA-Z]*[ \t]*\r?\n?(.*?)```", re.DOTALL)
_STRING_RE = re.compile(r"'(?:[^']|'')*'")
_DQ_RE = re.compile(r'"[^"]*"')
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_REPAIR_KEYWORD_SET = tuple(sorted(KEYWORDS | set(AGGREGATE_FUNCTIONS) | set(SCALAR_FUNCTIONS)))
_KNOWN_WORDS = KEYWORDS | UNSUPPORTED_KEYWORDS | set(AGGREGATE_FUNCTIONS) | set(SCALAR_FUNCTIONS)


@dataclass(frozen=True)
class RepairAction:
    kind: str  # keyword_fix | identifier_fix | quote_fix | clause_drop
    before: str
    after: str
    edit_distance: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "before": self.before,
            "after": self.after,
            "edit_distance": self.edit_distance,
        }


@dataclass(frozen=True)
class ValidatedQuery:
    ast: QueryAst
    canonical_text: str
    repair_log: tuple[RepairAction, ...] = ()
    source_agent: str = "manual"  # global | local | manual

    def to_json_dict(self) -> dict:
        return {
            "canonical_text": self.canonical_text,
            "repair_log": [a.to_json_dict() for a in self.repair_log],
            "source_agent": self.source_agent,
        }


@dataclass(frozen=True)
class GuardRejection:
    stage: str  # sanitize | parse | schema | repair_exhausted
    reason: str
    position: int | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {"stage": self.stage, "reason": self.reason}
        if self.position is not None:
            doc["position"] = self.position
        return doc


@dataclass(frozen=True)
class SchemaViolation:
    kind: str  # unknown_table | unknown_column | type_mismatch | aggregation
    message: str
    table: str | None = None
    column: str | None = None

    def __str__(self) -> str:
        return self.message


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance over case-folded identifiers."""
    a, b = a.casefold(), b.casefold()
    if a == b:
        return 0
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        previous = current
    return previous[-1]


# -- stage 1: sanitization ---------------------------------------------------


def sanitize(text: str) -> str | GuardRejection:
    """Strip markdown fences and leading prose, then screen the raw text.

    Rejects statement separators, comment tokens, and DDL/DML statement
    heads before any parsing happens, so hostile input that would not even
    parse is still refused cheaply.
    """
    candidate = text.strip()
    fence = _FENCE_RE.search(candidate)
    if fence:
        candidate = fence.group(1).strip()

    head = _WORD_RE.match(candidate)
    head_word = head.group(0).upper() if head and head.start() == 0 else None
    if head_word is not None and head_word not in _KNOWN_WORDS and head_word != "SELECT":
        # Leading prose: cut forward to the first SELECT if one exists.
        m = re.search(r"\bSELECT\b", candidate, re.IGNORECASE)
        if m:
            candidate = candidate[m.start():].strip()

    if candidate.endswith(";"):
        candidate = candidate[:-1].rstrip()

    masked = _STRING_RE.sub(lambda m: "'" + "_" * (len(m.group(0)) - 2) + "'", candidate)
    head = _WORD_RE.match(masked)
    if head and head.start() == 0 and head.group(0).upper() in FORBIDDEN_STATEMENT_KEYWORDS:
        return GuardRejection("sanitize", f"forbidden keyword {head.group(0).upper()}", 0)
    semi = masked.find(";")
    if semi != -1:
        return GuardRejection("sanitize", "statement separator ';'", semi)
    for token in ("--", "/*", "*/"):
        pos = masked.find(token)
        if pos != -1:
            return GuardRejection("sanitize", f"comment token {token!r}", pos)
    return candidate


# -- stage 2: schema checking --------------------------------------------------

_NUMERIC = ("integer", "real")


def _literal_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return "text"
    if isinstance(value, float):
        return "real"
    return "integer"


class _TypeChecker:
    """Infers expression dtypes and records violations instead of raising."""

    def __init__(self, table: TableSchema):
        self.table = table
        self.violations: list[SchemaViolation] = []

    def flag(self, kind: str, message: str, column: str | None = None) -> str:
        self.violations.append(
            SchemaViolation(kind, message, table=self.table.name, column=column)
        )
        return "error"

    def check(self, expr: Expr) -> str:
        if isinstance(expr, ColumnRef):
            col = self.table.column(expr.name)
            if col is None:
                return self.flag(
                    "unknown_column",
                    f"unknown column {expr.name!r} in table {self.table.name!r}",
                    column=expr.name,
                )
            return col.dtype.value
        if isinstance(expr, Literal):
            return _literal_type(expr.value)
        if isinstance(expr, Unary):
            inner = self.check(expr.operand)
            if inner == "error":
                return "error"
            if expr.op == "NOT":
                if inner not in ("bool", "null"):
                    return self.flag("type_mismatch", "NOT applied to a non-boolean expression")
                return "bool"
            if inner in ("text", "bool"):
                return self.flag("type_mismatch", "unary minus on a non-numeric expression")
            return inner
        if isinstance(expr, Binary):
            left = self.check(expr.left)
            right = self.check(expr.right)
            if left == "error" or right == "error":
                return "error"
            if expr.op in ("AND", "OR"):
                if left not in ("bool", "null") or right not in ("bool", "null"):
                    return self.flag("type_mismatch", f"{expr.op} requires boolean operands")
                return "bool"
            if expr.op in ("+", "-", "*", "/"):
                if left in ("text", "bool") or right in ("text", "bool"):
                    return self.flag("type_mismatch", f"arithmetic {expr.op!r} on non-numeric operand")
                if expr.op == "/":
                    return "real"
                if "real" in (left, right):
                    return "real"
                return "integer" if "null" not in (left, right) else "null"
            # comparison
            if not self._comparable(left, right):
                return self.flag(
                    "type_mismatch", f"cannot compare {left} with {right} using {expr.op!r}"
                )
            return "bool"
        if isinstance(expr, InList):
            operand = self.check(expr.expr)
            for item in expr.items:
                item_type = _literal_type(item.value)
                if operand != "error" and not self._comparable(operand, item_type):
                    return self.flag("type_mismatch", f"IN list item type {item_type} does not match {operand}")
            return "bool"
        if isinstance(expr, Between):
            operand = self.check(expr.expr)
            for bound in (expr.low, expr.high):
                bound_type = _literal_type(bound.value)
                if operand != "error" and not self._comparable(operand, bound_type):
                    return self.flag("type_mismatch", f"BETWEEN bound type {bound_type} does not match {operand}")
            return "bool"
        if isinstance(expr, ScalarFn):
            arg_types = [self.check(a) for a in expr.args]
            if "error" in arg_types:
                return "error"
            first = arg_types[0]
            if first in ("text", "bool"):
                return self.flag("type_mismatch", f"{expr.name} on {first} expression")
            if expr.name == "ROUND" and len(arg_types) == 2 and arg_types[1] not in ("integer", "null"):
                return self.flag("type_mismatch", "ROUND digit count must be an integer")
            if expr.name == "ABS":
                return first
            return "real"
        if isinstance(expr, AggFn):
            if isinstance(expr.arg, Star):
                return "integer"
            inner = self.check(expr.arg)
            if inner == "error":
                return "error"
            if expr.name == "COUNT":
                if inner == "bool":
                    return self.flag("type_mismatch", "COUNT of a boolean expression")
                return "integer"
            if expr.name in ("MIN", "MAX"):
                if inner == "bool":
                    return self.flag("type_mismatch", f"{expr.name} of a boolean expression")
                return inner
            if inner in ("text", "bool"):
                return self.flag("type_mismatch", f"{expr.name} on {inner} expression")
            return inner if expr.name == "SUM" else "real"
        raise TypeError(f"unexpected node {expr!r}")

    @staticmethod
    def _comparable(a: str, b: str) -> bool:
        if "null" in (a, b):
            return True
        if a in _NUMERIC and b in _NUMERIC:
            return True
        return a == "text" and b == "text"


def _group_valid(expr: Expr, group_exprs: tuple[Expr, ...]) -> bool:
    """Whether ``expr`` is evaluable per group: every column reference is
    inside an aggregate or inside a subexpression matching a GROUP BY key."""
    if expr in group_exprs:
        return True
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, AggFn):
        return True
    if isinstance(expr, ColumnRef):
        return False
    if isinstance(expr, Unary):
        return _group_valid(expr.operand, group_exprs)
    if isinstance(expr, Binary):
        return _group_valid(expr.left, group_exprs) and _group_valid(expr.right, group_exprs)
    if isinstance(expr, InList):
        return _group_valid(expr.expr, group_exprs)
    if isinstance(expr, Between):
        return _group_valid(expr.expr, group_exprs)
    if isinstance(expr, ScalarFn):
        return all(_group_valid(a, group_exprs) for a in expr.args)
    return False


def check_schema(ast: QueryAst, manifest: SchemaManifest) -> list[SchemaViolation]:
    """Resolve every table/column reference and type-check every operator.

    Violations come back as data; an empty list means the query is
    executable against any bundle conforming to the manifest.
    """
    ast = resolve_order_aliases(ast)
    table = manifest.table(ast.from_table)
    if table is None:
        return [SchemaViolation(
            "unknown_table",
            f"unknown table {ast.from_table!r}",
            table=ast.from_table,
        )]
    checker = _TypeChecker(table)

    grouped = is_grouped(ast)

    for expr in ast.group_by:
        checker.check(expr)
    if ast.where is not None:
        where_type = checker.check(ast.where)
        if where_type not in ("bool", "error"):
            checker.flag("type_mismatch", "WHERE must be a boolean predicate")
    if ast.having is not None:
        having_type = checker.check(ast.having)
        if having_type not in ("bool", "error"):
            checker.flag("type_mismatch", "HAVING must be a boolean predicate")
        if not _group_valid(ast.having, ast.group_by):
            checker.flag("aggregation", "HAVING references a column that is not grouped or aggregated")

    for projection in ast.projections:
        if isinstance(projection.expr, Star):
            continue
        proj_type = checker.check(projection.expr)
        if proj_type == "bool":
            checker.flag("type_mismatch", "boolean expression cannot be projected")
        if grouped and not _group_valid(projection.expr, ast.group_by):
            checker.flag(
                "aggregation",
                "projection references a column that is not grouped or aggregated",
            )
    for item in ast.order_by:
        order_type = checker.check(item.expr)
        if order_type == "bool":
            checker.flag("type_mismatch", "boolean expression cannot be a sort key")
        if grouped and not _group_valid(item.expr, ast.group_by):
            checker.flag(
                "aggregation",
                "ORDER BY references a column that is not grouped or aggregated",
            )
        if not grouped and contains_aggregate(item.expr):
            checker.flag(
                "aggregation",
                "aggregate in ORDER BY requires an aggregating or grouped query",
            )
    return checker.violations


# -- stage 3: repair -------------------------------------------------------------


def _unique_candidate(word: str, candidates: tuple[str, ...] | list[str]) -> tuple[str, int] | None:
    """Best fuzzy match within the edit-distance budget, or None when absent
    or ambiguous."""
    scored = [(levenshtein(word, c), c) for c in candidates]
    best = min((d for d, _ in scored), default=None)
    if best is None or best == 0 or best > MAX_EDIT_DISTANCE:
        return None
    matches = [c for d, c in scored if d == best]
    if len(matches) != 1:
        return None
    return matches[0], best


def _try_keyword_fix(text: str, error: SqlSyntaxError) -> tuple[str, RepairAction] | None:
    token = error.token
    if not token or not _WORD_RE.fullmatch(token):
        return None
    if token.upper() in _KNOWN_WORDS:
        return None
    # Prefer the keywords the parser actually expected at the failure point;
    # fall back to the whole keyword set when the error is not keyword-shaped.
    expected = tuple(w for w in error.expected if w in _REPAIR_KEYWORD_SET)
    found = _unique_candidate(token.upper(), expected or _REPAIR_KEYWORD_SET)
    if found is None:
        return None
    keyword, distance = found
    fixed = text[:error.position] + keyword + text[error.position + len(token):]
    return fixed, RepairAction("keyword_fix", token, keyword, distance)


def _try_function_fix(text: str, error: UnsupportedFeature) -> tuple[str, RepairAction] | None:
    """A misspelled function name surfaces as an unsupported feature; map it
    back onto the supported function set when a unique near match exists."""
    if not error.feature.startswith("function "):
        return None
    name = error.feature[len("function "):]
    found = _unique_candidate(name, AGGREGATE_FUNCTIONS + SCALAR_FUNCTIONS)
    if found is None:
        return None
    fn, distance = found
    original = text[error.position:error.position + len(name)]
    fixed = text[:error.position] + fn + text[error.position + len(name):]
    return fixed, RepairAction("keyword_fix", original, fn, distance)


def _try_quote_fix(text: str) -> tuple[str, RepairAction] | None:
    match = _DQ_RE.search(text)
    if match is None:
        return None
    inner = match.group(0)[1:-1]
    replacement = "'" + inner.replace("'", "''") + "'"
    fixed = text[:match.start()] + replacement + text[match.end():]
    return fixed, RepairAction(
        "quote_fix", match.group(0), replacement,
        levenshtein(match.group(0), replacement),
    )


def _try_clause_drop(text: str, position: int) -> tuple[str, RepairAction] | None:
    """Drop the trailing text at ``position`` when the prefix is a complete
    statement; shrinks further while the parse error keeps moving left."""
    while 0 < position <= len(text):
        prefix = text[:position].rstrip()
        dropped = text[len(prefix):].strip()
        if not prefix or not dropped:
            return None
        try:
            parse(prefix)
        except (SqlSyntaxError, UnsupportedFeature) as exc:
            if exc.position < position:
                position = exc.position
                continue
            return None
        return prefix, RepairAction("clause_drop", dropped, "", 0)
    return None


def _try_identifier_fix(
    text: str, violations: list[SchemaViolation], manifest: SchemaManifest,
) -> tuple[str, RepairAction] | None:
    for violation in violations:
        if violation.kind == "unknown_column":
            table = manifest.table(violation.table) if violation.table else None
            candidates = list(table.column_names) if table else []
            wrong = violation.column or ""
        elif violation.kind == "unknown_table":
            candidates = [t.name for t in manifest.tables]
            wrong = violation.table or ""
        else:
            continue
        if not wrong:
            continue
        found = _unique_candidate(wrong, candidates)
        if found is None:
            continue
        replacement, distance = found
        fixed, n = _replace_outside_strings(text, wrong, replacement)
        if n == 0:
            continue
        return fixed, RepairAction("identifier_fix", wrong, replacement, distance)
    return None


def _replace_outside_strings(text: str, word: str, replacement: str) -> tuple[str, int]:
    """Word-boundary replacement that leaves string literal content alone."""
    pattern = re.compile(rf"\b{re.escape(word)}\b")
    pieces: list[str] = []
    total = 0
    last = 0
    for match in _STRING_RE.finditer(text):
        segment, n = pattern.subn(replacement, text[last:match.start()])
        pieces.append(segment)
        pieces.append(match.group(0))
        total += n
        last = match.end()
    segment, n = pattern.subn(replacement, text[last:])
    pieces.append(segment)
    total += n
    return "".join(pieces), total


def repair(
    text: str, manifest: SchemaManifest, source_agent: str = "manual",
) -> ValidatedQuery | GuardRejection:
    """Parse and schema-check ``text``, applying bounded fixes on failure.

    Per pass, exactly one action is applied, chosen in order: keyword fix,
    quote fix, clause drop (on parse failures); identifier fix (on schema
    violations). After ``MAX_REPAIR_PASSES`` actions, or when no applicable
    action exists, a stage-tagged rejection is returned.
    """
    log: list[RepairAction] = []
    current = text
    while True:
        failure: Exception | None = None
        ast = None
        try:
            ast = parse(current)
        except (SqlSyntaxError, UnsupportedFeature) as exc:
            failure = exc

        if ast is not None:
            violations = check_schema(ast, manifest)
            if not violations:
                return ValidatedQuery(ast, render(ast), tuple(log), source_agent)
            fix = None
            if len(log) < MAX_REPAIR_PASSES:
                fix = _try_identifier_fix(current, violations, manifest)
            if fix is None:
                identifier_kinds = {"unknown_column", "unknown_table"}
                stage = (
                    "schema"
                    if not log and all(v.kind not in identifier_kinds for v in violations)
                    else "repair_exhausted"
                )
                return GuardRejection(stage, "; ".join(str(v) for v in violations))
            current, action = fix
            log.append(action)
            continue

        position = failure.position
        fix = None
        if len(log) < MAX_REPAIR_PASSES:
            if isinstance(failure, SqlSyntaxError):
                fix = _try_keyword_fix(current, failure)
                if fix is None and '"' in current:
                    fix = _try_quote_fix(current)
            else:
                fix = _try_function_fix(current, failure)
            if fix is None:
                fix = _try_clause_drop(current, position)
        if fix is None:
            reason = (
                f"unsupported SQL feature {failure.feature}"
                if isinstance(failure, UnsupportedFeature)
                else failure.message
            )
            return GuardRejection("parse" if not log else "repair_exhausted", reason, position)
        current, action = fix
        log.append(action)


def validate_pipeline(
    text: str, manifest: SchemaManifest, source_agent: str = "manual",
) -> ValidatedQuery | GuardRejection:
    """Full guard: sanitize, then parse/schema-check with automatic repair.

    A returned ``ValidatedQuery`` executes without further validation; a
    ``GuardRejection`` names the first stage that definitively failed.
    """
    sanitized = sanitize(text)
    if isinstance(sanitized, GuardRejection):
        return sanitized
    return repair(sanitized, manifest, source_agent)
