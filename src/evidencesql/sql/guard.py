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
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace
from functools import partial

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
    QueryAst,
    ScalarFn,
    Star,
    Unary,
    children,
    contains_aggregate,
    is_grouped,
    resolve_order_aliases,
)
from evidencesql.sql.lexer import (
    DQUOTED_RE,
    KEYWORDS,
    STRING_RE,
    UNSUPPORTED_KEYWORDS,
    WORD_RE,
    TokenKind,
    tokenize,
)
from evidencesql.sql.parser import parse
from evidencesql.sql.render import render

MAX_REPAIR_PASSES = 3
MAX_EDIT_DISTANCE = 2

# Statement heads that sanitize refuses outright; the parser accepting only
# SELECT is the second, independent line of defense.
FORBIDDEN_STATEMENT_KEYWORDS = (
    "INSERT", "UPDATE", "DELETE", "DROP", "ALTER", "CREATE", "ATTACH", "PRAGMA",
)

# A markdown code fence: its tag (group 1, possibly empty), then its body.
# The tag is the word the opening line starts with, except a SELECT that has
# more of the line after it: that is a one-line body's first word.
FENCE_RE = re.compile(r"```((?:(?!(?i:select)\b(?![ \t]*\r?\n))[a-zA-Z]+)?)[ \t]*\r?\n?(.*?)```", re.DOTALL)

_REPAIR_KEYWORD_SET = tuple(sorted(KEYWORDS | set(AGGREGATE_FUNCTIONS) | set(SCALAR_FUNCTIONS)))
_KNOWN_WORDS = KEYWORDS | UNSUPPORTED_KEYWORDS | set(AGGREGATE_FUNCTIONS) | set(SCALAR_FUNCTIONS)


@dataclass(frozen=True)
class RepairAction:
    kind: str  # keyword_fix | identifier_fix | quote_fix | clause_drop
    before: str
    after: str
    edit_distance: int

    def to_json_dict(self) -> dict:
        return asdict(self)


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
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class SchemaViolation:
    kind: str  # unknown_table | unknown_column | type_mismatch | aggregation
    message: str
    table: str | None = None
    column: str | None = None

    def __str__(self) -> str:
        return self.message


def _casefold_chars(text: str) -> str:
    """``text`` case-folded one character at a time; a character whose fold
    is longer (``ß`` -> ``ss``) stays as it is."""
    folded = text.casefold()
    if len(folded) == len(text):
        return folded
    return "".join(f if len(f := c.casefold()) == 1 else c for c in text)


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance over case-folded identifiers, counting the
    characters each one really has."""
    a, b = _casefold_chars(a), _casefold_chars(b)
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


def fenced_blocks(text: str) -> Iterator[tuple[str, str]]:
    """Each fenced block of ``text`` in order, as its lower-cased tag and
    its stripped body."""
    return ((m.group(1).lower(), m.group(2).strip()) for m in FENCE_RE.finditer(text))


def opens_with_select(text: str) -> bool:
    """Whether the first word of ``text`` is SELECT, in any casing."""
    return (head := WORD_RE.match(text)) is not None and head.group(0).upper() == "SELECT"


def sanitize(text: str) -> str | GuardRejection:
    """Strip markdown fences and leading prose, then screen the raw text.

    A text that opens with ``SELECT`` is a query as it stands, so a fence
    inside one of its string literals is left alone; any other text is cut
    to the body of its first fenced block, if it has one.

    Rejects statement separators, comment tokens, and DDL/DML statement
    heads before any parsing happens, so hostile input that would not even
    parse is still refused cheaply.
    """
    candidate = text.strip()
    if not opens_with_select(candidate) and (block := next(fenced_blocks(candidate), None)):
        candidate = block[1]

    head = WORD_RE.match(candidate)
    if head and head.group(0).upper() not in _KNOWN_WORDS:
        # Leading prose: cut forward to the first SELECT if one exists.
        m = re.search(r"\bSELECT\b", candidate, re.IGNORECASE)
        if m:
            candidate = candidate[m.start():].strip()

    if candidate.endswith(";"):
        candidate = candidate[:-1].rstrip()

    masked = STRING_RE.sub(lambda m: "'" + "_" * (len(m.group(0)) - 2) + "'", candidate)
    head = WORD_RE.match(masked)
    if head and head.group(0).upper() in FORBIDDEN_STATEMENT_KEYWORDS:
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


def _comparable(a: str, b: str) -> bool:
    if "null" in (a, b):
        return True
    if a in _NUMERIC and b in _NUMERIC:
        return True
    return a == "text" and b == "text"


class _Mismatch(str):
    """A type rule's verdict that the operand types do not fit: its message."""


# One pure rule per operator node kind (``_TYPE_RULES``): the node's type
# from its children's types, none of them "error", or its mismatch.


def _unary_type(expr: Unary, inner: str) -> str:
    if expr.op == "NOT":
        if inner not in ("bool", "null"):
            return _Mismatch("NOT applied to a non-boolean expression")
        return "bool"
    if inner in ("text", "bool"):
        return _Mismatch("unary minus on a non-numeric expression")
    return inner


def _binary_type(expr: Binary, left: str, right: str) -> str:
    if expr.op in ("AND", "OR"):
        if left in ("bool", "null") and right in ("bool", "null"):
            return "bool"
        return _Mismatch(f"{expr.op} requires boolean operands")
    if expr.op not in ("+", "-", "*", "/"):  # comparison
        if _comparable(left, right):
            return "bool"
        return _Mismatch(f"cannot compare {left} with {right} using {expr.op!r}")
    if left in ("text", "bool") or right in ("text", "bool"):
        return _Mismatch(f"arithmetic {expr.op!r} on non-numeric operand")
    if expr.op == "/":
        return "real"
    if "real" in (left, right):
        return "real"
    return "integer" if "null" not in (left, right) else "null"


def _scalar_type(expr: ScalarFn, first: str, *rest: str) -> str:
    if first in ("text", "bool"):
        return _Mismatch(f"{expr.name} on {first} expression")
    if expr.name == "ROUND" and len(rest) == 1 and rest[0] not in ("integer", "null"):
        return _Mismatch("ROUND digit count must be an integer")
    return first if expr.name == "ABS" else "real"


def _aggregate_type(expr: AggFn, inner: str) -> str:
    if expr.name in ("COUNT", "MIN", "MAX"):
        if inner == "bool":
            return _Mismatch(f"{expr.name} of a boolean expression")
        return "integer" if expr.name == "COUNT" else inner
    if inner in ("text", "bool"):
        return _Mismatch(f"{expr.name} on {inner} expression")
    return inner if expr.name == "SUM" else "real"


_TYPE_RULES = {
    Unary: _unary_type, Binary: _binary_type, ScalarFn: _scalar_type, AggFn: _aggregate_type,
}


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
        if isinstance(expr, (InList, Between)):
            operand = self.check(expr.expr)
            what = "IN list item" if isinstance(expr, InList) else "BETWEEN bound"
            for literal in children(expr)[1:]:
                literal_type = _literal_type(literal.value)
                if operand != "error" and not _comparable(operand, literal_type):
                    return self.flag("type_mismatch", f"{what} type {literal_type} does not match {operand}")
            return "bool"
        if isinstance(expr, AggFn) and isinstance(expr.arg, Star):
            return "integer"
        types = [self.check(child) for child in children(expr)]
        if "error" in types:
            return "error"
        result = _TYPE_RULES[type(expr)](expr, *types)
        return self.flag("type_mismatch", str(result)) if isinstance(result, _Mismatch) else result


def _group_valid(expr: Expr, group_exprs: tuple[Expr, ...]) -> bool:
    """Whether ``expr`` is evaluable per group: a GROUP BY key or an aggregate
    is a group leaf, a bare column is not, and anything else needs all of its
    children to be evaluable (the executor's group leaf rule)."""
    if expr in group_exprs or isinstance(expr, AggFn):
        return True
    if isinstance(expr, ColumnRef):
        return False
    return all(_group_valid(c, group_exprs) for c in children(expr))


# What a boolean value in a clause's expression cannot be, for the clauses
# that must not hold one.
_NOT_BOOLEAN = {"projection": "projected", "ORDER BY": "a sort key"}


def check_schema(ast: QueryAst, manifest: SchemaManifest) -> list[SchemaViolation]:
    """Resolve every table/column reference and type-check every operator.

    Violations come back as data; an empty list means the query is
    executable against any bundle conforming to the manifest. Every clause
    but WHERE is evaluated per group in a grouped query, which a parsed query
    with HAVING always is.

    Expressions are typed bottom-up. A unary or binary operator, a scalar
    function or an aggregate types each operand once and is itself
    "error", with no violation of its own, when any operand is; otherwise
    its kind's rule gives its type or its mismatch. An IN or BETWEEN is
    boolean even when its operand failed, and then checks no item.
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
    # Each checked expression with its clause, in the order violations are reported.
    clauses = [("GROUP BY", expr) for expr in ast.group_by]
    clauses += [(c, e) for c, e in (("WHERE", ast.where), ("HAVING", ast.having)) if e is not None]
    clauses += [("projection", p.expr) for p in ast.projections if not isinstance(p.expr, Star)]
    clauses += [("ORDER BY", item.expr) for item in ast.order_by]
    for clause, expr in clauses:
        dtype = checker.check(expr)
        if clause in ("WHERE", "HAVING"):
            if dtype not in ("bool", "error"):
                checker.flag("type_mismatch", f"{clause} must be a boolean predicate")
        elif dtype == "bool" and clause in _NOT_BOOLEAN:
            checker.flag("type_mismatch", f"boolean expression cannot be {_NOT_BOOLEAN[clause]}")
        if clause != "WHERE" and grouped and not _group_valid(expr, ast.group_by):
            checker.flag(
                "aggregation", f"{clause} references a column that is not grouped or aggregated",
            )
        if clause == "ORDER BY" and not grouped and contains_aggregate(expr):
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


def _respell(
    text: str, position: int, word: str, candidates: tuple[str, ...] | list[str],
) -> tuple[str, RepairAction] | None:
    """``word`` at ``position`` replaced by its unique near match among
    ``candidates``, as a ``keyword_fix``; None when there is none."""
    found = _unique_candidate(word, candidates)
    if found is None:
        return None
    spelling, distance = found
    fixed = text[:position] + spelling + text[position + len(word):]
    return fixed, RepairAction("keyword_fix", word, spelling, distance)


def _try_keyword_fix(text: str, error: SqlSyntaxError) -> tuple[str, RepairAction] | None:
    token = error.token
    if not token or not WORD_RE.fullmatch(token):
        return None
    if token.upper() in _KNOWN_WORDS:
        return None
    # Prefer the keywords the parser actually expected at the failure point;
    # fall back to the whole keyword set when the error is not keyword-shaped.
    expected = tuple(w for w in error.expected if w in _REPAIR_KEYWORD_SET)
    return _respell(text, error.position, token, expected or _REPAIR_KEYWORD_SET)


def _try_function_fix(text: str, error: UnsupportedFeature) -> tuple[str, RepairAction] | None:
    """A misspelled function name surfaces as an unsupported feature; map it
    back onto the supported function set when a unique near match exists."""
    if not error.feature.startswith("function "):
        return None
    # the feature names the upper-cased word, which can be longer (ß -> SS)
    original = WORD_RE.match(text, error.position).group(0)
    return _respell(text, error.position, original, (*AGGREGATE_FUNCTIONS, *SCALAR_FUNCTIONS))


def _try_quote_fix(text: str) -> tuple[str, RepairAction] | None:
    match = DQUOTED_RE.search(text)
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
    # a name violation always names the parsed identifier and, for a column,
    # the manifest table it was looked up in
    for violation in violations:
        if violation.kind == "unknown_column":
            candidates = manifest.table(violation.table).column_names
            wrong = violation.column
        elif violation.kind == "unknown_table":
            candidates = [t.name for t in manifest.tables]
            wrong = violation.table
        else:
            continue
        found = _unique_candidate(wrong, candidates)
        if found is None:
            continue
        replacement, distance = found
        fixed = _replace_identifier(text, wrong, replacement)
        return fixed, RepairAction("identifier_fix", wrong, replacement, distance)
    return None


def _replace_identifier(text: str, word: str, replacement: str) -> str:
    """Respell every identifier token ``word``; literals are left alone."""
    for tok in reversed(tokenize(text)):
        if tok.kind is TokenKind.IDENT and tok.text == word:
            text = text[:tok.offset] + replacement + text[tok.offset + len(word):]
    return text


def repair(
    text: str, manifest: SchemaManifest, source_agent: str = "manual",
) -> ValidatedQuery | GuardRejection:
    """Parse and schema-check ``text``, applying bounded fixes on failure.

    Per pass, exactly one action is applied, the first that applies in order:
    keyword fix, quote fix, clause drop (on syntax errors); function fix,
    clause drop (on unsupported features); identifier fix (on schema
    violations). After ``MAX_REPAIR_PASSES`` actions, or when no action
    applies, the failure's rejection is returned, as ``repair_exhausted``
    once an action was applied or when a name could not be fixed.
    """
    log: list[RepairAction] = []
    current = text
    while True:
        try:
            ast = parse(current)
        except SqlSyntaxError as exc:
            rejection = GuardRejection("parse", exc.message, exc.position)
            fixes = [partial(_try_keyword_fix, current, exc), partial(_try_quote_fix, current),
                     partial(_try_clause_drop, current, exc.position)]
        except UnsupportedFeature as exc:
            rejection = GuardRejection("parse", f"unsupported SQL feature {exc.feature}", exc.position)
            fixes = [partial(_try_function_fix, current, exc),
                     partial(_try_clause_drop, current, exc.position)]
        else:
            violations = check_schema(ast, manifest)
            if not violations:
                return ValidatedQuery(ast, render(ast), tuple(log), source_agent)
            unknown_name = any(v.kind in ("unknown_column", "unknown_table") for v in violations)
            rejection = GuardRejection(
                "repair_exhausted" if unknown_name else "schema",
                "; ".join(str(v) for v in violations),
            )
            fixes = [partial(_try_identifier_fix, current, violations, manifest)]
        fix = None
        if len(log) < MAX_REPAIR_PASSES:
            fix = next(filter(None, (attempt() for attempt in fixes)), None)
        if fix is None:
            return replace(rejection, stage="repair_exhausted") if log else rejection
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
