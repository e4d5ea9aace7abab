import json
import random
from pathlib import Path

import pytest

from evidencesql.errors import SqlSyntaxError, UnsupportedFeature
from evidencesql.feature_store import (
    ColumnSchema,
    Level,
    SchemaManifest,
    TableSchema,
)
from evidencesql.sql.guard import (
    GuardRejection,
    ValidatedQuery,
    check_schema,
    levenshtein,
    repair,
    sanitize,
    validate_pipeline,
)
from evidencesql.sql.parser import parse
from evidencesql.sql.render import render
from evidencesql.values import Dtype

CORPUS_PATH = Path(__file__).parent / "fixtures" / "guard_corpus.json"
CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 40


@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_guard_corpus(entry, manifest):
    outcome = validate_pipeline(entry["input"], manifest)
    if entry["expect"] == "validated":
        assert isinstance(outcome, ValidatedQuery), outcome
        if "canonical" in entry:
            assert outcome.canonical_text == entry["canonical"]
        if "repairs" in entry:
            got = [
                [a.kind, a.before, a.after, a.edit_distance]
                for a in outcome.repair_log
            ]
            assert got == entry["repairs"]
        # repair soundness: whatever validated passes a fresh schema check
        assert check_schema(outcome.ast, manifest) == []
    else:
        assert isinstance(outcome, GuardRejection), outcome
        if "stage" in entry:
            assert outcome.stage == entry["stage"], outcome
        if "reason_contains" in entry:
            assert entry["reason_contains"].lower() in outcome.reason.lower()


def test_sanitize_fence_stripping():
    assert sanitize("```sql\nSELECT COUNT(*) FROM cells\n```") == "SELECT COUNT(*) FROM cells"


def test_sanitize_rejections_carry_position():
    text = "SELECT a FROM t; DROP TABLE t"
    out = sanitize(text)
    assert isinstance(out, GuardRejection)
    assert out.stage == "sanitize"
    assert out.position == text.index(";")


def test_check_schema_examples(manifest):
    assert check_schema(parse("SELECT AVG(area) FROM cells"), manifest) == []
    violations = check_schema(parse("SELECT AVG(are) FROM cells"), manifest)
    assert [v.kind for v in violations] == ["unknown_column"]
    assert violations[0].column == "are"
    violations = check_schema(parse("SELECT SQRT(cell_type) FROM cells"), manifest)
    assert [v.kind for v in violations] == ["type_mismatch"]
    violations = check_schema(parse("SELECT x FROM nowhere"), manifest)
    assert [v.kind for v in violations] == ["unknown_table"]


def test_check_schema_order_alias(manifest):
    ast = parse("SELECT cell_type, COUNT(*) AS n FROM cells GROUP BY cell_type ORDER BY n")
    assert check_schema(ast, manifest) == []


def test_aggregate_in_order_by_needs_a_grouped_query(manifest):
    import sqlite3
    from contextlib import closing

    ungrouped = "SELECT 1 AS one FROM cells ORDER BY COUNT(*)"
    grouped = (
        "SELECT COUNT(*) AS n FROM cells ORDER BY COUNT(*)",
        "SELECT cell_type FROM cells GROUP BY cell_type ORDER BY COUNT(*) DESC",
    )
    out = validate_pipeline(ungrouped, manifest)
    assert isinstance(out, GuardRejection)
    assert out.stage == "schema"
    violations = check_schema(parse("SELECT * FROM cells ORDER BY COUNT(*)"), manifest)
    assert [v.kind for v in violations] == ["aggregation"]
    for text in grouped:
        assert isinstance(validate_pipeline(text, manifest), ValidatedQuery), text
    # SQLite draws the same line: "misuse of aggregate: count()"
    with closing(sqlite3.connect(":memory:")) as db:
        db.execute("CREATE TABLE cells (cell_type TEXT)")
        with pytest.raises(sqlite3.OperationalError, match="misuse of aggregate"):
            db.execute(ungrouped).fetchall()
        for text in grouped:
            db.execute(text).fetchall()


def test_pipeline_idempotent_on_validated(manifest):
    first = validate_pipeline("SELECT  avg( are ) FROM cells", manifest)
    assert isinstance(first, ValidatedQuery)
    second = validate_pipeline(first.canonical_text, manifest)
    assert isinstance(second, ValidatedQuery)
    assert second.repair_log == ()
    assert second.canonical_text == first.canonical_text


def test_ambiguity_refusal():
    table = TableSchema(
        name="cells",
        level=Level.LOCAL_CELLULAR,
        columns=(
            ColumnSchema("area", Dtype.REAL),
            ColumnSchema("arena", Dtype.REAL),
        ),
    )
    ambiguous = SchemaManifest(version="amb", tables=(table,))
    # 'arna' sits at distance 1 from both 'area' and 'arena'
    assert levenshtein("arna", "area") == 1
    assert levenshtein("arna", "arena") == 1
    out = validate_pipeline("SELECT AVG(arna) FROM cells", ambiguous)
    assert isinstance(out, GuardRejection)
    assert out.stage == "repair_exhausted"


def test_repair_never_touches_literals(manifest):
    out = validate_pipeline(
        "SELECT COUNT(*) FROM cells WHERE cell_type = 'neoplastik'", manifest,
    )
    assert isinstance(out, ValidatedQuery)
    assert out.repair_log == ()
    assert "'neoplastik'" in out.canonical_text


def test_identifier_fix_skips_string_literals(manifest):
    out = validate_pipeline(
        "SELECT AVG(are) FROM cells WHERE cell_type = 'bare are'", manifest,
    )
    assert isinstance(out, ValidatedQuery)
    assert "'bare are'" in out.canonical_text
    assert "AVG(area)" in out.canonical_text


def test_repair_budget_exhausts(manifest):
    out = validate_pipeline(
        "SELCT AVG(are), AVG(perimeterr), AVG(eccentricityy), AVG(circularityy) FROM cells",
        manifest,
    )
    assert isinstance(out, GuardRejection)
    assert out.stage == "repair_exhausted"


def test_defense_in_depth_parser_also_rejects_writes():
    """Even if sanitize were bypassed, the parser accepts only SELECT."""
    for text in ["DROP TABLE cells", "DELETE FROM cells", "INSERT INTO t VALUES (1)",
                 "UPDATE t SET a = 1", "CREATE TABLE x (a integer)"]:
        with pytest.raises((SqlSyntaxError, UnsupportedFeature)):
            parse(text)


def test_levenshtein():
    assert levenshtein("SELCT", "SELECT") == 1
    assert levenshtein("form", "FROM") == 2
    assert levenshtein("", "ab") == 2
    assert levenshtein("same", "same") == 0


def test_validated_queries_execute_without_further_validation(manifest, demo_bundle):
    """Pipeline soundness: random typo'd variants either reject or execute."""
    from evidencesql.sql.executor import execute

    rng = random.Random(99)
    base = "SELECT cell_type, COUNT(*) AS n FROM cells GROUP BY cell_type"
    for _ in range(60):
        chars = list(base)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars))
            chars[i] = rng.choice("abcdefgh ,*()'")
        mutated = "".join(chars)
        outcome = validate_pipeline(mutated, manifest)
        if isinstance(outcome, ValidatedQuery):
            assert check_schema(outcome.ast, manifest) == []
            assert outcome.canonical_text == render(outcome.ast)
            execute(outcome, demo_bundle)


def test_repair_is_value_not_exception(manifest):
    out = repair("totally not sql", manifest)
    assert isinstance(out, GuardRejection)
