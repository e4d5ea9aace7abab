import hashlib
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
from evidencesql.serialize import canonical_json
from evidencesql.sql.guard import (
    GuardRejection,
    RepairAction,
    ValidatedQuery,
    _try_function_fix,
    _try_keyword_fix,
    check_schema,
    levenshtein,
    repair,
    sanitize,
    validate_pipeline,
)
from evidencesql.sql.lexer import WORD_RE
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


def test_fences_inside_a_query_are_its_own(manifest, demo_bundle):
    """A text that opens with SELECT is taken whole, so fence runs inside
    its string literals stay literal text: the query validates and runs."""
    from evidencesql.sql.executor import execute

    text = "SELECT COUNT('```') AS n FROM cells WHERE cell_type = '```'"
    outcome = validate_pipeline(text, manifest)
    assert isinstance(outcome, ValidatedQuery), outcome
    assert outcome.canonical_text == text
    assert execute(outcome, demo_bundle).rows == ((0,),)


@pytest.mark.parametrize("text", [
    "Here is the query:\n```sql\nSELECT COUNT(*) FROM cells\n```\nIt counts the cells.",
    "```sql SELECT COUNT(*) FROM cells```",
    "```SELECT COUNT(*) FROM cells```",
])
def test_a_fenced_query_after_prose_or_on_one_line_is_unwrapped(manifest, text):
    outcome = validate_pipeline(text, manifest)
    assert isinstance(outcome, ValidatedQuery), outcome
    assert outcome.canonical_text == "SELECT COUNT(*) FROM cells"


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


@pytest.mark.parametrize("text", [
    "SELECT " + "(" * 10_000 + "area" + ")" * 10_000 + " FROM cells",
    "SELECT " + " + ".join(["area"] * 5_000) + " FROM cells",
    "SELECT area FROM cells WHERE " + "NOT " * 5_000 + "area > 1",
    "SELECT " + "- " * 5_000 + "area FROM cells",
], ids=["parentheses", "chain", "not", "minus"])
def test_deep_expression_is_a_rejection(text, manifest):
    out = validate_pipeline(text, manifest)
    assert isinstance(out, GuardRejection)
    assert out.stage == "parse"
    assert out.reason == "expression nested too deeply"


@pytest.mark.parametrize("text", [
    "SELECT 1e999 AS x FROM cells",
    "SELECT -1e999 AS x FROM cells",
    "SELECT COUNT(*) AS n FROM cells WHERE area IN (1e400)",
    "SELECT cell_type FROM cells WHERE area < 1e999",
])
def test_out_of_range_literal_is_a_rejection(text, manifest):
    out = validate_pipeline(text, manifest)
    assert isinstance(out, GuardRejection)
    assert out.reason == "numeric literal out of range"


@pytest.mark.parametrize("text, outcome", [
    ("Übersicht: SELECT COUNT(*) AS n FROM cells", "SELECT COUNT(*) AS n FROM cells"),
    ("INSERTé INTO cells", "parse"),
    ("SELECT ² FROM cells", "repair_exhausted"),
])
def test_guard_reads_words_as_the_lexer_does(text, outcome, manifest):
    """The guard's prose cut and forbidden-head check see a whole Unicode word,
    as the tokenizer does, not its ASCII prefix."""
    out = validate_pipeline(text, manifest)
    if isinstance(out, ValidatedQuery):
        assert out.canonical_text == outcome
    else:
        assert out.stage == outcome


def test_function_fix_replaces_the_whole_misspelled_word(manifest):
    """``ß`` upper-cases to two letters; the fix still cuts the word as
    written, not its upper-cased length."""
    out = validate_pipeline("SELECT COUNß(*) AS n FROM cells", manifest)
    assert isinstance(out, ValidatedQuery), out
    assert out.canonical_text == "SELECT COUNT(*) AS n FROM cells"
    assert out.repair_log == (RepairAction("keyword_fix", "COUNß", "COUNT", 1),)


def test_keyword_fix_measures_the_characters_written(manifest):
    """A stray ``ß`` is one character, two edits from every two-letter
    keyword, not one edit from ``AS`` as its upper-case ``SS`` would be."""
    assert levenshtein("ß", "AS") == 2
    out = validate_pipeline("SELECT COUNT(*) AS n FROM cells ß", manifest)
    assert isinstance(out, ValidatedQuery), out
    assert [a.kind for a in out.repair_log] == ["clause_drop"]


_GUARD_FRAGMENTS = (
    "SELECT", "select", "FROM", "cells", "structures", "WHERE", "GROUP BY", "HAVING",
    "ORDER BY", "LIMIT", "AS", "DESC", "NOT", "IN", "BETWEEN", "AND", "OR", "NULL",
    "COUNT(*)", "AVG(", "SQRT(", "ROUND(", "area", "cell_type", "are", "SELCT", "FORM",
    "(", ")", ",", ";", "*", "+", "-", "/", "=", "<>", "<", ">=",
    "1", "2.5", "1e3", "1e999", "'neoplastic'", "'it''s'", "'", "''", '"x"', '"',
    "--", "/*", "```sql\n", "```", "Here is the query: ",
    " ", "\n", "\xa0", "²", "①", "١", "Ü", "Übersicht:", "é", "ß", "ſ", "Ⅷ",
)


def test_guard_is_fail_closed_and_canonical_text_is_a_fixed_point(manifest):
    """Whatever the text, the guard returns a query or a rejection and never
    raises; every query it returns validates again, unrepaired, to the same
    tree and text."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from generators import QueryGenerator

    text = st.lists(st.one_of(st.sampled_from(_GUARD_FRAGMENTS), st.characters()),
                    max_size=16).map("".join)

    @settings(max_examples=800, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=text, seed=st.integers(0, 2**32))
    def check(text, seed):
        rng = random.Random(seed)
        generated = render(QueryGenerator(rng, rng.choice(manifest.tables)).query())
        outcomes = [validate_pipeline(text, manifest), validate_pipeline(generated, manifest)]
        assert isinstance(outcomes[0], (ValidatedQuery, GuardRejection))
        assert isinstance(outcomes[1], ValidatedQuery), (generated, outcomes[1])
        for validated in outcomes:
            if isinstance(validated, GuardRejection):
                continue
            again = validate_pipeline(validated.canonical_text, manifest)
            assert isinstance(again, ValidatedQuery), (validated.canonical_text, again)
            assert (again.ast, again.canonical_text) == (validated.ast, validated.canonical_text)
            assert again.repair_log == ()

    check()


_MISSPELLED_WORDS = (
    "COUNß", "ſUM", "AVß", "WHERß", "ORDEß", "GROUß", "ﬁELD", "İN", "ŉOT", "MAẞ",
    "SELCT", "FORM", "WHER", "CONT", "AVGG", "ß", "ﬁ",
)
_MISSPELLING_SITES = (
    "SELECT {}(*) AS n FROM cells", "SELECT {}(area) AS a FROM cells",
    "SELECT area FROM cells {} area > 1", "SELECT area {} a FROM cells",
    "SELECT cell_type, COUNT(*) AS n FROM cells {} BY cell_type", "{} area FROM cells",
    "SELECT area FROM cells ORDER BY area {}", "SELECT area FROM cells {}",
)


def test_keyword_and_function_fixes_change_only_the_replaced_word():
    """A keyword or function fix rewrites the whole misspelled word where the
    parser stopped and leaves every other character of the text as it was."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    text = st.builds(
        lambda site, word, tail: site.format(word) + " " + tail,
        st.sampled_from(_MISSPELLING_SITES),
        st.sampled_from(_MISSPELLED_WORDS),
        st.lists(st.sampled_from(_MISSPELLED_WORDS + _GUARD_FRAGMENTS), max_size=4)
        .map(" ".join),
    )

    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(text)
    def check(text):
        try:
            parse(text)
            return
        except SqlSyntaxError as exc:
            error, fix = exc, _try_keyword_fix(text, exc)
        except UnsupportedFeature as exc:
            error, fix = exc, _try_function_fix(text, exc)
        if fix is None:
            return
        fixed, action = fix
        start, end = error.position, error.position + len(action.before)
        assert action.kind == "keyword_fix"
        assert action.before == WORD_RE.match(text, start).group(0)
        assert fixed == text[:start] + action.after + text[end:]

    check()


# One input per schema-rule message, with a fragment of the message it must
# produce, plus inputs that break several rules at once to pin their order.
_SCHEMA_RULE_INPUTS = (
    ("SELECT AVG(zzz) FROM cells", "unknown column 'zzz'"),
    ("SELECT area FROM nowhere", "unknown table 'nowhere'"),
    ("SELECT area FROM cells WHERE NOT area", "NOT applied to a non-boolean"),
    ("SELECT -cell_type FROM cells", "unary minus on a non-numeric"),
    ("SELECT area FROM cells WHERE area AND area > 1", "AND requires boolean operands"),
    ("SELECT cell_type + 1 FROM cells", "arithmetic '+' on non-numeric"),
    ("SELECT area FROM cells WHERE cell_type > 1", "cannot compare text with integer"),
    ("SELECT area FROM cells WHERE area IN ('a')", "IN list item type text"),
    ("SELECT area FROM cells WHERE area BETWEEN 'a' AND 'b'", "BETWEEN bound type text"),
    ("SELECT SQRT(cell_type) FROM cells", "SQRT on text expression"),
    ("SELECT ROUND(area, 1.5) FROM cells", "ROUND digit count must be an integer"),
    ("SELECT COUNT(area > 1) FROM cells", "COUNT of a boolean expression"),
    ("SELECT MAX(area > 1) FROM cells", "MAX of a boolean expression"),
    ("SELECT AVG(cell_type) FROM cells", "AVG on text expression"),
    ("SELECT area FROM cells WHERE area", "WHERE must be a boolean predicate"),
    ("SELECT cell_type FROM cells GROUP BY cell_type HAVING COUNT(*)",
     "HAVING must be a boolean predicate"),
    ("SELECT cell_type FROM cells GROUP BY cell_type HAVING area > 1",
     "HAVING references a column that is not grouped"),
    ("SELECT area > 1 FROM cells", "boolean expression cannot be projected"),
    ("SELECT area, COUNT(*) FROM cells GROUP BY cell_type",
     "projection references a column that is not grouped"),
    ("SELECT area FROM cells ORDER BY area > 1", "boolean expression cannot be a sort key"),
    ("SELECT cell_type FROM cells GROUP BY cell_type ORDER BY area",
     "ORDER BY references a column that is not grouped"),
    ("SELECT area FROM cells ORDER BY COUNT(*)", "aggregate in ORDER BY requires"),
    ("SELECT area > 1, area, zzz FROM cells WHERE area GROUP BY cell_type "
     "HAVING COUNT(*) ORDER BY area > 1, perimeter", "unknown column 'zzz'"),
    ("SELECT area > 1, -cell_type FROM cells WHERE cell_type GROUP BY cell_type "
     "HAVING area ORDER BY area > 1, area", "HAVING references a column"),
)
_TRAILING_CLAUSES = (" LIMIT", " ORDER BY", " WHERE", " GROUP BY cell_type", " HAVING",
                     " AS", " LIMIT x", " ,")
# sha256 of the canonical JSON of every (input, outcome type, outcome) in
# test_guard_outcomes_are_pinned; only a deliberate change of guard outcomes
# may change it.
GUARD_OUTCOMES_DIGEST = "e2139f2b4ec8c0b2701b1e0019e68480d7c5392a085ee857c378584175e5bf02"


def _mutate(rng, text):
    """``text`` with one to three random edits: a character dropped, a
    fragment inserted, a quote swapped, a clause appended or a word misspelled."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(5)
        i = rng.randrange(len(text) + 1)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + rng.choice(_GUARD_FRAGMENTS) + text[i:]
        elif edit == 2:
            text = text.replace("'", '"', 1) if "'" in text else text.replace('"', "'", 1)
        elif edit == 3:
            text += rng.choice(_TRAILING_CLAUSES)
        elif words := list(WORD_RE.finditer(text)):
            word = rng.choice(words)
            j = rng.randrange(word.start(), word.end())
            text = text[:j] + rng.choice("aeiouxsß") + text[j + 1:]
    return text


def test_guard_outcomes_are_pinned(manifest):
    """Stage, reason, position, repair log and canonical text of the guard's
    outcome on a fixed set of generated inputs are exactly as pinned."""
    from generators import QueryGenerator

    rng = random.Random(13)
    inputs = [e["input"] for e in CORPUS]
    inputs += [site.format(w) for site in _MISSPELLING_SITES for w in _MISSPELLED_WORDS]
    inputs += [text for text, _ in _SCHEMA_RULE_INPUTS]
    for _ in range(3000):
        inputs.append("".join(rng.choice(_GUARD_FRAGMENTS) + rng.choice(("", " "))
                              for _ in range(rng.randint(1, 12))))
    for _ in range(1200):
        generated = render(QueryGenerator(rng, rng.choice(manifest.tables)).query())
        inputs.append(_mutate(rng, generated))

    outcomes = {text: validate_pipeline(text, manifest) for text in inputs}
    for text, fragment in _SCHEMA_RULE_INPUTS:
        assert fragment in outcomes[text].reason, (text, outcomes[text])
    rejections = [o for o in outcomes.values() if isinstance(o, GuardRejection)]
    assert {o.stage for o in rejections} == {"sanitize", "parse", "schema", "repair_exhausted"}
    repairs = {a.kind for o in outcomes.values() if isinstance(o, ValidatedQuery)
               for a in o.repair_log}
    assert repairs == {"keyword_fix", "identifier_fix", "quote_fix", "clause_drop"}
    records = [[text, type(outcomes[text]).__name__, outcomes[text].to_json_dict()]
               for text in inputs]
    digest = hashlib.sha256(canonical_json(records).encode("utf-8")).hexdigest()
    assert digest == GUARD_OUTCOMES_DIGEST
