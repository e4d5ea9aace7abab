import random
import sys
from collections import Counter

import pytest

from evidencesql.errors import SqlSyntaxError, UnsupportedFeature
from evidencesql.sql.ast import (
    AggFn,
    Between,
    Binary,
    ColumnRef,
    InList,
    Literal,
    OrderItem,
    Projection,
    QueryAst,
    Star,
    Unary,
)
from evidencesql.sql.lexer import TokenKind, tokenize
from evidencesql.sql.parser import parse
from evidencesql.sql.render import render, render_expr

from generators import AstGenerator
from reference_lexer import tokenize as reference_tokenize


def test_count_star_where():
    ast = parse("SELECT COUNT(*) FROM cells WHERE cell_type = 'neoplastic'")
    assert ast.from_table == "cells"
    assert ast.projections == (Projection(AggFn("COUNT", Star(), False), None),)
    assert ast.where == Binary("=", ColumnRef("cell_type"), Literal("neoplastic"))


def test_group_by_having():
    ast = parse(
        "SELECT cell_type, AVG(area) FROM cells "
        "GROUP BY cell_type HAVING AVG(area) > 100"
    )
    assert ast.group_by == (ColumnRef("cell_type"),)
    assert ast.having == Binary(">", AggFn("AVG", ColumnRef("area"), False), Literal(100))


def test_multiple_statements_rejected():
    with pytest.raises(SqlSyntaxError, match="single statement"):
        parse("SELECT a FROM t; DROP TABLE t")


def test_trailing_semicolon_rejected():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT a FROM t;")


@pytest.mark.parametrize("text", [
    "SELECT a FROM t -- comment",
    "SELECT /* hidden */ a FROM t",
    "-- leading\nSELECT a FROM t",
])
def test_comments_are_parse_errors(text):
    with pytest.raises(SqlSyntaxError, match="comment"):
        parse(text)


@pytest.mark.parametrize("text,feature", [
    ("SELECT a FROM t JOIN u ON x = y", "JOIN"),
    ("SELECT a FROM (SELECT b FROM u)", "subquery"),
    ("SELECT a FROM t UNION SELECT b FROM u", "UNION"),
    ("WITH x AS (SELECT 1) SELECT a FROM t", "WITH"),
    ("SELECT a FROM t WHERE b LIKE 'x%'", "LIKE"),
    ("SELECT a FROM t WHERE b IS NULL", "IS"),
    ("SELECT NVL(a, 0) FROM t", "function NVL"),
    ("INSERT INTO t VALUES (1)", "INSERT"),
])
def test_unsupported_features_named(text, feature):
    with pytest.raises(UnsupportedFeature) as exc_info:
        parse(text)
    assert exc_info.value.feature == feature


@pytest.mark.parametrize("text, error, message", [
    ("SELECT ROUND(area, 1, 2) AS r FROM cells", SqlSyntaxError,
     "ROUND expects 1 or 2 argument(s), got 3 at offset 12"),
    ("SELECT SQRT(area, 2) AS s FROM cells", SqlSyntaxError,
     "SQRT expects 1 argument(s), got 2 at offset 11"),
    ("SELECT COUNT(DISTINCT *) AS n FROM cells", SqlSyntaxError,
     "COUNT(DISTINCT *) is not valid at offset 22"),
    ("SELECT * FROM cells GROUP BY cell_type", SqlSyntaxError,
     "SELECT * cannot be combined with GROUP BY at offset 0"),
    ("SELECT (SELECT 1) AS x FROM cells", UnsupportedFeature,
     "unsupported SQL feature subquery at offset 8"),
], ids=["round-arity", "sqrt-arity", "count-distinct-star", "star-group-by", "scalar-subquery"])
def test_parser_rejection_messages(text, error, message):
    with pytest.raises(error) as caught:
        parse(text)
    assert str(caught.value) == message


def test_nested_aggregate_rejected():
    with pytest.raises(SqlSyntaxError, match="nested"):
        parse("SELECT AVG(COUNT(a)) FROM t")


def test_aggregate_in_where_rejected():
    with pytest.raises(SqlSyntaxError, match="WHERE"):
        parse("SELECT a FROM t WHERE COUNT(*) > 1")


def test_star_only_in_count():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT SUM(*) FROM t")


def test_star_must_be_sole_projection():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT *, a FROM t")


def test_having_requires_grouping_or_full_aggregation():
    with pytest.raises(SqlSyntaxError, match="HAVING"):
        parse("SELECT a FROM t HAVING COUNT(*) > 1")
    # fully aggregated projections make implicit-group HAVING legal
    ast = parse("SELECT COUNT(*) FROM t HAVING COUNT(*) > 1")
    assert ast.having is not None


def test_error_position_is_offending_token():
    text = "SELECT a FRM t"
    with pytest.raises(SqlSyntaxError) as exc_info:
        parse(text)
    assert exc_info.value.position == text.index("FRM")
    assert "FROM" in exc_info.value.expected


def test_unexpected_character_position():
    with pytest.raises(SqlSyntaxError) as exc_info:
        parse("SELECT a ? FROM t")
    assert exc_info.value.position == 9


def test_limit_must_be_nonnegative_integer():
    assert parse("SELECT a FROM t LIMIT 0").limit == 0
    with pytest.raises(SqlSyntaxError):
        parse("SELECT a FROM t LIMIT -1")
    with pytest.raises(SqlSyntaxError):
        parse("SELECT a FROM t LIMIT 2.5")


def test_string_escaping():
    ast = parse("SELECT a FROM t WHERE b = 'it''s'")
    assert ast.where.right == Literal("it's")


def test_scientific_notation_accepted():
    ast = parse("SELECT a FROM t WHERE b > 1.5e-3")
    assert ast.where.right == Literal(1.5e-3)


def test_keywords_case_insensitive_identifiers_preserved():
    ast = parse("select Area from Cells where Area > 1 order by Area desc")
    assert ast.from_table == "Cells"
    assert ast.projections[0].expr == ColumnRef("Area")
    assert ast.order_by == (OrderItem(ColumnRef("Area"), True),)


def test_not_in_sugar():
    ast = parse("SELECT a FROM t WHERE b NOT IN (1, 2)")
    assert ast.where == Unary("NOT", InList(ColumnRef("b"), (Literal(1), Literal(2))))


# -- rendering ------------------------------------------------------------


def test_render_normalizes_whitespace_and_case():
    assert render(parse("select  count( * ) from cells")) == "SELECT COUNT(*) FROM cells"


def test_render_is_fixed_point():
    texts = [
        "SELECT a, AVG(b) AS m FROM t WHERE c > 1 AND d = 'x' "
        "GROUP BY a HAVING AVG(b) > 2 ORDER BY m DESC LIMIT 3",
        "SELECT * FROM global_features",
        "SELECT -a + 2 * (b - 1) FROM t",
    ]
    for text in texts:
        once = render(parse(text))
        assert render(parse(once)) == once


def test_between_rendering_order():
    ast = QueryAst(
        projections=(Projection(ColumnRef("a"), None),),
        from_table="t",
        where=Between(ColumnRef("x"), Literal(0.3), Literal(0.6)),
    )
    assert render(ast) == "SELECT a FROM t WHERE x BETWEEN 0.3 AND 0.6"


def test_precedence_parentheses():
    assert render_expr(Binary("*", Binary("+", ColumnRef("a"), Literal(1)), Literal(2))) \
        == "(a + 1) * 2"
    assert render_expr(Binary("+", ColumnRef("a"), Binary("*", Literal(1), Literal(2)))) \
        == "a + 1 * 2"
    assert render_expr(Binary("AND", Binary("OR", ColumnRef("a"), ColumnRef("b")),
                              ColumnRef("c"))) == "(a OR b) AND c"
    assert render_expr(Unary("-", Literal(-3))) == "-(-3)"
    assert render_expr(Binary("-", ColumnRef("a"), Binary("-", ColumnRef("b"),
                              ColumnRef("c")))) == "a - (b - c)"


def test_roundtrip_spec_cases():
    for text in [
        "SELECT COUNT(*) FROM cells WHERE cell_type = 'neoplastic'",
        "SELECT cell_type, AVG(area) FROM cells GROUP BY cell_type HAVING AVG(area) > 100",
        "SELECT a FROM t WHERE NOT x IN (1, 2) ORDER BY a DESC, b LIMIT 7",
        "SELECT COUNT(DISTINCT cell_type) FROM cells",
        "SELECT SQRT(ABS(a - b)) FROM t",
    ]:
        ast = parse(text)
        assert parse(render(ast)) == ast


def test_roundtrip_property_quick():
    rng = random.Random(13)
    gen = AstGenerator(rng)
    for _ in range(300):
        ast = gen.query()
        rendered = render(ast)
        reparsed = parse(rendered)
        assert reparsed == ast, rendered


# -- token syntax ------------------------------------------------------------

_LEX_FRAGMENTS = (
    "SELECT", "from", "a", "_b1", "x_2", "e", "E", "e5", "AS",
    "0", "7", "12", "3.", ".5", "1.25", "1e3", "2E-4", "6e+", "9e", "1.e2", ".", "e-",
    "1e308", "1" + "0" * 308, "9" * 309,  # at float range's edge, and past it
    "'", "''", "'x'", "'it''s'", "'a''", '"', '"q"', '""', "\"a'b\"",
    "--", "-", "/*", "*/", "/", "*", "+", "=", "!=", "<>", "<", "<=", ">", ">=", "!",
    "(", ")", ",", ";", "?", "@", "`", ":",
    " ", "  ", "\t", "\n", "\r", "\x0b", "\x0c",
)


def _lex_outcome(tokenize_fn, text):
    try:
        return [(t.kind, t.text, t.value, t.offset) for t in tokenize_fn(text)]
    except SqlSyntaxError as exc:
        return (exc.message, exc.position, exc.token)


def test_tokens_match_the_hand_written_reference():
    """The pattern tokenizer reads ASCII text exactly as the hand-written one
    it replaced: same tokens (kind, text, value, offset) or the same error
    (message, position, token). The one deliberate difference is a number
    beyond float range, which is now an error. Each example joins up to 14
    fragments drawn from one seed, and every outcome, tokens or each kind
    of error, is reached many times."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    outcomes = Counter()

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def check(seed):
        rng = random.Random(seed)  # cheaper per draw than a hypothesis list
        text = "".join(rng.choice(_LEX_FRAGMENTS) for _ in range(rng.randint(0, 14)))
        got = _lex_outcome(tokenize, text)
        # an error counts by its message, less the character it may name
        outcomes[got[0].split(" '")[0] if isinstance(got, tuple) else "tokens"] += 1
        if isinstance(got, tuple) and got[0] == "numeric literal out of range":
            position, lexeme = got[1], got[2]
            *_, last, _eof = reference_tokenize(text[:position + len(lexeme)])
            assert (last.kind, last.text, last.offset) == (TokenKind.NUMBER, lexeme, position)
            assert abs(last.value) > sys.float_info.max
            return
        assert got == _lex_outcome(reference_tokenize, text)

    check()
    assert set(outcomes) == {"tokens", "comment syntax is not allowed",
                             "unterminated string literal", "unterminated double-quoted token",
                             "unexpected character", "numeric literal out of range"}, outcomes
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("text, tokens", [
    ("Übersicht x²", [("IDENT", "Übersicht"), ("IDENT", "x²")]),
    ("a\xa0= b", [("IDENT", "a"), ("OP", "="), ("IDENT", "b")]),
    ("² ①", [("IDENT", "²"), ("IDENT", "①")]),
    ("x١ 0007", [("IDENT", "x١"), ("NUMBER", "0007")]),
])
def test_unicode_words_and_whitespace(text, tokens):
    """Identifiers are runs of Unicode word characters that do not start with
    a decimal digit; numerals are ASCII digits only."""
    assert [(t.kind.name, t.text) for t in tokenize(text)[:-1]] == tokens


@pytest.mark.parametrize("text", ["١", "7١", "SELECT ١ FROM t"])
def test_non_ascii_decimal_digit_is_not_a_numeral(text):
    with pytest.raises(SqlSyntaxError, match="unexpected character '١'"):
        parse(text)


@pytest.mark.parametrize("text, lexeme", [
    ("SELECT 1e999 AS x FROM cells", "1e999"),
    ("SELECT -1e999 AS x FROM cells", "1e999"),
    ("SELECT a FROM t WHERE a IN (1e400)", "1e400"),
    ("SELECT " + "9" * 400 + " FROM t", "9" * 400),
], ids=["real", "negative", "in-list", "integer"])
def test_numeric_literal_beyond_float_range_is_a_syntax_error(text, lexeme):
    with pytest.raises(SqlSyntaxError, match="numeric literal out of range") as exc_info:
        parse(text)
    assert exc_info.value.token == lexeme
    assert exc_info.value.position == text.index(lexeme)


def test_long_zero_padded_literal_is_its_value():
    """int()'s digit-count limit must not turn a zero-padded literal into a
    ValueError."""
    ast = parse("SELECT " + "0" * 5000 + "7 FROM t")
    assert ast.projections[0].expr == Literal(7)


# -- expression depth ----------------------------------------------------------


def test_expression_depth_is_bounded():
    from evidencesql.sql.parser import MAX_EXPR_DEPTH

    def nested(k):
        return "SELECT " + "(" * k + "a" + ")" * k + " FROM t"

    assert parse(nested(MAX_EXPR_DEPTH - 1)).projections[0].expr == ColumnRef("a")
    text = nested(MAX_EXPR_DEPTH)
    with pytest.raises(SqlSyntaxError, match="nested too deeply") as exc_info:
        parse(text)
    assert exc_info.value.position == text.index("a")


@pytest.mark.parametrize("tail, message, token", [
    ("a = b = c", "unexpected trailing input", "="),
    ("a IN (1) IN (2)", "unexpected trailing input", "IN"),
    ("a BETWEEN 1 AND 2 BETWEEN 3 AND 4", "unexpected trailing input", "BETWEEN"),
    ("a = b NOT IN (1)", "unexpected trailing input", "NOT"),
    ("a IN (1) + 2", "unexpected trailing input", "+"),
    ("NOT a = b = c", "unexpected trailing input", "="),
    ("a = NOT b", "expected expression", "NOT"),
    ("a + NOT b", "expected expression", "NOT"),
    ("-NOT a", "expected expression", "NOT"),
    ("a NOT b", "expected IN or BETWEEN after NOT", "NOT"),
])
def test_comparisons_never_chain_and_not_is_a_prefix_only_where_boolean(tail, message,
                                                                         token):
    """The offending token is the last one spelled ``token`` in ``tail``."""
    head = "SELECT x FROM t WHERE "
    with pytest.raises(SqlSyntaxError) as exc_info:
        parse(head + tail)
    assert exc_info.value.message == message
    assert exc_info.value.token == token
    assert exc_info.value.position == len(head) + tail.rindex(token)


@pytest.mark.parametrize("tail, where", [
    ("NOT NOT a", Unary("NOT", Unary("NOT", ColumnRef("a")))),
    ("NOT a NOT IN (1)", Unary("NOT", Unary("NOT", InList(ColumnRef("a"), (Literal(1),))))),
    ("-a * b NOT BETWEEN 1 AND 2 OR c",
     Binary("OR", Unary("NOT", Between(Binary("*", Unary("-", ColumnRef("a")), ColumnRef("b")),
                                       Literal(1), Literal(2))), ColumnRef("c"))),
    ("a AND NOT b OR c",
     Binary("OR", Binary("AND", ColumnRef("a"), Unary("NOT", ColumnRef("b"))), ColumnRef("c"))),
    ("- -3 < a - b - c",
     Binary("<", Literal(3), Binary("-", Binary("-", ColumnRef("a"), ColumnRef("b")),
                                    ColumnRef("c")))),
])
def test_precedence_and_prefixes(tail, where):
    assert parse(f"SELECT x FROM t WHERE {tail}").where == where
