import math
import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from evidencesql.errors import ArithmeticDomain, TableNotInBundle
from evidencesql.feature_store import CaseBundle, FeatureTable
from evidencesql.pipeline import _execute_into_trace
from evidencesql.sql.executor import ExecError, ResultTable, execute
from evidencesql.sql.guard import ValidatedQuery, validate_pipeline
from evidencesql.sql.ast import AggFn, ColumnRef, Projection, QueryAst, Star, Unary
from evidencesql.sql.parser import parse
from evidencesql.sql.render import render
from evidencesql.values import FLOAT_SAFE_LENGTH, Dtype, fits_float

import oracle
from generators import QueryGenerator, random_schema, random_table, schema_manifest, table_bundle


def q(text, manifest):
    out = validate_pipeline(text, manifest)
    assert isinstance(out, ValidatedQuery), out
    return out


def rows_of(result: ResultTable):
    return [list(r) for r in result.rows]


def test_count_filter(manifest, demo_bundle):
    result = execute(q("SELECT COUNT(*) FROM cells WHERE cell_type = 'neoplastic'", manifest),
                     demo_bundle)
    assert rows_of(result) == [[4]]


def test_group_means_match_hand_computation(manifest, demo_bundle):
    result = execute(q("SELECT cell_type, AVG(area) FROM cells GROUP BY cell_type", manifest),
                     demo_bundle)
    # areas: neoplastic (430, 420, 425, 425), inflammatory (290), epithelial (410)
    assert rows_of(result) == [
        ["neoplastic", 425.0],
        ["inflammatory", 290.0],
        ["epithelial", 410.0],
    ]


def test_empty_input_aggregates(manifest, demo_bundle):
    assert rows_of(execute(q("SELECT AVG(area) FROM cells WHERE 1 = 0", manifest),
                           demo_bundle)) == [[None]]
    assert rows_of(execute(q("SELECT COUNT(*) FROM cells WHERE 1 = 0", manifest),
                           demo_bundle)) == [[0]]
    assert rows_of(execute(q("SELECT SUM(area) FROM cells WHERE 1 = 0", manifest),
                           demo_bundle)) == [[None]]


def test_sqrt_of_group_mean(manifest, demo_bundle):
    result = execute(q("SELECT SQRT(AVG(area)) FROM cells", manifest), demo_bundle)
    assert rows_of(result) == [[20.0]]


def test_nulls_ignored_by_aggregates(manifest, demo_bundle):
    result = execute(q(
        "SELECT COUNT(*), COUNT(mean_intensity), AVG(mean_intensity) FROM cells",
        manifest), demo_bundle)
    count_all, count_nonnull, mean = result.rows[0]
    assert (count_all, count_nonnull) == (6, 5)
    assert math.isclose(mean, 602.9 / 5, rel_tol=1e-12)


def test_null_comparisons_do_not_match(manifest, demo_bundle):
    result = execute(q("SELECT COUNT(*) FROM cells WHERE mean_intensity > 0", manifest),
                     demo_bundle)
    assert rows_of(result) == [[5]]
    result = execute(q("SELECT COUNT(*) FROM cells WHERE mean_intensity = NULL", manifest),
                     demo_bundle)
    assert rows_of(result) == [[0]]


def test_division_by_zero_yields_null(manifest, demo_bundle):
    result = execute(q("SELECT area / (cell_id - cell_id) FROM cells LIMIT 1", manifest),
                     demo_bundle)
    assert rows_of(result) == [[None]]


def test_sqrt_negative_is_error_with_row_index(manifest, demo_bundle):
    with pytest.raises(ArithmeticDomain) as exc_info:
        execute(q("SELECT SQRT(0 - area) FROM cells", manifest), demo_bundle)
    assert exc_info.value.row_index == 0


def test_order_by_nulls_last_and_stable(manifest, demo_bundle):
    result = execute(q(
        "SELECT cell_id, mean_intensity FROM cells ORDER BY mean_intensity", manifest),
        demo_bundle)
    ids = [row[0] for row in result.rows]
    assert ids[-1] == 4  # the null lands last
    result_desc = execute(q(
        "SELECT cell_id, mean_intensity FROM cells ORDER BY mean_intensity DESC", manifest),
        demo_bundle)
    assert [row[0] for row in result_desc.rows][-1] == 4


def test_order_ties_keep_input_order(manifest, demo_bundle):
    result = execute(q("SELECT cell_id FROM cells ORDER BY cell_type", manifest), demo_bundle)
    # epithelial < inflammatory < neoplastic; neoplastic rows keep file order
    assert [row[0] for row in result.rows] == [6, 5, 1, 2, 3, 4]


def test_limit_truncates(manifest, demo_bundle):
    result = execute(q("SELECT cell_id FROM cells LIMIT 2", manifest), demo_bundle)
    assert [row[0] for row in result.rows] == [1, 2]
    assert rows_of(execute(q("SELECT cell_id FROM cells LIMIT 0", manifest), demo_bundle)) == []


def test_stddev_constant_is_zero(manifest, demo_bundle):
    result = execute(q(
        "SELECT STDDEV(area) FROM cells WHERE cell_type = 'inflammatory'", manifest),
        demo_bundle)
    assert rows_of(result) == [[None]]  # single row: sample stddev undefined
    result = execute(q("SELECT STDDEV(circularity / circularity) FROM cells", manifest),
                     demo_bundle)
    assert rows_of(result) == [[0.0]]


def test_provenance_recorded(manifest, demo_bundle):
    vq = q("SELECT COUNT(*) FROM cells", manifest)
    result = execute(vq, demo_bundle)
    assert result.provenance.canonical_text == vq.canonical_text
    assert result.provenance.case_id == "demo_case"


def test_table_not_in_bundle(manifest, demo_bundle):
    vq = q("SELECT COUNT(*) FROM cells", manifest)
    stripped = CaseBundle(case_id="x", tables={
        k: v for k, v in demo_bundle.tables.items() if k != "cells"
    })
    with pytest.raises(TableNotInBundle):
        execute(vq, stripped)


def test_execute_batch_isolation(manifest, demo_bundle):
    """A query that fails at execution is captured as its own ``ExecError``;
    the queries after it still execute."""
    good = q("SELECT COUNT(*) FROM cells", manifest)
    missing = ValidatedQuery(parse("SELECT COUNT(*) FROM absent"),
                             "SELECT COUNT(*) FROM absent")
    out = [_execute_into_trace(qid, query, demo_bundle)
           for qid, query in enumerate([good, missing, good])]
    assert [entry.query_id for entry in out] == [0, 1, 2]
    assert [entry.result is not None for entry in out] == [True, False, True]
    assert isinstance(out[0].result, ResultTable)
    assert isinstance(out[1].error, ExecError)
    assert out[1].result is None
    assert out[1].error.kind == "table_not_in_bundle"
    assert isinstance(out[2].result, ResultTable)
    assert rows_of(out[2].result) == rows_of(out[0].result)


def test_execution_is_deterministic_and_pure(manifest, demo_bundle, demo_case_dir):
    from evidencesql.feature_store import ingest_case_dir

    vq = q("SELECT cell_type, AVG(area) AS m FROM cells GROUP BY cell_type ORDER BY m",
           manifest)
    first = execute(vq, demo_bundle)
    second = execute(vq, demo_bundle)
    assert first == second
    assert demo_bundle == ingest_case_dir(manifest, demo_case_dir)


def area_bundle(manifest, areas, column="area") -> CaseBundle:
    """A ``cells`` table whose ``column`` holds ``areas``, all else null."""
    schema = manifest.table("cells")
    columns = {name: (None,) * len(areas) for name in schema.column_names}
    columns[column] = tuple(areas)
    return CaseBundle("areas", {"cells": FeatureTable(schema, columns, len(areas))})


def test_real_sums_survive_cancellation(manifest):
    # a naive left-to-right sum loses every 1.0 and returns 0.0
    bundle = area_bundle(manifest, [1e16, 1.0, -1e16] * 100)
    result = execute(q("SELECT SUM(area), AVG(area) FROM cells", manifest), bundle)
    assert rows_of(result) == [[100.0, 100.0 / 300]]


def test_real_aggregates_beyond_float_range_are_null(manifest):
    query = q("SELECT SUM(area), AVG(area), STDDEV(area) FROM cells", manifest)
    # the running sum overflows
    assert rows_of(execute(query, area_bundle(manifest, [1e308, 1e308, -1e308]))) == [
        [None, None, None]]
    # the sum is exact but the squared deviations overflow
    assert rows_of(execute(query, area_bundle(manifest, [1e200, -1e200]))) == [
        [0.0, 0.0, None]]


# The largest integer of FLOAT_SAFE_LENGTH digits, which any integer cell holds.
BIG = int("9" * FLOAT_SAFE_LENGTH)


def big_id_rows(text, manifest, ids):
    """``text``'s result rows over a ``cells`` table whose ``cell_id``
    column holds ``ids``, checked against the oracle."""
    query, bundle = q(text, manifest), area_bundle(manifest, ids, "cell_id")
    engine_rows = rows_of(execute(query, bundle))
    table = bundle.tables["cells"]
    dict_rows = [{name: values[i] for name, values in table.columns.items()}
                 for i in range(table.row_count)]
    assert [list(r) for r in oracle.evaluate(
        query.ast, dict_rows, list(table.schema.column_names))] == engine_rows
    return engine_rows


def test_integer_sum_beyond_float_range_is_null(manifest):
    """The exact total of three FLOAT_SAFE_LENGTH-digit integers does not
    fit a float, so SUM is null, and arithmetic over it is null rather than
    an ``OverflowError``."""
    for text in ("SELECT SUM(cell_id) * 1.5 AS s FROM cells",
                 "SELECT SUM(cell_id) + 0.5 AS s FROM cells",
                 "SELECT SUM(cell_id) AS s FROM cells",
                 "SELECT ROUND(SUM(cell_id)) AS s FROM cells"):
        assert big_id_rows(text, manifest, [BIG] * 3) == [[None]], text
    # a total that fits stays an exact integer
    assert big_id_rows("SELECT SUM(cell_id) AS s FROM cells", manifest,
                       [10 ** 307, 10 ** 307, 1]) == [[2 * 10 ** 307 + 1]]


def test_arithmetic_on_integers_beyond_float_range_is_null(manifest):
    """An integer sum or product beyond float range is null, like any other
    result ``float()`` rejects, and so is every operation on it."""
    for text in ("SELECT cell_id * cell_id AS s FROM cells",
                 "SELECT cell_id + cell_id AS s FROM cells",
                 "SELECT -cell_id * cell_id AS s FROM cells",
                 "SELECT cell_id * cell_id * 1.5 AS s FROM cells",
                 "SELECT cell_id * cell_id + 0.5 AS s FROM cells",
                 "SELECT cell_id * cell_id / 2 AS s FROM cells",
                 "SELECT ROUND(cell_id * cell_id, 1) AS s FROM cells",
                 "SELECT SQRT(cell_id * cell_id) AS s FROM cells"):
        assert big_id_rows(text, manifest, [BIG, None]) == [[None], [None]], text
    assert big_id_rows("SELECT MAX(cell_id * cell_id) AS s FROM cells", manifest,
                       [BIG, None]) == [[None]]
    assert big_id_rows("SELECT cell_id * 1.5 AS s FROM cells", manifest, [BIG // 2]) == [
        [BIG // 2 * 1.5]]


def test_round_to_a_huge_negative_digit_count_is_fast(manifest, demo_bundle):
    """``round(int, d)`` builds ``10 ** -d``; the executor clamps ``d`` at
    -330, where every value in float range already rounds to zero."""
    expected = rows_of(execute(q("SELECT ROUND(cell_id, -330) AS r FROM cells", manifest),
                               demo_bundle))
    assert expected == [[0.0]] * 6
    query = q("SELECT ROUND(cell_id, -1000000) AS r FROM cells", manifest)
    start = time.perf_counter()
    rows = rows_of(execute(query, demo_bundle))
    assert time.perf_counter() - start < 0.2
    assert rows == expected
    assert rows_of(execute(q("SELECT ROUND(cell_id, -1000000000000) AS r FROM cells", manifest),
                           demo_bundle)) == expected


def test_aggregate_identities(manifest, demo_bundle):
    result = execute(q("SELECT SUM(area), COUNT(area), AVG(area) FROM cells", manifest),
                     demo_bundle)
    total, count, mean = result.rows[0]
    assert math.isclose(mean * count, total, rel_tol=1e-12)


# -- differential check against the brute-force oracle -------------------------


def values_match(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a_is_int = isinstance(a, int) and not isinstance(a, bool)
    b_is_int = isinstance(b, int) and not isinstance(b, bool)
    if a_is_int != b_is_int:
        return False
    if a_is_int:
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def engine_rows_matching_oracle(ast: QueryAst, table: FeatureTable) -> list[list] | None:
    """The engine's result rows for ``ast`` over ``table``, once checked
    against the oracle's; None when both raise a domain error."""
    from evidencesql.sql.guard import check_schema

    schema = table.schema
    assert check_schema(ast, schema_manifest(schema)) == [], render(ast)
    vq = ValidatedQuery(ast, render(ast))
    dict_rows = [
        {name: values[i] for name, values in table.columns.items()}
        for i in range(table.row_count)
    ]

    engine_rows = engine_error = None
    try:
        engine_rows = [list(r) for r in execute(vq, table_bundle(table)).rows]
    except ArithmeticDomain:
        engine_error = "domain"
    oracle_rows = oracle_error = None
    try:
        oracle_rows = [list(r) for r in oracle.evaluate(
            ast, dict_rows, list(schema.column_names))]
    except oracle.OracleDomainError:
        oracle_error = "domain"

    assert engine_error == oracle_error, render(ast)
    if engine_error is None:
        assert len(engine_rows) == len(oracle_rows), render(ast)
        for engine_row, oracle_row in zip(engine_rows, oracle_rows):
            assert len(engine_row) == len(oracle_row), render(ast)
            for a, b in zip(engine_row, oracle_row):
                assert values_match(a, b), (render(ast), engine_row, oracle_row)
    return engine_rows


def run_differential(seed: int, n_pairs: int) -> int:
    rng = random.Random(seed)
    checked = 0
    for _ in range(n_pairs):
        schema = random_schema(rng)
        table = random_table(rng, schema)
        generator = QueryGenerator(rng, schema, allow_raw_sqrt=rng.random() < 0.1)
        engine_rows_matching_oracle(generator.query(), table)
        checked += 1
    return checked


def test_differential_against_oracle_quick():
    assert run_differential(seed=424242, n_pairs=150) == 150


def _domain_error(run):
    """``(message, row index)`` of the ``ArithmeticDomain`` ``run`` raises,
    or None."""
    try:
        run()
    except ArithmeticDomain as exc:
        return str(exc), exc.row_index
    return None


def _oracle_domain_error(ast: QueryAst, table: FeatureTable):
    """The oracle's ``OracleDomainError`` for ``ast`` over ``table``, or None."""
    dict_rows = [{name: values[i] for name, values in table.columns.items()}
                 for i in range(table.row_count)]
    try:
        oracle.evaluate(ast, dict_rows, list(table.schema.column_names))
    except oracle.OracleDomainError as exc:
        return exc
    return None


def _assert_same_domain_error(ast: QueryAst, table: FeatureTable):
    """The engine raises the SQRT error the oracle meets first, evaluating
    one row or group at a time, with its message and row index; or neither
    raises. Returns the oracle's error."""
    expected = _oracle_domain_error(ast, table)
    got = _domain_error(lambda: execute(ValidatedQuery(ast, render(ast)), table_bundle(table)))
    assert got == (expected and (f"SQRT of negative value {expected.value}",
                                 expected.row_index)), render(ast)
    return expected


def test_sqrt_errors_match_the_oracle_in_message_and_row():
    """Random queries with bare SQRT: the error surfaces from the same
    clause, row and value as under row-at-a-time evaluation, across WHERE,
    GROUP BY, HAVING, projections, ORDER BY and aggregate arguments."""
    rng = random.Random(20261020)
    sites = Counter()
    for _ in range(600):
        schema = random_schema(rng)
        table = random_table(rng, schema, max_rows=40)
        error = _assert_same_domain_error(
            QueryGenerator(rng, schema, allow_raw_sqrt=True).query(), table)
        if error is not None:
            sites[error.clause, error.in_aggregate] += 1
    clauses = {clause for clause, _ in sites}
    assert clauses >= {"where", "having", "projection", "order_by"}, sites
    assert any(in_aggregate for _, in_aggregate in sites), sites


def test_sqrt_error_precedence_matches_the_oracle():
    """Each query below has SQRT errors at more than one place; the one
    raised is the first in row-at-a-time order (WHERE rows; GROUP BY keys
    per row; per row or group HAVING, the projections, the sort keys; an
    aggregate's argument row by row), which a node-at-a-time order would
    get wrong. A group HAVING drops raises nothing from its projections, and
    SQRT over a group's values reports no row."""
    schema = random_schema(random.Random(3), max_columns=1)
    schema = replace(schema, columns=(replace(schema.columns[0], dtype=Dtype.INTEGER),
                                      replace(schema.columns[0], name="c1", dtype=Dtype.INTEGER)))
    # groups by c0: 1 holds rows 0 and 2, 2 rows 1 and 4, 3 row 3
    table = FeatureTable(schema, {"c0": (1, 2, 1, 3, 2), "c1": (4, -5, 6, -7, 8)}, 5)
    cases = (
        ("SELECT c0 FROM t WHERE SQRT(c1 + 6) > 0 AND SQRT(5 - c1) > 0", ("-1", "where", 2)),
        ("SELECT COUNT(*) FROM t GROUP BY SQRT(c1 + 6), SQRT(c0 - 2)", ("-1", "group_by", 0)),
        ("SELECT SQRT(5 - c1), SQRT(c1 - 7) FROM t", ("-3", "projection", 0)),
        ("SELECT SQRT(7 - c1) FROM t ORDER BY SQRT(c1 + 6)", ("-1", "order_by", 3)),
        ("SELECT c0, SQRT(MIN(c1)) FROM t GROUP BY c0 ORDER BY SQRT(MAX(c1) - 7)",
         ("-1", "order_by", None)),
        ("SELECT c0, SQRT(SUM(c1) - 9) FROM t GROUP BY c0 HAVING SQRT(MAX(c1) - 5) > 0",
         ("-6", "projection", None)),
        ("SELECT c0, SQRT(SUM(c1) - 100) FROM t GROUP BY c0 HAVING SQRT(MIN(c1) - 5) > 0 OR 1 = 1",
         ("-1", "having", None)),
        ("SELECT c0, SQRT(MIN(c1)) FROM t GROUP BY c0 HAVING MIN(c1) > 0", None),
        ("SELECT c0, SUM(SQRT(5 - c1) + SQRT(c1 - 7)) FROM t GROUP BY c0",
         ("-3", "projection", 0)),
        ("SELECT c0, SUM(SQRT(c1)) FROM t GROUP BY c0 HAVING COUNT(*) > 1",
         ("-5", "projection", 1)),
        ("SELECT SQRT(SUM(c1)) FROM t", None),
    )
    seen = []
    for text, _ in cases:
        error = _assert_same_domain_error(q(text, schema_manifest(schema)).ast, table)
        seen.append(error and (str(error.value), error.clause, error.row_index))
    assert seen == [expected for _, expected in cases]


# -- ternary logic partitioning (Rigger & Su, OOPSLA 2020) ---------------------


def _assert_partitioned(base: QueryAst, clause: str, p, table) -> None:
    """The rows ``base`` returns with ``clause`` (where or having) set to
    ``p``, those with it set to ``NOT (p)``, and those where the oracle
    evaluates ``p`` to null make up exactly the rows ``base`` returns with
    no such clause; the first two share no row. A ``p`` that raises
    ``ArithmeticDomain`` raises the same message and row under ``NOT (p)``."""
    bundle = table_bundle(table)

    def run(ast: QueryAst) -> list[tuple]:
        return list(execute(ValidatedQuery(ast, render(ast)), bundle).rows)

    negated = replace(base, **{clause: Unary("NOT", p)})
    try:
        true_rows = run(replace(base, **{clause: p}))
    except ArithmeticDomain as exc:
        with pytest.raises(ArithmeticDomain) as under_not:
            run(negated)
        assert (str(under_not.value), under_not.value.row_index) == (str(exc), exc.row_index)
        return
    false_rows = run(negated)
    dict_rows = [{name: values[i] for name, values in table.columns.items()}
                 for i in range(table.row_count)]
    judged = oracle.evaluate(replace(base, projections=base.projections + (Projection(p, "p"),)),
                             dict_rows, list(table.schema.column_names))
    null_rows = [row[:-1] for row in judged if row[-1] is None]
    assert not set(true_rows) & set(false_rows), render(p)
    assert Counter(true_rows) + Counter(false_rows) + Counter(null_rows) == Counter(run(base)), \
        render(p)


def _derandomized(check):
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), raw_sqrt=st.booleans())
    def run(seed, raw_sqrt):
        check(random.Random(seed), raw_sqrt)  # cheaper per draw than a hypothesis random

    return run


def test_where_partitions_rows_by_ternary_logic():
    @_derandomized
    def check(rng, raw_sqrt):
        schema = random_schema(rng)
        table = random_table(rng, schema, max_rows=30)
        p = QueryGenerator(rng, schema, allow_raw_sqrt=raw_sqrt).predicate()
        base = QueryAst(tuple(Projection(ColumnRef(n)) for n in schema.column_names), "t")
        _assert_partitioned(base, "where", p, table)

    check()


def test_having_partitions_groups_by_ternary_logic():
    @_derandomized
    def check(rng, raw_sqrt):
        schema = random_schema(rng)
        table = random_table(rng, schema, max_rows=30)
        generator = QueryGenerator(rng, schema, allow_raw_sqrt=raw_sqrt)
        keys = tuple(ColumnRef(c.name)
                     for c in rng.sample(schema.columns, rng.randint(1, min(2, len(schema.columns)))))
        base = QueryAst((*(Projection(k) for k in keys), Projection(AggFn("COUNT", Star(), False), "n")),
                        "t", group_by=keys)
        _assert_partitioned(base, "having", generator.having_predicate(), table)

    check()


# -- every result value within float range ---------------------------------------


def _with_big_integers(rng: random.Random, table: FeatureTable) -> FeatureTable:
    """``table`` with each distinct value of its integer columns replaced by
    one of 300 to 308 digits and the same sign, so equal values stay equal."""
    big: dict[int, int] = {}

    def widen(v):
        if v is not None and v not in big:
            digits = rng.randint(300, 308)
            big[v] = (-1 if v < 0 else 1) * rng.randrange(10 ** (digits - 1), 10 ** digits)
        return big.get(v)

    columns = {c.name: tuple(map(widen, table.columns[c.name]))
               if c.dtype is Dtype.INTEGER else table.columns[c.name]
               for c in table.schema.columns}
    return FeatureTable(table.schema, columns, table.row_count)


def _in_result_domain(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, int):  # bools included
        return fits_float(value)
    return value is None or isinstance(value, str)


def test_every_result_value_is_within_float_range():
    """Over integer columns whose values have 300 to 308 digits, every value
    a random query returns is null, text, a boolean, a finite float or an
    integer ``float()`` accepts, and the oracle agrees with the engine."""
    @_derandomized
    def check(rng, raw_sqrt):
        schema = random_schema(rng)
        table = _with_big_integers(rng, random_table(rng, schema, max_rows=30))
        ast = QueryGenerator(rng, schema, allow_raw_sqrt=raw_sqrt).query()
        for row in engine_rows_matching_oracle(ast, table) or ():
            assert all(map(_in_result_domain, row)), (render(ast), row)

    check()
