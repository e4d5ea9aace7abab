import math
import random

import pytest

from evidencesql.errors import ArithmeticDomain, TableNotInBundle
from evidencesql.feature_store import CaseBundle, FeatureTable
from evidencesql.pipeline import _execute_into_trace
from evidencesql.sql.executor import ExecError, ResultTable, execute
from evidencesql.sql.guard import ValidatedQuery, validate_pipeline
from evidencesql.sql.parser import parse
from evidencesql.sql.render import render

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
    out = [_execute_into_trace(qid, "local", query, demo_bundle)
           for qid, query in enumerate([good, missing, good])]
    assert [entry.query_id for entry, _ in out] == [0, 1, 2]
    assert [ok for _, ok in out] == [True, False, True]
    assert isinstance(out[0][0].result, ResultTable)
    assert isinstance(out[1][0].error, ExecError)
    assert out[1][0].result is None
    assert out[1][0].error.kind == "table_not_in_bundle"
    assert isinstance(out[2][0].result, ResultTable)
    assert rows_of(out[2][0].result) == rows_of(out[0][0].result)


def test_execution_is_deterministic_and_pure(manifest, demo_bundle, demo_case_dir):
    from evidencesql.feature_store import ingest_case_dir

    vq = q("SELECT cell_type, AVG(area) AS m FROM cells GROUP BY cell_type ORDER BY m",
           manifest)
    first = execute(vq, demo_bundle)
    second = execute(vq, demo_bundle)
    assert first == second
    assert demo_bundle == ingest_case_dir(manifest, demo_case_dir)


def area_bundle(manifest, areas) -> CaseBundle:
    """A ``cells`` table whose ``area`` column holds ``areas``, all else null."""
    schema = manifest.table("cells")
    columns = {name: (None,) * len(areas) for name in schema.column_names}
    columns["area"] = tuple(areas)
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


def run_differential(seed: int, n_pairs: int) -> int:
    rng = random.Random(seed)
    checked = 0
    for _ in range(n_pairs):
        schema = random_schema(rng)
        table = random_table(rng, schema)
        bundle = table_bundle(table)
        manifest = schema_manifest(schema)
        generator = QueryGenerator(rng, schema, allow_raw_sqrt=rng.random() < 0.1)
        ast = generator.query()
        from evidencesql.sql.guard import check_schema

        assert check_schema(ast, manifest) == [], render(ast)
        vq = ValidatedQuery(ast, render(ast))
        dict_rows = [table.row(i) for i in range(table.row_count)]

        engine_rows = engine_error = None
        try:
            engine_rows = [list(r) for r in execute(vq, bundle).rows]
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
        checked += 1
    return checked


def test_differential_against_oracle_quick():
    assert run_differential(seed=424242, n_pairs=150) == 150
