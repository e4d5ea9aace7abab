"""The benchmark's own tests: every output check rejects a tampered result,
and BENCHMARK.json names exactly the metrics the runner prints.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import ArtifactCheck, check_case_result, check_query, check_summary, open_reference_db  # noqa: E402
from evidencesql.sql.executor import ResultTable  # noqa: E402
from evidencesql.sql.guard import validate_pipeline  # noqa: E402
from gen import TUBULAR, generate_case, log_spaced_sizes, write_reference_db  # noqa: E402
from queries import REJECT_STAGES, REPAIR_KINDS, query_round  # noqa: E402
from run import E2E_UNITS, WORKLOAD_NAMES, tail  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CohortBatch, SlideAsk, SlideQuery  # noqa: E402


@pytest.fixture(scope="module")
def slide_query(tmp_path_factory):
    workload = SlideQuery()
    workload.n_cells = 2_000
    workload.setup(tmp_path_factory.mktemp("slide_query"), seed=3)
    return workload


@pytest.fixture(scope="module")
def slide_ask(tmp_path_factory):
    workload = SlideAsk()
    workload.sizes = [300, 600]
    workload.setup(tmp_path_factory.mktemp("slide_ask"), seed=5)
    return workload


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    workload = CohortBatch()
    workload.sizes = log_spaced_sizes(100, 300, 20)
    workload.setup(tmp_path_factory.mktemp("cohort"), seed=7)
    yield workload
    workload.close()


def _tampered_result(result: ResultTable) -> ResultTable:
    rows = [list(r) for r in result.rows]
    column = next(j for j, v in enumerate(rows[0]) if isinstance(v, (int, float)))
    rows[0][column] = rows[0][column] * (1 + 1e-6) + 1e-6
    return ResultTable(result.column_names, tuple(tuple(r) for r in rows), result.provenance)


def test_query_checks_pass_and_reject_tampering(slide_query):
    stream = random.Random("test")
    items = [item for index in range(4) for item in query_round(stream, index)]
    assert {i.repair_kind for i in items} - {None} == set(REPAIR_KINDS)
    assert {i.reject_stage for i in items} - {None} == set(REJECT_STAGES)
    kinds = set()
    for item in items:
        outcome, result = slide_query._query(item)
        assert check_query(item, outcome, result, slide_query.db) == [], item.text
        if result is not None and result.rows:
            assert check_query(item, outcome, _tampered_result(result), slide_query.db)
            dropped = ResultTable(result.column_names, result.rows[:-1], result.provenance)
            assert check_query(item, outcome, dropped, slide_query.db)
            kinds.add(item.shape)
        if item.repair_kind:
            unrepaired = validate_pipeline(outcome.canonical_text, slide_query.manifest)
            assert check_query(item, unrepaired, result, slide_query.db), "missing repair not caught"
        if item.reject_stage:
            other_stage = "schema" if item.reject_stage == "parse" else "parse"
            wrong = replace(item, reject_stage=other_stage)
            assert check_query(wrong, outcome, None, slide_query.db)
    assert {"filter", "group", "aggregate", "topk", "star"} <= kinds


def test_query_check_rejects_an_accepted_hostile_query(slide_query):
    hostile = next(i for i in query_round(random.Random(1), 1) if i.reject_stage)
    valid = next(i for i in query_round(random.Random(1), 0) if i.shape == "filter")
    outcome, result = slide_query._query(valid)
    assert check_query(hostile, outcome, result, slide_query.db)


def test_reference_db_sorts_nulls_last_like_the_engine(tmp_path):
    case = generate_case(random.Random(11), "nulls", 3_000, TUBULAR)
    write_reference_db(tmp_path / "reference.sqlite", case.cell_rows)
    db = open_reference_db(tmp_path / "reference.sqlite")
    rows = db.execute("SELECT area FROM cells ORDER BY area IS NULL, area ASC").fetchall()
    assert rows[-1][0] is None and rows[0][0] is not None


def test_case_checks_reject_tampered_counts_means_and_label(slide_ask):
    answers = slide_ask.answers[0]
    result = slide_ask._ask(slide_ask.case_dirs[0])
    assert check_case_result(result, answers) == []

    for mutate in (_bump_group_count, _bump_filtered_mean, _flip_label):
        tampered = copy.deepcopy(result)
        mutate(tampered)
        assert check_case_result(tampered, answers), mutate.__name__


def _bump_group_count(result):
    entry = next(e for e in result.report["sql_trace"] if "GROUP BY cell_type" in e["canonical_text"])
    entry["rows"][0][1] += 1


def _bump_filtered_mean(result):
    entry = next(e for e in result.report["sql_trace"] if "WHERE cell_type" in e["canonical_text"])
    entry["rows"][0][0] *= 1 + 1e-6


def _flip_label(result):
    result.decision_label = "papillary_adenocarcinoma" if result.ground_truth == TUBULAR else TUBULAR


def test_artifact_check_rejects_schema_breaks_and_changed_bytes(slide_ask):
    answers = slide_ask.answers[1]
    slide_ask._ask(slide_ask.case_dirs[1])
    out = Path(slide_ask.config.out_dir)
    check = ArtifactCheck()
    assert check.check(out, answers.case_id)[0] == []
    assert check.check(out, answers.case_id)[0] == []

    report_path = out / "reports" / f"{answers.case_id}.json"
    original = report_path.read_text(encoding="utf-8")
    doc = json.loads(original)
    doc["unexpected"] = True
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    problems, _ = check.check(out, answers.case_id)
    assert any("schema" in p for p in problems)
    assert any("differ" in p for p in problems)
    report_path.write_text(original, encoding="utf-8")

    (out / "reports" / f"{answers.case_id}.md").unlink()
    assert check.check(out, answers.case_id)[0]


def test_summary_check_rejects_wrong_accuracy_flags_and_failures(cohort):
    summary = cohort._batch().to_json_dict()
    assert cohort._check(None) == []
    assert check_summary(summary, cohort.answers) == []
    assert summary["failures"] and summary["n_flagged"]

    tampered = dict(summary, n_correct=summary["n_correct"] - 1,
                    accuracy=(summary["n_correct"] - 1) / summary["n_cases"])
    assert check_summary(tampered, cohort.answers)
    assert check_summary(dict(summary, n_flagged=0), cohort.answers)
    assert check_summary(dict(summary, failures=summary["failures"][1:]), cohort.answers)
    other = [dict(f, error="TypeMismatch: bad row") for f in summary["failures"]]
    assert check_summary(dict(summary, failures=other), cohort.answers)


def test_case_clock_gives_one_latency_per_case(cohort):
    cohort._batch()
    latencies = cohort.clock.latencies(cohort.clock.starts[-1] + 0.5)
    assert len(latencies) == len(cohort.answers)
    assert all(x > 0 for x in latencies)


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    assert tail([float(i) for i in range(30)]) == (100.0, 29.0)
    p, value = tail([float(i) for i in range(101)])
    assert p == 90.0 and value == pytest.approx(90.0)
    assert tail([float(i) for i in range(1000)])[0] == 95.0


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert WORKLOAD_NAMES == tuple(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOAD_NAMES)


def test_coverage_excludes_pipeline_container_self_time():
    tracer = Tracer()
    tracer.op_items.append(1)
    tracer.spans += [
        [0, -1, "op", "op", 0.0, 10.0, None],
        [0, 0, "pipeline", "batch_eval", 0.5, 10.0, None],
        [0, 1, "pipeline", "run_case", 2.0, 9.0, None],
        [0, 1, "feature_store", "ingest", 0.5, 2.0, {"rows": 5}],
        [0, 2, "sql.executor", "execute", 2.0, 6.0, None],
    ]
    # Uncovered: 0.5 s in the op, 1 s in batch_eval, 3 s in run_case.
    assert layer_metrics(tracer, {}, 1.0)["trace.coverage"] == pytest.approx(1 - 4.5 / 10)
