import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from evidencesql.agents import Question
from evidencesql.backends import BackendConfig, ScriptedBackend, TemplateBackend
from evidencesql.errors import ConfigError
from evidencesql.knowledge import ranges_from_json_list
from evidencesql.pipeline import (
    RunConfig,
    batch_eval,
    load_questions,
    run_case,
    write_case_outputs,
)
from evidencesql.sql.guard import GuardRejection

from datasets import OPTIONS, QUESTION_TEXT, RANGE_FIXTURE


@pytest.fixture(scope="module")
def schemas():
    import evidencesql.fixtures

    root = Path(evidencesql.fixtures.__path__[0])
    return {
        "report": json.loads((root / "report.schema.json").read_text(encoding="utf-8")),
        "hypothesis": json.loads((root / "hypothesis.schema.json").read_text(encoding="utf-8")),
    }


@pytest.fixture
def question():
    return Question("demo_case", QUESTION_TEXT, OPTIONS)


@pytest.fixture
def file_ranges():
    return ranges_from_json_list(RANGE_FIXTURE)


def make_config(tmp_path, mode="full", backend_kind="template", **kwargs):
    return RunConfig(
        manifest_path="unused", out_dir=str(tmp_path / "out"), mode=mode,
        backend=BackendConfig(kind=backend_kind), **kwargs,
    )


def test_full_mode_report_validates_against_schema(manifest, demo_bundle, question,
                                                   file_ranges, tmp_path, schemas):
    config = make_config(tmp_path)
    result = run_case(manifest, demo_bundle, question, config, TemplateBackend(), file_ranges)
    jsonschema.validate(result.report, schemas["report"])
    jsonschema.validate(result.report["hypothesis"], schemas["hypothesis"])
    assert result.report["diagnosis"]["label"] == "tubular_adenocarcinoma"
    assert result.report["transcripts_ref"] == "transcripts/demo_case.json"


def test_sql_only_report_validates(manifest, demo_bundle, question, file_ranges,
                                   tmp_path, schemas):
    config = make_config(tmp_path, mode="sql_only")
    result = run_case(manifest, demo_bundle, question, config, TemplateBackend(), file_ranges)
    jsonschema.validate(result.report, schemas["report"])
    assert result.report["decision"]["alpha"] == 0.0


def test_cnn_only_skips_sql_branch(manifest, demo_bundle, question, tmp_path, schemas):
    config = make_config(tmp_path, mode="cnn_only")
    result = run_case(manifest, demo_bundle, question, config, TemplateBackend())
    jsonschema.validate(result.report, schemas["report"])
    assert result.report["sql_trace"] == []
    assert result.report["hypothesis"] is None
    assert result.transcripts == []


def test_full_mode_without_cnn_probs_is_config_error(manifest, demo_bundle, question,
                                                     tmp_path):
    stripped = demo_bundle.__class__(
        case_id=demo_bundle.case_id, tables=demo_bundle.tables,
        cnn_probs=None, ground_truth=demo_bundle.ground_truth,
    )
    config = make_config(tmp_path)
    with pytest.raises(ConfigError):
        run_case(manifest, stripped, question, config, TemplateBackend())


def test_template_backend_produces_no_narrative(manifest, demo_bundle, question,
                                                file_ranges, tmp_path):
    config = make_config(tmp_path)
    result = run_case(manifest, demo_bundle, question, config, TemplateBackend(), file_ranges)
    assert "Generated narrative" not in result.markdown


def test_remote_kind_backend_appends_labeled_narrative(manifest, demo_bundle, question,
                                                       file_ranges, tmp_path):
    global_resp = TemplateBackend().complete(
        "Task: global-feature-analysis\n" + _schema_text(manifest), "", 0, 0,
    )
    local_resp = TemplateBackend().complete(
        "Task: local-feature-analysis\n" + _schema_text(manifest), "", 0, 0,
    )
    backend = ScriptedBackend([
        global_resp,
        local_resp,
        "DECLINE",  # range generation
        "The measured features consistently support the first option.",
    ])
    config = make_config(tmp_path, backend_kind="remote")
    result = run_case(manifest, demo_bundle, question, config, backend, file_ranges)
    assert "## Generated narrative" in result.markdown
    assert "consistently support" in result.markdown
    # narrative never enters the structured report
    assert "consistently support" not in json.dumps(result.report)


def _schema_text(manifest):
    from evidencesql.agents import render_schema_dictionary

    return render_schema_dictionary(manifest)


def test_write_case_outputs_paths(manifest, demo_bundle, question, file_ranges, tmp_path):
    config = make_config(tmp_path)
    result = run_case(manifest, demo_bundle, question, config, TemplateBackend(), file_ranges)
    write_case_outputs(config.out_dir, result)
    out = Path(config.out_dir)
    assert (out / "reports" / "demo_case.json").exists()
    assert (out / "reports" / "demo_case.md").exists()
    transcripts = json.loads(
        (out / "transcripts" / "demo_case.json").read_text(encoding="utf-8")
    )
    assert [t["agent"] for t in transcripts["transcripts"]] == ["global", "local"]
    for t in transcripts["transcripts"]:
        assert len(t["extracted_queries"]) == len(t["guard_outcomes"])
        assert t["attempts"]


def test_offline_runs_are_pure_functions_of_inputs(manifest, demo_bundle, question,
                                                   file_ranges, tmp_path):
    config_a = make_config(tmp_path / "a")
    config_b = make_config(tmp_path / "b")
    first = run_case(manifest, demo_bundle, question, config_a, TemplateBackend(), file_ranges)
    second = run_case(manifest, demo_bundle, question, config_b, TemplateBackend(), file_ranges)
    assert first.report == second.report
    assert first.markdown == second.markdown
    assert [t.to_json_dict() for t in first.transcripts] == [
        t.to_json_dict() for t in second.transcripts
    ]


def test_run_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig(manifest_path="m", out_dir="o", mode="nope")
    with pytest.raises(ConfigError):
        RunConfig(manifest_path="m", out_dir="o", alpha=2.0)
    with pytest.raises(ConfigError):
        RunConfig(manifest_path="m", out_dir="o", workers=0)
    config = RunConfig(manifest_path="m", out_dir="o")
    assert config.config_hash() == config.config_hash()
    assert config.config_hash() != RunConfig(manifest_path="m", out_dir="o",
                                             alpha=0.5).config_hash()
    # run.json is part of the audit trail: the same settings keep their digest
    assert config.config_hash() == (
        "2013b49a08ad3bd026f386e3a2459d3db9c5e99708f2c831f8306af10dd6825a"
    )
    config = RunConfig(
        "m", "o", mode="sql_only", alpha=0.5, ranges_path="r.json",
        backend=BackendConfig(kind="remote", max_retries=0), workers=3,
    )
    assert config.config_hash() == (
        "943be768bc12e72d0535c73f681f05ba202f9296a86aea357b3a4006a8fa9cc5"
    )


def test_public_exports_resolve():
    import evidencesql
    import evidencesql.sql

    for module in (evidencesql, evidencesql.sql):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_execution_error_lands_in_trace_not_findings(manifest, demo_bundle,
                                                     question, tmp_path):
    """A validated query that fails at execution is recorded with its error
    and produces no findings; the queries after it still execute."""
    stripped = demo_bundle.__class__(
        case_id="stripped",
        tables={k: v for k, v in demo_bundle.tables.items() if k != "global_features"},
        cnn_probs=demo_bundle.cnn_probs, ground_truth=demo_bundle.ground_truth,
    )
    config = make_config(tmp_path, mode="sql_only")
    result = run_case(manifest, stripped, question, config, TemplateBackend())
    trace = result.report["sql_trace"]
    errored = [e for e in trace if "error" in e]
    assert [e["query_id"] for e in errored] == [0]
    assert errored[0]["error"]["kind"] == "table_not_in_bundle"
    later = [e for e in trace if e["query_id"] > 0]
    assert later and all("rows" in e for e in later)
    finding_ids = {f["query_id"] for f in result.report["hypothesis"]["findings"]}
    assert 0 not in finding_ids
    assert finding_ids & {e["query_id"] for e in later}


def test_grouping_rejection_is_recorded_not_raised(manifest, demo_bundle, question,
                                                   file_ranges, tmp_path):
    """An aggregate in ORDER BY of an ungrouped query is a guard rejection in
    the local transcript, not an executor crash that ends the case."""
    global_resp = TemplateBackend().complete(
        "Task: global-feature-analysis\n" + _schema_text(manifest), "", 0, 0,
    )
    local_resp = (
        "```sql\nSELECT 1 AS one FROM cells ORDER BY COUNT(*)\n```\n"
        "```sql\nSELECT COUNT(*) AS n FROM cells\n```\n"
    )
    backend = ScriptedBackend([global_resp, local_resp])
    config = make_config(tmp_path, mode="sql_only")
    result = run_case(manifest, demo_bundle, question, config, backend, file_ranges)
    local = next(t for t in result.transcripts if t.agent == "local")
    outcome = local.guard_outcomes[0]
    assert isinstance(outcome, GuardRejection)
    assert outcome.stage == "schema"
    assert [e["canonical_text"] for e in result.report["sql_trace"]][-1] == (
        "SELECT COUNT(*) AS n FROM cells"
    )


# sha256 over the sorted (relpath, sha256) pairs of a full-mode batch over the
# 20-case eval dataset. Refactors must keep every report byte; a deliberate
# output change updates this constant and says why.
EVAL_FULL_OUTPUT_DIGEST = "f0aadf9351e02f060b74037f0f1a2d5140e9f5ce605d1cb463d4a760c784051c"


def test_eval_dataset_report_bytes_are_pinned(manifest_path, eval_dataset, tmp_path):
    out = tmp_path / "out"
    config = RunConfig(
        manifest_path=str(manifest_path), out_dir=str(out), mode="full",
        alpha=0.7, ranges_path=str(eval_dataset["ranges"]),
    )
    batch_eval(config, eval_dataset["dataset"], load_questions(eval_dataset["questions"]),
               backend=TemplateBackend())
    files = [out / "summary.json"]
    for pattern in ("reports/*.json", "reports/*.md", "transcripts/*.json"):
        files += out.glob(pattern)
    assert len(files) == 61  # summary + 20 x (report json, report md, transcript)
    pairs = sorted(
        (p.relative_to(out).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest())
        for p in files
    )
    digest = hashlib.sha256("".join(f"{rel} {h}\n" for rel, h in pairs).encode()).hexdigest()
    assert digest == EVAL_FULL_OUTPUT_DIGEST
