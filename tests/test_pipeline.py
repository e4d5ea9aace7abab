import hashlib
import json
import shutil
import threading
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from evidencesql import pipeline
from evidencesql.agents import Question
from evidencesql.backends import (
    TASK_RANGES,
    BackendConfig,
    LlmBackendPort,
    ScriptedBackend,
    TemplateBackend,
)
from evidencesql.errors import BackendError, ConfigError
from evidencesql.feature_store import ingest_case_dir
from evidencesql.knowledge import ranges_from_json_list
from evidencesql.pipeline import (
    RunConfig,
    batch_eval,
    load_questions,
    run_case,
    select_question,
    write_case_outputs,
)
from evidencesql.sql.guard import GuardRejection

from datasets import OPTIONS, PAPILLARY, QUESTION_TEXT, RANGE_FIXTURE


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


# -- per-run range memo and per-case fault isolation --------------------------------


class CountingBackend(LlmBackendPort):
    """Template replies for the agents and a fixed interval per option for
    range prompts; counts calls by task. ``fail_range_calls`` holds the
    1-based range call numbers that raise ``BackendError`` instead."""

    name = "counting"

    def __init__(self, fail_range_calls=()):
        self.calls: Counter[str] = Counter()
        self.fail_range_calls = set(fail_range_calls)
        self._template = TemplateBackend()
        self._lock = threading.Lock()

    def complete(self, system_prompt, user_prompt, temperature, timeout):
        task = system_prompt.split("\n", 1)[0].removeprefix("Task:").strip()
        with self._lock:
            self.calls[task] += 1
            number = self.calls[task]
        if task != TASK_RANGES:
            return self._template.complete(system_prompt, user_prompt, temperature, timeout)
        if number in self.fail_range_calls:
            raise BackendError("range service unavailable")
        if user_prompt.endswith(PAPILLARY):
            return '{"low": 0.5, "high": 1000.0}'
        return '{"low": 0.0, "high": 0.5}'


@pytest.fixture
def three_cases(eval_dataset, tmp_path):
    """The first three eval cases, copied into their own dataset directory."""
    dataset = tmp_path / "three"
    for case_dir in sorted(eval_dataset["dataset"].iterdir())[:3]:
        shutil.copytree(case_dir, dataset / case_dir.name)
    return dataset


def _output_bytes(out: Path) -> dict[str, bytes]:
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for pattern in ("reports/*", "transcripts/*")
        for p in sorted(out.glob(pattern))
    }


def test_batch_eval_requests_each_range_once(manifest, manifest_path, eval_dataset,
                                             three_cases, tmp_path):
    questions = load_questions(eval_dataset["questions"])
    memo_backend = CountingBackend()
    config = RunConfig(str(manifest_path), str(tmp_path / "memo"))
    summary = batch_eval(config, three_cases, questions, backend=memo_backend)
    assert summary.n_cases == 3 and summary.failures == []

    plain_backend = CountingBackend()
    plain_out = tmp_path / "plain"
    per_case_calls = []
    for case_dir in sorted(three_cases.iterdir()):
        bundle = ingest_case_dir(manifest, case_dir)
        before = plain_backend.calls[TASK_RANGES]
        result = run_case(manifest, bundle, select_question(questions, bundle.case_id),
                          config, plain_backend)
        per_case_calls.append(plain_backend.calls[TASK_RANGES] - before)
        write_case_outputs(plain_out, result)

    # every case observes the same F features, so each asks for F x O ranges
    assert per_case_calls[0] > 0 and per_case_calls[0] % len(OPTIONS) == 0
    assert per_case_calls == [per_case_calls[0]] * 3
    assert memo_backend.calls[TASK_RANGES] == per_case_calls[0]
    memo_files = _output_bytes(Path(config.out_dir))
    assert len(memo_files) == 9
    assert memo_files == _output_bytes(plain_out)
    # the last case read every range from the memo and was scored against it
    last_case = sorted(three_cases.iterdir())[-1].name
    report = json.loads(memo_files[f"reports/{last_case}.json"])
    assert any(f["fits"] for f in report["hypothesis"]["findings"])


def test_range_backend_error_is_not_memoized(manifest_path, eval_dataset, three_cases,
                                             tmp_path):
    backend = CountingBackend(fail_range_calls={1})
    config = RunConfig(str(manifest_path), str(tmp_path / "out"))
    batch_eval(config, three_cases, load_questions(eval_dataset["questions"]),
               backend=backend)
    first, second, _ = (
        json.loads((Path(config.out_dir) / "reports" / f"{d.name}.json").read_text())
        for d in sorted(three_cases.iterdir())
    )
    assert any(n.startswith("range generation unavailable")
               for n in first["data_quality_notes"])
    assert not any(f["fits"] for f in first["hypothesis"]["findings"])
    assert not any(n.startswith("range generation unavailable")
                   for n in second["data_quality_notes"])
    assert any(f["fits"] for f in second["hypothesis"]["findings"])


def test_batch_eval_memo_output_does_not_depend_on_workers(manifest_path, eval_dataset,
                                                           three_cases, tmp_path):
    questions = load_questions(eval_dataset["questions"])
    outputs = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        config = RunConfig(str(manifest_path), str(out), workers=workers)
        batch_eval(config, three_cases, questions, backend=CountingBackend())
        outputs.append((_output_bytes(out), (out / "summary.json").read_bytes()))
    assert len(outputs[0][0]) == 9
    assert outputs[0] == outputs[1]


def test_batch_eval_records_any_exception_per_case(manifest_path, eval_dataset,
                                                   three_cases, tmp_path, monkeypatch):
    broken = sorted(three_cases.iterdir())[1].name
    real_run_case = pipeline.run_case

    def run_case_or_raise(manifest, bundle, *args):
        if bundle.case_id == broken:
            raise RuntimeError("unexpected fault")
        return real_run_case(manifest, bundle, *args)

    monkeypatch.setattr(pipeline, "run_case", run_case_or_raise)
    config = RunConfig(str(manifest_path), str(tmp_path / "out"))
    summary = batch_eval(config, three_cases, load_questions(eval_dataset["questions"]),
                         backend=TemplateBackend())
    written = json.loads((Path(config.out_dir) / "summary.json").read_text())
    assert written == summary.to_json_dict()
    assert summary.failures == [{"case_id": broken, "error": "RuntimeError: unexpected fault"}]
    assert summary.n_cases == 2
    assert sorted(p.name for p in (Path(config.out_dir) / "reports").glob("*.json")) == sorted(
        f"{d.name}.json" for d in three_cases.iterdir() if d.name != broken
    )
