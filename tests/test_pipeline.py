import gc
import hashlib
import json
import re
import shutil
import sys
import threading
import time
import weakref
from collections import Counter
from functools import partial
from pathlib import Path

import jsonschema
import pytest

from evidencesql import agents, pipeline, serialize
from evidencesql.agents import Question
from evidencesql.backends import (
    TASK_GLOBAL,
    TASK_LOCAL,
    TASK_NARRATIVE,
    TASK_RANGES,
    BackendConfig,
    LlmBackendPort,
    TemplateBackend,
    Unanswered,
    ask_backend,
    ask_each,
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
from markdown_blocks import scan
from scripted_backend import ScriptedBackend
from test_batch_digests import batch_digests
from test_batch_faults import DownBackend


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
    """The missing classifier output is reported before any prompt is asked."""
    stripped = demo_bundle.__class__(
        case_id=demo_bundle.case_id, tables=demo_bundle.tables,
        cnn_probs=None, ground_truth=demo_bundle.ground_truth,
    )
    for backend_kind in ("template", "remote"):
        backend = CountingBackend()
        config = make_config(tmp_path, backend_kind=backend_kind)
        with pytest.raises(ConfigError, match="mode 'full' requires classifier probabilities"):
            run_case(manifest, stripped, question, config, backend)
        assert backend.calls.total() == 0, backend_kind


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


def test_run_config_bounds_workers_by_calls_in_flight():
    """``workers`` may not exceed the run's cap on calls in flight, so the
    cases it admits stay bounded whatever a caller passes."""
    assert RunConfig("m", "o", workers=pipeline._CALLS_IN_FLIGHT).workers == 32
    with pytest.raises(ConfigError, match=r"workers must lie in \[1, 32\], got 33"):
        RunConfig("m", "o", workers=pipeline._CALLS_IN_FLIGHT + 1)


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


def test_arithmetic_domain_from_an_agent_query_is_recorded_in_the_trace(
        manifest, demo_bundle, question, file_ranges, tmp_path):
    """A square root of a negative value in an agent's query is an error in
    its trace entry, naming the source row; the case still completes."""
    global_resp = TemplateBackend().complete(
        "Task: global-feature-analysis\n" + _schema_text(manifest), "", 0, 0,
    )
    local_resp = (
        "```sql\nSELECT SQRT(area - 300) AS s FROM cells\n```\n"
        "```sql\nSELECT COUNT(*) AS n FROM cells\n```\n"
    )
    backend = ScriptedBackend([global_resp, local_resp])
    config = make_config(tmp_path, mode="sql_only")
    result = run_case(manifest, demo_bundle, question, config, backend, file_ranges)
    trace = result.report["sql_trace"]
    errored = [e for e in trace if "error" in e]
    assert [e["canonical_text"] for e in errored] == ["SELECT SQRT(area - 300) AS s FROM cells"]
    error = errored[0]["error"]
    assert (error["kind"], error["row_index"]) == ("arithmetic_domain", 4)  # area 290.0
    assert "rows" in trace[-1] and trace[-1]["canonical_text"] == "SELECT COUNT(*) AS n FROM cells"


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


def test_out_of_range_literal_is_a_local_rejection(manifest, demo_bundle, question,
                                                   file_ranges, tmp_path):
    """A literal beyond float range is refused by the guard, so no ``inf``
    reaches a result row and the case's outputs still serialize."""
    global_resp = TemplateBackend().complete(
        "Task: global-feature-analysis\n" + _schema_text(manifest), "", 0, 0,
    )
    local_resp = (
        "```sql\nSELECT 1e999 AS x FROM cells\n```\n"
        "```sql\nSELECT COUNT(*) AS n FROM cells\n```\n"
    )
    backend = ScriptedBackend([global_resp, local_resp])
    config = make_config(tmp_path, mode="sql_only")
    result = run_case(manifest, demo_bundle, question, config, backend, file_ranges)
    local = next(t for t in result.transcripts if t.agent == "local")
    outcome = local.guard_outcomes[0]
    assert isinstance(outcome, GuardRejection)
    assert outcome.reason == "numeric literal out of range"
    write_case_outputs(tmp_path / "out", result)
    assert (tmp_path / "out" / "reports" / "demo_case.json").exists()


@pytest.mark.parametrize("agent, sql", [
    ("global", "SELECT 'x | y' AS a, 'ok\n## Diagnosis: spoofed (confidence 1.000000)' AS b "
               "FROM global_features"),
    ("local", "SELECT COUNT('x\n## Diagnosis: spoof') FROM cells"),
])
def test_query_text_adds_no_cell_row_or_heading_to_the_markdown(
        agent, sql, manifest, demo_bundle, question, file_ranges, tmp_path):
    """A ``|`` or a line break in a result cell, a column name or a note
    built from one adds no column, row or heading to the markdown report;
    the JSON report keeps the text as the query gave it."""
    global_resp = TemplateBackend().complete(
        "Task: global-feature-analysis\n" + _schema_text(manifest), "", 0, 0,
    )
    if agent == "global":
        responses = [global_resp.replace("SELECT * FROM global_features", sql),
                     "```sql\nSELECT COUNT(*) AS n FROM cells\n```\n"]
    else:
        responses = [global_resp, f"```sql\n{sql}\n```\n"]
    config = make_config(tmp_path, mode="sql_only")
    result = run_case(manifest, demo_bundle, question, config,
                      ScriptedBackend(responses), file_ranges)
    [entry] = [e for e in result.report["sql_trace"] if e["canonical_text"] == sql]
    assert any("\n" in text for text in entry["columns"] + entry["rows"][0]
               if isinstance(text, str))

    blocks = scan(result.markdown)
    label = result.report["diagnosis"]["label"]
    assert [line.split(" (")[0] for line in blocks.headings
            if line.startswith("## Diagnosis")] == [f"## Diagnosis: {label}"]
    header_pipes = None
    for line in blocks.outside:
        pipes = len(re.findall(r"(?<!\\)\|", line))
        if not line.startswith("|"):
            header_pipes = None
        elif header_pipes is None:
            header_pipes = pipes
        else:
            assert pipes == header_pipes, line


# sha256 over the sorted (relpath, sha256) pairs of a batch over the 20-case
# eval dataset, as tools/batch_digests.py's output_digest takes it, one per
# mode. Refactors must keep every report byte; a deliberate output change
# updates these constants and says why.
EVAL_FULL_OUTPUT_DIGEST = "f0aadf9351e02f060b74037f0f1a2d5140e9f5ce605d1cb463d4a760c784051c"
EVAL_SQL_ONLY_OUTPUT_DIGEST = "0a39645d1b0e0c5e554815c06843ce7984e775a9273dd189989b5736640ad9b7"
EVAL_CNN_ONLY_OUTPUT_DIGEST = "c99c365ac1af4faf972e0dcbdc60089bfc8b28a177295e17034916666bb1177f"


# summary + 20 x (report json, report md[, transcript]): cnn_only asks no agent
@pytest.mark.parametrize("mode, files, digest", [
    ("full", 61, EVAL_FULL_OUTPUT_DIGEST),
    ("sql_only", 61, EVAL_SQL_ONLY_OUTPUT_DIGEST),
    ("cnn_only", 41, EVAL_CNN_ONLY_OUTPUT_DIGEST),
], ids=["full", "sql_only", "cnn_only"])
def test_eval_dataset_report_bytes_are_pinned(manifest_path, eval_dataset, tmp_path,
                                              mode, files, digest):
    out = tmp_path / "out"
    config = RunConfig(
        manifest_path=str(manifest_path), out_dir=str(out), mode=mode,
        alpha=0.7, ranges_path=str(eval_dataset["ranges"]),
    )
    batch_eval(config, eval_dataset["dataset"], load_questions(eval_dataset["questions"]),
               backend=TemplateBackend())
    assert len(batch_digests.output_files(out)) == files
    assert batch_digests.output_digest(out) == digest


# sha256 of summary.json from a cnn_only batch over the eval dataset plus two
# broken cases: the classifier misses three cases, so per-class accuracy is
# below 1, and both broken cases land in ``failures``.
EVAL_CNN_ONLY_SUMMARY_DIGEST = "9387d5a79264ab3378284688db84f9f9ba9b5e05bfc8e40a1b18c6dd6f6ec902"


def test_eval_dataset_cnn_only_summary_bytes_are_pinned(manifest_path, eval_dataset, tmp_path):
    dataset = tmp_path / "dataset"
    shutil.copytree(eval_dataset["dataset"], dataset)
    shutil.copytree(dataset / "case_00", dataset / "case_98_sidecar_list")
    (dataset / "case_98_sidecar_list" / "sidecar.json").write_text("[]", encoding="utf-8")
    shutil.copytree(dataset / "case_01", dataset / "case_99_bad_cell_type")
    cells = dataset / "case_99_bad_cell_type" / "cells.csv"
    header, first, *rest = cells.read_text(encoding="utf-8").splitlines()
    column = header.split(",").index("cell_type")
    fields = first.split(",")
    fields[column] = "bogus"
    cells.write_text("\n".join([header, ",".join(fields), *rest]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    config = RunConfig(manifest_path=str(manifest_path), out_dir=str(out), mode="cnn_only")
    summary = batch_eval(config, dataset, load_questions(eval_dataset["questions"]),
                         backend=TemplateBackend())
    assert summary.accuracy < 1 and len(summary.failures) == 2
    assert min(summary.per_class_accuracy.values()) < 1
    digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    assert digest == EVAL_CNN_ONLY_SUMMARY_DIGEST


# -- the driver: one memo, one I/O pool ---------------------------------------------


class EchoBackend(LlmBackendPort):
    """Replies ``reply to <user prompt>`` after ``delay`` seconds, counting
    calls by prompt pair and noting the threads they ran on; ``fail_first``
    names user prompts whose first call raises ``BackendError``."""

    name = "echo"

    def __init__(self, delay=0.0, fail_first=()):
        self.delay = delay
        self.fail_first = set(fail_first)
        self.calls: Counter[tuple[str, str]] = Counter()
        self.threads: set[int] = set()
        self._lock = threading.Lock()

    def complete(self, system_prompt, user_prompt, temperature, timeout):
        with self._lock:
            self.calls[system_prompt, user_prompt] += 1
            self.threads.add(threading.get_ident())
            first = self.calls[system_prompt, user_prompt] == 1
        time.sleep(self.delay)
        if first and user_prompt in self.fail_first:
            raise BackendError(f"no reply to {user_prompt}")
        return f"reply to {user_prompt}"


def _asking(prompts):
    """A case's steps for ``_drive`` that ask ``prompts`` in one wave and
    return their replies."""
    return lambda book: pipeline._answered(ask_each, book, BackendConfig(), prompts)


def test_driver_asks_each_prompt_once_across_cases_in_flight():
    """Sixteen cases, eight holding tables at once, ask overlapping prompts
    of a remote-kind backend, off the calling thread: each distinct prompt
    goes to the backend once, whether another case is asking it or has had
    its reply, and every case reads that reply."""
    backend = EchoBackend(delay=0.002)
    prompts = [("Task: t", f"p{k}") for k in range(20)]
    cases = [(f"case {w}", _asking([prompts[(w + k) % 20] for k in range(20)]))
             for w in range(16)]
    outcomes = {}
    pipeline._drive(backend, BackendConfig(kind="remote"), 4, cases, outcomes.__setitem__)
    assert backend.threads and threading.get_ident() not in backend.threads
    assert backend.calls == Counter(prompts)
    assert outcomes == {f"case {w}": [f"reply to p{(w + k) % 20}" for k in range(20)]
                        for w in range(16)}


@pytest.mark.parametrize("kind", ["template", "remote"])
def test_driver_passes_on_an_exception_outside_exception_from_an_ask(kind):
    """An ask that raises ``SystemExit`` still posts its answer, so the
    driver does not wait on it forever: the case waiting on it raises it
    again, and it leaves the run as it would from the calling thread. The
    run has its own thread here, so a driver that waits fails the test."""
    raised = []

    class ExitingBackend(EchoBackend):
        def complete(self, system_prompt, user_prompt, temperature, timeout):
            raise SystemExit(3)

    def run():
        try:
            pipeline._drive(ExitingBackend(), BackendConfig(kind=kind), 1,
                            [("case", _asking([("Task: t", "k")]))], {}.__setitem__)
        except SystemExit as exc:
            raised.append(exc.code)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(10)
    assert raised == [3]


def test_driver_runs_an_answered_case_before_it_admits_the_next(monkeypatch):
    """On a remote-kind backend too, a case whose replies are in runs
    before the next case is ingested: the driver admits a case only when no
    admitted case is ready. Each case here drops its tables before it asks,
    so neither cap on admission binds, and the first case's reply is posted
    while the second case is being ingested."""
    events, ingesting_b, posted = [], threading.Event(), threading.Event()

    class PostingQueue(pipeline.SimpleQueue):
        def put(self, item, block=True, timeout=None):
            super().put(item, block, timeout)
            posted.set()

    class GatedBackend(EchoBackend):
        def complete(self, system_prompt, user_prompt, temperature, timeout):
            assert user_prompt != "a" or ingesting_b.wait(5)
            return super().complete(system_prompt, user_prompt, temperature, timeout)

    def steps(name, book):
        events.append(("ingest", name))
        if name == "b":
            ingesting_b.set()
            assert posted.wait(5)
        yield  # holds no table
        reply = yield from pipeline._answered(ask_backend, book, BackendConfig(), "Task: t", name)
        events.append(("run", name))
        return reply

    monkeypatch.setattr(pipeline, "SimpleQueue", PostingQueue)
    outcomes = {}
    pipeline._drive(GatedBackend(), BackendConfig(kind="remote"), 1,
                    [(name, partial(steps, name)) for name in "abc"], outcomes.__setitem__)
    assert outcomes == {name: f"reply to {name}" for name in "abc"}
    assert events[:3] == [("ingest", "a"), ("ingest", "b"), ("run", "a")]
    assert events.index(("run", "a")) < events.index(("ingest", "c"))


def test_driver_failure_reaches_every_waiting_case_and_is_not_stored():
    """A prompt that fails fails every case waiting on it, each with that
    error; a case admitted later asks it afresh and reads the reply. At one
    worker ``_HOLDERS_PER_WORKER`` cases are analysed at once, so the one
    after them waits for a slot."""
    backend = EchoBackend(delay=0.05, fail_first={"k"})
    waiting = [f"case {i}" for i in range(pipeline._HOLDERS_PER_WORKER)]
    cases = [(name, _asking([("Task: t", "k")])) for name in (*waiting, "later")]
    outcomes = {}
    pipeline._drive(backend, BackendConfig(kind="remote"), 1, cases, outcomes.__setitem__)
    assert isinstance(outcomes["case 0"], BackendError)
    assert all(outcomes[name] is outcomes["case 0"] for name in waiting)
    assert str(outcomes["case 0"]) == "no reply to k"
    assert outcomes["later"] == ["reply to k"]
    assert backend.calls == Counter({("Task: t", "k"): 2})


# -- per-run reply memo and per-case fault isolation --------------------------------


class CountingBackend(LlmBackendPort):
    """Template replies for the agents, a fixed interval per option for
    range prompts and a one-line narrative; counts calls by task and by
    prompt pair. ``fail_calls`` maps a task to the 1-based call numbers
    of that task that raise ``error`` (``BackendError`` by default)
    instead, and so does every call of a prompt pair in ``fail_prompts``;
    each call first waits ``delay`` seconds, like a hosted model.
    ``peak`` holds the most calls of each task in flight at once, and
    under ``"all"`` of any task; ``met`` holds the tasks in flight when a
    call of each task began."""

    name = "counting"

    def __init__(self, fail_calls=None, delay=0.0, error=BackendError, fail_prompts=()):
        self.calls: Counter[str] = Counter()
        self.prompts: Counter[tuple[str, str]] = Counter()
        self.fail_calls = fail_calls or {}
        self.fail_prompts = set(fail_prompts)
        self.delay = delay
        self.error = error
        self.peak: Counter[str] = Counter()
        self.met: dict[str, set[str]] = {}
        self._in_flight: Counter[str] = Counter()
        self._template = TemplateBackend()
        self._lock = threading.Lock()

    def complete(self, system_prompt, user_prompt, temperature, timeout):
        task = system_prompt.split("\n", 1)[0].removeprefix("Task:").strip()
        with self._lock:
            self.calls[task] += 1
            self.prompts[system_prompt, user_prompt] += 1
            number = self.calls[task]
            self.met.setdefault(task, set()).update(+self._in_flight)
            self._in_flight[task] += 1
            self.peak[task] = max(self.peak[task], self._in_flight[task])
            self.peak["all"] = max(self.peak["all"], self._in_flight.total())
        try:
            time.sleep(self.delay)
        finally:
            with self._lock:
                self._in_flight[task] -= 1
        if (number in self.fail_calls.get(task, ())
                or (system_prompt, user_prompt) in self.fail_prompts):
            raise self.error(f"{task} service unavailable")
        if task == TASK_NARRATIVE:
            return f"A narrative over {len(user_prompt)} characters of report."
        if task != TASK_RANGES:
            return self._template.complete(system_prompt, user_prompt, temperature, timeout)
        if user_prompt.endswith(PAPILLARY):
            return '{"low": 0.5, "high": 1000.0}'
        return '{"low": 0.0, "high": 0.5}'


def _first_cases(eval_dataset, dataset: Path, n: int) -> Path:
    """The first ``n`` eval cases, copied into ``dataset``."""
    for case_dir in sorted(eval_dataset["dataset"].iterdir())[:n]:
        shutil.copytree(case_dir, dataset / case_dir.name)
    return dataset


@pytest.fixture
def three_cases(eval_dataset, tmp_path):
    """The first three eval cases, copied into their own dataset directory."""
    return _first_cases(eval_dataset, tmp_path / "three", 3)


@pytest.fixture
def cases_past_the_holders(eval_dataset, tmp_path):
    """The first ``_HOLDERS_PER_WORKER + 1`` eval cases, one more than a
    worker lets hold tables at once, copied into their own dataset
    directory."""
    return _first_cases(eval_dataset, tmp_path / "past", pipeline._HOLDERS_PER_WORKER + 1)


def _output_bytes(out: Path) -> dict[str, bytes]:
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for pattern in ("reports/*", "transcripts/*")
        for p in sorted(out.glob(pattern))
    }


def _run_each_case(manifest, dataset, questions, config, backend, out, task):
    """``run_case`` over each case with no memo, writing into ``out``; the
    number of ``task`` calls each case made."""
    calls = []
    for case_dir in sorted(dataset.iterdir()):
        bundle = ingest_case_dir(manifest, case_dir)
        before = backend.calls[task]
        result = run_case(manifest, bundle, select_question(questions, bundle.case_id),
                          config, backend)
        calls.append(backend.calls[task] - before)
        write_case_outputs(out, result)
    return calls


def test_batch_eval_requests_each_range_once(manifest, manifest_path, eval_dataset,
                                             three_cases, tmp_path):
    """Each range, and every other distinct prompt, the global agent's
    included, is asked once per run; the outputs match a per-case run
    with no memo."""
    questions = load_questions(eval_dataset["questions"])
    memo_backend = CountingBackend()
    config = RunConfig(str(manifest_path), str(tmp_path / "memo"))
    summary = batch_eval(config, three_cases, questions, backend=memo_backend)
    assert summary.n_cases == 3 and summary.failures == []
    assert memo_backend.calls[TASK_GLOBAL] == 1
    assert memo_backend.calls[TASK_LOCAL] == 3
    assert set(memo_backend.prompts.values()) == {1}

    plain_backend = CountingBackend()
    plain_out = tmp_path / "plain"
    per_case_calls = _run_each_case(manifest, three_cases, questions, config,
                                    plain_backend, plain_out, TASK_RANGES)

    # every case observes the same F features, so each asks for F x O ranges
    assert per_case_calls[0] > 0 and per_case_calls[0] % len(OPTIONS) == 0
    assert per_case_calls == [per_case_calls[0]] * 3
    assert memo_backend.calls[TASK_RANGES] == per_case_calls[0]
    assert plain_backend.calls[TASK_GLOBAL] == 3
    assert set(plain_backend.prompts) == set(memo_backend.prompts)
    memo_files = _output_bytes(Path(config.out_dir))
    assert len(memo_files) == 9
    assert memo_files == _output_bytes(plain_out)
    # the last case read every range from the memo and was scored against it
    last_case = sorted(three_cases.iterdir())[-1].name
    report = json.loads(memo_files[f"reports/{last_case}.json"])
    assert any(f["fits"] for f in report["hypothesis"]["findings"])
    # every transcript records the one global exchange as if it were asked
    global_attempts = [doc["transcripts"][0]["attempts"]
                       for doc in _transcript_docs(Path(config.out_dir))]
    assert len(global_attempts) == 3 and global_attempts[0]
    assert global_attempts == [global_attempts[0]] * 3


def test_range_backend_error_is_not_memoized(manifest_path, eval_dataset, three_cases,
                                             tmp_path):
    backend = CountingBackend(fail_calls={TASK_RANGES: {1}})
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


def test_agent_backend_error_is_not_memoized(manifest_path, eval_dataset, three_cases,
                                             tmp_path):
    backend = CountingBackend(fail_calls={TASK_GLOBAL: {1}})
    config = RunConfig(str(manifest_path), str(tmp_path / "out"))
    summary = batch_eval(config, three_cases, load_questions(eval_dataset["questions"]),
                         backend=backend)
    first = sorted(three_cases.iterdir())[0].name
    assert summary.failures == [
        {"case_id": first, "error": f"{TASK_GLOBAL} service unavailable"}]
    assert summary.n_cases == 2
    assert backend.calls[TASK_GLOBAL] == 2


def test_reply_memo_is_not_shared_across_runs(manifest_path, eval_dataset, three_cases,
                                              tmp_path):
    questions = load_questions(eval_dataset["questions"])
    backend = CountingBackend()
    batch_eval(RunConfig(str(manifest_path), str(tmp_path / "first")), three_cases,
               questions, backend=backend)
    first = Counter(backend.prompts)
    batch_eval(RunConfig(str(manifest_path), str(tmp_path / "second")), three_cases,
               questions, backend=backend)
    assert first and backend.prompts == first + first


def test_remote_narrative_goes_through_the_memo(manifest, manifest_path, eval_dataset,
                                                three_cases, tmp_path):
    questions = load_questions(eval_dataset["questions"])
    memo_backend = CountingBackend()
    # in cnn_only mode the narrative prompt holds only the classifier's
    # diagnosis, so cases with the same one send the same prompt
    config = RunConfig(str(manifest_path), str(tmp_path / "memo"), mode="cnn_only",
                       backend=BackendConfig(kind="remote"))
    batch_eval(config, three_cases, questions, backend=memo_backend)
    plain_backend = CountingBackend()
    plain_out = tmp_path / "plain"
    per_case_calls = _run_each_case(manifest, three_cases, questions, config,
                                    plain_backend, plain_out, TASK_NARRATIVE)
    assert per_case_calls == [1, 1, 1]
    assert memo_backend.calls == Counter({TASK_NARRATIVE: 2})
    assert set(memo_backend.prompts.values()) == {1}
    memo_files = _output_bytes(Path(config.out_dir))
    assert all("## Generated narrative" in text.decode()
               for name, text in memo_files.items() if name.endswith(".md"))
    assert memo_files == _output_bytes(plain_out)


@pytest.mark.parametrize("mode, kind", [
    ("full", "template"), ("sql_only", "template"), ("cnn_only", "template"), ("full", "remote"),
])
def test_every_json_artifact_is_a_canonical_json_fixed_point(mode, kind, manifest_path,
                                                             eval_dataset, tmp_path):
    """Each JSON file a batch writes parses to a tree that ``canonical_json``
    writes as the same text, so a report rebuilt from its JSON compares
    byte for byte. The remote-kind batch fetches its ranges from the
    backend."""
    out = tmp_path / "out"
    config = RunConfig(str(manifest_path), str(out), mode=mode,
                       ranges_path=str(eval_dataset["ranges"]) if kind == "template" else None,
                       backend=BackendConfig(kind=kind))
    backend = TemplateBackend() if kind == "template" else CountingBackend()
    batch_eval(config, eval_dataset["dataset"], load_questions(eval_dataset["questions"]),
               backend=backend)
    files = sorted(out.rglob("*.json"))
    written = {"reports", "summary.json", "run.json"} | (
        set() if mode == "cnn_only" else {"transcripts"})
    assert {p.relative_to(out).parts[0] for p in files} == written
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert serialize.canonical_json(json.loads(text)) == text, path


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
    real_plan_global = pipeline.plan_global

    def plan_global_or_raise(question, *args, **kwargs):
        if question.case_id == broken:
            raise RuntimeError("unexpected fault")
        return real_plan_global(question, *args, **kwargs)

    monkeypatch.setattr(pipeline, "plan_global", plan_global_or_raise)
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


# -- per-run guard memo ---------------------------------------------------------------


@pytest.fixture
def guard_calls(monkeypatch):
    """Counts guard calls by (source agent, raw SQL text)."""
    calls: Counter[tuple[str, str]] = Counter()
    real_validate = agents.validate_pipeline
    lock = threading.Lock()

    def counting_validate(text, manifest, source_agent="manual"):
        with lock:
            calls[source_agent, text] += 1
        return real_validate(text, manifest, source_agent=source_agent)

    monkeypatch.setattr(agents, "validate_pipeline", counting_validate)
    return calls


def _transcript_docs(out: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((out / "transcripts").glob("*.json"))]


def test_batch_eval_guards_each_agent_text_once(manifest_path, eval_dataset, three_cases,
                                                 tmp_path, guard_calls):
    config = RunConfig(str(manifest_path), str(tmp_path / "out"))
    summary = batch_eval(config, three_cases, load_questions(eval_dataset["questions"]),
                         backend=TemplateBackend())
    assert summary.n_cases == 3 and summary.failures == []
    recorded = Counter(
        (t["agent"], raw)
        for doc in _transcript_docs(Path(config.out_dir))
        for t in doc["transcripts"]
        for raw in t["extracted_queries"]
    )
    assert set(guard_calls) == set(recorded)
    assert set(guard_calls.values()) == {1}
    assert sum(recorded.values()) == 3 * len(recorded)


_REJECTED_SQL = "SELECT 1 AS one FROM cells ORDER BY COUNT(*)"
_SCRIPTED_REPLY = (
    '```json\n{"target_features": [{"table": "global_features", "column": "total_cells",'
    ' "rationale": "size"}]}\n```\n'
    "```sql\nSELECT total_cells AS n FROM global_features\n```\n"
    f"```sql\n{_REJECTED_SQL}\n```\n"
    "```sql\nSELECT COUNT(*) AS n FROM cells\n```\n"
)


def test_memoized_rejection_is_recorded_in_every_case(manifest_path, eval_dataset,
                                                      three_cases, tmp_path, guard_calls):
    config = RunConfig(str(manifest_path), str(tmp_path / "out"), mode="sql_only")
    summary = batch_eval(config, three_cases, load_questions(eval_dataset["questions"]),
                         backend=ScriptedBackend([_SCRIPTED_REPLY]))
    assert summary.n_cases == 3 and summary.failures == []
    assert guard_calls[("global", _REJECTED_SQL)] == 1
    assert guard_calls[("local", _REJECTED_SQL)] == 1
    docs = _transcript_docs(Path(config.out_dir))
    assert len(docs) == 3
    for doc in docs:
        for transcript in doc["transcripts"]:
            index = transcript["extracted_queries"].index(_REJECTED_SQL)
            assert transcript["guard_outcomes"][index]["stage"] == "schema"


def test_guard_memo_is_not_shared_across_runs(manifest_path, eval_dataset, three_cases,
                                              tmp_path, guard_calls):
    questions = load_questions(eval_dataset["questions"])
    batch_eval(RunConfig(str(manifest_path), str(tmp_path / "first")), three_cases,
               questions, backend=TemplateBackend())
    first = Counter(guard_calls)
    batch_eval(RunConfig(str(manifest_path), str(tmp_path / "second")), three_cases,
               questions, backend=TemplateBackend())
    assert first and guard_calls == first + first


def test_batch_eval_output_with_workers_matches_one_worker(manifest_path, eval_dataset,
                                                           tmp_path):
    """With the range and guard memos shared by four workers, every output
    byte of the 20-case eval run matches the one-worker run."""
    questions = load_questions(eval_dataset["questions"])
    outputs = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        config = RunConfig(str(manifest_path), str(out), ranges_path=str(eval_dataset["ranges"]),
                           workers=workers)
        batch_eval(config, eval_dataset["dataset"], questions, backend=CountingBackend())
        outputs.append((_output_bytes(out), (out / "summary.json").read_bytes()))
    assert len(outputs[0][0]) == 60
    assert outputs[0] == outputs[1]


def test_remote_batch_asks_each_prompt_once_at_any_worker_count(manifest_path, eval_dataset,
                                                               tmp_path):
    """Four workers share the reply memo's in-flight entries: they send
    exactly the calls one worker sends, and write the same bytes."""
    questions = load_questions(eval_dataset["questions"])
    runs = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        backend = CountingBackend(delay=0.02)
        config = RunConfig(str(manifest_path), str(out), workers=workers,
                           backend=BackendConfig(kind="remote"))
        batch_eval(config, eval_dataset["dataset"], questions, backend=backend)
        runs.append((backend.prompts, _output_bytes(out), (out / "summary.json").read_bytes()))
    prompts, files, _ = runs[0]
    assert set(prompts.values()) == {1}
    assert {task: sum(1 for system, _ in prompts if system.startswith(f"Task: {task}\n"))
            for task in (TASK_GLOBAL, TASK_LOCAL, TASK_NARRATIVE)} == {
        TASK_GLOBAL: 1, TASK_LOCAL: 20, TASK_NARRATIVE: 20}
    assert len(files) == 60
    assert runs[1] == runs[0]


# -- narrative asked while the next case is analysed --------------------------------


def test_remote_batch_asks_a_narrative_while_the_next_case_is_analysed(
        manifest, manifest_path, eval_dataset, cases_past_the_holders, tmp_path, monkeypatch):
    """At one worker ``_HOLDERS_PER_WORKER`` cases hold tables at once, and
    their range fetches are in flight while the next case's local agent is
    asked, so each case is written after that agent is asked; the last case
    catches up on the shared range wave, so all the narratives are in
    flight at once. The files and prompts are those of each case run on its
    own."""
    holders = pipeline._HOLDERS_PER_WORKER
    n = holders + 1
    questions = load_questions(eval_dataset["questions"])
    backend = CountingBackend(delay=0.1)
    local_calls_at_write = []
    real_write = pipeline.write_case_outputs

    def logged_write(out_dir, result):
        local_calls_at_write.append(backend.calls[TASK_LOCAL])
        real_write(out_dir, result)

    monkeypatch.setattr(pipeline, "write_case_outputs", logged_write)
    config = RunConfig(str(manifest_path), str(tmp_path / "batch"),
                       backend=BackendConfig(kind="remote"))
    summary = batch_eval(config, cases_past_the_holders, questions, backend=backend)
    assert summary.n_cases == n and summary.failures == []
    assert TASK_RANGES in backend.met[TASK_LOCAL]
    assert local_calls_at_write == [n] * n
    assert backend.peak[TASK_LOCAL] == holders and backend.peak[TASK_NARRATIVE] == n

    plain_backend = CountingBackend()
    plain_out = tmp_path / "plain"
    per_case_calls = _run_each_case(manifest, cases_past_the_holders, questions, config,
                                    plain_backend, plain_out, TASK_NARRATIVE)
    assert per_case_calls == [1] * n
    assert set(backend.prompts) == set(plain_backend.prompts)
    assert set(backend.prompts.values()) == {1}
    assert backend.calls[TASK_NARRATIVE] == backend.calls[TASK_LOCAL] == n
    files = _output_bytes(Path(config.out_dir))
    assert len(files) == 3 * n
    assert files == _output_bytes(plain_out)


@pytest.mark.parametrize("fault", ["narrative-raises", "report-path-is-a-directory"])
def test_deferred_case_failure_fails_only_that_case(fault, manifest, manifest_path, eval_dataset,
                                                    three_cases, tmp_path, monkeypatch):
    """A fault in a case's narrative or in writing its files is that case's
    summary entry; the other cases are written, and ``summary.json`` last.
    The narrative fault is drawn on the second case's narrative prompt, as
    that case sends it when run alone: narratives in flight together reach
    the backend in no fixed order."""
    names = [d.name for d in sorted(three_cases.iterdir())]
    broken = names[1]
    out = tmp_path / "out"
    questions = load_questions(eval_dataset["questions"])
    config = RunConfig(str(manifest_path), str(out), backend=BackendConfig(kind="remote"))
    if fault == "narrative-raises":
        alone = CountingBackend()
        run_case(manifest, ingest_case_dir(manifest, three_cases / broken),
                 select_question(questions, broken), config, alone)
        [narrative] = [p for p in alone.prompts if p[0].startswith(f"Task: {TASK_NARRATIVE}\n")]
        backend = CountingBackend(fail_prompts={narrative}, error=RuntimeError)
        expected = re.escape(f"RuntimeError: {TASK_NARRATIVE} service unavailable")
    else:
        backend = CountingBackend()
        report_path = out / "reports" / f"{broken}.json"
        report_path.mkdir(parents=True)
        expected = (r"IsADirectoryError: \[Errno 21\] Is a directory: '.*\.tmp' -> "
                    + re.escape(f"'{report_path}'"))
    written = []
    real_write = serialize.write_text_atomic

    def logged_write(path, text):
        real_write(path, text)
        written.append(Path(path).relative_to(out).as_posix())

    monkeypatch.setattr(serialize, "write_text_atomic", logged_write)
    monkeypatch.setattr(pipeline, "write_text_atomic", logged_write)
    summary = batch_eval(config, three_cases, questions, backend=backend)
    [failure] = summary.failures
    assert failure["case_id"] == broken
    assert re.fullmatch(expected, failure["error"])
    assert summary.n_cases == 2
    assert json.loads((out / "summary.json").read_text()) == summary.to_json_dict()
    assert written[-1] == "summary.json"
    assert sorted(written) == sorted(
        ["run.json", "summary.json"]
        + [f"{kind}/{name}.{ext}" for name in names if name != broken
           for kind, ext in (("reports", "json"), ("reports", "md"), ("transcripts", "json"))])


def test_remote_batch_workers_share_one_case_list(
        manifest_path, eval_dataset, tmp_path):
    """More workers than cores pull from one case list under a short switch
    interval: every case is analysed and written once, and each narrative
    is asked once."""
    questions = load_questions(eval_dataset["questions"])
    backend = CountingBackend(delay=0.005)
    config = RunConfig(str(manifest_path), str(tmp_path / "out"), workers=8,
                       backend=BackendConfig(kind="remote"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        summary = batch_eval(config, eval_dataset["dataset"], questions, backend=backend)
    finally:
        sys.setswitchinterval(interval)
    assert summary.n_cases == 20 and summary.failures == []
    assert backend.calls[TASK_NARRATIVE] == backend.calls[TASK_LOCAL] == 20
    assert set(backend.prompts.values()) == {1}
    assert len(_output_bytes(Path(config.out_dir))) == 60


def test_one_worker_ingests_a_case_while_another_waits_on_its_local_agent(
        manifest_path, eval_dataset, tmp_path, monkeypatch):
    """At one worker on a remote backend that waits, two cases are analysed
    at once: for at least a quarter of the cases, the next case is
    ingested after the case has asked its local agent and before that
    agent's reply is read."""
    events = []
    real_ingest, real_local = pipeline.ingest_case_dir, pipeline.plan_local

    def logged_ingest(manifest, case_dir):
        events.append(("ingest", case_dir.name))
        return real_ingest(manifest, case_dir)

    def logged_local(question, *args, **kwargs):
        try:
            answer = real_local(question, *args, **kwargs)
        except Unanswered:
            events.append(("local asked", question.case_id))
            raise
        events.append(("local read", question.case_id))
        return answer

    monkeypatch.setattr(pipeline, "ingest_case_dir", logged_ingest)
    monkeypatch.setattr(pipeline, "plan_local", logged_local)
    config = RunConfig(str(manifest_path), str(tmp_path / "out"),
                       backend=BackendConfig(kind="remote"))
    summary = batch_eval(config, eval_dataset["dataset"],
                         load_questions(eval_dataset["questions"]),
                         backend=CountingBackend(delay=0.01))
    assert summary.n_cases == 20 and summary.failures == []
    names = sorted(d.name for d in eval_dataset["dataset"].iterdir())
    overlapped = [name for name, later in zip(names, names[1:])
                  if events.index(("local asked", name)) < events.index(("ingest", later))
                  < events.index(("local read", name))]
    assert len(overlapped) >= len(names) // 4, events


@pytest.mark.parametrize("workers", [1, 2])
def test_remote_batch_frees_each_bundle_once_its_case_is_analysed(
        workers, manifest_path, eval_dataset, tmp_path, monkeypatch):
    """A case's bundle is freed, with the cyclic collector off, by the time
    its report is built, so before its narrative is asked; no more than
    ``_HOLDERS_PER_WORKER`` bundles per worker are ever alive, at an ingest
    or at a backend call, and that many are."""
    bundles: dict[str, weakref.ref] = {}
    alive_counts, alive_at_report = [], []
    lock = threading.Lock()
    real_ingest, real_report = pipeline.ingest_case_dir, pipeline.build_report

    def count_alive():
        with lock:
            alive_counts.append(sum(ref() is not None for ref in bundles.values()))

    def tracked_ingest(manifest, case_dir):
        bundle = real_ingest(manifest, case_dir)
        with lock:
            bundles[case_dir.name] = weakref.ref(bundle)
        count_alive()
        return bundle

    def checked_report(question, *args, **kwargs):
        alive_at_report.append(bundles[question.case_id]() is not None)
        return real_report(question, *args, **kwargs)

    class TrackedBackend(CountingBackend):
        def complete(self, system_prompt, user_prompt, temperature, timeout):
            count_alive()
            return super().complete(system_prompt, user_prompt, temperature, timeout)

    monkeypatch.setattr(pipeline, "ingest_case_dir", tracked_ingest)
    monkeypatch.setattr(pipeline, "build_report", checked_report)
    config = RunConfig(str(manifest_path), str(tmp_path / "out"), workers=workers,
                       backend=BackendConfig(kind="remote"))
    questions = load_questions(eval_dataset["questions"])
    gc.collect()
    gc.disable()
    try:
        summary = batch_eval(config, eval_dataset["dataset"], questions,
                             backend=TrackedBackend(delay=0.02))
    finally:
        gc.enable()
    assert summary.n_cases == 20 and summary.failures == []
    assert alive_at_report == [False] * 20
    assert max(alive_counts) == pipeline._HOLDERS_PER_WORKER * workers


def test_remote_case_frees_its_tables_before_its_range_fetch(manifest_path, eval_dataset,
                                                             tmp_path, monkeypatch):
    """At one worker on a remote backend whose narratives are slow, a case
    frees its bundle, with the cyclic collector off, before it asks for
    ranges, so the range waves and the narratives are waited on by cases
    that hold no table: more than ``_HOLDERS_PER_WORKER`` cases are in
    flight while a range prompt is asked, yet no more than that many
    bundles are ever alive, and no more than twelve cases are ever in
    flight, counted from each ingest to its written files."""
    bundles: dict[str, weakref.ref] = {}
    alive_counts, in_flight_counts, in_flight_at_ranges, range_askers_alive = [], [], [], []
    done = Counter()
    lock = threading.Lock()
    real_ingest, real_write, real_steps = (
        pipeline.ingest_case_dir, pipeline.write_case_outputs, pipeline._case_steps)

    def count(at_ranges=False):
        with lock:
            alive_counts.append(sum(ref() is not None for ref in bundles.values()))
            in_flight_counts.append(done["ingest"] - done["write"])
            if at_ranges:
                in_flight_at_ranges.append(in_flight_counts[-1])

    def tracked_ingest(manifest, case_dir):
        bundle = real_ingest(manifest, case_dir)
        with lock:
            bundles[case_dir.name] = weakref.ref(bundle)
            done["ingest"] += 1
        count()
        return bundle

    def counted_write(out_dir, result):
        real_write(out_dir, result)
        with lock:
            done["write"] += 1

    def checked_steps(manifest, bundle, *args):
        bundle_ref = weakref.ref(bundle)
        steps = real_steps(manifest, bundle, *args)
        del bundle
        while True:
            try:
                asked = next(steps)
            except StopIteration as stop:
                return stop.value
            if any(system.startswith(f"Task: {TASK_RANGES}\n") for system, _ in asked or ()):
                range_askers_alive.append(bundle_ref() is not None)
            yield asked

    class SlowNarrativeBackend(CountingBackend):
        def complete(self, system_prompt, user_prompt, temperature, timeout):
            count(at_ranges=system_prompt.startswith(f"Task: {TASK_RANGES}\n"))
            if system_prompt.startswith(f"Task: {TASK_NARRATIVE}\n"):
                time.sleep(0.3)
            return super().complete(system_prompt, user_prompt, temperature, timeout)

    monkeypatch.setattr(pipeline, "ingest_case_dir", tracked_ingest)
    monkeypatch.setattr(pipeline, "write_case_outputs", counted_write)
    monkeypatch.setattr(pipeline, "_case_steps", checked_steps)
    config = RunConfig(str(manifest_path), str(tmp_path / "out"),
                       backend=BackendConfig(kind="remote"))
    gc.collect()
    gc.disable()
    try:
        summary = batch_eval(config, eval_dataset["dataset"],
                             load_questions(eval_dataset["questions"]),
                             backend=SlowNarrativeBackend(delay=0.01))
    finally:
        gc.enable()
    assert summary.n_cases == 20 and summary.failures == []
    assert range_askers_alive and not any(range_askers_alive)
    assert max(alive_counts) == pipeline._HOLDERS_PER_WORKER
    assert max(in_flight_at_ranges) > pipeline._HOLDERS_PER_WORKER
    assert max(in_flight_counts) == 12


def test_template_batch_starts_no_thread_and_analyses_one_case_at_a_time(
        manifest_path, eval_dataset, tmp_path, monkeypatch):
    """An in-process backend is asked on the calling thread, so a
    template-kind batch at four workers starts no thread, and each case is
    analysed, from its ingest to its report, before the next is ingested."""
    events, started = [], []
    real_ingest, real_report = pipeline.ingest_case_dir, pipeline.build_report

    def logged_ingest(manifest, case_dir):
        events.append(("ingest", case_dir.name))
        return real_ingest(manifest, case_dir)

    def logged_report(question, *args, **kwargs):
        events.append(("report", question.case_id))
        return real_report(question, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", started.append)
    monkeypatch.setattr(pipeline, "ingest_case_dir", logged_ingest)
    monkeypatch.setattr(pipeline, "build_report", logged_report)
    config = RunConfig(str(manifest_path), str(tmp_path / "out"), workers=4)
    summary = batch_eval(config, eval_dataset["dataset"],
                         load_questions(eval_dataset["questions"]), backend=TemplateBackend())
    assert summary.n_cases == 20 and summary.failures == []
    assert started == []
    names = sorted(d.name for d in eval_dataset["dataset"].iterdir())
    assert events == [(event, name) for name in names for event in ("ingest", "report")]


def test_fault_free_template_batch_leaves_no_garbage_cycle(manifest_path, eval_dataset,
                                                           tmp_path, collections_in):
    """A template-kind batch with no fault leaves nothing for the cyclic
    collector: with the collector off, the full collection that ends the
    batch finds nothing. The template backend's JSON plan, among the rest,
    is built without reference cycles."""
    config = RunConfig(str(manifest_path), str(tmp_path / "out"), workers=2)
    questions = load_questions(eval_dataset["questions"])
    with collections_in() as seen:
        summary = batch_eval(config, eval_dataset["dataset"], questions,
                             backend=TemplateBackend())
    assert summary.n_cases == 20 and summary.failures == []
    assert seen == [[2, None, 0, 0]]


def test_an_unread_range_failure_leaves_no_garbage_cycle(manifest_path, eval_dataset,
                                                         tmp_path, collections_in):
    """An in-process backend fails the first two prompts of a case's range
    wave: the case reads the first failure, notes that range generation is
    unavailable and ends without reading the second. That unread failure,
    whose traceback holds the driver's frame, does not outlive its case in
    a cycle: the full collection that ends the batch finds nothing."""
    dataset = _first_cases(eval_dataset, tmp_path / "one", 1)
    backend = CountingBackend(fail_calls={TASK_RANGES: {2, 3}})  # call 1 is the probe
    config = RunConfig(str(manifest_path), str(tmp_path / "out"))
    with collections_in() as seen:
        summary = batch_eval(config, dataset, load_questions(eval_dataset["questions"]),
                             backend=backend)
    assert summary.n_cases == 1 and summary.failures == []
    report = json.loads(next((Path(config.out_dir) / "reports").glob("*.json")).read_text())
    assert [n for n in report["data_quality_notes"]
            if n.startswith("range generation unavailable")] == [
        f"range generation unavailable: {TASK_RANGES} service unavailable"]
    assert seen == [[2, None, 0, 0]]


@pytest.mark.parametrize("kind", ["template", "remote"])
def test_batch_ends_with_one_full_collection_after_its_summary(
        manifest_path, eval_dataset, tmp_path, collections_in, kind):
    """With the cyclic collector off, a batch runs exactly one collection,
    a full one, once ``summary.json`` is written, and it finds nothing:
    for a template-kind batch whose cases all pass, and for a remote-kind
    batch whose every backend call fails."""
    summary_path = tmp_path / "out" / "summary.json"
    config = RunConfig(str(manifest_path), str(tmp_path / "out"),
                       backend=BackendConfig(kind=kind))
    backend = TemplateBackend() if kind == "template" else DownBackend()
    with collections_in(summary_path.is_file) as seen:
        summary = batch_eval(config, eval_dataset["dataset"],
                             load_questions(eval_dataset["questions"]), backend=backend)
    assert len(summary.failures) == (0 if kind == "template" else 20)
    assert seen == [[2, True, 0, 0]]


def test_a_batch_gives_back_the_blocks_it_allocates(manifest_path, eval_dataset, tmp_path):
    """After a warm-up batch, a batch leaves at most a few hundred more
    allocated blocks than it found. Without the full collection that ends
    it, the free lists it fills would keep about a thousand more."""
    config = RunConfig(str(manifest_path), str(tmp_path / "out"))
    questions = load_questions(eval_dataset["questions"])
    backend = TemplateBackend()
    batch_eval(config, eval_dataset["dataset"], questions, backend=backend)
    before = sys.getallocatedblocks()
    batch_eval(config, eval_dataset["dataset"], questions, backend=backend)
    assert sys.getallocatedblocks() - before <= 300


def test_calling_thread_is_one_of_the_workers(manifest_path, eval_dataset, tmp_path,
                                              monkeypatch):
    """At four workers the calling thread is the one that runs cases: every
    ingest runs on it, and each case is written before the next is
    ingested, since an in-process case runs on to its files at once."""
    events = []
    ingest_threads = set()
    real_ingest, real_write = pipeline.ingest_case_dir, pipeline.write_case_outputs

    def logged_ingest(manifest, case_dir):
        ingest_threads.add(threading.get_ident())
        events.append("ingest")
        return real_ingest(manifest, case_dir)

    def logged_write(out_dir, result):
        events.append("write")
        real_write(out_dir, result)

    monkeypatch.setattr(pipeline, "ingest_case_dir", logged_ingest)
    monkeypatch.setattr(pipeline, "write_case_outputs", logged_write)
    config = RunConfig(str(manifest_path), str(tmp_path / "out"), workers=4)
    summary = batch_eval(config, eval_dataset["dataset"],
                         load_questions(eval_dataset["questions"]), backend=TemplateBackend())
    assert summary.n_cases == 20 and summary.failures == []
    assert ingest_threads == {threading.get_ident()}
    assert events == ["ingest", "write"] * 20


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_eval_keeps_no_case_result_for_the_summary(workers, manifest_path, eval_dataset,
                                                         three_cases, tmp_path, monkeypatch):
    """Once a case's files are written the batch keeps only its outcome: no
    case's ``CaseResult``, with its report and transcripts, is still alive
    when the summary is built."""
    made = []
    alive_at_summary = []
    real_result, real_summary = pipeline.CaseResult, pipeline.EvalSummary

    def tracked_result(**fields):
        result = real_result(**fields)
        made.append(weakref.ref(result))
        return result

    def checked_summary(**fields):
        alive_at_summary.extend(ref() is not None for ref in made)
        return real_summary(**fields)

    monkeypatch.setattr(pipeline, "CaseResult", tracked_result)
    monkeypatch.setattr(pipeline, "EvalSummary", checked_summary)
    config = RunConfig(str(manifest_path), str(tmp_path / "out"), workers=workers,
                       backend=BackendConfig(kind="remote"))
    summary = batch_eval(config, three_cases, load_questions(eval_dataset["questions"]),
                         backend=CountingBackend())
    assert summary.n_cases == 3 and summary.failures == []
    assert alive_at_summary == [False, False, False]


def test_batch_eval_starts_no_more_worker_loops_than_cases(manifest_path, eval_dataset,
                                                           three_cases, tmp_path, monkeypatch):
    """At eight workers over three cases the batch starts no worker loop at
    all: it makes one pool, and in a remote-kind run each task it submits
    asks the backend once, off the calling thread; a template-kind run
    submits nothing."""
    pools, submitted, backend_threads = [], [], []
    real_pool = pipeline.ThreadPoolExecutor

    class CountingPool(real_pool):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    class ThreadRecordingBackend(CountingBackend):
        def complete(self, system_prompt, user_prompt, temperature, timeout):
            backend_threads.append(threading.get_ident())
            return super().complete(system_prompt, user_prompt, temperature, timeout)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", CountingPool)
    submitted_by_kind = {}
    for kind, backend in (("template", TemplateBackend()), ("remote", ThreadRecordingBackend())):
        config = RunConfig(str(manifest_path), str(tmp_path / kind), workers=8,
                           backend=BackendConfig(kind=kind))
        summary = batch_eval(config, three_cases, load_questions(eval_dataset["questions"]),
                             backend=backend)
        assert summary.n_cases == 3 and summary.failures == []
        submitted_by_kind[kind], submitted[:] = len(submitted), []
    assert len(pools) == 2
    assert submitted_by_kind == {"template": 0, "remote": len(backend_threads)}
    assert backend_threads and threading.get_ident() not in backend_threads


def test_batch_eval_at_a_huge_worker_count_starts_few_threads(
        manifest_path, eval_dataset, three_cases, tmp_path, monkeypatch):
    """The largest worker count, ``_CALLS_IN_FLIGHT``, over three cases
    starts no thread per worker: the threads started and the backend calls
    in flight both stay within the run's cap on calls in flight."""
    started = []
    real_start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    backend = CountingBackend(delay=0.005)
    config = RunConfig(str(manifest_path), str(tmp_path / "out"),
                       workers=pipeline._CALLS_IN_FLIGHT, backend=BackendConfig(kind="remote"))
    summary = batch_eval(config, three_cases, load_questions(eval_dataset["questions"]),
                         backend=backend)
    assert summary.n_cases == 3 and summary.failures == []
    assert backend.peak["all"] > 1
    assert len(started) <= pipeline._CALLS_IN_FLIGHT
    assert backend.peak["all"] <= pipeline._CALLS_IN_FLIGHT


def test_narrative_backend_error_leaves_the_narrative_out(manifest, manifest_path, eval_dataset,
                                                          three_cases, tmp_path):
    """A ``BackendError`` from the narrative is no failure: that case is
    written without its narrative section. The error is drawn on the
    second case's narrative prompt, as that case sends it when run alone."""
    case_dirs = sorted(three_cases.iterdir())
    names = [d.name for d in case_dirs]
    questions = load_questions(eval_dataset["questions"])
    config = RunConfig(str(manifest_path), str(tmp_path / "out"),
                       backend=BackendConfig(kind="remote"))
    alone = CountingBackend()
    run_case(manifest, ingest_case_dir(manifest, case_dirs[1]),
             select_question(questions, names[1]), config, alone)
    [narrative] = [p for p in alone.prompts if p[0].startswith(f"Task: {TASK_NARRATIVE}\n")]
    backend = CountingBackend(fail_prompts={narrative})
    summary = batch_eval(config, three_cases, questions, backend=backend)
    assert summary.n_cases == 3 and summary.failures == []
    files = _output_bytes(Path(config.out_dir))
    assert ["## Generated narrative" in files[f"reports/{name}.md"].decode()
            for name in names] == [True, False, True]


def test_case_without_ground_truth_fails_only_that_case(manifest_path, eval_dataset,
                                                        three_cases, tmp_path):
    unlabeled = sorted(three_cases.iterdir())[1]
    sidecar = unlabeled / "sidecar.json"
    doc = json.loads(sidecar.read_text(encoding="utf-8"))
    del doc["ground_truth"]
    sidecar.write_text(json.dumps(doc), encoding="utf-8")
    config = RunConfig(str(manifest_path), str(tmp_path / "out"))
    summary = batch_eval(config, three_cases, load_questions(eval_dataset["questions"]),
                         backend=TemplateBackend())
    assert summary.failures == [{
        "case_id": unlabeled.name,
        "error": f"case {unlabeled.name!r} has no ground_truth label"}]
    assert summary.n_cases == 2
    assert len(_output_bytes(Path(config.out_dir))) == 6


def test_select_question_without_a_match_is_config_error():
    questions = [Question("case-a", "?", OPTIONS)]
    assert select_question(questions, "case-a") is questions[0]
    with pytest.raises(ConfigError, match="no question found for case 'case-b'"):
        select_question(questions, "case-b")


def test_questions_file_may_hold_one_object(tmp_path):
    path = tmp_path / "question.json"
    path.write_text(json.dumps({"prompt_text": QUESTION_TEXT, "options": list(OPTIONS)}),
                    encoding="utf-8")
    assert load_questions(path) == [Question("*", QUESTION_TEXT, OPTIONS)]
