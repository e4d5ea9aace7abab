"""End-to-end case processing: ingest, reason, guard, execute, validate
against knowledge, fuse, and report.

Three run modes mirror the ablation paths: ``full`` (classifier + SQL
branch), ``sql_only`` (the SQL branch decides alone), and ``cnn_only``
(classifier probabilities decide alone; the SQL branch never runs).
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from evidencesql import __version__
from evidencesql.agents import AgentTranscript, Question, plan_global, plan_local
from evidencesql.backends import (
    DECLINE_RESPONSE,
    TASK_NARRATIVE,
    BackendConfig,
    LlmBackendPort,
    make_backend,
)
from evidencesql.errors import (
    ArithmeticDomain,
    BackendError,
    ConfigError,
    EvidenceSqlError,
    NoEvidence,
    TableNotInBundle,
)
from evidencesql.feature_store import (
    CaseBundle,
    SchemaManifest,
    ingest_case_dir,
    load_manifest,
)
from evidencesql.fusion import CnnOutput, cnn_only_decision, fuse, fuse_sql_only
from evidencesql.knowledge import (
    Hypothesis,
    ReferenceRange,
    build_hypothesis,
    calibrate_confidence,
    extract_observations,
    fetch_llm_ranges,
    merge_ranges,
    ranges_from_json_list,
    score_observations,
    uniform_confidences,
)
from evidencesql.report import TraceEntry, build_report, render_report_markdown
from evidencesql.serialize import canonical_json, write_json_atomic, write_text_atomic
from evidencesql.sql.executor import ExecError, ResultTable, execute
from evidencesql.sql.guard import ValidatedQuery
from evidencesql.values import render_value

MODES = ("full", "sql_only", "cnn_only")
DEFAULT_ALPHA = 0.7


@dataclass(frozen=True)
class RunConfig:
    manifest_path: str
    out_dir: str
    mode: str = "full"
    alpha: float = DEFAULT_ALPHA
    ranges_path: str | None = None
    backend: BackendConfig = field(default_factory=BackendConfig)
    workers: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def to_json_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CaseResult:
    case_id: str
    report: dict
    markdown: str
    transcripts: list[AgentTranscript]
    decision_label: str
    review_flag: bool
    ground_truth: str | None


def load_ranges_file(path: str | Path) -> list[ReferenceRange]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, list):
        raise ConfigError("ranges file must hold a JSON list of range objects")
    return ranges_from_json_list(doc)


def _format_results_text(executed: list[tuple[int, ValidatedQuery, ResultTable]]) -> str:
    """Compact, deterministic rendering of executed queries for the local
    agent's prompt."""
    blocks = []
    for query_id, query, result in executed:
        lines = [f"q{query_id}: {query.canonical_text}", " | ".join(result.column_names)]
        for row in result.rows:
            lines.append(" | ".join(render_value(v) for v in row))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _require_cnn(bundle: CaseBundle, mode: str) -> CnnOutput:
    if bundle.cnn_probs is None:
        raise ConfigError(
            f"mode {mode!r} requires classifier probabilities in the case sidecar"
        )
    return CnnOutput(dict(bundle.cnn_probs))


def run_case(
    manifest: SchemaManifest,
    bundle: CaseBundle,
    question: Question,
    config: RunConfig,
    backend: LlmBackendPort,
    file_ranges: list[ReferenceRange] | None = None,
    range_replies: dict[tuple[str, str], str] | None = None,
) -> CaseResult:
    """Process one ingested case under the configured mode.

    ``range_replies`` is the run's memo of backend range replies, passed on
    to ``fetch_llm_ranges``; ``None`` asks the backend afresh.
    """
    options = question.options
    transcripts: list[AgentTranscript] = []
    trace: list[TraceEntry] = []
    hypothesis: Hypothesis | None = None
    extra_notes: list[str] = []

    if config.mode != "cnn_only":
        plan, global_queries, global_tx = plan_global(
            question, manifest, backend, config.backend,
        )
        transcripts.append(global_tx)
        executed: list[tuple[int, ValidatedQuery, ResultTable]] = []

        def run_stage(agent: str, queries: list[ValidatedQuery]) -> None:
            for query in queries:
                entry = _execute_into_trace(len(trace), agent, query, bundle)
                trace.append(entry)
                if entry.result is not None:
                    executed.append((entry.query_id, query, entry.result))

        run_stage("global", global_queries)
        local_queries, local_tx = plan_local(
            question, plan, manifest, backend, config.backend,
            global_results_text=_format_results_text(executed),
        )
        transcripts.append(local_tx)
        run_stage("local", local_queries)

        observations = extract_observations(executed)
        ranges = list(file_ranges or [])
        known = {(r.feature_key, r.option_label) for r in ranges}
        missing_keys = sorted({
            obs.feature_key for obs in observations
            if any((obs.feature_key, o) not in known for o in options)
        })
        fetched: list[ReferenceRange] = []
        if missing_keys:
            try:
                fetched, fetch_notes = fetch_llm_ranges(
                    missing_keys, list(options), backend, config.backend,
                    range_replies,
                )
                extra_notes += fetch_notes
            except BackendError as exc:
                extra_notes.append(f"range generation unavailable: {exc}")
        index = merge_ranges(
            [r for r in ranges + fetched if r.source == "empirical"],
            [r for r in ranges + fetched if r.source != "empirical"],
        )
        findings, finding_notes = score_observations(observations, index, options)
        try:
            confidences, calibration_notes = calibrate_confidence(findings, options)
        except NoEvidence:
            confidences = uniform_confidences(options)
            calibration_notes = ["no scorable evidence; confidence set to uniform"]
        hypothesis = build_hypothesis(
            question, findings, confidences, finding_notes + calibration_notes,
        )

    if config.mode == "full":
        decision = fuse(_require_cnn(bundle, "full"), hypothesis, config.alpha, options)
    elif config.mode == "sql_only":
        decision = fuse_sql_only(hypothesis, options)
    else:
        decision = cnn_only_decision(_require_cnn(bundle, "cnn_only"), options)

    transcripts_ref = f"transcripts/{bundle.case_id}.json" if transcripts else None
    report = build_report(
        question, decision, hypothesis, trace,
        transcripts_ref=transcripts_ref, extra_notes=extra_notes,
    )
    narrative = _maybe_narrative(report, backend, config)
    markdown = render_report_markdown(report, narrative=narrative)
    return CaseResult(
        case_id=bundle.case_id,
        report=report,
        markdown=markdown,
        transcripts=transcripts,
        decision_label=decision.label,
        review_flag=decision.review_flag,
        ground_truth=bundle.ground_truth,
    )


def _maybe_narrative(report: dict, backend: LlmBackendPort,
                     config: RunConfig) -> str | None:
    """Prose summary for the markdown report, remote backends only.

    The narrative is never load-bearing: it summarizes fields already in the
    structured report, and any backend failure just omits it.
    """
    if config.backend.kind != "remote":
        return None
    system = (
        f"Task: {TASK_NARRATIVE}\n\n"
        "Write one short paragraph summarizing the structured diagnostic "
        "report you are given. State only facts present in the report."
    )
    user = canonical_json({
        "diagnosis": report["diagnosis"],
        "contributing_features": report["contributing_features"],
        "review_flag": report["decision"]["review_flag"],
    })
    try:
        reply = backend.complete(system, user, config.backend.temperature,
                                 config.backend.timeout_seconds)
    except BackendError:
        return None
    reply = reply.strip()
    if not reply or reply == DECLINE_RESPONSE:
        return None
    return reply


def _execute_into_trace(
    query_id: int, agent: str, query: ValidatedQuery, bundle: CaseBundle,
) -> TraceEntry:
    try:
        return TraceEntry(query_id, agent, query, result=execute(query, bundle))
    except TableNotInBundle as exc:
        error = ExecError("table_not_in_bundle", str(exc))
    except ArithmeticDomain as exc:
        error = ExecError("arithmetic_domain", str(exc), exc.row_index)
    return TraceEntry(query_id, agent, query, error=error)


def write_case_outputs(out_dir: str | Path, result: CaseResult) -> None:
    out = Path(out_dir)
    write_json_atomic(out / "reports" / f"{result.case_id}.json", result.report)
    write_text_atomic(out / "reports" / f"{result.case_id}.md", result.markdown)
    if result.transcripts:
        write_json_atomic(
            out / "transcripts" / f"{result.case_id}.json",
            {
                "case_id": result.case_id,
                "transcripts": [t.to_json_dict() for t in result.transcripts],
            },
        )


def write_run_metadata(config: RunConfig) -> None:
    write_json_atomic(Path(config.out_dir) / "run.json", {
        "config": config.to_json_dict(),
        "config_hash": config.config_hash(),
        "package_version": __version__,
    })


def select_question(questions: list[Question], case_id: str) -> Question:
    """Per-case question when one matches, else the shared one (case_id '*')."""
    for q in questions:
        if q.case_id == case_id:
            return q
    for q in questions:
        if q.case_id == "*":
            return Question(case_id, q.prompt_text, q.options)
    raise ConfigError(f"no question found for case {case_id!r}")


def load_questions(path: str | Path) -> list[Question]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc, dict):
        doc = [doc]
    questions = []
    for entry in doc:
        questions.append(Question(
            case_id=str(entry.get("case_id", "*")),
            prompt_text=str(entry["prompt_text"]),
            options=tuple(str(o) for o in entry["options"]),
        ))
    if not questions:
        raise ConfigError("questions file is empty")
    return questions


@dataclass
class EvalSummary:
    n_cases: int
    n_correct: int
    accuracy: float
    n_flagged: int
    per_class_accuracy: dict[str, float]
    failures: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "n_cases": self.n_cases,
            "n_correct": self.n_correct,
            "accuracy": self.accuracy,
            "n_flagged": self.n_flagged,
            "per_class_accuracy": dict(self.per_class_accuracy),
            "failures": list(self.failures),
        }


def batch_eval(
    config: RunConfig,
    dataset_dir: str | Path,
    questions: list[Question],
    backend: LlmBackendPort | None = None,
) -> EvalSummary:
    """Evaluate every case directory under ``dataset_dir``.

    Per-case failures, of any exception type, are recorded in the summary
    and never abort the batch. The summary reduction is sorted by case id,
    so worker count does not affect any output byte.

    Backend range replies are memoized for the run, keyed on the range
    prompt pair: each (feature, option) range is requested once and every
    later case reads the same reply. A ``BackendError`` is not memoized.
    """
    manifest = load_manifest(config.manifest_path)
    backend = backend or make_backend(config.backend)
    file_ranges = load_ranges_file(config.ranges_path) if config.ranges_path else []
    case_dirs = sorted(p for p in Path(dataset_dir).iterdir() if p.is_dir())
    write_run_metadata(config)
    range_replies: dict[tuple[str, str], str] = {}

    def process(case_dir: Path) -> tuple[str, CaseResult | None, str | None]:
        case_id = case_dir.name
        try:
            bundle = ingest_case_dir(manifest, case_dir)
            if bundle.ground_truth is None:
                raise ConfigError(f"case {case_id!r} has no ground_truth label")
            question = select_question(questions, case_id)
            result = run_case(manifest, bundle, question, config, backend,
                              file_ranges, range_replies)
            write_case_outputs(config.out_dir, result)
            return case_id, result, None
        except EvidenceSqlError as exc:
            return case_id, None, str(exc)
        except Exception as exc:  # one broken case must not end the batch
            return case_id, None, f"{type(exc).__name__}: {exc}"

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(process, case_dirs))
    else:
        outcomes = [process(d) for d in case_dirs]
    outcomes.sort(key=lambda item: item[0])

    n_correct = 0
    n_flagged = 0
    failures = []
    per_class_total: dict[str, int] = {}
    per_class_correct: dict[str, int] = {}
    n_evaluated = 0
    for case_id, result, error in outcomes:
        if error is not None:
            failures.append({"case_id": case_id, "error": error})
            continue
        n_evaluated += 1
        truth = result.ground_truth
        per_class_total[truth] = per_class_total.get(truth, 0) + 1
        correct = result.decision_label == truth
        if correct:
            n_correct += 1
            per_class_correct[truth] = per_class_correct.get(truth, 0) + 1
        if result.review_flag:
            n_flagged += 1

    per_class_accuracy = {
        label: per_class_correct.get(label, 0) / total
        for label, total in sorted(per_class_total.items())
    }
    summary = EvalSummary(
        n_cases=n_evaluated,
        n_correct=n_correct,
        accuracy=(n_correct / n_evaluated) if n_evaluated else 0.0,
        n_flagged=n_flagged,
        per_class_accuracy=per_class_accuracy,
        failures=failures,
    )
    write_json_atomic(Path(config.out_dir) / "summary.json", summary.to_json_dict())
    return summary
