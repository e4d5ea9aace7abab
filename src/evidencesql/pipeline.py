"""End-to-end case processing: ingest, reason, guard, execute, validate
against knowledge, fuse, and report.

Three run modes mirror the ablation paths: ``full`` (classifier + SQL
branch), ``sql_only`` (the SQL branch decides alone), and ``cnn_only``
(classifier probabilities decide alone; the SQL branch never runs).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import Counter
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from evidencesql import __version__
from evidencesql.agents import AgentTranscript, GuardMemo, Question, plan_global, plan_local
from evidencesql.backends import (
    DECLINE_RESPONSE,
    TASK_NARRATIVE,
    BackendConfig,
    LlmBackendPort,
    ReplyMemo,
    ask_backend,
    make_backend,
    system_prompt,
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
from evidencesql.serialize import (
    canonical_json,
    json_field,
    malformed,
    read_json_file,
    write_json_atomic,
    write_text_atomic,
)
from evidencesql.sql.executor import ExecError, execute
from evidencesql.sql.guard import ValidatedQuery

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
    markdown: str | None  # None until ``finish_case`` renders it
    transcripts: list[AgentTranscript]
    decision_label: str
    review_flag: bool
    ground_truth: str | None
    # the narrative reply, waited for or asked when called; None for a
    # backend kind that writes no narrative
    narrative: Callable[[], str] | None = field(default=None, repr=False, compare=False)


def load_ranges_file(path: str | Path) -> list[ReferenceRange]:
    doc = read_json_file(path, "ranges file", ConfigError)
    if not isinstance(doc, list):
        raise ConfigError(f"ranges file {path} must hold a JSON list of range objects")
    try:
        return ranges_from_json_list(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise malformed(f"ranges file {path}", exc, ConfigError) from exc


def _format_results_text(trace: list[TraceEntry]) -> str:
    """Compact, deterministic rendering of the executed queries in a trace
    for the local agent's prompt."""
    return "\n\n".join(
        "\n".join([f"q{entry.query_id}: {entry.query.canonical_text}", *entry.result.text_lines()])
        for entry in trace if entry.result is not None
    )


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
    replies: ReplyMemo | None = None,
    guard_verdicts: GuardMemo | None = None,
    narrator: Executor | None = None,
) -> CaseResult:
    """Process one ingested case under the configured mode.

    ``replies`` is the run's memo of backend replies by prompt pair, passed
    on to both agents, ``fetch_llm_ranges`` and the narrative; ``None`` asks
    the backend afresh.
    ``guard_verdicts`` is the run's memo of guard outcomes, passed on to
    the agents; ``None`` shares none across cases.
    ``narrator``, when given, asks the report narrative on that executor
    and returns at once with ``markdown`` None; the caller renders it with
    ``finish_case`` when it wants the reply. ``None`` asks it here and
    returns the rendered markdown.
    """
    options = question.options
    transcripts: list[AgentTranscript] = []
    trace: list[TraceEntry] = []
    hypothesis: Hypothesis | None = None
    extra_notes: list[str] = []

    if config.mode != "cnn_only":
        plan, global_queries, global_tx = plan_global(
            question, manifest, backend, config.backend, verdicts=guard_verdicts,
            replies=replies,
        )
        transcripts.append(global_tx)
        trace = [_execute_into_trace(i, "global", query, bundle)
                 for i, query in enumerate(global_queries)]
        local_queries, local_tx = plan_local(
            question, plan, manifest, backend, config.backend,
            global_results_text=_format_results_text(trace), verdicts=guard_verdicts,
            replies=replies,
        )
        transcripts.append(local_tx)
        trace += [_execute_into_trace(i, "local", query, bundle)
                  for i, query in enumerate(local_queries, len(trace))]

        observations = extract_observations(
            [(e.query_id, e.query, e.result) for e in trace if e.result is not None]
        )
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
                    missing_keys, list(options), backend, config.backend, replies,
                )
                extra_notes += fetch_notes
            except BackendError as exc:
                extra_notes.append(f"range generation unavailable: {exc}")
        findings, finding_notes = score_observations(
            observations, merge_ranges(ranges + fetched), options)
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
    result = CaseResult(
        case_id=bundle.case_id,
        report=report,
        markdown=None,
        transcripts=transcripts,
        decision_label=decision.label,
        review_flag=decision.review_flag,
        ground_truth=bundle.ground_truth,
        narrative=_ask_narrative(report, backend, config, replies, narrator),
    )
    return result if narrator is not None else finish_case(result)


def _ask_narrative(report: dict, backend: LlmBackendPort, config: RunConfig,
                   replies: ReplyMemo | None,
                   narrator: Executor | None) -> Callable[[], str] | None:
    """The reply to the report's narrative prompt, remote backends only:
    asked on ``narrator`` now, the returned callable waiting for it, or
    without one asked when the returned callable is called."""
    if config.backend.kind != "remote":
        return None
    system = system_prompt(
        TASK_NARRATIVE, "Write one short paragraph summarizing the structured diagnostic "
        "report you are given. State only facts present in the report.")
    user = canonical_json({
        "diagnosis": report["diagnosis"],
        "contributing_features": report["contributing_features"],
        "review_flag": report["decision"]["review_flag"],
    })
    ask = partial(ask_backend, backend, config.backend, system, user, replies)
    return narrator.submit(ask).result if narrator is not None else ask


def finish_case(result: CaseResult) -> CaseResult:
    """Render ``result``'s markdown, with its narrative reply as a prose
    summary when it has one.

    The narrative is never load-bearing: it summarizes fields already in the
    structured report, and a ``BackendError``, an empty reply or ``DECLINE``
    just omits it.
    """
    reply = ""
    if result.narrative is not None:
        try:
            reply = result.narrative().strip()
        except BackendError:
            pass
    narrative = reply if reply and reply != DECLINE_RESPONSE else None
    result.markdown = render_report_markdown(result.report, narrative=narrative)
    return result


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
    if result.report["transcripts_ref"]:
        write_json_atomic(
            out / result.report["transcripts_ref"],
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
    doc = read_json_file(path, "questions file", ConfigError)
    if isinstance(doc, dict):
        doc = [doc]
    try:
        questions = [
            Question(
                case_id=json_field(entry.get("case_id", "*"), "case_id"),
                prompt_text=json_field(entry["prompt_text"], "prompt_text"),
                options=tuple(json_field(o, "option")
                              for o in json_field(entry["options"], "options", list)),
            )
            for entry in doc
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise malformed(f"questions file {path}", exc, ConfigError) from exc
    if not questions:
        raise ConfigError(f"questions file {path} is empty")
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
        return asdict(self)


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

    ``config.workers`` workers, or one per case when there are fewer cases,
    the calling thread one of them, pull cases from one shared list and run
    one case behind: a worker analyses a case (ingest, agents, ranges,
    report), which submits its narrative to the run's narrator pool, then
    waits for the previous case's narrative and renders and writes that
    case. The pool has ``config.workers`` threads, so at most that many
    narratives are asked at once. A case's files land after the next case's
    analysis and before ``summary.json``; from then on the batch keeps only
    the case's ground truth, decision and review flag. A narrative
    can reach the backend while the next case's agents do, so a
    ``ScriptedBackend``'s responses do not go to fixed prompts in a
    remote-kind run, even at one worker.

    Backend replies are memoized for the run, keyed on the (system, user)
    prompt pair: every distinct prompt, from either agent, the range fetch
    or the narrative, is asked once at any worker count, and every other
    case that sends it reads the same reply. The backend config is fixed for the run, so at
    the default temperature 0 a fresh call would give that reply too; above
    0 the run reuses one sample per prompt. A ``BackendError`` is not
    memoized.
    Guard outcomes are memoized for the run too, keyed on (agent, raw SQL
    text): the manifest is fixed for the run, so a text is validated once
    and every later case records the same outcome in its transcript.
    """
    manifest = load_manifest(config.manifest_path)
    backend = backend or make_backend(config.backend)
    file_ranges = load_ranges_file(config.ranges_path) if config.ranges_path else []
    case_dirs = sorted(p for p in Path(dataset_dir).iterdir() if p.is_dir())
    write_run_metadata(config)
    replies: ReplyMemo = {}
    guard_verdicts: GuardMemo = {}
    # (ground truth, decision, review flag) per written case: all the summary reads
    outcomes: list[tuple[str | None, str, bool]] = []
    failures: dict[str, str] = {}

    def attempt(case_id: str, step: Callable[[], CaseResult | None]) -> CaseResult | None:
        """``step()``, or None with its failure recorded as ``case_id``'s."""
        try:
            return step()
        except Exception as exc:  # one broken case must not end the batch
            failures[case_id] = (str(exc) if isinstance(exc, EvidenceSqlError)
                                 else f"{type(exc).__name__}: {exc}")
        return None

    def analyse(case_dir: Path) -> CaseResult:
        bundle = ingest_case_dir(manifest, case_dir)
        if bundle.ground_truth is None:
            raise ConfigError(f"case {case_dir.name!r} has no ground_truth label")
        question = select_question(questions, case_dir.name)
        return run_case(manifest, bundle, question, config, backend,
                        file_ranges, replies, guard_verdicts, narrator)

    def finish(result: CaseResult) -> None:
        """Render and write an analysed case, which then counts in the summary."""
        write_case_outputs(config.out_dir, finish_case(result))
        outcomes.append((result.ground_truth, result.decision_label, result.review_flag))

    pending = iter(case_dirs)
    pending_lock = threading.Lock()

    def next_case() -> Path | None:
        with pending_lock:
            return next(pending, None)

    def work() -> None:
        """Analyse each case this worker pulls, then finish the one before it."""
        behind: CaseResult | None = None
        for case_dir in iter(next_case, None):
            analysed = attempt(case_dir.name, partial(analyse, case_dir))
            if behind is not None:
                attempt(behind.case_id, partial(finish, behind))
            behind = analysed
        if behind is not None:
            attempt(behind.case_id, partial(finish, behind))

    # the calling thread is one worker and the pool runs the others, one loop per
    # case at most; a pool refuses a size of 0, and starts no thread before its
    # first submit
    with (ThreadPoolExecutor(max_workers=config.workers) as narrator,
          ThreadPoolExecutor(max_workers=max(config.workers - 1, 1)) as pool):
        others = [pool.submit(work) for _ in range(min(config.workers, len(case_dirs)) - 1)]
        work()
        for other in others:
            other.result()

    per_class_total = Counter(truth for truth, _, _ in outcomes)
    per_class_correct = Counter(truth for truth, label, _ in outcomes if label == truth)
    n_correct = sum(per_class_correct.values())
    summary = EvalSummary(
        n_cases=len(outcomes),
        n_correct=n_correct,
        accuracy=(n_correct / len(outcomes)) if outcomes else 0.0,
        n_flagged=sum(flagged for _, _, flagged in outcomes),
        per_class_accuracy={
            label: per_class_correct[label] / total
            for label, total in sorted(per_class_total.items())
        },
        failures=[{"case_id": case_id, "error": failures[case_id]}
                  for case_id in sorted(failures)],
    )
    write_json_atomic(Path(config.out_dir) / "summary.json", summary.to_json_dict())
    return summary
