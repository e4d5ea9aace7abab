"""End-to-end case processing: ingest, reason, guard, execute, validate
against knowledge, fuse, and report.

Three run modes mirror the ablation paths: ``full`` (classifier + SQL
branch), ``sql_only`` (the SQL branch decides alone), and ``cnn_only``
(classifier probabilities decide alone; the SQL branch never runs).
"""

from __future__ import annotations

import gc
import hashlib
import json
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from queue import SimpleQueue
from typing import Callable, Generator, Iterable

from evidencesql import __version__
from evidencesql.agents import AgentTranscript, GuardMemo, Question, plan_global, plan_local
from evidencesql.backends import (
    DECLINE_RESPONSE,
    TASK_NARRATIVE,
    BackendConfig,
    LlmBackendPort,
    ReplyBook,
    ReplyMemo,
    Unanswered,
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
from evidencesql.fusion import cnn_only_decision, fuse, fuse_sql_only
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
# The most backend calls a run has in flight at once: the size of the
# driver's one I/O pool. Eleven features by two options leave 21 range
# prompts after the probe, which one wave covers.
_CALLS_IN_FLIGHT = 32
# The most cases per worker that hold their ingested tables at once under
# a remote-kind backend: one computing while the rest wait on the backend
# (see ``_drive``).
_HOLDERS_PER_WORKER = 5


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
        if not 1 <= self.workers <= _CALLS_IN_FLIGHT:
            raise ConfigError(f"workers must lie in [1, {_CALLS_IN_FLIGHT}], got {self.workers}")

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


def _require_cnn(bundle: CaseBundle, mode: str) -> dict[str, float]:
    if bundle.cnn_probs is None:
        raise ConfigError(
            f"mode {mode!r} requires classifier probabilities in the case sidecar"
        )
    return dict(bundle.cnn_probs)


def run_case(
    manifest: SchemaManifest,
    bundle: CaseBundle,
    question: Question,
    config: RunConfig,
    backend: LlmBackendPort,
    file_ranges: list[ReferenceRange] | None = None,
) -> CaseResult:
    """Process one ingested case under the configured mode, with its
    markdown rendered; ``write_case_outputs`` writes its files.

    The case runs under ``_drive`` as a batch of one, which says how its
    prompts are asked. An exception the case raises propagates.
    """
    outcomes: dict[str, object] = {}
    _drive(backend, config.backend, 1, [(bundle.case_id, partial(
        _case_steps, manifest, bundle, question, config, file_ranges, {}))], outcomes.__setitem__)
    if isinstance(outcomes[bundle.case_id], Exception):
        raise outcomes.pop(bundle.case_id)  # kept, it would keep itself through its traceback
    return outcomes[bundle.case_id]


def _answered(stage: Callable, *args, **kwargs) -> Generator:
    """``stage(*args, **kwargs)`` once its driver has answered every prompt
    it asks: a call that raises ``Unanswered`` yields that exception's
    prompts, and the stage then runs again from the start."""
    while True:
        try:
            return stage(*args, **kwargs)
        except Unanswered as exc:
            yield exc.args


def _case_steps(manifest: SchemaManifest, bundle: CaseBundle, question: Question,
                config: RunConfig, file_ranges: list[ReferenceRange] | None,
                guard_verdicts: GuardMemo, book: ReplyBook) -> Generator:
    """``run_case``'s steps, for ``_drive``: every stage asks ``book``, and
    the prompts it leaves unanswered are yielded (see ``_answered``). Yields
    None once its last query has run (in ``cnn_only`` mode, once the
    classifier output is read): from then on it refers to ``bundle`` no
    more, so the range fetch, scoring, fusion, the report and the narrative
    hold no table. Returns the case's ``CaseResult``.

    A mode that reads the classifier output fails on a case without it
    before any prompt is asked. ``guard_verdicts`` is the run's memo of
    guard outcomes, passed on to the agents. The narrative, remote backends
    only, is never load-bearing: it summarizes fields already in the
    structured report, and a
    ``BackendError``, an empty reply or ``DECLINE`` just omits it.
    """
    options = question.options
    cnn = None if config.mode == "sql_only" else _require_cnn(bundle, config.mode)
    transcripts: list[AgentTranscript] = []
    trace: list[TraceEntry] = []
    hypothesis: Hypothesis | None = None
    extra_notes: list[str] = []

    if config.mode != "cnn_only":
        plan, global_queries, global_tx = yield from _answered(
            plan_global, question, manifest, book, config.backend, verdicts=guard_verdicts)
        transcripts.append(global_tx)
        trace = [_execute_into_trace(i, query, bundle) for i, query in enumerate(global_queries)]
        local_queries, local_tx = yield from _answered(
            plan_local, question, plan, manifest, book, config.backend,
            global_results_text=_format_results_text(trace), verdicts=guard_verdicts)
        transcripts.append(local_tx)
        trace += [_execute_into_trace(i, query, bundle)
                  for i, query in enumerate(local_queries, len(trace))]

    case_id, ground_truth = bundle.case_id, bundle.ground_truth
    del bundle
    yield  # holds no table: the next case may start (see ``_drive``)

    if config.mode != "cnn_only":
        observations = extract_observations(
            [(e.query_id, e.query, e.result) for e in trace if e.result is not None])
        ranges = list(file_ranges or [])
        known = {(r.feature_key, r.option_label) for r in ranges}
        missing_keys = sorted({
            obs.feature_key for obs in observations
            if any((obs.feature_key, o) not in known for o in options)
        })
        fetched: list[ReferenceRange] = []
        if missing_keys:
            try:
                fetched, fetch_notes = yield from _answered(
                    fetch_llm_ranges, missing_keys, list(options), book, config.backend)
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
            question, findings, confidences, finding_notes + calibration_notes)

    if config.mode == "full":
        decision = fuse(cnn, hypothesis, config.alpha, options)
    elif config.mode == "sql_only":
        decision = fuse_sql_only(hypothesis, options)
    else:
        decision = cnn_only_decision(cnn, options)

    transcripts_ref = f"transcripts/{case_id}.json" if transcripts else None
    report = build_report(question, decision, hypothesis, trace,
                          transcripts_ref=transcripts_ref, extra_notes=extra_notes)
    narrative = ""
    if config.backend.kind == "remote":
        system = system_prompt(
            TASK_NARRATIVE, "Write one short paragraph summarizing the structured diagnostic "
            "report you are given. State only facts present in the report.")
        user = canonical_json({"diagnosis": report["diagnosis"],
                               "contributing_features": report["contributing_features"],
                               "review_flag": report["decision"]["review_flag"]})
        try:
            narrative = (yield from _answered(ask_backend, book, config.backend, system, user)).strip()
        except BackendError:
            pass
    markdown = render_report_markdown(
        report, narrative=narrative if narrative not in ("", DECLINE_RESPONSE) else None)
    return CaseResult(case_id=case_id, report=report, markdown=markdown,
                      transcripts=transcripts, decision_label=decision.label,
                      review_flag=decision.review_flag, ground_truth=ground_truth)


class _Case:
    """A case under ``_drive``: its id, its reply book, its steps, how many
    of the prompts it waits on are still being asked, and whether it may
    still hold its ingested tables."""

    def __init__(self, case_id: str, start: Callable[[ReplyBook], Generator], book: ReplyBook):
        self.case_id, self.book, self.steps = case_id, book, start(book)
        self.waiting, self.holding = 0, True


def _drive(
    backend: LlmBackendPort, config: BackendConfig, workers: int,
    cases: Iterable[tuple[str, Callable[[ReplyBook], Generator]]],
    ended: Callable[[str, object], None],
) -> None:
    """Run cases on the calling thread, and ask the backend the prompts
    they yield; as each case ends, pass ``ended`` its id and the value it
    returned or the exception it raised. This docstring is the one
    statement in the code of how a run schedules its cases.

    ``cases`` gives each case's id and a function from a ``ReplyBook`` to
    the case's steps, a generator that yields the prompt pairs it waits on
    and returns a value. A case holds its ingested tables until it yields
    None. One loop steps every case, one step at a time, and admits a new
    case, starting its steps, only when no admitted case is ready to run,
    while fewer than ``_HOLDERS_PER_WORKER`` (five) times ``workers`` cases
    hold tables and fewer than twelve times ``workers`` are in flight. So
    each worker keeps five cases holding tables, one computing while the
    other four wait on the backend: on a backend that answers in 20 ms, a
    ~1,000-cell case holding its tables waits about 20 ms on its local
    agent and computes about 4-5 ms (thread CPU in a batch: ingest 3-4 ms,
    its queries about 1 ms, both agent stages about 0.3 ms), so 1 + 20/5,
    five, holders keep one computing. The rest of those in flight hold no
    table and wait on their range fetch or their narrative. Ready cases run
    in the order they became ready.

    Each distinct prompt pair is asked once while it is in flight, for
    every case waiting on it, and its answer is posted to one queue. A
    ``remote``-kind backend is asked on one I/O pool of
    ``_CALLS_IN_FLIGHT`` threads, so a run has at most that many calls in
    flight at any ``workers``. Any other kind runs in process: it is asked
    on the calling thread, so the case it answers is at once the one ready
    case, and cases run one after another, each from its first step to its
    end.

    The driver owns the run's reply memo, a plain dict that only the
    calling thread touches. A reply goes into the memo. An exception goes
    only into the books of the cases that waited on it, so a later case
    asks that prompt afresh. A case is ready once every prompt it waits on
    has been answered.
    """
    replies: ReplyMemo = {}
    answers: SimpleQueue = SimpleQueue()
    asking: dict[tuple[str, str], list[_Case]] = {}
    ready: deque[_Case] = deque()
    live: list[_Case] = []
    pending = iter(cases)

    def ask(prompt: tuple[str, str]) -> None:
        """Ask the backend ``prompt``; post the reply, or the exception the
        ask raised, to ``answers``."""
        try:
            answers.put((prompt, ask_backend(backend, config, *prompt), None))
        except BaseException as exc:  # raised again in its cases; unposted, it would hang the run
            answers.put((prompt, None, exc))

    def settle(block: bool) -> None:
        """Take each answer that is in, waiting for one first if ``block``:
        store its reply, or give its exception to the cases waiting on it;
        each case that waits on nothing else is ready. A function of its
        own, so that no exception stays in the frame of ``_drive``, which a
        case's exception carries in its traceback."""
        while block or not answers.empty():
            (prompt, reply, error), block = answers.get(), False
            if error is None:
                replies[prompt] = reply
            for case in asking.pop(prompt):
                if error is not None:
                    case.book.failures[prompt] = error
                case.waiting -= 1
                if not case.waiting:
                    ready.append(case)

    with ThreadPoolExecutor(max_workers=_CALLS_IN_FLIGHT) as pool:
        start = partial(pool.submit, ask) if config.kind == "remote" else ask
        while True:
            settle(block=False)
            if (not ready and sum(case.holding for case in live) < _HOLDERS_PER_WORKER * workers
                    and len(live) < 12 * workers and (admitted := next(pending, None))):
                live.append(_Case(*admitted, ReplyBook(backend.name, replies)))
                ready.append(live[-1])
            if ready:
                case = ready.popleft()
                try:
                    asked = next(case.steps)
                except Exception as exc:  # it returned, or it broke: it ends, and only it
                    live.remove(case)
                    case.book.failures.clear()  # one never read keeps itself via this frame
                    ended(case.case_id, exc.value if isinstance(exc, StopIteration) else exc)
                    continue
                if asked is None:  # holds no table: the next case may start
                    case.holding = False
                    ready.append(case)
                for prompt in asked or ():
                    case.waiting += 1
                    if prompt not in asking:
                        start(prompt)
                    asking.setdefault(prompt, []).append(case)
            elif asking:
                settle(block=True)
            else:
                return


def _execute_into_trace(query_id: int, query: ValidatedQuery, bundle: CaseBundle) -> TraceEntry:
    try:
        return TraceEntry(query_id, query, result=execute(query, bundle))
    except TableNotInBundle as exc:
        error = ExecError("table_not_in_bundle", str(exc))
    except ArithmeticDomain as exc:
        error = ExecError("arithmetic_domain", str(exc), exc.row_index)
    return TraceEntry(query_id, query, error=error)


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

    Cases run under ``_drive``, whose docstring states the scheduling
    policy: which cases ``config.workers`` lets in flight and holding
    tables, and where the backend is asked. A case holds its ingested
    tables only while its SQL runs (ingest, agents, queries). Its files
    land as its steps end, all before ``summary.json``; from then on the
    batch keeps only the case's ground truth, decision and review flag.

    Backend replies are memoized for the run, keyed on the (system, user)
    prompt pair: every distinct prompt, from either agent, the range fetch
    or the narrative, is asked once at any worker count, and every other
    case that sends it reads the same reply. The backend config is fixed
    for the run, so at the default temperature 0 a fresh call would give
    that reply too; above 0 the run reuses one sample per prompt. An
    exception from the backend is not memoized: it reaches the cases that
    waited on that prompt, and a later case asks it again.
    Guard outcomes are memoized for the run too, keyed on (agent, raw SQL
    text): the manifest is fixed for the run, so a text is validated once
    and every later case records the same outcome in its transcript.

    The batch ends, once ``summary.json`` is written, with one full
    collection. It finds no garbage, as a batch leaves no reference cycle,
    but only a full collection empties the interpreter's free lists, and a
    batch almost never reaches one on its own: without it, the blocks they
    keep hold memory back from the allocator, and a process that runs
    batch after batch grows for hundreds of batches. It costs about 0.1 ms
    per 40-case cohort batch when the set-up heap is frozen
    (``gc.freeze()``), and about 4.5 ms in a fresh ``evidencesql
    batch-eval`` process; a host with a large unfrozen heap pays one full
    traversal of that heap per batch.
    """
    manifest = load_manifest(config.manifest_path)
    backend = backend or make_backend(config.backend)
    file_ranges = load_ranges_file(config.ranges_path) if config.ranges_path else []
    case_dirs = sorted(p for p in Path(dataset_dir).iterdir() if p.is_dir())
    write_run_metadata(config)
    guard_verdicts: GuardMemo = {}

    def case_steps(case_dir: Path, book: ReplyBook) -> Generator:
        """One case's steps, ingest first, then its files written; returns
        (ground truth, decision, review flag), all the summary reads."""
        bundle = ingest_case_dir(manifest, case_dir)
        if bundle.ground_truth is None:
            raise ConfigError(f"case {case_dir.name!r} has no ground_truth label")
        steps = _case_steps(manifest, bundle, select_question(questions, case_dir.name),
                            config, file_ranges, guard_verdicts, book)
        del bundle  # the steps own it, and drop it once its last query has run
        result = yield from steps
        write_case_outputs(config.out_dir, result)
        return result.ground_truth, result.decision_label, result.review_flag

    outcomes: list[tuple[str | None, str, bool]] = []
    failures: dict[str, str] = {}

    def ended(case_id: str, outcome: object) -> None:
        if not isinstance(outcome, Exception):
            outcomes.append(outcome)
        else:
            failures[case_id] = (str(outcome) if isinstance(outcome, EvidenceSqlError)
                                 else f"{type(outcome).__name__}: {outcome}")

    _drive(backend, config.backend, config.workers,
           [(d.name, partial(case_steps, d)) for d in case_dirs], ended)

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
    gc.collect()  # empties the free lists (see above)
    return summary
