"""Feature reasoning agents: turn a question and a schema into guarded SQL.

The global agent plans over whole-image tables; the local agent consumes
that plan (plus the executed global results) and targets cellular and
architectural tables. Every emitted query runs through the guard pipeline,
and every backend exchange lands in an append-only transcript so the run
can be audited or replayed.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field

from evidencesql.backends import (
    BackendConfig,
    LlmBackendPort,
    TASK_GLOBAL,
    TASK_LOCAL,
    ask_backend,
    render_schema_dictionary,
    system_prompt,
)
from evidencesql.errors import ConfigError, EmptyGeneration
from evidencesql.feature_store import Level, SchemaManifest
from evidencesql.sql.ast import AGGREGATE_FUNCTIONS, SCALAR_FUNCTIONS
from evidencesql.sql.guard import FENCE_RE, GuardRejection, ValidatedQuery, validate_pipeline

_FENCE_JSON_RE = re.compile(r"```json[ \t]*\r?\n(.*?)```", re.DOTALL | re.IGNORECASE)

# Guard outcomes by (agent, raw SQL text), for one manifest.
GuardMemo = dict[tuple[str, str], ValidatedQuery | GuardRejection]


@dataclass(frozen=True)
class Question:
    case_id: str
    prompt_text: str
    options: tuple[str, ...]

    def __post_init__(self):
        if len(self.options) < 2:
            raise ValueError("a question needs at least two options")
        if len(set(self.options)) != len(self.options):
            raise ValueError("question options must be unique")


@dataclass(frozen=True)
class PlanTarget:
    table: str
    column: str
    rationale: str


@dataclass
class Exchange:
    system_prompt: str
    user_prompt: str
    response: str


@dataclass
class AgentTranscript:
    """Append-only record of one agent stage.

    ``extracted_queries`` and ``guard_outcomes`` stay index-aligned;
    ``dropped`` records queries that validated but were outside the agent's
    table level.
    """

    agent: str  # global | local
    backend: str
    attempts: list[Exchange] = field(default_factory=list)
    extracted_queries: list[str] = field(default_factory=list)
    guard_outcomes: list[ValidatedQuery | GuardRejection] = field(default_factory=list)
    dropped: list[tuple[str, str]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "agent": self.agent,
            "backend": self.backend,
            "attempts": [asdict(a) for a in self.attempts],
            "extracted_queries": list(self.extracted_queries),
            "guard_outcomes": [o.to_json_dict() for o in self.guard_outcomes],
            "dropped": [{"sql": sql, "reason": reason} for sql, reason in self.dropped],
        }


def extract_sql(response: str) -> list[str]:
    """All fenced SQL blocks, in document order.

    A fence counts when tagged ``sql`` or when untagged and its first word
    is SELECT (any casing).
    """
    found = []
    for match in FENCE_RE.finditer(response):
        tag = match.group(1).lower()
        body = match.group(2).strip()
        if not body:
            continue
        if tag == "sql":
            found.append(body)
        elif tag == "":
            head = body.split(None, 1)[0].upper() if body.split() else ""
            if head == "SELECT":
                found.append(body)
    return found


_GRAMMAR_NOTE = (
    "Queries must be single-table SELECT statements. Available clauses: "
    "WHERE, GROUP BY, HAVING, ORDER BY, LIMIT. "
    f"Functions: {', '.join([*AGGREGATE_FUNCTIONS, *SCALAR_FUNCTIONS])}. "
    "No joins, no subqueries, no comments, one statement only. Give every "
    "computed projection an alias with AS; aliases key the downstream "
    "reference-range comparison."
)


@dataclass(frozen=True)
class AgentStage:
    """One agent: its name, the backend task it asks, the brief and reply
    format of its system prompt, the table levels whose queries it keeps,
    and whether its reply carries a JSON plan."""

    agent: str  # global | local
    task: str
    brief: str
    reply_format: str
    levels: tuple[Level, ...]
    plans: bool = False


GLOBAL_STAGE = AgentStage(
    "global", TASK_GLOBAL,
    brief="You analyze whole-image pathology metrics. Select the most "
          "informative global features for the question and write SQL that "
          "retrieves them. Only query tables at level global; cellular and "
          "architectural evidence is handled by a separate agent.",
    reply_format="Respond with a JSON plan in a ```json fence shaped as "
                 '{"target_features": [{"table": ..., "column": ..., "rationale": ...}]} '
                 "followed by one or more queries in ```sql fences.",
    levels=(Level.GLOBAL,),
    plans=True,
)
LOCAL_STAGE = AgentStage(
    "local", TASK_LOCAL,
    brief="You analyze cell-level and structure-level pathology evidence. "
          "Using the global plan and its measurements, write complementary SQL "
          "against tables at level local_cellular and local_architecture: use "
          "WHERE for cell-type specificity, GROUP BY for cross-population "
          "comparison, and in-query statistics where helpful.",
    reply_format="Respond with one or more queries in ```sql fences.",
    levels=(Level.LOCAL_CELLULAR, Level.LOCAL_ARCHITECTURE),
)


def _parse_plan(response: str) -> list[PlanTarget] | None:
    match = _FENCE_JSON_RE.search(response)
    if match is None:
        return None
    try:
        doc = json.loads(match.group(1))
        targets = [
            PlanTarget(str(t["table"]), str(t["column"]), str(t.get("rationale", "")))
            for t in doc["target_features"]
        ]
    except (ValueError, KeyError, TypeError):
        return None
    return targets


def _run_agent(
    stage: AgentStage,
    question: Question,
    manifest: SchemaManifest,
    backend: LlmBackendPort,
    config: BackendConfig,
    context: list[str],
    verdicts: GuardMemo | None = None,
) -> tuple[list[PlanTarget] | None, list[ValidatedQuery], AgentTranscript]:
    """One agent stage: prompt, retry while no query is kept, guard each query.

    The prompt is ``stage``'s system prompt over ``manifest``, and a user
    prompt of the question, its options and then the ``context`` lines.
    Every attempt goes through ``ask_backend``, and a retry's prompt differs
    from the first attempt's. A reply the run's reply book already held is
    recorded in the transcript exactly like a fresh one.
    Guard outcomes are memoized by (agent, raw SQL text), within this stage
    or, when ``verdicts`` is given, across calls (``batch_eval`` keeps one
    per run, over one manifest). A hit is recorded in the transcript
    exactly like a fresh outcome. Rejections are stored too: the guard is
    deterministic.
    """
    agent = stage.agent
    system = system_prompt(
        stage.task, f"Prompt-Version: {config.prompt_version}", stage.brief,
        render_schema_dictionary(manifest), _GRAMMAR_NOTE, stage.reply_format,
    )
    user = "\n".join([f"Question: {question.prompt_text}",
                      "Options: " + ", ".join(question.options), *context])
    transcript = AgentTranscript(agent=agent, backend=backend.name)
    memo = {} if verdicts is None else verdicts
    plan_targets: list[PlanTarget] | None = None
    kept: list[ValidatedQuery] = []
    attempts = 1 + config.max_retries
    for attempt in range(attempts):
        prompt_user = user if attempt == 0 else (
            user + f"\n\nRetry {attempt}: the previous response contained no "
                   f"usable SQL. Follow the output format exactly."
        )
        response = ask_backend(backend, config, system, prompt_user)
        transcript.attempts.append(Exchange(system, prompt_user, response))
        if stage.plans and plan_targets is None:
            plan_targets = _parse_plan(response)
        for raw in extract_sql(response):
            outcome = memo.get((agent, raw))
            if outcome is None:
                outcome = memo[agent, raw] = validate_pipeline(raw, manifest, source_agent=agent)
            transcript.extracted_queries.append(raw)
            transcript.guard_outcomes.append(outcome)
            if isinstance(outcome, GuardRejection):
                continue
            table = manifest.table(outcome.ast.from_table)
            if table is None or table.level not in stage.levels:
                transcript.dropped.append(
                    (raw, f"table {outcome.ast.from_table!r} outside {agent} agent scope")
                )
                continue
            kept.append(outcome)
        if kept:
            break
    if not transcript.extracted_queries and plan_targets is None:
        raise EmptyGeneration(
            f"{agent} agent produced no plan and no SQL after {attempts} attempts"
        )
    return plan_targets, kept, transcript


def plan_global(
    question: Question,
    manifest: SchemaManifest,
    backend: LlmBackendPort,
    config: BackendConfig | None = None,
    verdicts: GuardMemo | None = None,
) -> tuple[tuple[PlanTarget, ...], list[ValidatedQuery], AgentTranscript]:
    """Run the whole-image reasoning stage.

    Validated queries against non-global tables are dropped and logged in
    the transcript; the plan is the tuple of targets that resolve to
    global-level columns in the manifest. ``verdicts`` is the run's guard
    memo (see ``_run_agent``).
    """
    config = config or BackendConfig()
    if not manifest.tables_at(Level.GLOBAL):
        raise ConfigError("manifest declares no global-level table")
    targets, kept, transcript = _run_agent(
        GLOBAL_STAGE, question, manifest, backend, config, [], verdicts,
    )
    valid_targets = []
    for target in targets or []:
        table = manifest.table(target.table)
        if table is None or table.level is not Level.GLOBAL or table.column(target.column) is None:
            transcript.dropped.append(
                (f"plan:{target.table}.{target.column}", "plan target outside global schema")
            )
            continue
        valid_targets.append(target)
    return tuple(valid_targets), kept, transcript


def plan_local(
    question: Question,
    plan: tuple[PlanTarget, ...],
    manifest: SchemaManifest,
    backend: LlmBackendPort,
    config: BackendConfig | None = None,
    global_results_text: str = "",
    verdicts: GuardMemo | None = None,
) -> tuple[list[ValidatedQuery], AgentTranscript]:
    """Run the cellular/architectural reasoning stage over the global plan;
    ``verdicts`` is the run's guard memo, as for ``plan_global``."""
    config = config or BackendConfig()
    context = ["Global plan:",
               *(f"- {t.table}.{t.column}: {t.rationale}" for t in plan)]
    if global_results_text:
        context += ["Global measurements:", global_results_text]
    _, kept, transcript = _run_agent(
        LOCAL_STAGE, question, manifest, backend, config, context, verdicts,
    )
    return kept, transcript
