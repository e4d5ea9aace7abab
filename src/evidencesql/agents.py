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
from dataclasses import dataclass, field

from evidencesql.backends import (
    BackendConfig,
    LlmBackendPort,
    TASK_GLOBAL,
    TASK_LOCAL,
)
from evidencesql.errors import EmptyGeneration
from evidencesql.feature_store import Level, SchemaManifest
from evidencesql.sql.guard import GuardRejection, ValidatedQuery, validate_pipeline

_FENCE_SQL_RE = re.compile(r"```(sql)?[ \t]*\r?\n(.*?)```", re.DOTALL | re.IGNORECASE)
_FENCE_ANY_RE = re.compile(r"```([a-zA-Z]*)[ \t]*\r?\n?(.*?)```", re.DOTALL)
_FENCE_JSON_RE = re.compile(r"```json[ \t]*\r?\n(.*?)```", re.DOTALL | re.IGNORECASE)


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


@dataclass(frozen=True)
class ReasoningPlan:
    target_features: tuple[PlanTarget, ...]
    focus: str  # global | local


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
            "attempts": [
                {
                    "system_prompt": a.system_prompt,
                    "user_prompt": a.user_prompt,
                    "response": a.response,
                }
                for a in self.attempts
            ],
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
    for match in _FENCE_ANY_RE.finditer(response):
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


def render_schema_dictionary(manifest: SchemaManifest) -> str:
    """Compact data dictionary included in every prompt."""
    lines = [f"Schema (version {manifest.version}):"]
    for table in manifest.tables:
        lines.append(f"TABLE {table.name} LEVEL {table.level.value}")
        for col in table.columns:
            parts = [f"  COLUMN {col.name} {col.dtype.value}"]
            if col.categorical_domain:
                parts.append("IN {" + ", ".join(col.categorical_domain) + "}")
            if col.unit:
                parts.append(f"UNIT {col.unit}")
            lines.append(" ".join(parts))
    return "\n".join(lines)


_GRAMMAR_NOTE = (
    "Queries must be single-table SELECT statements. Available clauses: "
    "WHERE, GROUP BY, HAVING, ORDER BY, LIMIT. Functions: COUNT, SUM, AVG, "
    "MIN, MAX, STDDEV, SQRT, ABS, ROUND. No joins, no subqueries, no "
    "comments, one statement only. Give every computed projection an alias "
    "with AS; aliases key the downstream reference-range comparison."
)


def build_global_prompts(question: Question, manifest: SchemaManifest,
                         prompt_version: str = "1") -> tuple[str, str]:
    system = "\n\n".join([
        f"Task: {TASK_GLOBAL}",
        f"Prompt-Version: {prompt_version}",
        "You analyze whole-image pathology metrics. Select the most "
        "informative global features for the question and write SQL that "
        "retrieves them. Only query tables at level global; cellular and "
        "architectural evidence is handled by a separate agent.",
        render_schema_dictionary(manifest),
        _GRAMMAR_NOTE,
        "Respond with a JSON plan in a ```json fence shaped as "
        '{"target_features": [{"table": ..., "column": ..., "rationale": ...}]} '
        "followed by one or more queries in ```sql fences.",
    ])
    user = "\n".join([
        f"Question: {question.prompt_text}",
        "Options: " + ", ".join(question.options),
    ])
    return system, user


def build_local_prompts(
    question: Question,
    plan: ReasoningPlan,
    manifest: SchemaManifest,
    global_results_text: str = "",
    prompt_version: str = "1",
) -> tuple[str, str]:
    system = "\n\n".join([
        f"Task: {TASK_LOCAL}",
        f"Prompt-Version: {prompt_version}",
        "You analyze cell-level and structure-level pathology evidence. "
        "Using the global plan and its measurements, write complementary SQL "
        "against tables at level local_cellular and local_architecture: use "
        "WHERE for cell-type specificity, GROUP BY for cross-population "
        "comparison, and in-query statistics where helpful.",
        render_schema_dictionary(manifest),
        _GRAMMAR_NOTE,
        "Respond with one or more queries in ```sql fences.",
    ])
    plan_lines = [
        f"- {t.table}.{t.column}: {t.rationale}" for t in plan.target_features
    ]
    user_parts = [
        f"Question: {question.prompt_text}",
        "Options: " + ", ".join(question.options),
        "Global plan:",
        *plan_lines,
    ]
    if global_results_text:
        user_parts += ["Global measurements:", global_results_text]
    return system, "\n".join(user_parts)


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
    agent: str,
    system: str,
    user: str,
    manifest: SchemaManifest,
    backend: LlmBackendPort,
    config: BackendConfig,
    allowed_levels: tuple[Level, ...],
    want_plan: bool,
) -> tuple[list[PlanTarget] | None, list[ValidatedQuery], AgentTranscript]:
    transcript = AgentTranscript(agent=agent, backend=backend.name)
    plan_targets: list[PlanTarget] | None = None
    kept: list[ValidatedQuery] = []
    attempts = 1 + max(0, config.max_retries)
    for attempt in range(attempts):
        prompt_user = user if attempt == 0 else (
            user + f"\n\nRetry {attempt}: the previous response contained no "
                   f"usable SQL. Follow the output format exactly."
        )
        response = backend.complete(
            system, prompt_user, config.temperature, config.timeout_seconds,
        )
        transcript.attempts.append(Exchange(system, prompt_user, response))
        if want_plan and plan_targets is None:
            plan_targets = _parse_plan(response)
        for raw in extract_sql(response):
            outcome = validate_pipeline(raw, manifest, source_agent=agent)
            transcript.extracted_queries.append(raw)
            transcript.guard_outcomes.append(outcome)
            if isinstance(outcome, GuardRejection):
                continue
            table = manifest.table(outcome.ast.from_table)
            if table is None or table.level not in allowed_levels:
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
) -> tuple[ReasoningPlan, list[ValidatedQuery], AgentTranscript]:
    """Run the whole-image reasoning stage.

    Validated queries against non-global tables are dropped and logged in
    the transcript; the plan keeps only targets that resolve to global-level
    columns in the manifest.
    """
    config = config or BackendConfig()
    if not manifest.tables_at(Level.GLOBAL):
        raise ValueError("manifest declares no global-level table")
    system, user = build_global_prompts(question, manifest, config.prompt_version)
    targets, kept, transcript = _run_agent(
        "global", system, user, manifest, backend, config,
        allowed_levels=(Level.GLOBAL,), want_plan=True,
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
    plan = ReasoningPlan(tuple(valid_targets), focus="global")
    return plan, kept, transcript


def plan_local(
    question: Question,
    plan: ReasoningPlan,
    manifest: SchemaManifest,
    backend: LlmBackendPort,
    config: BackendConfig | None = None,
    global_results_text: str = "",
) -> tuple[list[ValidatedQuery], AgentTranscript]:
    """Run the cellular/architectural reasoning stage over the global plan."""
    config = config or BackendConfig()
    if plan.focus != "global":
        raise ValueError("local agent consumes the global plan")
    system, user = build_local_prompts(
        question, plan, manifest, global_results_text, config.prompt_version,
    )
    _, kept, transcript = _run_agent(
        "local", system, user, manifest, backend, config,
        allowed_levels=(Level.LOCAL_CELLULAR, Level.LOCAL_ARCHITECTURE),
        want_plan=False,
    )
    return kept, transcript
