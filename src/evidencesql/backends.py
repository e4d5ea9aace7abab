"""Text-generation backends behind one blocking port.

Two implementations: a deterministic template backend for fully offline,
reproducible runs, and a remote chat-completion client configured through
environment variables. A third, ``ReplyBook``, does no I/O: it answers a
pipeline stage from its run's replies, or names the prompts still to be
asked.

The template backend never sees package internals — it reads the schema
dictionary straight out of the prompt it receives, exactly like a hosted
model would, so the whole prompt/extraction/validation path stays exercised
offline. The prompt parts it reads are written here too: the ``Task:``
frame (``system_prompt``) and the schema dictionary
(``render_schema_dictionary``).
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, fields

from evidencesql.errors import BackendError, ConfigError
from evidencesql.feature_store import Level, SchemaManifest
from evidencesql.serialize import json_field, malformed

ENV_API_KEY = "EVIDENCESQL_LLM_API_KEY"
ENV_BASE_URL = "EVIDENCESQL_LLM_BASE_URL"
ENV_MODEL = "EVIDENCESQL_LLM_MODEL"

# Exact response used by backends that refuse a task (the template backend
# declines reference-range generation rather than inventing medicine).
DECLINE_RESPONSE = "DECLINE"

TASK_GLOBAL = "global-feature-analysis"
TASK_LOCAL = "local-feature-analysis"
TASK_RANGES = "reference-ranges"
TASK_NARRATIVE = "report-narrative"

_TASK_RE = re.compile(r"^Task:\s*(\S+)", re.MULTILINE)
_TABLE_RE = re.compile(r"^TABLE\s+(\w+)\s+LEVEL\s+(\w+)\s*$", re.MULTILINE)
_COLUMN_RE = re.compile(
    r"^\s+COLUMN\s+(\w+)\s+(integer|real|text)(?:\s+IN\s+\{([^}]*)\})?", re.MULTILINE
)


def system_prompt(task: str, *sections: str) -> str:
    """The one writer of a system prompt: a ``Task:`` line naming ``task``,
    which ``_TASK_RE`` reads back, then ``sections``, blank-line separated."""
    return "\n\n".join([f"Task: {task}", *sections])


def render_schema_dictionary(manifest: SchemaManifest) -> str:
    """Compact data dictionary included in every agent prompt, in the
    ``TABLE``/``COLUMN`` lines that ``_TABLE_RE`` and ``_COLUMN_RE`` read
    back."""
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


# ``json_field`` kinds by ``BackendConfig`` field annotation.
_FIELD_KINDS = {"str": str, "float": float, "int": int}


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "template"  # template | remote
    temperature: float = 0.0
    timeout_seconds: float = 30.0
    max_retries: int = 2
    prompt_version: str = "1"

    def __post_init__(self):
        if self.kind not in ("template", "remote"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be finite, got {self.temperature}")
        if not (math.isfinite(self.timeout_seconds) and self.timeout_seconds > 0):
            raise ValueError(
                f"timeout_seconds must be finite and positive, got {self.timeout_seconds}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    @classmethod
    def from_dict(cls, doc: dict, source: str = "backend config") -> "BackendConfig":
        """The config a backend-config document gives; its ``backend`` key
        names ``kind``, and each field it leaves out keeps its default.

        Raises ConfigError naming ``source`` for a document or field of the
        wrong shape, type or value, and for a key that names no field.
        """
        if not isinstance(doc, dict):
            raise ConfigError(f"{source} must hold a JSON object")
        keys = {f.name: "backend" if f.name == "kind" else f.name for f in fields(cls)}
        unknown = sorted(set(doc) - set(keys.values()))
        if unknown:
            hint = "; the backend kind is set by 'backend'" if "kind" in unknown else ""
            raise ConfigError(
                f"{source} has unknown field(s) {', '.join(map(repr, unknown))}{hint}")
        try:
            return cls(**{
                f.name: json_field(doc[keys[f.name]], keys[f.name], _FIELD_KINDS[f.type])
                for f in fields(cls) if keys[f.name] in doc
            })
        except (TypeError, ValueError, OverflowError) as exc:
            raise malformed(source, exc, ConfigError) from exc


class LlmBackendPort:
    """Blocking completion port: returns text or raises ``BackendError``."""

    name = "abstract"

    def complete(self, system_prompt: str, user_prompt: str,
                 temperature: float, timeout: float) -> str:
        raise NotImplementedError


def _parse_prompt_schema(system_prompt: str) -> dict[str, list]:
    """The prompt's schema dictionary: by level name, each table at that
    level as ``(name, [(column, dtype, domain or None), ...])``."""
    tables: dict[str, list] = {}
    matches = list(_TABLE_RE.finditer(system_prompt))
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(system_prompt)
        block = system_prompt[m.end():end]
        columns = []
        for cm in _COLUMN_RE.finditer(block):
            domain = None
            if cm.group(3) is not None:
                domain = [part.strip() for part in cm.group(3).split(",") if part.strip()]
            columns.append((cm.group(1), cm.group(2), domain))
        tables.setdefault(m.group(2), []).append((m.group(1), columns))
    return tables


def _indented_json(value: object, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for dicts and lists of them and of
    strings, built without the stdlib's pure-Python encoder, whose closures
    refer to each other and leave garbage for the cyclic collector on every
    call."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        return "{\n" + ",\n".join(f"{inner}{json.dumps(key)}: {_indented_json(item, inner)}"
                                   for key, item in value.items()) + f"\n{indent}}}"
    if isinstance(value, list) and value:
        return "[\n" + ",\n".join(inner + _indented_json(item, inner)
                                   for item in value) + f"\n{indent}]"
    return json.dumps(value)


class TemplateBackend(LlmBackendPort):
    """Deterministic stand-in for a hosted model.

    Emits a fixed, schema-parameterized plan and query set so the entire
    pipeline is reproducible byte for byte without network access.
    """

    name = "template"

    def complete(self, system_prompt: str, user_prompt: str,
                 temperature: float, timeout: float) -> str:
        task_match = _TASK_RE.search(system_prompt)
        task = task_match.group(1) if task_match else ""
        schema = _parse_prompt_schema(system_prompt)
        if task == TASK_GLOBAL:
            return self._global_response(schema)
        if task == TASK_LOCAL:
            return self._local_response(schema)
        return DECLINE_RESPONSE

    def _global_response(self, schema: dict[str, list]) -> str:
        targets = []
        queries = []
        for name, columns in schema.get(Level.GLOBAL.value, []):
            for col, _dtype, _domain in columns:
                targets.append({
                    "table": name,
                    "column": col,
                    "rationale": "whole-image summary metric",
                })
            queries.append(f"SELECT * FROM {name}")
        plan = _indented_json({"target_features": targets})
        parts = ["```json", plan, "```"]
        for q in queries:
            parts += ["```sql", q, "```"]
        return "\n".join(parts)

    def _local_response(self, schema: dict[str, list]) -> str:
        queries: list[str] = []
        for name, columns in schema.get(Level.LOCAL_CELLULAR.value, []):
            categorical = next(
                ((col, domain) for col, dtype, domain in columns
                 if dtype == "text" and domain), None,
            )
            real_cols = [col for col, dtype, _ in columns if dtype == "real"]
            if categorical is not None:
                cat_col, domain = categorical
                queries.append(
                    f"SELECT {cat_col}, COUNT(*) AS n FROM {name} "
                    f"GROUP BY {cat_col} ORDER BY {cat_col}"
                )
                if real_cols:
                    focus = "neoplastic" if "neoplastic" in domain else domain[0]
                    means = ", ".join(f"AVG({c}) AS mean_{c}" for c in real_cols)
                    queries.append(
                        f"SELECT {means} FROM {name} WHERE {cat_col} = '{focus}'"
                    )
            elif real_cols:
                means = ", ".join(f"AVG({c}) AS mean_{c}" for c in real_cols)
                queries.append(f"SELECT {means} FROM {name}")
        for name, columns in schema.get(Level.LOCAL_ARCHITECTURE.value, []):
            parts = [f"COUNT(*) AS n_{name}"]
            parts += [
                f"AVG({col}) AS {name}_mean_{col}"
                for col, dtype, _ in columns if dtype == "real"
            ]
            queries.append(f"SELECT {', '.join(parts)} FROM {name}")
        out = []
        for q in queries:
            out += ["```sql", q, "```"]
        return "\n".join(out)


class RemoteBackend(LlmBackendPort):
    """Chat-completion HTTP client; endpoint and key come from environment."""

    name = "remote"

    def __init__(self, base_url: str | None = None, model: str | None = None,
                 api_key: str | None = None):
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL, "")).rstrip("/")
        self.model = model or os.environ.get(ENV_MODEL, "")
        self.api_key = api_key or os.environ.get(ENV_API_KEY, "")
        if not self.base_url or not self.model:
            raise ConfigError(
                f"remote backend requires {ENV_BASE_URL} and {ENV_MODEL} to be set"
            )

    def complete(self, system_prompt: str, user_prompt: str,
                 temperature: float, timeout: float) -> str:
        # imported here: only this backend needs requests, and importing it
        # would slow down every import of the package
        import requests

        payload = {
            "model": self.model,
            "temperature": temperature,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = requests.post(
                f"{self.base_url}/chat/completions",
                json=payload, headers=headers, timeout=timeout,
            )
        except requests.RequestException as exc:
            raise BackendError(f"backend request failed: {exc}") from exc
        if response.status_code != 200:
            raise BackendError(f"backend returned HTTP {response.status_code}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError(
                f"malformed backend response: message content is {type(content).__name__}, not text"
            )
        return content


# Backend replies by (system, user) prompt pair, for one run.
ReplyMemo = dict[tuple[str, str], str]


class Unanswered(Exception):
    """Raised by a ``ReplyBook``; its ``args`` are the prompt pairs its run
    has no reply to yet. The pipeline's driver asks them and runs the stage
    again."""


class ReplyBook(LlmBackendPort):
    """One case's port onto its run's replies, which does no I/O: a prompt
    pair's reply from the run's memo ``replies``, else the exception its ask
    raised for this case (``failures``), given up as it is raised so the
    book and the exception's traceback do not keep each other, else
    ``Unanswered``.

    It carries the name of the backend the driver asks, so transcripts
    read as they would from that backend."""

    def __init__(self, name: str, replies: ReplyMemo):
        self.name = name
        self.replies = replies
        self.failures: dict[tuple[str, str], Exception] = {}

    def complete(self, system_prompt: str, user_prompt: str,
                 temperature: float, timeout: float) -> str:
        prompt = (system_prompt, user_prompt)
        if prompt in self.replies:
            return self.replies[prompt]
        raise self.failures.pop(prompt, None) or Unanswered(prompt)


def ask_backend(backend: LlmBackendPort, config: BackendConfig, system: str, user: str) -> str:
    """The one place a backend is asked: ``backend``'s reply to the prompt
    pair under ``config``'s temperature and timeout.

    The pipeline's stages call it with a ``ReplyBook``; the pipeline's
    driver calls it with the run's backend, on the thread its scheduling
    policy names (see ``pipeline._drive``).
    """
    return backend.complete(system, user, config.temperature, config.timeout_seconds)


def ask_each(backend: LlmBackendPort, config: BackendConfig,
             prompts: list[tuple[str, str]]) -> list[str]:
    """Each prompt pair's reply, in order, asked in turn. A ``ReplyBook``'s
    misses are gathered into one ``Unanswered``, so its driver asks them
    all at once. Any other exception propagates where it is met."""
    replies, unanswered = [], []
    for system, user in prompts:
        try:
            replies.append(ask_backend(backend, config, system, user))
        except Unanswered as exc:
            unanswered += exc.args
    if unanswered:
        raise Unanswered(*unanswered)
    return replies


def make_backend(config: BackendConfig) -> LlmBackendPort:
    if config.kind == "remote":
        return RemoteBackend()
    return TemplateBackend()
