"""Text-generation backends behind one blocking port.

Three implementations: a deterministic template backend for fully offline,
reproducible runs; a scripted backend that replays canned responses (used in
tests and for record/replay debugging); and a remote chat-completion client
configured through environment variables.

The template backend never sees package internals — it reads the schema
dictionary straight out of the prompt it receives, exactly like a hosted
model would, so the whole prompt/extraction/validation path stays exercised
offline.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
from dataclasses import dataclass, field

from evidencesql.errors import BackendError, ConfigError

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


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "template"  # template | remote
    temperature: float = 0.0
    timeout_seconds: float = 30.0
    max_retries: int = 2
    prompt_version: str = "1"

    def __post_init__(self):
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be finite, got {self.temperature}")
        if not (math.isfinite(self.timeout_seconds) and self.timeout_seconds > 0):
            raise ValueError(
                f"timeout_seconds must be finite and positive, got {self.timeout_seconds}")

    @staticmethod
    def from_dict(doc: dict, source: str = "backend config") -> "BackendConfig":
        """Raises ConfigError for an unknown backend kind, or, naming
        ``source``, for a document or field of the wrong shape or type."""
        if not isinstance(doc, dict):
            raise ConfigError(f"{source} must hold a JSON object")
        kind = doc.get("backend", "template")
        if kind not in ("template", "remote"):
            raise ConfigError(f"unknown backend kind {kind!r}")
        try:
            return BackendConfig(
                kind=kind,
                temperature=float(doc.get("temperature", 0.0)),
                timeout_seconds=float(doc.get("timeout_seconds", 30.0)),
                max_retries=int(doc.get("max_retries", 2)),
                prompt_version=str(doc.get("prompt_version", "1")),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed {source}: {type(exc).__name__}: {exc}") from exc


class LlmBackendPort:
    """Blocking completion port: returns text or raises ``BackendError``."""

    name = "abstract"

    def complete(self, system_prompt: str, user_prompt: str,
                 temperature: float, timeout: float) -> str:
        raise NotImplementedError


@dataclass
class _PromptSchema:
    tables: list[tuple[str, str, list[tuple[str, str, list[str] | None]]]]

    def tables_at(self, level: str) -> list[tuple[str, list[tuple[str, str, list[str] | None]]]]:
        return [(name, cols) for name, lvl, cols in self.tables if lvl == level]


def _parse_prompt_schema(system_prompt: str) -> _PromptSchema:
    tables = []
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
        tables.append((m.group(1), m.group(2), columns))
    return _PromptSchema(tables)


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

    def _global_response(self, schema: _PromptSchema) -> str:
        targets = []
        queries = []
        for name, columns in schema.tables_at("global"):
            for col, _dtype, _domain in columns:
                targets.append({
                    "table": name,
                    "column": col,
                    "rationale": "whole-image summary metric",
                })
            queries.append(f"SELECT * FROM {name}")
        plan = json.dumps({"target_features": targets}, indent=2)
        parts = ["```json", plan, "```"]
        for q in queries:
            parts += ["```sql", q, "```"]
        return "\n".join(parts)

    def _local_response(self, schema: _PromptSchema) -> str:
        queries: list[str] = []
        for name, columns in schema.tables_at("local_cellular"):
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
        for name, columns in schema.tables_at("local_architecture"):
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


@dataclass
class ScriptedBackend(LlmBackendPort):
    """Replays a fixed list of responses; repeats the last one when drained.

    Responses go out in call order, so concurrent callers (batch workers,
    a range fetch's fanned-out prompts) get them in arrival order.
    """

    responses: list[str]
    name: str = "scripted"
    calls: list[tuple[str, str]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def complete(self, system_prompt: str, user_prompt: str,
                 temperature: float, timeout: float) -> str:
        # one lock over the append and the index read, so concurrent callers
        # (batch workers) each get their own position in the script
        with self._lock:
            self.calls.append((system_prompt, user_prompt))
            index = min(len(self.calls), len(self.responses)) - 1
        if not self.responses:
            raise BackendError("scripted backend has no responses")
        return self.responses[index]


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
            return response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc


def make_backend(config: BackendConfig) -> LlmBackendPort:
    if config.kind == "remote":
        return RemoteBackend()
    return TemplateBackend()
