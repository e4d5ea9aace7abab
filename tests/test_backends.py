import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

import evidencesql
from evidencesql.backends import (
    ENV_API_KEY,
    ENV_BASE_URL,
    ENV_MODEL,
    TASK_GLOBAL,
    TASK_LOCAL,
    BackendConfig,
    RemoteBackend,
    ReplyBook,
    TemplateBackend,
    Unanswered,
    ask_backend,
    ask_each,
    make_backend,
    render_schema_dictionary,
    system_prompt,
)
from evidencesql.errors import BackendError, ConfigError
from evidencesql.feature_store import ColumnSchema, Level, SchemaManifest, TableSchema
from evidencesql.values import Dtype

from scripted_backend import ScriptedBackend


def test_pipeline_import_leaves_out_requests_and_click():
    src = str(Path(evidencesql.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, evidencesql.pipeline; "
            "print(sorted({'requests', 'click'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("field, value", [
    ("timeout_seconds", 0.0), ("timeout_seconds", -1.0), ("timeout_seconds", float("nan")),
    ("timeout_seconds", float("inf")), ("temperature", float("nan")),
    ("temperature", float("inf")), ("max_retries", -1),
])
def test_backend_config_refuses_unusable_timeout_and_temperature(field, value):
    with pytest.raises(ValueError, match=field):
        BackendConfig(**{field: value})
    with pytest.raises(ConfigError, match="malformed backend config"):
        BackendConfig.from_dict({field: value})


@pytest.mark.parametrize("doc, message", [
    ({"max_retry": 0, "temprature": 0.7},
     "backend config has unknown field(s) 'max_retry', 'temprature'"),
    ({"backend": "remote", "model": "m"}, "backend config has unknown field(s) 'model'"),
    ({"kind": "remote"},
     "backend config has unknown field(s) 'kind'; the backend kind is set by 'backend'"),
], ids=["misspelled", "unknown", "kind-for-backend"])
def test_backend_config_refuses_unknown_keys(doc, message):
    with pytest.raises(ConfigError) as raised:
        BackendConfig.from_dict(doc)
    assert str(raised.value) == message


# -- the reply book a pipeline stage asks ----------------------------------


def test_reply_book_answers_from_the_memo_or_names_what_is_unanswered():
    failure = BackendError("down")
    book = ReplyBook("remote", {("s", "a"): "reply a"})
    book.failures[("s", "f")] = failure
    assert book.name == "remote"
    assert ask_backend(book, BackendConfig(), "s", "a") == "reply a"
    with pytest.raises(BackendError) as raised:
        ask_backend(book, BackendConfig(), "s", "f")
    assert raised.value is failure
    with pytest.raises(Unanswered) as unanswered:
        ask_backend(book, BackendConfig(), "s", "b")
    assert unanswered.value.args == (("s", "b"),)


def test_ask_each_gathers_every_unanswered_prompt_into_one():
    book = ReplyBook("remote", {("s", "a"): "reply a"})
    prompts = [("s", "b"), ("s", "a"), ("s", "c")]
    with pytest.raises(Unanswered) as unanswered:
        ask_each(book, BackendConfig(), prompts)
    assert unanswered.value.args == (("s", "b"), ("s", "c"))
    book.replies.update({("s", "b"): "reply b", ("s", "c"): "reply c"})
    assert ask_each(book, BackendConfig(), prompts) == ["reply b", "reply a", "reply c"]


def test_ask_each_asks_a_backend_that_does_io_in_turn():
    backend = ScriptedBackend(["r0", "r1"])
    assert ask_each(backend, BackendConfig(), [("s", "x"), ("s", "y")]) == ["r0", "r1"]
    assert backend.calls == [("s", "x"), ("s", "y")]


# -- RemoteBackend against a stand-in for requests.post (no network) ------

class _Reply:
    def __init__(self, status_code=200, body=None):
        self.status_code = status_code
        self._body = body

    def json(self):
        if self._body is None:
            raise ValueError("no JSON body")
        return self._body


@pytest.fixture
def remote_env(monkeypatch):
    monkeypatch.setenv(ENV_BASE_URL, "http://llm.invalid/v1/")
    monkeypatch.setenv(ENV_MODEL, "m")
    monkeypatch.delenv(ENV_API_KEY, raising=False)


@pytest.fixture
def post(monkeypatch):
    """Replace ``requests.post`` with a stand-in that records each call and
    answers with ``post.reply``, raising it when it is an exception."""
    state = SimpleNamespace(calls=[], reply=None)

    def fake(url, **kwargs):
        state.calls.append((url, kwargs))
        if isinstance(state.reply, Exception):
            raise state.reply
        return state.reply

    monkeypatch.setattr(requests, "post", fake)
    return state


def _complete(backend):
    return backend.complete("sys", "user", temperature=0.0, timeout=5.0)


def test_remote_returns_message_content(remote_env, post):
    post.reply = _Reply(body={"choices": [{"message": {"content": "hello"}}]})
    assert _complete(RemoteBackend()) == "hello"
    (url, kwargs), = post.calls
    assert url == "http://llm.invalid/v1/chat/completions"
    assert kwargs["timeout"] == 5.0
    assert kwargs["json"]["model"] == "m"
    assert [m["content"] for m in kwargs["json"]["messages"]] == ["sys", "user"]


def test_remote_non_200_names_status(remote_env, post):
    post.reply = _Reply(status_code=503)
    with pytest.raises(BackendError, match="HTTP 503"):
        _complete(RemoteBackend())


@pytest.mark.parametrize("body", [None, {}, {"choices": []}, {"choices": [{"message": {}}]},
                                  {"choices": [{"message": None}]},
                                  {"choices": [{"message": {"content": None}}]},
                                  {"choices": [{"message": {"content": [
                                      {"type": "text", "text": "hello"}]}}]}])
def test_remote_malformed_body_is_backend_error(remote_env, post, body):
    post.reply = _Reply(body=body)
    with pytest.raises(BackendError, match="malformed backend response"):
        _complete(RemoteBackend())


def test_remote_connection_error_is_backend_error(remote_env, post):
    post.reply = requests.ConnectionError("refused")
    with pytest.raises(BackendError, match="backend request failed: refused"):
        _complete(RemoteBackend())


@pytest.mark.parametrize("missing", [ENV_BASE_URL, ENV_MODEL])
def test_remote_requires_base_url_and_model(remote_env, monkeypatch, missing):
    monkeypatch.delenv(missing)
    with pytest.raises(ConfigError, match=missing):
        RemoteBackend()


@pytest.mark.parametrize("key, expected", [(None, None), ("secret", "Bearer secret")])
def test_remote_sends_authorization_only_with_a_key(remote_env, monkeypatch, post,
                                                   key, expected):
    if key is not None:
        monkeypatch.setenv(ENV_API_KEY, key)
    post.reply = _Reply(body={"choices": [{"message": {"content": "ok"}}]})
    _complete(RemoteBackend())
    (_, kwargs), = post.calls
    assert kwargs["headers"].get("Authorization") == expected


@pytest.mark.parametrize("unset", [[ENV_BASE_URL], [ENV_MODEL], [ENV_BASE_URL, ENV_MODEL]])
def test_make_backend_remote_without_its_environment_is_config_error(remote_env, monkeypatch,
                                                                     unset):
    for name in unset:
        monkeypatch.delenv(name)
    with pytest.raises(ConfigError, match="remote backend requires"):
        make_backend(BackendConfig(kind="remote"))


def test_scripted_backend_without_responses_is_backend_error():
    backend = ScriptedBackend([])
    with pytest.raises(BackendError, match="scripted backend has no responses"):
        _complete(backend)
    assert backend.calls == [("sys", "user")]


def test_template_local_stage_averages_a_table_without_categorical_column():
    """A cellular table with reals but no categorical column (free text is
    not one) gets one query averaging every real column."""
    nuclei = TableSchema("nuclei", Level.LOCAL_CELLULAR, (
        ColumnSchema("nucleus_id", Dtype.INTEGER),
        ColumnSchema("note", Dtype.TEXT),
        ColumnSchema("area", Dtype.REAL),
        ColumnSchema("perimeter", Dtype.REAL),
    ))
    prompt = system_prompt(TASK_LOCAL, render_schema_dictionary(SchemaManifest("t", (nuclei,))))
    assert TemplateBackend().complete(prompt, "", 0.0, 5.0) == (
        "```sql\nSELECT AVG(area) AS mean_area, AVG(perimeter) AS mean_perimeter "
        "FROM nuclei\n```"
    )


def test_template_global_plan_is_indented_json_and_leaves_no_garbage_cycle():
    """The global stage's plan reads as ``json.dumps(plan, indent=2)``
    does, non-ASCII escapes included, and building it leaves nothing for the cyclic
    collector."""
    slides = TableSchema("slide", Level.GLOBAL, (
        ColumnSchema("tumour_fraction", Dtype.REAL),
        ColumnSchema("stain_é", Dtype.REAL),
    ))
    empty = TableSchema("empty", Level.GLOBAL, ())
    for tables in ((slides,), (empty,), (slides, empty)):
        prompt = system_prompt(TASK_GLOBAL, render_schema_dictionary(SchemaManifest("t", tables)))
        plan = TemplateBackend().complete(prompt, "", 0.0, 5.0).split("```")[1]
        assert plan.removeprefix("json\n").removesuffix("\n") == json.dumps(
            json.loads(plan.removeprefix("json")), indent=2)
    gc.collect()
    gc.disable()
    try:
        TemplateBackend().complete(prompt, "", 0.0, 5.0)
        assert gc.collect() == 0
    finally:
        gc.enable()
