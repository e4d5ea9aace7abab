import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

import evidencesql
from evidencesql.backends import ENV_API_KEY, ENV_BASE_URL, ENV_MODEL, BackendConfig, RemoteBackend
from evidencesql.errors import BackendError, ConfigError


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
    ("temperature", float("inf")),
])
def test_backend_config_refuses_unusable_timeout_and_temperature(field, value):
    with pytest.raises(ValueError, match=field):
        BackendConfig(**{field: value})
    with pytest.raises(ConfigError, match="malformed backend config"):
        BackendConfig.from_dict({field: value})


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
                                  {"choices": [{"message": None}]}])
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
