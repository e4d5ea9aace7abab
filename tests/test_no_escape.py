"""No bad input escapes the package's error types.

Two derandomized property checks: ``run_case`` on the demo case under any
scripted backend replies either completes or raises an ``EvidenceSqlError``,
and the ``ingest`` command on mutated demo-case files either succeeds or
fails with exit 1 and a structured ``ingest`` error.
"""

import json
import shutil
from collections import Counter

from click.testing import CliRunner

from evidencesql.agents import Question
from evidencesql.backends import (
    TASK_GLOBAL,
    TASK_LOCAL,
    BackendConfig,
    TemplateBackend,
    render_schema_dictionary,
    system_prompt,
)
from evidencesql.cli import main
from evidencesql.errors import EvidenceSqlError
from evidencesql.pipeline import RunConfig, run_case

from datasets import OPTIONS, QUESTION_TEXT
from scripted_backend import ScriptedBackend


def _derandomized(check):
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    return settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])(
        given(rng=st.randoms(use_true_random=False))(check))


# -- backend replies ------------------------------------------------------------------

_SQL_WORDS = (
    "SELECT", "select", "FROM", "cells", "global_features", "structures", "nuclei", "area",
    "are", "cell_type", "total_cells", "AVG(area)", "COUNT(*)", "STDDEV(area)", "SQRT(-1)",
    "ROUND(area, 2)", "AVGG(area)", "*", ",", "(", ")", "WHERE", "GROUP BY", "HAVING",
    "ORDER BY", "DESC", "LIMIT", "1", "0", "-2", "1e999", "1" * 400, "/", "=", "<",
    "'neoplastic'", '"neoplastic"', "NULL", "AND", "OR", "NOT", "AS", "x", ";",
    "DROP TABLE cells", "--", "JOIN", "SELEKT", "FORM", "ß",
)
_FIXED_REPLIES = (
    "", "DECLINE", "decline", '{"low": 0.1, "high": 0.9}', '{"low": 5, "high": 1}',
    '{"low": "a", "high": 2}', '{"low": 1e999, "high": 2}', '```json\n{"target_features": 3}\n```',
    '```json\n{"target_features": [{"table": "cells", "column": "nope"}]}\n```',
)


def _random_reply(rng, templates: list[str]) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(templates)
    if kind == 1:  # a well-formed reply with a slice cut out
        text = rng.choice(templates)
        start = rng.randrange(len(text) + 1)
        return text[:start] + text[rng.randrange(start, len(text) + 1):]
    if kind == 2:
        body = " ".join(rng.choice(_SQL_WORDS) for _ in range(rng.randint(0, 12)))
        return f"```{rng.choice(['sql', '', 'SQL', 'json'])}\n{body}\n```"
    if kind == 3:
        return rng.choice(_FIXED_REPLIES)
    return "".join(chr(rng.randrange(32, 0x250)) for _ in range(rng.randint(0, 40)))


def test_run_case_under_any_replies_completes_or_raises_a_package_error(
        manifest, demo_bundle, tmp_path):
    question = Question(demo_bundle.case_id, QUESTION_TEXT, OPTIONS)
    schema = render_schema_dictionary(manifest)
    templates = [TemplateBackend().complete(system_prompt(task, schema), "", 0.0, 5.0)
                 for task in (TASK_GLOBAL, TASK_LOCAL)]
    outcomes: Counter[str] = Counter()

    @_derandomized
    def check(rng):
        replies = [_random_reply(rng, templates) for _ in range(rng.randint(0, 6))]
        config = RunConfig("unused", str(tmp_path / "out"), mode=rng.choice(("full", "sql_only")),
                           backend=BackendConfig(kind=rng.choice(("template", "remote"))))
        try:
            run_case(manifest, demo_bundle, question, config, ScriptedBackend(replies))
        except EvidenceSqlError as exc:
            outcomes[type(exc).__name__] += 1
        else:
            outcomes["completed"] += 1

    check()
    assert outcomes["completed"] > 0 and len(outcomes) > 1, outcomes


# -- case files -------------------------------------------------------------------------

_CASE_FILES = ("cells.csv", "global_features.csv", "structures.csv", "sidecar.json")
_NOISE = (
    b",", b"\n", b"\r\n", b'"', b"NaN", b"inf", b"-1", b"1e999", b"1" * 400, b"\xff",
    b"\x00", b"[]", b"{}", b"null", b"true", b"mitotic", b"\xef\xbb\xbf", b"1.5", b"",
)


def _mutate(rng, data: bytes) -> bytes:
    start = rng.randrange(len(data) + 1)
    end = rng.randrange(start, min(len(data), start + 40) + 1)
    kind = rng.randrange(5)
    if kind == 0:
        return data[:start]
    if kind == 1:
        return data[:start] + data[end:]
    if kind == 2:
        return data[:start] + rng.choice(_NOISE) + data[end:]
    if kind == 3:  # one line repeated or dropped
        lines = data.split(b"\n")
        index = rng.randrange(len(lines))
        return b"\n".join(lines[:index] + [lines[index]] * rng.randint(0, 2) + lines[index + 1:])
    return data[:start] + bytes([rng.randrange(256)]) + data[start + 1:]


def test_ingest_of_mutated_case_files_succeeds_or_is_a_structured_ingest_error(
        manifest_path, demo_case_dir, tmp_path):
    runner = CliRunner()
    case = tmp_path / "case"
    originals = {name: (demo_case_dir / name).read_bytes() for name in _CASE_FILES}
    exits: Counter[int] = Counter()

    @_derandomized
    def check(rng):
        shutil.rmtree(case, ignore_errors=True)
        case.mkdir()
        mutated = set(rng.sample(_CASE_FILES, rng.randint(1, 2)))
        for name, data in originals.items():
            (case / name).write_bytes(_mutate(rng, data) if name in mutated else data)
        result = runner.invoke(main, ["ingest", "--manifest", str(manifest_path),
                                      "--case", str(case), "--json"])
        exits[result.exit_code] += 1
        if result.exit_code == 0:
            assert json.loads(result.stdout)["case_id"] == "case"
        else:
            assert result.exit_code == 1, result.output
            assert json.loads(result.stderr)["error"]["stage"] == "ingest", result.stderr

    check()
    assert set(exits) == {0, 1}, exits
