import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from evidencesql import agents
from evidencesql.agents import (
    Question,
    extract_sql,
    plan_global,
    plan_local,
    render_schema_dictionary,
)
from evidencesql.backends import BackendConfig, TemplateBackend
from evidencesql.errors import EmptyGeneration
from evidencesql.sql.ast import AGGREGATE_FUNCTIONS, SCALAR_FUNCTIONS
from evidencesql.sql.guard import GuardRejection

from scripted_backend import ScriptedBackend


@pytest.fixture
def question():
    return Question("demo_case", "Which diagnosis best fits the measured features?",
                    ("tubular_adenocarcinoma", "papillary_adenocarcinoma"))


def test_question_invariants():
    with pytest.raises(ValueError):
        Question("c", "?", ("only",))
    with pytest.raises(ValueError):
        Question("c", "?", ("a", "a"))


def test_extract_sql_tagged_and_untagged():
    response = (
        "Plan first.\n```sql\nSELECT 1 FROM t\n```\nthen\n"
        "```\nselect 2 from u\n```\n```python\nprint('no')\n```"
    )
    assert extract_sql(response) == ["SELECT 1 FROM t", "select 2 from u"]
    assert extract_sql("no fences here") == []
    assert extract_sql("```\nnot a query\n```") == []


def test_extract_sql_skips_an_empty_fence():
    assert extract_sql("```sql\n  \n```\n```sql\nSELECT 1 FROM t\n```") == ["SELECT 1 FROM t"]


@pytest.mark.parametrize("response", [
    "no plan here\n```sql\nSELECT 1 FROM t\n```",
    "```json\n{\"target_features\": [\n```",
    "```json\n{\"targets\": []}\n```",
    "```json\n{\"target_features\": [{\"table\": \"cells\"}]}\n```",
    "```json\n[1, 2]\n```",
], ids=["no-json-fence", "malformed-json", "no-target-features", "target-without-column",
        "not-an-object"])
def test_parse_plan_without_a_usable_plan_is_none(response):
    assert agents._parse_plan(response) is None


def test_parse_plan_reads_each_target():
    response = ('```json\n{"target_features": [{"table": "cells", "column": "area"},'
                ' {"table": "global_features", "column": "total_cells", "rationale": "size"}]}'
                "\n```")
    assert agents._parse_plan(response) == [
        agents.PlanTarget("cells", "area", ""),
        agents.PlanTarget("global_features", "total_cells", "size"),
    ]


def test_schema_dictionary_lists_all_columns(manifest):
    text = render_schema_dictionary(manifest)
    assert "TABLE cells LEVEL local_cellular" in text
    assert "TABLE global_features LEVEL global" in text
    for table in manifest.tables:
        for column in table.columns:
            assert column.name in text


def test_template_global_stage(question, manifest):
    plan, queries, transcript = plan_global(question, manifest, TemplateBackend())
    assert [t.column for t in plan] == [
        c.name for c in manifest.table("global_features").columns
    ]
    assert [v.canonical_text for v in queries] == ["SELECT * FROM global_features"]
    assert len(transcript.attempts) == 1
    assert transcript.backend == "template"


def test_template_local_stage_emits_three_canonical_queries(question, manifest):
    plan, _, _ = plan_global(question, manifest, TemplateBackend())
    queries, transcript = plan_local(question, plan, manifest, TemplateBackend())
    texts = [v.canonical_text for v in queries]
    assert len(texts) == 3
    assert texts[0] == (
        "SELECT cell_type, COUNT(*) AS n FROM cells "
        "GROUP BY cell_type ORDER BY cell_type"
    )
    assert texts[1].startswith("SELECT AVG(area) AS mean_area")
    assert "WHERE cell_type = 'neoplastic'" in texts[1]
    assert texts[2].startswith("SELECT COUNT(*) AS n_structures")
    assert transcript.guard_outcomes and all(
        not isinstance(o, GuardRejection) for o in transcript.guard_outcomes
    )


def test_template_stage_is_deterministic(question, manifest):
    a = plan_global(question, manifest, TemplateBackend())
    b = plan_global(question, manifest, TemplateBackend())
    assert a[0] == b[0]
    assert [v.canonical_text for v in a[1]] == [v.canonical_text for v in b[1]]
    assert a[2].to_json_dict() == b[2].to_json_dict()


def test_global_stage_drops_local_table_queries(question, manifest):
    backend = ScriptedBackend([
        '```json\n{"target_features": [{"table": "global_features", '
        '"column": "neoplastic_ratio", "rationale": "r"}]}\n```\n'
        "```sql\nSELECT COUNT(*) FROM cells\n```"
    ])
    plan, queries, transcript = plan_global(question, manifest, backend)
    assert queries == []
    assert transcript.dropped
    assert "outside global agent scope" in transcript.dropped[0][1]
    assert [t.column for t in plan] == ["neoplastic_ratio"]


def test_global_plan_target_outside_global_schema_is_dropped(question, manifest):
    backend = ScriptedBackend([
        '```json\n{"target_features": ['
        '{"table": "global_features", "column": "neoplastic_ratio", "rationale": "r"}, '
        '{"table": "cells", "column": "area", "rationale": "r"}, '
        '{"table": "global_features", "column": "no_such_column", "rationale": "r"}, '
        '{"table": "no_such_table", "column": "x", "rationale": "r"}]}\n```\n'
        "```sql\nSELECT * FROM global_features\n```"
    ])
    plan, queries, transcript = plan_global(question, manifest, backend)
    assert [(t.table, t.column) for t in plan] == [
        ("global_features", "neoplastic_ratio")]
    assert transcript.dropped == [
        (f"plan:{target}", "plan target outside global schema")
        for target in ("cells.area", "global_features.no_such_column", "no_such_table.x")
    ]
    assert len(queries) == 1


def test_system_prompt_names_exactly_the_sql_functions(question, manifest):
    _, _, transcript = plan_global(question, manifest, TemplateBackend())
    system = transcript.attempts[0].system_prompt
    listed = re.search(r"Functions: ([A-Z, ]+)\.", system).group(1).split(", ")
    assert listed == [*AGGREGATE_FUNCTIONS, *SCALAR_FUNCTIONS]


def test_local_stage_guard_rejects_write(question, manifest):
    plan, _, _ = plan_global(question, manifest, TemplateBackend())
    backend = ScriptedBackend(["```sql\nDELETE FROM cells\n```"])
    queries, transcript = plan_local(question, plan, manifest, backend)
    assert queries == []
    assert all(isinstance(o, GuardRejection) for o in transcript.guard_outcomes)
    assert transcript.guard_outcomes[0].stage == "sanitize"


def test_local_stage_repairs_typo(question, manifest):
    plan, _, _ = plan_global(question, manifest, TemplateBackend())
    backend = ScriptedBackend(["```sql\nSELECT AVG(aera) FROM cells\n```"])
    queries, transcript = plan_local(question, plan, manifest, backend)
    assert len(queries) == 1
    assert queries[0].canonical_text == "SELECT AVG(area) FROM cells"
    assert [a.kind for a in queries[0].repair_log] == ["identifier_fix"]


def test_empty_generation_after_retries(question, manifest):
    plan, _, _ = plan_global(question, manifest, TemplateBackend())
    backend = ScriptedBackend(["nothing here", "still nothing"])
    with pytest.raises(EmptyGeneration):
        plan_local(question, plan, manifest, backend)
    # 1 initial + 2 retries
    assert len(backend.calls) == 3


def test_retry_prompts_are_derived_deterministically(question, manifest):
    plan, _, _ = plan_global(question, manifest, TemplateBackend())
    backend = ScriptedBackend(["prose", "prose", "```sql\nSELECT COUNT(*) FROM cells\n```"])
    queries, transcript = plan_local(question, plan, manifest, backend)
    assert len(queries) == 1
    assert len(transcript.attempts) == 3
    assert "Retry 1" in transcript.attempts[1].user_prompt
    assert "Retry 2" in transcript.attempts[2].user_prompt


def test_transcript_alignment_invariant(question, manifest):
    plan, _, _ = plan_global(question, manifest, TemplateBackend())
    backend = ScriptedBackend([
        "```sql\nSELECT AVG(area) FROM cells\n```\n```sql\nDROP TABLE cells\n```"
    ])
    queries, transcript = plan_local(question, plan, manifest, backend)
    assert len(transcript.extracted_queries) == len(transcript.guard_outcomes)
    assert len(queries) == 1


def test_config_controls_retry_budget(question, manifest):
    plan, _, _ = plan_global(question, manifest, TemplateBackend())
    backend = ScriptedBackend(["prose"])
    config = BackendConfig(max_retries=0)
    with pytest.raises(EmptyGeneration):
        plan_local(question, plan, manifest, backend, config)
    assert len(backend.calls) == 1


def test_scripted_backend_call_index_is_thread_safe():
    class SlowList(list):
        def append(self, item):
            super().append(item)
            time.sleep(0.05)  # widens the window between append and index read

    backend = ScriptedBackend(["r0", "r1"], calls=SlowList())
    barrier = threading.Barrier(2)

    def call(_):
        barrier.wait(timeout=10)
        return backend.complete("system", "user", 0.0, 1.0)

    with ThreadPoolExecutor(max_workers=2) as pool:
        replies = sorted(pool.map(call, range(2)))
    assert replies == ["r0", "r1"]
    assert len(backend.calls) == 2
