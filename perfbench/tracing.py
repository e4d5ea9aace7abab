"""Spans recorded from outside the program, and the per-layer metrics derived
from them.

The tracer replaces the module attributes through which the pipeline calls
each layer (``evidencesql.pipeline.execute``, ``evidencesql.agents.validate_pipeline``
and so on) with wrappers that record a span: layer, name, start, end, parent
and the operation it belongs to. The backend is wrapped on the instance the
run uses. Nothing under ``src/`` changes. Spans stay in memory until the run
writes them out once at the end.

A span's self time is its duration minus the durations of its children;
calls are single-threaded (``workers=1``), so children never overlap.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

import evidencesql.agents as agents_mod
import evidencesql.pipeline as pipeline_mod
import evidencesql.serialize as serialize_mod
import evidencesql.sql.executor as executor_mod
import evidencesql.sql.guard as guard_mod
from evidencesql.backends import DECLINE_RESPONSE
from evidencesql.sql.ast import Star, contains_aggregate

from latency_backend import prompt_task
from queries import REJECT_STAGES, REPAIR_KINDS, SHAPES

LAYERS = ("feature_store", "sql.guard", "sql.executor", "backends", "agents",
          "knowledge", "fusion", "report", "pipeline")
TASK_NAMES = {
    "global-feature-analysis": "global", "local-feature-analysis": "local",
    "reference-ranges": "ranges", "report-narrative": "narrative",
}

# Per-layer metric name -> unit; BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "feature_store.ingest_s_per_case": "s",
    "feature_store.rows_per_s": "1/s",
    "feature_store.rows_ingested": "count",
    "feature_store.rejected_cases": "count",
    **{f"sql.executor.{shape}.ms_p50": "ms" for shape in SHAPES},
    "sql.executor.self_s_per_case": "s",
    "sql.executor.rows_scanned": "count",
    "sql.executor.rows_returned": "count",
    "sql.executor.scan_rows_per_s": "1/s",
    "sql.executor.errors": "count",
    "sql.guard.validate_ms_p50": "ms",
    "sql.guard.self_s_per_case": "s",
    "sql.guard.calls": "count",
    "sql.guard.distinct_text_ratio": "ratio",
    "sql.guard.accepted_ratio": "ratio",
    **{f"sql.guard.repairs.{kind}": "count" for kind in REPAIR_KINDS},
    **{f"sql.guard.rejections.{stage}": "count" for stage in REJECT_STAGES},
    **{f"backends.calls.{task}": "count" for task in ("global", "local", "ranges", "narrative")},
    "backends.wait_s_per_case": "s",
    "backends.declines": "count",
    "backend_calls_per_case": "count",
    "agents.self_s_per_case": "s",
    "agents.attempts_per_stage": "count",
    "agents.kept_ratio": "ratio",
    "knowledge.range_requests_per_case": "count",
    "knowledge.fetch_ranges_s_per_case": "s",
    "knowledge.score_s_per_case": "s",
    "knowledge.scored_findings_ratio": "ratio",
    "fusion.fuse_us": "us",
    "report.build_ms": "ms",
    "report.render_md_ms": "ms",
    "report.canonical_json_ms": "ms",
    "report.json_bytes": "bytes",
    "report.md_bytes": "bytes",
    "pipeline.write_ms": "ms",
    "pipeline.files_per_case": "count",
    "pipeline.self_s_per_case": "s",
    "artifact_bytes_per_case": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Spans of pipeline functions that only call the layers; their self time
# is not covered by any layer.
CONTAINERS = ("batch_eval", "run_case")

# Span record fields.
OP, PARENT, LAYER, NAME, START, END, ATTRS = range(7)


def query_shape(ast) -> str:
    """Executor shape of a validated query, as the benchmark names them."""
    if ast.group_by:
        return "group"
    if ast.order_by and ast.limit is not None:
        return "topk"
    if any(isinstance(p.expr, Star) for p in ast.projections):
        return "star"
    if any(contains_aggregate(p.expr) for p in ast.projections):
        return "aggregate"
    return "filter"


def _ingest_attrs(args, result):
    return {"rows": sum(t.row_count for t in result.tables.values())}


def _execute_attrs(args, result):
    query, bundle = args[0], args[1]
    table = bundle.tables.get(query.ast.from_table)
    return {"shape": query_shape(query.ast),
            "scanned": table.row_count if table is not None else 0,
            "returned": len(result.rows)}


def _validate_attrs(args, result):
    if hasattr(result, "repair_log"):
        return {"text": args[0], "accepted": True,
                "repairs": [a.kind for a in result.repair_log]}
    return {"text": args[0], "accepted": False, "stage": result.stage}


def _plan_attrs(args, result):
    kept, transcript = result[-2], result[-1]
    return {"kept": len(kept), "extracted": len(transcript.extracted_queries)}


def _score_attrs(args, result):
    findings = result[0]
    return {"findings": len(findings), "scored": sum(1 for f in findings if f.per_option_fits)}


def _complete_attrs(args, result):
    return {"task": TASK_NAMES.get(prompt_task(args[0]), "other"),
            "decline": result.strip() == DECLINE_RESPONSE}


# (module, attribute, layer, span name, attribute extractor)
_PATCHES = (
    (pipeline_mod, "batch_eval", "pipeline", "batch_eval", None),
    (pipeline_mod, "run_case", "pipeline", "run_case", None),
    (pipeline_mod, "load_manifest", "feature_store", "load_manifest", None),
    (pipeline_mod, "ingest_case_dir", "feature_store", "ingest", _ingest_attrs),
    (pipeline_mod, "plan_global", "agents", "plan_global", _plan_attrs),
    (pipeline_mod, "plan_local", "agents", "plan_local", _plan_attrs),
    (agents_mod, "validate_pipeline", "sql.guard", "validate", _validate_attrs),
    (guard_mod, "validate_pipeline", "sql.guard", "validate", _validate_attrs),
    (pipeline_mod, "execute", "sql.executor", "execute", _execute_attrs),
    (executor_mod, "execute", "sql.executor", "execute", _execute_attrs),
    (pipeline_mod, "fetch_llm_ranges", "knowledge", "fetch_ranges", None),
    (pipeline_mod, "extract_observations", "knowledge", "score", None),
    (pipeline_mod, "merge_ranges", "knowledge", "score", None),
    (pipeline_mod, "score_observations", "knowledge", "score", _score_attrs),
    (pipeline_mod, "calibrate_confidence", "knowledge", "score", None),
    (pipeline_mod, "uniform_confidences", "knowledge", "score", None),
    (pipeline_mod, "build_hypothesis", "knowledge", "score", None),
    (pipeline_mod, "fuse", "fusion", "fuse", None),
    (pipeline_mod, "fuse_sql_only", "fusion", "fuse", None),
    (pipeline_mod, "cnn_only_decision", "fusion", "fuse", None),
    (pipeline_mod, "build_report", "report", "build", None),
    (pipeline_mod, "render_report_markdown", "report", "render_md", None),
    (pipeline_mod, "canonical_json", "report", "canonical_json", None),
    (serialize_mod, "canonical_json", "report", "canonical_json", None),
    (pipeline_mod, "write_case_outputs", "pipeline", "write", None),
    (pipeline_mod, "write_run_metadata", "pipeline", "write_meta", None),
    (pipeline_mod, "write_json_atomic", "pipeline", "write_json", None),
)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket
    each traced operation so untraced operations run the original code."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_items: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn, describe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [len(self.op_items) - 1, stack[-1] if stack else -1,
                      layer, name, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[END] = perf_counter()
                record[ATTRS] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            record[END] = perf_counter()
            if describe is not None:
                record[ATTRS] = describe(args, result)
            return result

        return traced

    def install(self, backend) -> None:
        for owner, attr, layer, name, describe in _PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, name, original, describe))
        backend.complete = self._wrap("backends", "complete", backend.complete, _complete_attrs)
        self._saved.append((backend, "complete", None))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def operation(self, items: int, fn):
        """Run ``fn`` as one traced operation covering ``items`` cases or
        queries; returns its result."""
        self.op_items.append(items)
        return self._wrap("op", "op", fn, None)()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("op", "parent", "layer", "name", "start", "end", "attrs")
        path.write_text(json.dumps({
            "fields": fields, "op_items": self.op_items, "spans": self.spans,
        }) + "\n", encoding="utf-8")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, artifacts: dict[str, float], overhead_ratio: float) -> dict:
    """Per-layer metrics over all traced operations. Counts and times are per
    item (a case, or a query on ``slide_query``); ``*_ms_p50`` and ``fuse_us``
    are medians per call. A layer the workload never reached reads 0."""
    spans = tracer.spans
    items = sum(tracer.op_items) or 1
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_time = dict.fromkeys(LAYERS + ("op",), 0.0)
    for i, s in enumerate(spans):
        self_time[s[LAYER]] += (s[END] - s[START]) - child_time[i]

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def total(name):
        return sum(s[END] - s[START] for s in named(name))

    def attrs(name):
        return [s[ATTRS] for s in named(name) if s[ATTRS] and "raised" not in s[ATTRS]]

    m: dict[str, float] = {}
    ingests = named("ingest")
    rows_ingested = sum(a["rows"] for a in attrs("ingest"))
    m["feature_store.ingest_s_per_case"] = total("ingest") / items
    m["feature_store.rows_per_s"] = rows_ingested / total("ingest") if ingests else 0.0
    m["feature_store.rows_ingested"] = rows_ingested / items
    m["feature_store.rejected_cases"] = sum(1 for s in ingests if s[ATTRS] and "raised" in s[ATTRS]) / items

    executes = attrs("execute")
    by_shape = {shape: [] for shape in SHAPES}
    for s in named("execute"):
        if s[ATTRS] and "shape" in s[ATTRS]:
            by_shape[s[ATTRS]["shape"]].append((s[END] - s[START]) * 1e3)
    for shape in SHAPES:
        m[f"sql.executor.{shape}.ms_p50"] = _median(by_shape[shape])
    scanned = sum(a["scanned"] for a in executes)
    m["sql.executor.self_s_per_case"] = self_time["sql.executor"] / items
    m["sql.executor.rows_scanned"] = scanned / items
    m["sql.executor.rows_returned"] = sum(a["returned"] for a in executes) / items
    m["sql.executor.scan_rows_per_s"] = scanned / total("execute") if executes else 0.0
    m["sql.executor.errors"] = sum(1 for s in named("execute") if s[ATTRS] and "raised" in s[ATTRS]) / items

    validations = attrs("validate")
    calls = len(validations) or 1
    m["sql.guard.validate_ms_p50"] = _median([(s[END] - s[START]) * 1e3 for s in named("validate")])
    m["sql.guard.self_s_per_case"] = self_time["sql.guard"] / items
    m["sql.guard.calls"] = len(validations) / items
    m["sql.guard.distinct_text_ratio"] = len({a["text"] for a in validations}) / calls
    m["sql.guard.accepted_ratio"] = sum(a["accepted"] for a in validations) / calls
    for kind in REPAIR_KINDS:
        m[f"sql.guard.repairs.{kind}"] = sum(a.get("repairs", []).count(kind) for a in validations) / items
    for stage in REJECT_STAGES:
        m[f"sql.guard.rejections.{stage}"] = sum(a.get("stage") == stage for a in validations) / items

    completions = named("complete")
    tasks = [s[ATTRS]["task"] if s[ATTRS] and "task" in s[ATTRS] else "other" for s in completions]
    for task in ("global", "local", "ranges", "narrative"):
        m[f"backends.calls.{task}"] = tasks.count(task) / items
    m["backends.wait_s_per_case"] = total("complete") / items
    m["backends.declines"] = sum(1 for a in attrs("complete") if a["decline"]) / items
    m["backend_calls_per_case"] = len(completions) / items

    plans = attrs("plan_global") + attrs("plan_local")
    stage_indices = {i for i, s in enumerate(spans) if s[NAME] in ("plan_global", "plan_local")}
    agent_calls = sum(1 for s in completions if s[PARENT] in stage_indices)
    extracted = sum(a["extracted"] for a in plans)
    m["agents.self_s_per_case"] = self_time["agents"] / items
    m["agents.attempts_per_stage"] = agent_calls / len(stage_indices) if stage_indices else 0.0
    m["agents.kept_ratio"] = sum(a["kept"] for a in plans) / extracted if extracted else 0.0

    scores = [a for a in attrs("score") if "findings" in a]
    findings = sum(a["findings"] for a in scores)
    m["knowledge.range_requests_per_case"] = m["backends.calls.ranges"]
    m["knowledge.fetch_ranges_s_per_case"] = total("fetch_ranges") / items
    m["knowledge.score_s_per_case"] = total("score") / items
    m["knowledge.scored_findings_ratio"] = sum(a["scored"] for a in scores) / findings if findings else 0.0

    m["fusion.fuse_us"] = _median([(s[END] - s[START]) * 1e6 for s in named("fuse")])

    m["report.build_ms"] = total("build") * 1e3 / items
    m["report.render_md_ms"] = total("render_md") * 1e3 / items
    m["report.canonical_json_ms"] = total("canonical_json") * 1e3 / items
    m["report.json_bytes"] = artifacts.get("json_bytes", 0.0)
    m["report.md_bytes"] = artifacts.get("md_bytes", 0.0)

    m["pipeline.write_ms"] = total("write") * 1e3 / items
    m["pipeline.files_per_case"] = artifacts.get("files", 0.0)
    m["pipeline.self_s_per_case"] = self_time["pipeline"] / items
    m["artifact_bytes_per_case"] = artifacts.get("bytes", 0.0)

    # Time a layer span covers: the operation's, less the self time of the
    # operation and of the pipeline's containers, whose spans last about as
    # long as the operation itself.
    op_time = sum(s[END] - s[START] for s in spans if s[LAYER] == "op")
    uncovered = sum((s[END] - s[START]) - child_time[i] for i, s in enumerate(spans)
                    if s[LAYER] == "op" or s[NAME] in CONTAINERS)
    m["trace.coverage"] = 1.0 - uncovered / op_time if op_time else 0.0
    m["trace.overhead_ratio"] = overhead_ratio
    return m
