"""Audit report assembly and rendering.

A report binds the fused decision to everything that produced it: the
hypothesis, the contributing features, and the full executed-SQL trace with
repair logs and result rows. JSON output is byte-deterministic; markdown is
the human view of the same structured fields. An optional narrative
paragraph is appended only when a remote backend wrote one, clearly labeled,
and never carries information absent from the structured fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from evidencesql.agents import Question
from evidencesql.errors import DanglingQueryId
from evidencesql.fusion import FusedDecision
from evidencesql.knowledge import Hypothesis, hypothesis_to_json_dict
from evidencesql.serialize import quantize_float
from evidencesql.sql.executor import ExecError, ResultTable
from evidencesql.sql.guard import ValidatedQuery
from evidencesql.values import Value, render_value

REPORT_SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class TraceEntry:
    query_id: int
    agent: str
    query: ValidatedQuery
    result: ResultTable | None = None
    error: ExecError | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "query_id": self.query_id,
            "agent": self.agent,
            "canonical_text": self.query.canonical_text,
            "repair_log": [a.to_json_dict() for a in self.query.repair_log],
        }
        if self.result is not None:
            doc["columns"] = list(self.result.column_names)
            doc["rows"] = [list(row) for row in self.result.rows]
        if self.error is not None:
            doc["error"] = self.error.to_json_dict()
        return doc


def contributing_features(hypothesis: Hypothesis) -> list[dict]:
    """Scored findings, strongest best-fit first; unscored findings are
    quality notes, not contributions."""
    rows = []
    for finding in hypothesis.findings:
        if not finding.per_option_fits:
            continue
        best_option = max(
            finding.per_option_fits.items(), key=lambda kv: (kv[1].weight, -_ordinal(kv[0], hypothesis)),
        )[0]
        best = finding.per_option_fits[best_option]
        rows.append({
            "feature_key": finding.feature_key,
            "observed": finding.observed,
            "best_option": best_option,
            "fit_category": best.category.value,
            "weight": best.weight,
        })
    rows.sort(key=lambda r: (-r["weight"], r["feature_key"]))
    for row in rows:
        del row["weight"]
    return rows


def _ordinal(option: str, hypothesis: Hypothesis) -> int:
    for i, (label, _) in enumerate(hypothesis.ranked_options):
        if label == option:
            return i
    return len(hypothesis.ranked_options)


def build_report(
    question: Question,
    decision: FusedDecision,
    hypothesis: Hypothesis | None,
    trace: list[TraceEntry],
    transcripts_ref: str | None = None,
    extra_notes: list[str] | None = None,
) -> dict:
    """Assemble the report JSON object.

    Raises:
        DanglingQueryId: a hypothesis finding references a query id that is
            not present in the trace.
    """
    trace_ids = {entry.query_id for entry in trace}
    if hypothesis is not None:
        for finding in hypothesis.findings:
            if finding.query_id not in trace_ids:
                raise DanglingQueryId(
                    f"finding {finding.feature_key!r} references query id "
                    f"{finding.query_id} absent from the trace"
                )
    notes = list(hypothesis.data_quality_notes) if hypothesis is not None else []
    notes += extra_notes or []
    fused_label_confidence = decision.fused[decision.label]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "case_id": question.case_id,
        "question": {
            "prompt_text": question.prompt_text,
            "options": list(question.options),
        },
        "diagnosis": {
            "label": decision.label,
            "confidence": fused_label_confidence,
        },
        "decision": decision.to_json_dict(),
        "contributing_features": (
            contributing_features(hypothesis) if hypothesis is not None else []
        ),
        "sql_trace": [entry.to_json_dict() for entry in trace],
        "hypothesis": hypothesis_to_json_dict(hypothesis) if hypothesis is not None else None,
        "transcripts_ref": transcripts_ref,
        "data_quality_notes": notes,
    }


def _format_cell(value: Value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return render_value(quantize_float(value))
    return render_value(value)


def render_report_markdown(report: dict, narrative: str | None = None) -> str:
    """Human-readable view of the report; one section per audit surface."""
    lines = [f"# Diagnostic report: case {report['case_id']}", ""]
    diagnosis = report["diagnosis"]
    decision = report["decision"]
    flag = "  **[flagged for review]**" if decision["review_flag"] else ""
    lines += [
        f"**Question:** {report['question']['prompt_text']}",
        "",
        f"## Diagnosis: {diagnosis['label']} "
        f"(confidence {quantize_float(diagnosis['confidence']):.6f}){flag}",
        "",
        f"Branch decisions: classifier = {decision['branch_labels']['cnn']}, "
        f"sql = {decision['branch_labels']['sql']}; alpha = {decision['alpha']}",
        "",
        "## Ranked options",
        "",
        "| option | fused probability |",
        "| --- | --- |",
    ]
    for option in report["question"]["options"]:
        lines.append(f"| {option} | {quantize_float(decision['fused'][option]):.6f} |")
    lines.append("")

    if report["contributing_features"]:
        lines += [
            "## Contributing features",
            "",
            "| feature | observed | best fit | category |",
            "| --- | --- | --- | --- |",
        ]
        for row in report["contributing_features"]:
            lines.append(
                f"| {row['feature_key']} | {_format_cell(row['observed'])} "
                f"| {row['best_option']} | {row['fit_category']} |"
            )
        lines.append("")

    if report["sql_trace"]:
        lines += ["## SQL evidence trace", ""]
        for entry in report["sql_trace"]:
            lines.append(f"### q{entry['query_id']} ({entry['agent']})")
            lines += ["", "```sql", entry["canonical_text"], "```", ""]
            if entry["repair_log"]:
                lines.append("Repairs applied:")
                for action in entry["repair_log"]:
                    lines.append(
                        f"- {action['kind']}: {action['before']!r} -> "
                        f"{action['after']!r} (distance {action['edit_distance']})"
                    )
                lines.append("")
            if "rows" in entry:
                lines.append("| " + " | ".join(entry["columns"]) + " |")
                lines.append("| " + " | ".join("---" for _ in entry["columns"]) + " |")
                for row in entry["rows"]:
                    lines.append("| " + " | ".join(_format_cell(v) for v in row) + " |")
                lines.append("")
            if "error" in entry:
                lines += [f"Execution error: {entry['error']['message']}", ""]

    if report["data_quality_notes"]:
        lines += ["## Data quality notes", ""]
        lines += [f"- {note}" for note in report["data_quality_notes"]]
        lines.append("")

    if narrative:
        lines += ["## Generated narrative", "", narrative.strip(), ""]
    return "\n".join(lines)
