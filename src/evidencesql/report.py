"""Audit report assembly and rendering.

A report binds the fused decision to everything that produced it: the
hypothesis, the contributing features, and the full executed-SQL trace with
repair logs and result rows. JSON output is byte-deterministic; markdown is
the human view of the same structured fields. An optional narrative
paragraph is appended only when a remote backend wrote one, clearly labeled,
and never carries information absent from the structured fields. Text from
a model cannot change the markdown's block structure: it stands in escaped
table cells or list items, or in a fence no line of it can close.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from evidencesql.agents import Question
from evidencesql.errors import DanglingQueryId
from evidencesql.fusion import FusedDecision
from evidencesql.knowledge import Hypothesis, best_fit, hypothesis_to_json_dict
from evidencesql.serialize import quantize_float
from evidencesql.sql.executor import ExecError, ResultTable
from evidencesql.sql.guard import ValidatedQuery
from evidencesql.values import Value, render_value

REPORT_SCHEMA_VERSION = "1"

# A line start from which text could open a markdown block (CommonMark 0.30):
# up to three spaces, then a heading, quote, table, fence, list, setext
# underline, thematic break, HTML block or link reference definition marker.
_BLOCK_START = re.compile(r"(?:^|[\r\n]) {0,3}(?:[#>|`~*+=<_\[-]|[0-9]+[.)])")


@dataclass(frozen=True)
class TraceEntry:
    """One executed query: its result, or the error it failed with. Its agent
    is the one its query's guard outcome names."""

    query_id: int
    query: ValidatedQuery
    result: ResultTable | None = None
    error: ExecError | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "query_id": self.query_id,
            "agent": self.query.source_agent,
            "canonical_text": self.query.canonical_text,
            "repair_log": [a.to_json_dict() for a in self.query.repair_log],
        }
        if self.result is not None:
            doc.update(self.result.to_json_dict())
        if self.error is not None:
            doc["error"] = self.error.to_json_dict()
        return doc


def contributing_features(hypothesis: Hypothesis) -> list[dict]:
    """Scored findings, strongest best-fit first; unscored findings are
    quality notes, not contributions."""
    best = sorted(((finding, *best_fit(finding.per_option_fits))
                   for finding in hypothesis.findings if finding.per_option_fits),
                  key=lambda triple: (-triple[2].weight, triple[0].feature_key))
    return [{"feature_key": finding.feature_key, "observed": finding.observed,
             "best_option": option, "fit_category": fit.value}
            for finding, option, fit in best]


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


def _md_line(text: str) -> str:
    """``text`` as it may stand in one markdown table cell or list item:
    ``|`` escaped and each line break written as ``<br>``, so text from a
    query can add no cell, row or heading."""
    return (text.replace("|", "\\|").replace("\r\n", "<br>").replace("\r", "<br>")
            .replace("\n", "<br>"))


def _fenced(info: str, text: str) -> list[str]:
    """``text`` as a fenced code block's lines. The fence is a backtick run
    longer than any in ``text``, and at least three; since a closing fence
    must be at least as long as the opening one (CommonMark 0.30, §4.5), no
    line of ``text`` can close it."""
    fence = "`" * max(3, 1 + max(map(len, re.findall("`+", text)), default=0))
    return [fence + info, text, fence]


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    """A markdown table's lines, then a blank line."""
    return [f"| {' | '.join(map(_md_line, cells))} |"
            for cells in (header, ["---"] * len(header), *rows)] + [""]


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
        *_table(["option", "fused probability"],
                [[option, f"{quantize_float(decision['fused'][option]):.6f}"]
                 for option in report["question"]["options"]]),
    ]

    if report["contributing_features"]:
        lines += ["## Contributing features", "", *_table(
            ["feature", "observed", "best fit", "category"],
            [[row["feature_key"], _format_cell(row["observed"]), row["best_option"],
              row["fit_category"]] for row in report["contributing_features"]],
        )]

    if report["sql_trace"]:
        lines += ["## SQL evidence trace", ""]
        for entry in report["sql_trace"]:
            lines += [f"### q{entry['query_id']} ({entry['agent']})",
                      "", *_fenced("sql", entry["canonical_text"]), ""]
            if entry["repair_log"]:
                lines.append("Repairs applied:")
                for action in entry["repair_log"]:
                    lines.append(
                        f"- {action['kind']}: {action['before']!r} -> "
                        f"{action['after']!r} (distance {action['edit_distance']})"
                    )
                lines.append("")
            if "rows" in entry:
                lines += _table(entry["columns"],
                                [[_format_cell(v) for v in row] for row in entry["rows"]])
            if "error" in entry:
                lines += [f"Execution error: {entry['error']['message']}", ""]

    if report["data_quality_notes"]:
        lines += ["## Data quality notes", "",
                  *(f"- {_md_line(note)}" for note in report["data_quality_notes"]), ""]

    if narrative:
        text = narrative.strip()
        lines += ["## Generated narrative", "",
                  *(_fenced("text", text) if _BLOCK_START.search(text) else [text]), ""]
    return "\n".join(lines)
