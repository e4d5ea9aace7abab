"""Output checks. Each returns a list of problems; an empty list means the
output is correct.

Query results are compared with stdlib SQLite over the same generated rows,
an engine that shares none of this package's code. Case outputs are compared
with the answers the generator kept, and every written report must validate
against the packaged schema and repeat byte for byte when its case repeats.
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
from importlib import resources
from pathlib import Path

import jsonschema

from gen import REAL_COLUMNS, CaseAnswers

REL_TOL = 1e-9
_GROUP_COUNT_SQL = "SELECT cell_type, COUNT(*) AS n FROM cells GROUP BY cell_type ORDER BY cell_type"
_FOCUS_TYPE = "neoplastic"


class _SampleStddev:
    """STDDEV as the engine pins it: sample deviation, null below two
    values, exactly zero for a constant input."""

    def __init__(self):
        self.values = []

    def step(self, value):
        if value is not None:
            self.values.append(float(value))

    def finalize(self):
        n = len(self.values)
        if n < 2:
            return None
        if min(self.values) == max(self.values):
            return 0.0
        mean = math.fsum(self.values) / n
        return math.sqrt(math.fsum((v - mean) ** 2 for v in self.values) / (n - 1))


def open_reference_db(path: Path) -> sqlite3.Connection:
    """The generator's SQLite file of ``cells`` rows, with the engine's STDDEV."""
    db = sqlite3.connect(path)
    db.create_aggregate("STDDEV", 1, _SampleStddev)
    return db


def _same_value(got, want) -> bool:
    if got is None or want is None or isinstance(got, str) or isinstance(want, str):
        return got == want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


def compare_rows(got: list, want: list, label: str) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} rows, expected {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w) or not all(_same_value(a, b) for a, b in zip(g, w)):
            return [f"{label}: row {i} is {list(g)!r}, expected {list(w)!r}"]
    return []


def check_query(item, outcome, result, db: sqlite3.Connection) -> list[str]:
    """A guard outcome plus, for accepted queries, the executed result."""
    if item.reference_sql is None:
        stage = getattr(outcome, "stage", None)
        if stage != item.reject_stage:
            return [f"expected rejection at {item.reject_stage!r}, got {outcome!r}"]
        return []
    if not hasattr(outcome, "canonical_text"):
        return [f"guard rejected a valid query: {outcome!r}"]
    kinds = [a.kind for a in outcome.repair_log]
    if kinds != ([item.repair_kind] if item.repair_kind else []):
        return [f"repairs {kinds}, expected {item.repair_kind!r}"]
    want = db.execute(item.reference_sql).fetchall()
    return compare_rows([list(r) for r in result.rows], want, item.shape)


def check_case_result(result, answers: CaseAnswers) -> list[str]:
    """The template plan's GROUP BY counts and filtered means against the
    generator's answers, and the decision against the known label."""
    problems = []
    if result.decision_label != answers.label:
        problems.append(f"{answers.case_id}: decided {result.decision_label}, truth {answers.label}")
    trace = {e["canonical_text"]: e for e in result.report["sql_trace"]}
    counts = trace.get(_GROUP_COUNT_SQL)
    want_counts = [[t, n] for t, n in answers.type_counts.items()]
    if counts is None:
        problems.append(f"{answers.case_id}: no GROUP BY count in the trace")
    else:
        problems += compare_rows(counts.get("rows", []), want_counts, f"{answers.case_id} counts")
    means = next((e for text, e in trace.items()
                  if f"WHERE cell_type = '{_FOCUS_TYPE}'" in text and "AVG(" in text), None)
    if means is None:
        problems.append(f"{answers.case_id}: no filtered AVG in the trace")
    else:
        want = [[answers.type_means[(_FOCUS_TYPE, c)] for c in REAL_COLUMNS]]
        if means.get("columns") != [f"mean_{c}" for c in REAL_COLUMNS]:
            problems.append(f"{answers.case_id}: filtered AVG columns {means.get('columns')}")
        else:
            problems += compare_rows(means.get("rows", []), want, f"{answers.case_id} means")
    return problems


def report_validator() -> jsonschema.Draft202012Validator:
    """JSON-schema validator for the packaged report schema."""
    text = resources.files("evidencesql.fixtures").joinpath("report.schema.json").read_text("utf-8")
    schema = json.loads(text)
    return jsonschema.Draft202012Validator(schema)


class ArtifactCheck:
    """Validates written reports and remembers each case's report digests,
    so a repeated case must produce the same bytes."""

    def __init__(self):
        self.validator = report_validator()
        self.digests: dict[str, tuple[str, str]] = {}

    def check(self, out_dir: Path, case_id: str) -> tuple[list[str], dict[str, int]]:
        """Problems for one case's artifacts, and the bytes of each file."""
        reports = Path(out_dir) / "reports"
        try:
            json_bytes = (reports / f"{case_id}.json").read_bytes()
            md_bytes = (reports / f"{case_id}.md").read_bytes()
            transcript_size = (Path(out_dir) / "transcripts" / f"{case_id}.json").stat().st_size
        except OSError as exc:
            return [f"{case_id}: missing artifact: {exc}"], {}
        problems = [
            f"{case_id}: report schema: {err.message}"
            for err in self.validator.iter_errors(json.loads(json_bytes))
        ]
        digest = (hashlib.sha256(json_bytes).hexdigest(), hashlib.sha256(md_bytes).hexdigest())
        first = self.digests.setdefault(case_id, digest)
        if digest != first:
            problems.append(f"{case_id}: report bytes differ from the first run of this case")
        return problems, {"json": len(json_bytes), "md": len(md_bytes), "transcript": transcript_size}


def check_summary(summary: dict, answers: list[CaseAnswers]) -> list[str]:
    """``summary.json`` against the dataset: every valid case decided right,
    classifier errors flagged, and exactly the seeded violations failing."""
    valid = [a for a in answers if not a.domain_violation]
    want = {
        "n_cases": len(valid),
        "n_correct": len(valid),
        "accuracy": 1.0,
        "n_flagged": sum(a.cnn_error for a in valid),
        "failing": sorted(a.case_id for a in answers if a.domain_violation),
    }
    got = {key: summary.get(key) for key in ("n_cases", "n_correct", "accuracy", "n_flagged")}
    got["failing"] = sorted(f["case_id"] for f in summary.get("failures", []))
    problems = [f"summary {k} is {got[k]!r}, expected {v!r}" for k, v in want.items() if got[k] != v]
    for failure in summary.get("failures", []):
        if "outside domain" not in failure.get("error", ""):
            problems.append(f"{failure.get('case_id')}: unexpected failure {failure.get('error')!r}")
    return problems
