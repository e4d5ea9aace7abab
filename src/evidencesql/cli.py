"""Command-line interface.

Exit codes are stable contracts: 0 success, 1 pipeline error, 2
configuration or usage error. Errors print a structured JSON object on
stderr so wrappers never have to scrape prose.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import click

from evidencesql.backends import BackendConfig, make_backend
from evidencesql.errors import ConfigError, EvidenceSqlError
from evidencesql.feature_store import ingest_case_dir, load_manifest, load_training_split
from evidencesql.knowledge import compute_empirical_ranges, ranges_to_json_list
from evidencesql.pipeline import (
    DEFAULT_ALPHA,
    MODES,
    RunConfig,
    batch_eval,
    load_questions,
    load_ranges_file,
    run_case,
    select_question,
    write_case_outputs,
    write_run_metadata,
)
from evidencesql.serialize import canonical_json, write_json_atomic
from evidencesql.sql.guard import GuardRejection, validate_pipeline
from evidencesql.sql.executor import execute
from evidencesql.values import render_value

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_CONFIG = 2


def _fail(code: int, stage: str, error: Exception | str) -> None:
    payload = {
        "error": {
            "stage": stage,
            "type": type(error).__name__ if isinstance(error, Exception) else "Error",
            "message": str(error),
        }
    }
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


def _load_backend_config(config_path: str | None) -> BackendConfig:
    if config_path is None:
        return BackendConfig()
    try:
        doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        return BackendConfig.from_dict(doc)
    except (OSError, ValueError, ConfigError) as exc:
        _fail(EXIT_CONFIG, "config", exc)


@click.group()
def main():
    """Auditable SQL-grounded diagnostic reasoning over feature tables."""


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--case", "case_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def ingest(manifest_path, case_dir, as_json):
    """Validate one case directory against the manifest."""
    try:
        manifest = load_manifest(manifest_path)
    except EvidenceSqlError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    try:
        bundle = ingest_case_dir(manifest, case_dir)
    except EvidenceSqlError as exc:
        _fail(EXIT_PIPELINE, "ingest", exc)
    summary = {
        "case_id": bundle.case_id,
        "tables": {name: table.row_count for name, table in sorted(bundle.tables.items())},
        "has_cnn_probs": bundle.cnn_probs is not None,
        "ground_truth": bundle.ground_truth,
    }
    if as_json:
        click.echo(json.dumps(summary, sort_keys=True))
    else:
        click.echo(f"case {bundle.case_id}: " + ", ".join(
            f"{name}={count} rows" for name, count in summary["tables"].items()
        ))


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--query-file", required=True, type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
def validate(manifest_path, query_file, as_json):
    """Run the guard pipeline on a query file; print the canonical text."""
    try:
        manifest = load_manifest(manifest_path)
    except EvidenceSqlError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    text = Path(query_file).read_text(encoding="utf-8")
    outcome = validate_pipeline(text, manifest)
    if isinstance(outcome, GuardRejection):
        click.echo(json.dumps({"rejection": outcome.to_json_dict()}, sort_keys=True), err=True)
        sys.exit(EXIT_PIPELINE)
    if as_json:
        click.echo(json.dumps(outcome.to_json_dict(), sort_keys=True))
    else:
        click.echo(outcome.canonical_text)


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--case", "case_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--sql", required=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--csv", "as_csv", is_flag=True)
def query(manifest_path, case_dir, sql, as_json, as_csv):
    """Validate and execute one query against a case."""
    try:
        manifest = load_manifest(manifest_path)
    except EvidenceSqlError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    try:
        bundle = ingest_case_dir(manifest, case_dir)
    except EvidenceSqlError as exc:
        _fail(EXIT_PIPELINE, "ingest", exc)
    outcome = validate_pipeline(sql, manifest)
    if isinstance(outcome, GuardRejection):
        click.echo(json.dumps({"rejection": outcome.to_json_dict()}, sort_keys=True), err=True)
        sys.exit(EXIT_PIPELINE)
    try:
        result = execute(outcome, bundle)
    except EvidenceSqlError as exc:
        _fail(EXIT_PIPELINE, "execute", exc)
    if as_json:
        click.echo(json.dumps(result.to_json_dict(), sort_keys=True))
    elif as_csv:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(result.column_names)
        for row in result.rows:
            writer.writerow([render_value(v) for v in row])
        click.echo(buffer.getvalue().rstrip("\n"))
    else:
        click.echo(" | ".join(result.column_names))
        for row in result.rows:
            click.echo(" | ".join(render_value(v) for v in row))


@main.command("calibrate-ranges")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--training", "training_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--feature", "features", multiple=True,
              help="Feature key (table.column); repeatable. Defaults to all global numeric columns.")
@click.option("--quantile", "q", default=0.05, show_default=True)
@click.option("--out-file", required=True, type=click.Path())
def calibrate_ranges(manifest_path, training_dir, features, q, out_file):
    """Compute empirical reference ranges from a labeled training split."""
    try:
        manifest = load_manifest(manifest_path)
    except EvidenceSqlError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    try:
        training = load_training_split(manifest, training_dir)
        labels = sorted({b.ground_truth for b in training if b.ground_truth is not None})
        feature_keys = list(features)
        if not feature_keys:
            feature_keys = [
                f"{t.name}.{c.name}"
                for t in manifest.tables if t.level.value == "global"
                for c in t.columns if c.dtype.value in ("integer", "real")
            ]
        ranges, notes = compute_empirical_ranges(training, feature_keys, labels, q)
    except ValueError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    except EvidenceSqlError as exc:
        _fail(EXIT_PIPELINE, "calibrate", exc)
    write_json_atomic(out_file, ranges_to_json_list(ranges))
    click.echo(json.dumps({
        "ranges_written": len(ranges),
        "out_file": str(out_file),
        "notes": notes,
    }, sort_keys=True))


def _build_run_config(manifest_path, out_dir, mode, alpha, ranges_path,
                      config_path, workers) -> RunConfig:
    backend_config = _load_backend_config(config_path)
    try:
        return RunConfig(
            manifest_path=str(manifest_path),
            out_dir=str(out_dir),
            mode=mode,
            alpha=alpha,
            ranges_path=str(ranges_path) if ranges_path else None,
            backend=backend_config,
            workers=workers,
        )
    except ConfigError as exc:
        _fail(EXIT_CONFIG, "config", exc)


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--case", "case_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--question", "question_file", required=True, type=click.Path(exists=True))
@click.option("--ranges", "ranges_path", type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(MODES), default="full", show_default=True)
@click.option("--alpha", default=DEFAULT_ALPHA, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def ask(manifest_path, case_dir, question_file, ranges_path, config_path,
        out_dir, mode, alpha, as_json):
    """Answer one diagnostic question for one case; write report + transcripts."""
    config = _build_run_config(manifest_path, out_dir, mode, alpha, ranges_path,
                               config_path, workers=1)
    try:
        manifest = load_manifest(config.manifest_path)
        questions = load_questions(question_file)
        file_ranges = load_ranges_file(config.ranges_path) if config.ranges_path else []
    except (EvidenceSqlError, ValueError, KeyError) as exc:
        _fail(EXIT_CONFIG, "config", exc)
    try:
        bundle = ingest_case_dir(manifest, case_dir)
        question = select_question(questions, bundle.case_id)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    except EvidenceSqlError as exc:
        _fail(EXIT_PIPELINE, "ingest", exc)
    try:
        backend = make_backend(config.backend)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    try:
        result = run_case(manifest, bundle, question, config, backend, file_ranges)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    except EvidenceSqlError as exc:
        _fail(EXIT_PIPELINE, "pipeline", exc)
    write_run_metadata(config)
    write_case_outputs(config.out_dir, result)
    if as_json:
        click.echo(canonical_json(result.report), nl=False)
    else:
        flag = " [review]" if result.review_flag else ""
        click.echo(f"{result.case_id}: {result.decision_label}{flag} "
                   f"(report under {out_dir}/reports/)")


@main.command("batch-eval")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--dataset", "dataset_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--questions", "questions_file", required=True, type=click.Path(exists=True))
@click.option("--ranges", "ranges_path", type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(MODES), default="full", show_default=True)
@click.option("--alpha", default=DEFAULT_ALPHA, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def batch_eval_cmd(manifest_path, dataset_dir, questions_file, ranges_path,
                   config_path, out_dir, mode, alpha, workers, as_json):
    """Evaluate every case in a dataset directory; print the summary."""
    config = _build_run_config(manifest_path, out_dir, mode, alpha, ranges_path,
                               config_path, workers)
    try:
        questions = load_questions(questions_file)
    except (ConfigError, EvidenceSqlError, ValueError, KeyError) as exc:
        _fail(EXIT_CONFIG, "config", exc)
    try:
        summary = batch_eval(config, dataset_dir, questions)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    except EvidenceSqlError as exc:
        _fail(EXIT_PIPELINE, "batch", exc)
    doc = summary.to_json_dict()
    if as_json:
        click.echo(canonical_json(doc), nl=False)
    else:
        click.echo(
            f"{summary.n_correct}/{summary.n_cases} correct "
            f"(accuracy {summary.accuracy:.4f}), {summary.n_flagged} flagged, "
            f"{len(summary.failures)} failed; summary at {out_dir}/summary.json"
        )


if __name__ == "__main__":
    main()
