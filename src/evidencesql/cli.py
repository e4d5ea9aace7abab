"""Command-line interface.

Exit codes are stable contracts: 0 success, 1 pipeline error, 2
configuration or usage error. Errors print a structured JSON object on
stderr so wrappers never have to scrape prose. The command group reports
each package error under the stage its class names (``errors``): stage
``config`` (exit 2) for unusable run inputs, among them a malformed
manifest, questions, ranges or backend-config file in every command;
``ingest``, ``execute``, ``calibrate`` or ``pipeline`` (exit 1) for a
failure in that part of the run; and ``internal`` (exit 1) for any other
exception. A guard rejection prints its own JSON and exits 1.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from evidencesql import errors
from evidencesql.backends import BackendConfig, make_backend
from evidencesql.feature_store import Level, ingest_case_dir, load_manifest, load_training_split
from evidencesql.knowledge import DEFAULT_QUANTILE, compute_empirical_ranges, ranges_to_json_list
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
from evidencesql.serialize import canonical_json, read_json_file, read_text_file, write_json_atomic
from evidencesql.sql.guard import GuardRejection, ValidatedQuery, validate_pipeline
from evidencesql.sql.executor import execute
from evidencesql.values import Dtype, render_value

EXIT_PIPELINE = 1
EXIT_CONFIG = 2


def _fail(code: int, stage: str, error: Exception) -> None:
    payload = {
        "error": {"stage": stage, "type": type(error).__name__, "message": str(error)}
    }
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


def _accepted(outcome: ValidatedQuery | GuardRejection) -> ValidatedQuery:
    """The guard's accepted query; a rejection prints its own JSON and exits 1."""
    if isinstance(outcome, GuardRejection):
        click.echo(json.dumps({"rejection": outcome.to_json_dict()}, sort_keys=True), err=True)
        sys.exit(EXIT_PIPELINE)
    return outcome


class _Cli(click.Group):
    """Reports every exception a command raises under its class's stage
    (``errors``); an exception from outside the package is ``internal``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise  # click's own usage errors and exits keep their codes
        except Exception as exc:  # no raw traceback on stderr
            stage = exc.stage if isinstance(exc, errors.EvidenceSqlError) else "internal"
            _fail(EXIT_CONFIG if stage == "config" else EXIT_PIPELINE, stage, exc)


@click.group(cls=_Cli)
def main():
    """Auditable SQL-grounded diagnostic reasoning over feature tables."""


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--case", "case_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def ingest(manifest_path, case_dir, as_json):
    """Validate one case directory against the manifest."""
    bundle = ingest_case_dir(load_manifest(manifest_path), case_dir)
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
    manifest = load_manifest(manifest_path)
    text = read_text_file(query_file, "query file", errors.ConfigError)
    outcome = _accepted(validate_pipeline(text, manifest))
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
    manifest = load_manifest(manifest_path)
    bundle = ingest_case_dir(manifest, case_dir)
    outcome = _accepted(validate_pipeline(sql, manifest))
    result = execute(outcome, bundle)
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
        click.echo("\n".join(result.text_lines()))


@main.command("calibrate-ranges")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--training", "training_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--feature", "features", multiple=True,
              help="Feature key (table.column); repeatable. Defaults to all global numeric columns.")
@click.option("--quantile", "q", default=DEFAULT_QUANTILE, show_default=True)
@click.option("--out-file", required=True, type=click.Path())
def calibrate_ranges(manifest_path, training_dir, features, q, out_file):
    """Compute empirical reference ranges from a labeled training split."""
    manifest = load_manifest(manifest_path)
    training = load_training_split(manifest, training_dir)
    labels = sorted({b.ground_truth for b in training if b.ground_truth is not None})
    feature_keys = list(features) or [
        f"{t.name}.{c.name}"
        for t in manifest.tables_at(Level.GLOBAL)
        for c in t.columns if c.dtype in (Dtype.INTEGER, Dtype.REAL)
    ]
    try:
        ranges, notes = compute_empirical_ranges(training, feature_keys, labels, q)
    except ValueError as exc:  # --quantile outside (0, 0.5)
        _fail(EXIT_CONFIG, "config", exc)
    write_json_atomic(out_file, ranges_to_json_list(ranges))
    click.echo(json.dumps({
        "ranges_written": len(ranges),
        "out_file": str(out_file),
        "notes": notes,
    }, sort_keys=True))


def _build_run_config(manifest_path, out_dir, mode, alpha, ranges_path,
                      config_path, workers) -> RunConfig:
    backend_config = BackendConfig()
    if config_path is not None:
        backend_config = BackendConfig.from_dict(
            read_json_file(config_path, "backend config", errors.ConfigError),
            f"backend config {config_path}",
        )
    return RunConfig(
        manifest_path=str(manifest_path),
        out_dir=str(out_dir),
        mode=mode,
        alpha=alpha,
        ranges_path=str(ranges_path) if ranges_path else None,
        backend=backend_config,
        workers=workers,
    )


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
    manifest = load_manifest(config.manifest_path)
    questions = load_questions(question_file)
    file_ranges = load_ranges_file(config.ranges_path) if config.ranges_path else []
    bundle = ingest_case_dir(manifest, case_dir)
    question = select_question(questions, bundle.case_id)
    backend = make_backend(config.backend)
    result = run_case(manifest, bundle, question, config, backend, file_ranges)
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
    summary = batch_eval(config, dataset_dir, load_questions(questions_file))
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
