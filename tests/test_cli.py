import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from evidencesql.cli import main

from datasets import OPTIONS, QUESTION_TEXT, build_training_split


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_ingest_ok(runner, manifest_path, demo_case_dir):
    result = invoke(runner, ["ingest", "--manifest", str(manifest_path),
                             "--case", str(demo_case_dir), "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["tables"] == {"cells": 6, "global_features": 1, "structures": 2}


def test_ingest_failure_exits_1(runner, manifest_path, tmp_path):
    case = tmp_path / "broken"
    case.mkdir()
    result = runner.invoke(main, ["ingest", "--manifest", str(manifest_path),
                                  "--case", str(case)])
    assert result.exit_code == 1
    assert "error" in result.output or result.stderr


def test_validate_success_and_rejection(runner, manifest_path, tmp_path):
    good = tmp_path / "good.sql"
    good.write_text("select avg(are) from cells", encoding="utf-8")
    result = invoke(runner, ["validate", "--manifest", str(manifest_path),
                             "--query-file", str(good)])
    assert result.exit_code == 0
    assert result.output.strip() == "SELECT AVG(area) FROM cells"

    result = invoke(runner, ["validate", "--manifest", str(manifest_path),
                             "--query-file", str(good), "--json"])
    doc = json.loads(result.output)
    assert doc["repair_log"][0]["kind"] == "identifier_fix"

    bad = tmp_path / "bad.sql"
    bad.write_text("DROP TABLE cells", encoding="utf-8")
    result = runner.invoke(main, ["validate", "--manifest", str(manifest_path),
                                  "--query-file", str(bad)])
    assert result.exit_code == 1
    rejection = json.loads(result.output)["rejection"]
    assert rejection["stage"] == "sanitize"


def test_query_json_and_csv(runner, manifest_path, demo_case_dir):
    args = ["query", "--manifest", str(manifest_path), "--case", str(demo_case_dir),
            "--sql", "SELECT cell_type, COUNT(*) AS n FROM cells GROUP BY cell_type ORDER BY n DESC"]
    result = invoke(runner, args + ["--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["columns"] == ["cell_type", "n"]
    assert doc["rows"][0] == ["neoplastic", 4]

    result = invoke(runner, args + ["--csv"])
    assert result.output.splitlines()[0] == "cell_type,n"
    assert result.output.splitlines()[1] == "neoplastic,4"


def test_calibrate_ranges_deterministic(runner, manifest_path, training_split, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    features = []
    for key in ("global_features.neoplastic_ratio",
                "global_features.gland_area_ratio",
                "global_features.nuclear_pleomorphism_index"):
        features += ["--feature", key]
    base = ["calibrate-ranges", "--manifest", str(manifest_path),
            "--training", str(training_split), "--quantile", "0.1"] + features
    result = invoke(runner, base + ["--out-file", str(out_a)])
    assert result.exit_code == 0
    assert json.loads(result.output)["ranges_written"] == 6
    result = invoke(runner, base + ["--out-file", str(out_b)])
    assert result.exit_code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    ranges = json.loads(out_a.read_text(encoding="utf-8"))
    assert len(ranges) == 6
    assert {r["option_label"] for r in ranges} == set(OPTIONS)


def test_calibrate_ranges_unlabeled_fails(runner, manifest_path, tmp_path):
    split = build_training_split(tmp_path)
    sidecar = split / "train_00" / "sidecar.json"
    sidecar.write_text("{}", encoding="utf-8")
    result = runner.invoke(main, [
        "calibrate-ranges", "--manifest", str(manifest_path),
        "--training", str(split), "--feature", "global_features.neoplastic_ratio",
        "--out-file", str(tmp_path / "out.json"),
    ])
    assert result.exit_code == 1
    assert "train_00" in result.output


def test_ask_full_mode_writes_artifacts(runner, manifest_path, demo_case_dir,
                                        eval_dataset, tmp_path):
    out = tmp_path / "run"
    result = invoke(runner, [
        "ask", "--manifest", str(manifest_path), "--case", str(demo_case_dir),
        "--question", str(eval_dataset["questions"]),
        "--ranges", str(eval_dataset["ranges"]),
        "--out", str(out), "--mode", "full", "--alpha", "0.7",
    ])
    assert result.exit_code == 0, result.output
    report_path = out / "reports" / "demo_case.json"
    assert report_path.exists()
    assert (out / "reports" / "demo_case.md").exists()
    assert (out / "transcripts" / "demo_case.json").exists()
    assert (out / "run.json").exists()
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["diagnosis"]["label"] == "tubular_adenocarcinoma"
    assert report["sql_trace"]
    assert json.loads((out / "run.json").read_text(encoding="utf-8"))["config_hash"]


def test_ask_full_without_sidecar_is_config_error(runner, manifest_path,
                                                  tmp_path, eval_dataset):
    split = build_training_split(tmp_path)  # sidecars carry no cnn_probs
    result = runner.invoke(main, [
        "ask", "--manifest", str(manifest_path), "--case", str(split / "train_00"),
        "--question", str(eval_dataset["questions"]),
        "--out", str(tmp_path / "run"), "--mode", "full",
    ])
    assert result.exit_code == 2
    assert "cnn" in result.output.lower() or "classifier" in result.output.lower()


def test_unmapped_exception_is_structured_json(runner, manifest_path, demo_case_dir,
                                              eval_dataset, tmp_path):
    blocker = tmp_path / "plain_file"
    blocker.write_text("", encoding="utf-8")
    result = runner.invoke(main, [
        "ask", "--manifest", str(manifest_path), "--case", str(demo_case_dir),
        "--question", str(eval_dataset["questions"]),
        "--ranges", str(eval_dataset["ranges"]),
        "--out", str(blocker / "run"),
    ])
    assert result.exit_code == 1
    assert "Traceback" not in result.stderr
    error = json.loads(result.stderr)["error"]
    assert error["stage"] == "internal"
    assert error["type"] == "NotADirectoryError"


def test_ask_sql_only_omits_fusion(runner, manifest_path, demo_case_dir,
                                   eval_dataset, tmp_path):
    out = tmp_path / "run_sql"
    result = invoke(runner, [
        "ask", "--manifest", str(manifest_path), "--case", str(demo_case_dir),
        "--question", str(eval_dataset["questions"]),
        "--ranges", str(eval_dataset["ranges"]),
        "--out", str(out), "--mode", "sql_only", "--json",
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["decision"]["alpha"] == 0.0
    assert report["decision"]["review_flag"] is False
    assert report["decision"]["branch_labels"]["cnn"] == report["decision"]["branch_labels"]["sql"]


def test_batch_eval_modes(runner, manifest_path, eval_dataset, tmp_path):
    for mode, expected_accuracy, expected_flagged in [
        ("sql_only", 1.0, 0),
        ("cnn_only", 0.85, 0),
        ("full", 1.0, 3),
    ]:
        out = tmp_path / f"batch_{mode}"
        result = invoke(runner, [
            "batch-eval", "--manifest", str(manifest_path),
            "--dataset", str(eval_dataset["dataset"]),
            "--questions", str(eval_dataset["questions"]),
            "--ranges", str(eval_dataset["ranges"]),
            "--out", str(out), "--mode", mode, "--json",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["n_cases"] == 20
        assert summary["accuracy"] == expected_accuracy
        assert summary["n_flagged"] == expected_flagged
        assert summary["failures"] == []
        assert (out / "summary.json").exists()
        assert len(list((out / "reports").glob("*.json"))) == 20


def test_batch_eval_summary_matches_recount(runner, manifest_path, eval_dataset, tmp_path):
    out = tmp_path / "recount"
    result = invoke(runner, [
        "batch-eval", "--manifest", str(manifest_path),
        "--dataset", str(eval_dataset["dataset"]),
        "--questions", str(eval_dataset["questions"]),
        "--ranges", str(eval_dataset["ranges"]),
        "--out", str(out), "--mode", "full", "--json",
    ])
    summary = json.loads(result.output)
    n_correct = 0
    n_flagged = 0
    for report_path in sorted((out / "reports").glob("*.json")):
        report = json.loads(report_path.read_text(encoding="utf-8"))
        case_dir = Path(eval_dataset["dataset"]) / report["case_id"]
        truth = json.loads((case_dir / "sidecar.json").read_text(encoding="utf-8"))["ground_truth"]
        if report["diagnosis"]["label"] == truth:
            n_correct += 1
        if report["decision"]["review_flag"]:
            n_flagged += 1
    assert n_correct == summary["n_correct"]
    assert n_flagged == summary["n_flagged"]


def test_batch_eval_per_case_failure_does_not_abort(runner, manifest_path,
                                                    eval_dataset, tmp_path):
    import shutil

    dataset = tmp_path / "dataset_with_bad_case"
    shutil.copytree(eval_dataset["dataset"], dataset)
    (dataset / "case_00" / "cells.csv").write_text("broken", encoding="utf-8")
    out = tmp_path / "batch_bad"
    result = invoke(runner, [
        "batch-eval", "--manifest", str(manifest_path), "--dataset", str(dataset),
        "--questions", str(eval_dataset["questions"]),
        "--ranges", str(eval_dataset["ranges"]),
        "--out", str(out), "--mode", "sql_only", "--json",
    ])
    assert result.exit_code == 0
    summary = json.loads(result.output)
    assert summary["n_cases"] == 19
    assert [f["case_id"] for f in summary["failures"]] == ["case_00"]


def test_batch_eval_undecodable_case_files_fail_per_case(runner, manifest_path,
                                                        eval_dataset, tmp_path):
    """A stray non-UTF-8 byte or an oversized CSV field is a typed per-case
    failure, not a traceback that loses the whole batch."""
    import shutil

    dataset = tmp_path / "dataset_with_undecodable_cases"
    shutil.copytree(eval_dataset["dataset"], dataset)
    cells = dataset / "case_03" / "cells.csv"
    cells.write_bytes(cells.read_bytes().replace(b"\n", b"\n\xff", 1))
    sidecar = dataset / "case_07" / "sidecar.json"
    sidecar.write_bytes(b"\xff" + sidecar.read_bytes())
    structures = dataset / "case_11" / "structures.csv"
    header = structures.read_text(encoding="utf-8").splitlines()[0]
    structures.write_text(header + "\n" + "x" * 200_000 + "\n", encoding="utf-8")
    out = tmp_path / "batch_undecodable"
    result = invoke(runner, [
        "batch-eval", "--manifest", str(manifest_path), "--dataset", str(dataset),
        "--questions", str(eval_dataset["questions"]),
        "--ranges", str(eval_dataset["ranges"]),
        "--out", str(out), "--mode", "sql_only", "--json",
    ])
    assert result.exit_code == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_cases"] == 17
    assert [f["case_id"] for f in summary["failures"]] == ["case_03", "case_07", "case_11"]
    assert all(f["error"].startswith("cannot read") for f in summary["failures"])


def test_batch_eval_workers_do_not_change_output(runner, manifest_path,
                                                 eval_dataset, tmp_path):
    outputs = []
    for workers in ("1", "4"):
        out = tmp_path / f"workers_{workers}"
        result = invoke(runner, [
            "batch-eval", "--manifest", str(manifest_path),
            "--dataset", str(eval_dataset["dataset"]),
            "--questions", str(eval_dataset["questions"]),
            "--ranges", str(eval_dataset["ranges"]),
            "--out", str(out), "--mode", "full", "--workers", workers, "--json",
        ])
        assert result.exit_code == 0
        reports = {
            p.name: p.read_bytes() for p in sorted((out / "reports").glob("*.json"))
        }
        outputs.append((result.output, reports))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_bad_mode_is_usage_error(runner, manifest_path, demo_case_dir, eval_dataset, tmp_path):
    result = runner.invoke(main, [
        "ask", "--manifest", str(manifest_path), "--case", str(demo_case_dir),
        "--question", str(eval_dataset["questions"]),
        "--out", str(tmp_path / "x"), "--mode", "bogus",
    ])
    assert result.exit_code == 2


def test_bad_alpha_is_config_error(runner, manifest_path, demo_case_dir,
                                   eval_dataset, tmp_path):
    result = runner.invoke(main, [
        "ask", "--manifest", str(manifest_path), "--case", str(demo_case_dir),
        "--question", str(eval_dataset["questions"]),
        "--out", str(tmp_path / "x"), "--alpha", "1.5",
    ])
    assert result.exit_code == 2


def test_question_file_shared_and_per_case(tmp_path):
    from evidencesql.pipeline import load_questions, select_question

    path = tmp_path / "questions.json"
    path.write_text(json.dumps([
        {"case_id": "case_01", "prompt_text": "specific?", "options": ["a", "b"]},
        {"case_id": "*", "prompt_text": QUESTION_TEXT, "options": list(OPTIONS)},
    ]), encoding="utf-8")
    questions = load_questions(path)
    q1 = select_question(questions, "case_01")
    assert q1.prompt_text == "specific?"
    q2 = select_question(questions, "case_07")
    assert q2.case_id == "case_07"
    assert q2.prompt_text == QUESTION_TEXT


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory, manifest_path, demo_case_dir, eval_dataset):
    root = tmp_path_factory.mktemp("contract")
    (root / "empty_case").mkdir()
    unlabeled = build_training_split(root)  # no cnn_probs anywhere
    (unlabeled / "train_00" / "sidecar.json").write_text("{}", encoding="utf-8")
    (root / "plain_file").write_text("", encoding="utf-8")
    (root / "nope.json").write_text('{"backend": "nope"}', encoding="utf-8")
    (root / "bad_manifest.json").write_text("{not json", encoding="utf-8")
    (root / "utf16.sql").write_bytes(b"\xff\xfeS\x00E\x00L\x00")
    (root / "other_options.json").write_text(json.dumps(
        [{"case_id": "*", "prompt_text": "x or y?", "options": ["x", "y"]}]), encoding="utf-8")
    return SimpleNamespace(
        manifest=str(manifest_path), bad_manifest=str(root / "bad_manifest.json"),
        case=str(demo_case_dir), empty_case=str(root / "empty_case"),
        unlabeled=str(unlabeled), plain_file=str(root / "plain_file"),
        nope=str(root / "nope.json"), other_options=str(root / "other_options.json"),
        out=str(root / "run"), utf16=str(root / "utf16.sql"), root=str(root),
        questions=str(eval_dataset["questions"]), ranges=str(eval_dataset["ranges"]),
        dataset=str(eval_dataset["dataset"]),
    )


def _ask(p, manifest=None, case=None, out=None, questions=None):
    return ["ask", "--manifest", manifest or p.manifest, "--case", case or p.case,
            "--question", questions or p.questions, "--ranges", p.ranges,
            "--out", out or p.out]


def _batch(p, manifest=None):
    return ["batch-eval", "--manifest", manifest or p.manifest, "--dataset", p.dataset,
            "--questions", p.questions, "--ranges", p.ranges, "--out", p.out]


def _calibrate(p, manifest=None, training=None):
    return ["calibrate-ranges", "--manifest", manifest or p.manifest,
            "--training", training or p.unlabeled,
            "--feature", "global_features.neoplastic_ratio",
            "--out-file", p.out + ".json"]


def _query(p, sql="SELECT COUNT(*) AS n FROM cells", manifest=None, case=None):
    return ["query", "--manifest", manifest or p.manifest, "--case", case or p.case,
            "--sql", sql]


# One row per mapped error path: the CLI's exit code and stage cannot drift
# without one of these failing.
ERROR_CONTRACT = [
    ("ingest-missing-table",
     lambda p: ["ingest", "--manifest", p.manifest, "--case", p.empty_case], 1, "ingest"),
    ("query-missing-table", lambda p: _query(p, case=p.empty_case), 1, "ingest"),
    ("query-sqrt-negative",
     lambda p: _query(p, "SELECT SQRT(0 - area) AS s FROM cells"), 1, "execute"),
    ("calibrate-unlabeled", lambda p: _calibrate(p), 1, "calibrate"),
    ("calibrate-quantile", lambda p: _calibrate(p) + ["--quantile", "0.7"], 2, "config"),
    ("ask-full-without-cnn",
     lambda p: _ask(p, case=p.unlabeled + "/train_00") + ["--mode", "full"], 2, "config"),
    ("ask-unknown-backend", lambda p: _ask(p) + ["--config", p.nope], 2, "config"),
    ("batch-unknown-backend", lambda p: _batch(p) + ["--config", p.nope], 2, "config"),
    ("batch-workers-0", lambda p: _batch(p) + ["--workers", "0"], 2, "config"),
    ("ask-classifier-options-differ",
     lambda p: _ask(p, questions=p.other_options) + ["--mode", "cnn_only"], 1, "pipeline"),
    ("ask-out-under-file", lambda p: _ask(p, out=p.plain_file + "/run"), 1, "internal"),
    ("ingest-bad-manifest",
     lambda p: ["ingest", "--manifest", p.bad_manifest, "--case", p.case], 2, "config"),
    ("validate-bad-manifest",
     lambda p: ["validate", "--manifest", p.bad_manifest, "--query-file", p.plain_file],
     2, "config"),
    ("query-bad-manifest", lambda p: _query(p, manifest=p.bad_manifest), 2, "config"),
    ("calibrate-bad-manifest",
     lambda p: _calibrate(p, manifest=p.bad_manifest), 2, "config"),
    ("ask-bad-manifest", lambda p: _ask(p, manifest=p.bad_manifest), 2, "config"),
    ("batch-bad-manifest", lambda p: _batch(p, manifest=p.bad_manifest), 2, "config"),
    ("validate-undecodable-query-file",
     lambda p: ["validate", "--manifest", p.manifest, "--query-file", p.utf16], 2, "config"),
    ("validate-query-file-is-directory",
     lambda p: ["validate", "--manifest", p.manifest, "--query-file", p.root], 2, "config"),
]


@pytest.mark.parametrize("args, code, stage", [row[1:] for row in ERROR_CONTRACT],
                         ids=[row[0] for row in ERROR_CONTRACT])
def test_error_contract(runner, contract_inputs, args, code, stage):
    result = runner.invoke(main, args(contract_inputs))
    assert result.exit_code == code
    assert "Traceback" not in result.stderr
    assert json.loads(result.stderr)["error"]["stage"] == stage


def _range_file(low, high):
    return json.dumps([{"feature_key": "global_features.neoplastic_ratio",
                        "option_label": OPTIONS[0], "low": low, "high": high}])


@pytest.mark.parametrize("command", ["ask", "batch-eval"])
@pytest.mark.parametrize("option, content", [
    ("--questions", "[1]"),
    ("--questions", "[{"),
    ("--questions", json.dumps([{"prompt_text": "q?", "options": ["only"]}])),
    ("--questions", json.dumps([{"case_id": "*", "prompt_text": "q?", "options": "ab"}])),
    ("--ranges", _range_file(2.0, 1.0)),
    ("--ranges", _range_file(float("nan"), 1.0)),
    ("--ranges", _range_file(float("-inf"), float("inf"))),
    ("--ranges", "["),
    ("--ranges", json.dumps([{"feature_key": "a.b"}])),
    ("--config", "[]"),
    ("--config", '{"max_retries": null}'),
    ("--config", '{"timeout_seconds": -1}'),
], ids=["questions-shape", "questions-json", "questions-one-option", "questions-string-options",
        "ranges-inverted", "ranges-nan", "ranges-infinite", "ranges-json", "ranges-missing-key",
        "config-list", "config-null-field", "config-timeout-negative"])
def test_malformed_input_file_is_config_error(runner, contract_inputs, tmp_path,
                                              command, option, content):
    bad = tmp_path / "input.json"
    bad.write_text(content, encoding="utf-8")
    p = contract_inputs
    files = {"--questions": p.questions, "--ranges": p.ranges, option: str(bad)}
    args = [command, "--manifest", p.manifest, "--ranges", files["--ranges"],
            "--out", str(tmp_path / "run")]
    if command == "ask":
        args += ["--case", p.case, "--question", files["--questions"]]
    else:
        args += ["--dataset", p.dataset, "--questions", files["--questions"]]
    if option == "--config":
        args += ["--config", str(bad)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    error = json.loads(result.stderr)["error"]
    assert error["stage"] == "config"
    assert str(bad) in error["message"]
