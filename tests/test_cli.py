import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import click
import pytest
from click.testing import CliRunner

from evidencesql import errors
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


def test_ingest_plain_text_output(runner, manifest_path, demo_case_dir):
    result = invoke(runner, ["ingest", "--manifest", str(manifest_path),
                             "--case", str(demo_case_dir)])
    assert result.exit_code == 0
    assert result.output == "case demo_case: cells=6 rows, global_features=1 rows, structures=2 rows\n"


def test_ingest_failure_exits_1(runner, manifest_path, tmp_path):
    case = tmp_path / "broken"
    case.mkdir()
    result = runner.invoke(main, ["ingest", "--manifest", str(manifest_path),
                                  "--case", str(case)])
    assert result.exit_code == 1
    assert "error" in result.output or result.stderr


def test_ingest_of_a_list_sidecar_is_a_structured_ingest_error(runner, manifest_path,
                                                               demo_case_dir, tmp_path):
    case = Path(shutil.copytree(demo_case_dir, tmp_path / "list_sidecar"))
    (case / "sidecar.json").write_text("[]", encoding="utf-8")
    result = runner.invoke(main, ["ingest", "--manifest", str(manifest_path),
                                  "--case", str(case), "--json"])
    assert result.exit_code == 1
    error = json.loads(result.stderr)["error"]
    assert (error["stage"], error["type"]) == ("ingest", "SidecarError")
    assert error["message"].endswith("sidecar root must be a JSON object")


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


def test_query_plain_text_output(runner, manifest_path, demo_case_dir):
    result = invoke(runner, [
        "query", "--manifest", str(manifest_path), "--case", str(demo_case_dir),
        "--sql", "SELECT cell_id, cell_type, mean_intensity FROM cells WHERE cell_id IN (3, 4)",
    ])
    assert result.exit_code == 0
    assert result.output == (
        "cell_id | cell_type | mean_intensity\n"
        "3 | neoplastic | 141.2\n"
        "4 | neoplastic | \n"  # cell 4's intensity is null
    )


def test_query_guard_rejection_exits_1(runner, manifest_path, demo_case_dir):
    result = runner.invoke(main, ["query", "--manifest", str(manifest_path),
                                  "--case", str(demo_case_dir), "--sql", "DROP TABLE cells"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["rejection"]["stage"] == "sanitize"


def test_query_on_integer_beyond_float_range_is_ingest_error(runner, manifest_path,
                                                            demo_case_dir, tmp_path):
    case = Path(shutil.copytree(demo_case_dir, tmp_path / "huge_int"))
    cells = case / "cells.csv"
    cells.write_text(cells.read_text(encoding="utf-8").replace(
        "\n1,neoplastic", "\n1" + "0" * 400 + ",neoplastic"), encoding="utf-8")
    result = runner.invoke(main, ["query", "--manifest", str(manifest_path), "--case", str(case),
                                  "--sql", "SELECT cell_id * 1.5 AS x FROM cells"])
    assert result.exit_code == 1
    error = json.loads(result.stderr)["error"]
    assert (error["stage"], error["type"]) == ("ingest", "TypeMismatch")
    assert error["message"] == "cells.cell_id row 0: 401-character integer is beyond float range"


def test_query_json_on_a_result_beyond_float_range_prints_null(runner, manifest_path,
                                                              demo_case_dir, tmp_path):
    """Ingest accepts 308-digit cell ids; an exact product of 15 of them
    would have more than 4,300 digits, past what ``json`` converts, and is
    null instead."""
    case = Path(shutil.copytree(demo_case_dir, tmp_path / "big_ids"))
    cells = case / "cells.csv"
    cells.write_text(re.sub(r"(?m)^(\d),", lambda m: m[1] + "0" * 307 + ",",
                            cells.read_text(encoding="utf-8")), encoding="utf-8")
    product = " * ".join(["cell_id"] * 15)
    result = runner.invoke(main, ["query", "--manifest", str(manifest_path), "--case", str(case),
                                  "--sql", f"SELECT MAX({product}) AS x FROM cells", "--json"])
    assert (result.exit_code, result.stderr) == (0, "")
    assert json.loads(result.stdout) == {"columns": ["x"], "rows": [[None]]}


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


def test_out_paths_in_missing_directories_are_made(runner, manifest_path, training_split,
                                                   demo_case_dir, eval_dataset, tmp_path):
    """``calibrate-ranges --out-file`` and ``ask --out`` make the
    directories their files go in, parents included."""
    out_file = tmp_path / "new" / "ranges" / "out.json"
    result = invoke(runner, [
        "calibrate-ranges", "--manifest", str(manifest_path), "--training", str(training_split),
        "--feature", "global_features.neoplastic_ratio", "--out-file", str(out_file)])
    assert result.exit_code == 0, result.output
    assert len(json.loads(out_file.read_text(encoding="utf-8"))) == 2
    out = tmp_path / "new" / "runs" / "run"
    result = invoke(runner, [
        "ask", "--manifest", str(manifest_path), "--case", str(demo_case_dir),
        "--question", str(eval_dataset["questions"]), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.*")) == [
        "reports/demo_case.json", "reports/demo_case.md", "run.json",
        "transcripts/demo_case.json"]


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


def test_ask_names_the_case_after_its_directory(runner, manifest_path, demo_case_dir,
                                               eval_dataset, tmp_path, monkeypatch):
    """``--case .`` from inside the case directory names the case after that
    directory, and a symlinked case keeps the link's name."""
    link = tmp_path / "linked_case"
    link.symlink_to(demo_case_dir, target_is_directory=True)
    for cwd, case, case_id in ((demo_case_dir, ".", "demo_case"),
                               (tmp_path, "linked_case", "linked_case")):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"run_{case_id}"
        result = invoke(runner, [
            "ask", "--manifest", str(manifest_path), "--case", case,
            "--question", str(eval_dataset["questions"]),
            "--ranges", str(eval_dataset["ranges"]),
            "--out", str(out), "--mode", "sql_only",
        ])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in (out / "reports").iterdir()) == [
            f"{case_id}.json", f"{case_id}.md",
        ]
        assert (out / "transcripts" / f"{case_id}.json").exists()
        report = json.loads((out / "reports" / f"{case_id}.json").read_text(encoding="utf-8"))
        assert report["case_id"] == case_id


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


def test_batch_eval_plain_text_output(runner, manifest_path, eval_dataset, tmp_path):
    out = tmp_path / "plain"
    result = invoke(runner, [
        "batch-eval", "--manifest", str(manifest_path),
        "--dataset", str(eval_dataset["dataset"]),
        "--questions", str(eval_dataset["questions"]),
        "--ranges", str(eval_dataset["ranges"]),
        "--out", str(out), "--mode", "cnn_only",
    ])
    assert result.exit_code == 0
    assert result.output == (
        f"17/20 correct (accuracy 0.8500), 0 flagged, 0 failed; summary at {out}/summary.json\n"
    )


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
    (root / "no_global.json").write_text(_manifest_doc(manifest_path, lambda doc: doc.update(
        tables=[t for t in doc["tables"] if t["level"] != "global"])), encoding="utf-8")
    (root / "utf16.sql").write_bytes(b"\xff\xfeS\x00E\x00L\x00")
    (root / "other_options.json").write_text(json.dumps(
        [{"case_id": "*", "prompt_text": "x or y?", "options": ["x", "y"]}]), encoding="utf-8")
    return SimpleNamespace(
        manifest=str(manifest_path), bad_manifest=str(root / "bad_manifest.json"),
        no_global=str(root / "no_global.json"),
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
    ("batch-workers-33", lambda p: _batch(p) + ["--workers", "33"], 2, "config"),
    ("ask-classifier-options-differ",
     lambda p: _ask(p, questions=p.other_options) + ["--mode", "cnn_only"], 1, "pipeline"),
    ("ask-out-under-file", lambda p: _ask(p, out=p.plain_file + "/run"), 1, "internal"),
    ("ask-manifest-without-global-table",
     lambda p: _ask(p, manifest=p.no_global) + ["--mode", "sql_only"], 2, "config"),
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


# Every error class in ``errors``, raised from a stub command: the stage it is
# reported under and the exit code. A bare ``_CellError`` is never raised;
# its row pins the stage its subclasses inherit.
ERROR_STAGES = [
    (errors.EvidenceSqlError("x"), 1, "pipeline"),
    (errors.ManifestParseError("x"), 2, "config"),
    (errors.ManifestError("x"), 2, "config"),
    (errors._CellError("x"), 1, "ingest"),
    (errors.TypeMismatch("x"), 1, "ingest"),
    (errors.DomainViolation("x"), 1, "ingest"),
    (errors.CardinalityError("x"), 1, "ingest"),
    (errors.SidecarError("x"), 1, "ingest"),
    (errors.CaseLoadError("c", ValueError("x")), 1, "calibrate"),
    (errors.MissingLabel("c"), 1, "calibrate"),
    (errors.SqlSyntaxError("x", 0), 1, "pipeline"),
    (errors.UnsupportedFeature("x", 0), 1, "pipeline"),
    (errors.TableNotInBundle("t", "c"), 1, "execute"),
    (errors.ArithmeticDomain("x", 0), 1, "execute"),
    (errors.BackendError("x"), 1, "pipeline"),
    (errors.EmptyGeneration("x"), 1, "pipeline"),
    (errors.NonFiniteObservation("x"), 1, "pipeline"),
    (errors.NoEvidence("x"), 1, "pipeline"),
    (errors.OptionMismatch("x"), 1, "pipeline"),
    (errors.DanglingQueryId("x"), 1, "pipeline"),
    (errors.ConfigError("x"), 2, "config"),
    (RuntimeError("x"), 1, "internal"),
]


@pytest.mark.parametrize("error, code, stage", ERROR_STAGES,
                         ids=[type(row[0]).__name__ for row in ERROR_STAGES])
def test_error_class_names_its_stage(runner, monkeypatch, error, code, stage):
    def fail():
        raise error

    monkeypatch.setitem(main.commands, "fail", click.Command("fail", callback=fail))
    result = runner.invoke(main, ["fail"])
    assert result.exit_code == code
    assert json.loads(result.stderr) == {"error": {
        "stage": stage, "type": type(error).__name__, "message": str(error)}}


def test_every_error_class_has_a_stage_row():
    """A new error class needs its stage chosen, and a row above."""
    defined = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.EvidenceSqlError)}
    assert defined == {type(row[0]) for row in ERROR_STAGES} - {RuntimeError}


def test_integer_backend_config_numbers_give_the_same_run_json(runner, contract_inputs,
                                                               tmp_path):
    """Numbers are stored as floats, so ``0`` and ``0.0`` give one run.json."""
    p = contract_inputs
    run_jsons = []
    for content in ("{}", '{"temperature": 0.0, "timeout_seconds": 30.0}',
                    '{"temperature": 0, "timeout_seconds": 30, "max_retries": 2}'):
        config = tmp_path / "config.json"
        config.write_text(content, encoding="utf-8")
        out = tmp_path / "run"
        result = runner.invoke(main, _ask(p, out=str(out)) + ["--config", str(config)])
        assert result.exit_code == 0, result.output
        run_jsons.append((out / "run.json").read_bytes())
    assert run_jsons[1] == run_jsons[0] and run_jsons[2] == run_jsons[0]


def _range_file(low=0.5, high=0.7, **fields):
    return json.dumps([{"feature_key": "global_features.neoplastic_ratio",
                        "option_label": OPTIONS[0], "low": low, "high": high, **fields}])


@pytest.mark.parametrize("command", ["ask", "batch-eval"])
@pytest.mark.parametrize("option, content", [
    ("--questions", "[1]"),
    ("--questions", "[{"),
    ("--questions", json.dumps([{"prompt_text": "q?", "options": ["only"]}])),
    ("--questions", json.dumps([{"case_id": "*", "prompt_text": "q?", "options": "ab"}])),
    ("--questions", "[]"),
    ("--questions", json.dumps([{"case_id": None, "prompt_text": "q?", "options": list(OPTIONS)}])),
    ("--questions", json.dumps([{"case_id": "*", "prompt_text": "q?", "options": [OPTIONS[0], None]}])),
    ("--ranges", _range_file(2.0, 1.0)),
    ("--ranges", _range_file(float("nan"), 1.0)),
    ("--ranges", _range_file(float("-inf"), float("inf"))),
    ("--ranges", "["),
    ("--ranges", json.dumps([{"feature_key": "a.b"}])),
    ("--ranges", "{}"),
    ("--ranges", _range_file(1.0, 10**400)),
    ("--ranges", _range_file(feature_key=5)),
    ("--ranges", _range_file(option_label=None)),
    ("--ranges", _range_file(low=True, high=2.0)),
    ("--ranges", _range_file(high="2")),
    ("--ranges", _range_file(source="made_up")),
    ("--config", "[]"),
    ("--config", '{"max_retries": null}'),
    ("--config", '{"timeout_seconds": -1}'),
    ("--config", '{"temperature": true}'),
    ("--config", '{"max_retries": "2"}'),
    ("--config", '{"max_retries": 1.5}'),
    ("--config", '{"max_retries": -1}'),
    ("--config", '{"prompt_version": 2}'),
    ("--config", '{"timeout_seconds": "5"}'),
    ("--config", '{"max_retry": 0, "temprature": 0.7}'),
    ("--config", '{"kind": "remote"}'),
], ids=["questions-shape", "questions-json", "questions-one-option", "questions-string-options",
        "questions-empty", "questions-null-case-id", "questions-null-option",
        "ranges-inverted", "ranges-nan", "ranges-infinite", "ranges-json", "ranges-missing-key",
        "ranges-object", "ranges-huge-int", "ranges-numeric-key", "ranges-null-option",
        "ranges-bool-low", "ranges-string-high", "ranges-unknown-source",
        "config-list", "config-null-field",
        "config-timeout-negative", "config-bool-temperature", "config-string-retries",
        "config-fractional-retries", "config-negative-retries", "config-numeric-version",
        "config-string-timeout", "config-unknown-keys", "config-kind-key"])
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


def _manifest_doc(manifest_path, edit):
    doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    edit(doc)
    return json.dumps(doc)


def _domain_column(doc):
    return next(c for c in doc["tables"][0]["columns"] if "categorical_domain" in c)


def _string_domain(doc):
    _domain_column(doc)["categorical_domain"] = "neoplastic"


@pytest.mark.parametrize("make_content, error_type", [
    (lambda m: "[]", "ManifestParseError"),
    (lambda m: json.dumps({"version": "1"}), "ManifestParseError"),
    (lambda m: _manifest_doc(m, _string_domain), "ManifestParseError"),
    (lambda m: _manifest_doc(m, lambda doc: doc["tables"][0]["columns"][0].update(name=7)),
     "ManifestParseError"),
    (lambda m: _manifest_doc(m, lambda doc: doc["tables"].append(doc["tables"][0])),
     "ManifestError"),
    (lambda m: _manifest_doc(m, lambda doc: doc["tables"][0]["columns"].append(
        doc["tables"][0]["columns"][0])), "ManifestError"),
    (lambda m: _manifest_doc(m, lambda doc: doc["tables"][0]["columns"][0].update(
        categorical_domain=["a"])), "ManifestError"),
    (lambda m: _manifest_doc(m, lambda doc: _domain_column(doc).update(categorical_domain=[])),
     "ManifestError"),
], ids=["root-list", "missing-tables", "string-domain", "numeric-column-name",
        "duplicate-table", "duplicate-column", "domain-on-non-text", "empty-domain"])
def test_malformed_manifest_names_its_file(runner, manifest_path, demo_case_dir, tmp_path,
                                           make_content, error_type):
    bad = tmp_path / "manifest.json"
    bad.write_text(make_content(manifest_path), encoding="utf-8")
    result = runner.invoke(main, ["ingest", "--manifest", str(bad), "--case", str(demo_case_dir)])
    assert result.exit_code == 2
    error = json.loads(result.stderr)["error"]
    assert (error["stage"], error["type"]) == ("config", error_type)
    assert str(bad) in error["message"]
