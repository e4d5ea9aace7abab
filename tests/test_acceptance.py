"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import random
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from evidencesql.agents import Question
from evidencesql.backends import TemplateBackend
from evidencesql.feature_store import (
    CaseBundle,
    ColumnSchema,
    FeatureTable,
    Level,
    SchemaManifest,
    TableSchema,
    ingest_case_dir,
    load_manifest,
)
from evidencesql.fusion import argmax_option, fuse
from evidencesql.knowledge import (
    FeatureFinding,
    FitCategory,
    ReferenceRange,
    build_hypothesis,
    calibrate_confidence,
    compute_empirical_ranges,
    score_fit,
)
from evidencesql.pipeline import RunConfig, batch_eval, load_questions
from evidencesql.sql.guard import GuardRejection, ValidatedQuery, validate_pipeline
from evidencesql.sql.parser import parse
from evidencesql.sql.render import render
from evidencesql.values import Dtype

from generators import AstGenerator
from reference_serialize import quantize_tree
from test_sql_exec import run_differential

CORPUS = json.loads(
    (Path(__file__).parent / "fixtures" / "guard_corpus.json").read_text(encoding="utf-8")
)


def _report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_engine_oracle_equivalence():
    """1,000 random (table, query) pairs match the brute-force evaluator."""
    start = time.perf_counter()
    checked = run_differential(seed=20260810, n_pairs=1000)
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, f"1000 engine/oracle pairs equivalent in {elapsed:.1f}s")


def test_criterion_2_parser_roundtrip():
    """1,000 grammar-generated ASTs satisfy parse(render(ast)) == ast."""
    start = time.perf_counter()
    rng = random.Random(8128)
    generator = AstGenerator(rng)
    for _ in range(1000):
        ast = generator.query()
        rendered = render(ast)
        assert parse(rendered) == ast, rendered
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(2, f"1000 AST round-trips exact in {elapsed:.1f}s")


def test_criterion_3_guard_safety_corpus(manifest):
    """The hostile/malformed corpus produces the expected stage-tagged
    outcomes, including the three worked repair examples exactly."""
    assert len(CORPUS) >= 40
    for entry in CORPUS:
        outcome = validate_pipeline(entry["input"], manifest)
        if entry["expect"] == "validated":
            assert isinstance(outcome, ValidatedQuery), (entry["name"], outcome)
            if "canonical" in entry:
                assert outcome.canonical_text == entry["canonical"], entry["name"]
            if "repairs" in entry:
                got = [[a.kind, a.before, a.after, a.edit_distance]
                       for a in outcome.repair_log]
                assert got == entry["repairs"], entry["name"]
        else:
            assert isinstance(outcome, GuardRejection), (entry["name"], outcome)
            if "stage" in entry:
                assert outcome.stage == entry["stage"], (entry["name"], outcome)
            if "reason_contains" in entry:
                assert entry["reason_contains"].lower() in outcome.reason.lower(), entry["name"]

    # the three worked repair examples, asserted here once more explicitly
    fix = validate_pipeline("SELECT avg(are) FROM cells", manifest)
    assert fix.canonical_text == "SELECT AVG(area) FROM cells"
    assert [[a.kind, a.before, a.after, a.edit_distance] for a in fix.repair_log] == [
        ["identifier_fix", "are", "area", 1],
    ]
    fix = validate_pipeline("SELCT COUNT(*) FROM cells", manifest)
    assert [[a.kind, a.before, a.after, a.edit_distance] for a in fix.repair_log] == [
        ["keyword_fix", "SELCT", "SELECT", 1],
    ]
    rejection = validate_pipeline("SELECT AVG(zzz) FROM cells", manifest)
    assert isinstance(rejection, GuardRejection)
    assert rejection.stage == "repair_exhausted"
    _report(3, f"{len(CORPUS)}-entry corpus stage-tagged as expected")


def _fit(category):
    return category


def test_criterion_4_fit_and_calibration():
    """Worked fit/calibration examples exact; simplex and monotonicity hold
    over 10,000 random finding sets."""
    r = ReferenceRange("f", "A", 0.3, 0.6, "empirical")
    assert score_fit(0.45, r) is FitCategory.EXCELLENT
    assert score_fit(0.66, r) is FitCategory.GOOD
    assert score_fit(1.2, r) is FitCategory.NO_FIT

    finding = FeatureFinding("f", 0.45, 0, {"A": _fit(FitCategory.EXCELLENT),
                                            "B": _fit(FitCategory.POOR)}, "r")
    confidences, _ = calibrate_confidence([finding], ["A", "B"])
    assert confidences == [("A", 0.8), ("B", 0.2)]

    rng = random.Random(271828)
    ladder = [FitCategory.NO_FIT, FitCategory.POOR, FitCategory.FAIR,
              FitCategory.GOOD, FitCategory.EXCELLENT]
    checked = 0
    for _ in range(10000):
        options = [f"o{i}" for i in range(rng.randint(2, 5))]
        findings = []
        for i in range(rng.randint(1, 5)):
            fits = {o: _fit(rng.choice(ladder)) for o in options if rng.random() < 0.85}
            findings.append(FeatureFinding(f"f{i}", 1.0, i, fits, "r"))
        try:
            confidences, _ = calibrate_confidence(findings, options)
        except Exception:
            continue
        values = [c for _, c in confidences]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert abs(sum(values) - 1.0) <= 1e-9

        # monotonicity: upgrade one existing fit for the first option
        upgradable = [
            (i, f) for i, f in enumerate(findings)
            if options[0] in f.per_option_fits
            and f.per_option_fits[options[0]] is not FitCategory.EXCELLENT
        ]
        if upgradable:
            idx, target = upgradable[0]
            level = ladder.index(target.per_option_fits[options[0]])
            upgraded_fits = dict(target.per_option_fits)
            upgraded_fits[options[0]] = _fit(ladder[level + 1])
            upgraded = list(findings)
            upgraded[idx] = FeatureFinding(target.feature_key, 1.0, idx, upgraded_fits, "r")
            after, _ = calibrate_confidence(upgraded, options)
            q = Question("c", "?", tuple(options))
            rank_before = [
                label for label, _ in
                build_hypothesis(q, findings, confidences, []).ranked_options
            ]
            rank_after = [
                label for label, _ in
                build_hypothesis(q, upgraded, after, []).ranked_options
            ]
            assert rank_after.index(options[0]) <= rank_before.index(options[0])

            raw_before = _raw_score(findings, options[0])
            raw_after = _raw_score(upgraded, options[0])
            assert raw_after >= raw_before - 1e-12
        checked += 1
    assert checked > 9000
    _report(4, f"worked examples exact; {checked} random finding sets on the simplex, monotone")


def _raw_score(findings, option):
    weights = [f.per_option_fits[option].weight for f in findings
               if option in f.per_option_fits]
    return sum(weights) / len(weights) if weights else 0.0


def test_criterion_5_fusion_identities():
    """Endpoint identities, simplex preservation, and flag soundness over
    10,000 random valid pairs; worked example exact."""
    q_options = ("A", "B")
    cnn = {"A": 0.6, "B": 0.4}
    h = build_hypothesis(Question("c", "?", q_options), [], [("A", 0.2), ("B", 0.8)], [])
    decision = fuse(cnn, h, 0.7, q_options)
    assert math.isclose(decision.fused["A"], 0.48, rel_tol=1e-12)
    assert math.isclose(decision.fused["B"], 0.52, rel_tol=1e-12)
    assert decision.label == "B" and decision.review_flag is True

    rng = random.Random(314159)
    for _ in range(10000):
        n = rng.randint(2, 6)
        labels = tuple(f"o{i}" for i in range(n))
        raw_cnn = [rng.uniform(0.001, 1.0) for _ in labels]
        cnn_probs = {k: v / sum(raw_cnn) for k, v in zip(labels, raw_cnn)}
        raw_sql = [rng.uniform(0.001, 1.0) for _ in labels]
        sql_probs = {k: v / sum(raw_sql) for k, v in zip(labels, raw_sql)}
        cnn = cnn_probs
        h = build_hypothesis(Question("c", "?", labels), [], list(sql_probs.items()), [])
        sql_probs = h.confidences  # quantized at build time

        at_one = fuse(cnn, h, 1.0, labels)
        assert at_one.fused == cnn_probs
        at_zero = fuse(cnn, h, 0.0, labels)
        assert at_zero.fused == sql_probs

        alpha = rng.random()
        mixed = fuse(cnn, h, alpha, labels)
        assert abs(sum(mixed.fused.values()) - 1.0) <= 1e-9
        assert all(0.0 <= v <= 1.0 for v in mixed.fused.values())
        expected_flag = (
            argmax_option(cnn_probs, labels) != argmax_option(sql_probs, labels)
        )
        assert mixed.review_flag == expected_flag
        assert mixed.label == argmax_option(mixed.fused, labels)
    _report(5, "endpoints exact, 10000 random pairs on the simplex, flags sound")


@pytest.fixture(scope="module")
def correction_runs(manifest_path, eval_dataset, tmp_path_factory):
    """Batch-eval the 20-case fixture in all three modes (plus a repeat of
    full mode for byte-determinism)."""
    root = tmp_path_factory.mktemp("acceptance_runs")
    questions = load_questions(eval_dataset["questions"])
    summaries = {}
    out_dirs = {}
    start = time.perf_counter()
    for run_name, mode in [("sql_only", "sql_only"), ("cnn_only", "cnn_only"),
                           ("full", "full"), ("full_repeat", "full")]:
        out = root / run_name
        config = RunConfig(
            manifest_path=str(manifest_path), out_dir=str(out), mode=mode,
            alpha=0.7, ranges_path=str(eval_dataset["ranges"]),
        )
        summaries[run_name] = batch_eval(config, eval_dataset["dataset"], questions,
                                         backend=TemplateBackend())
        out_dirs[run_name] = out
    elapsed = time.perf_counter() - start
    return {"summaries": summaries, "out_dirs": out_dirs, "elapsed": elapsed,
            "dataset": eval_dataset["dataset"]}


def test_criterion_6_end_to_end_correction(correction_runs):
    """cnn_only 0.85, sql_only 1.0, full 1.0 with 3 flags, byte-identical
    across repeated runs, under 30s for all runs."""
    summaries = correction_runs["summaries"]
    assert summaries["sql_only"].accuracy == 1.0
    assert summaries["sql_only"].n_cases == 20
    assert summaries["cnn_only"].accuracy == 0.85
    assert summaries["cnn_only"].n_correct == 17
    assert summaries["full"].accuracy == 1.0
    assert summaries["full"].n_flagged == 3
    assert summaries["full"].failures == []

    first = correction_runs["out_dirs"]["full"]
    second = correction_runs["out_dirs"]["full_repeat"]
    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert first_files == second_files
    for rel in first_files:
        if rel.name == "run.json":
            continue  # embeds the differing output directory path
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel

    elapsed = correction_runs["elapsed"]
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(6, "cnn_only 0.85 / sql_only 1.0 / full 1.0 with 3 flags, "
               f"byte-deterministic, {elapsed:.1f}s for 4 runs")


def test_criterion_7_audit_closure_replay(correction_runs, manifest_path):
    """Re-executing every recorded trace entry reproduces the recorded rows;
    no finding references a missing query id."""
    manifest = load_manifest(manifest_path)
    report_dir = correction_runs["out_dirs"]["full"] / "reports"
    reports = sorted(report_dir.glob("*.json"))
    assert len(reports) == 20
    n_queries = 0
    for report_path in reports:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        bundle = ingest_case_dir(manifest, Path(correction_runs["dataset"]) / report["case_id"])
        trace_ids = set()
        for entry in report["sql_trace"]:
            trace_ids.add(entry["query_id"])
            revalidated = validate_pipeline(entry["canonical_text"], manifest)
            assert isinstance(revalidated, ValidatedQuery)
            assert revalidated.canonical_text == entry["canonical_text"]
            from evidencesql.sql.executor import execute

            replayed = execute(revalidated, bundle)
            assert quantize_tree([list(r) for r in replayed.rows]) == entry["rows"], (
                report["case_id"], entry["query_id"],
            )
            n_queries += 1
        for finding in report["hypothesis"]["findings"]:
            assert finding["query_id"] in trace_ids
    _report(7, f"replayed {n_queries} trace entries across 20 reports, all exact")


def test_criterion_8_empirical_range_oracle():
    """Quantile ranges over 100 random synthetic splits match a numpy-based
    sort-and-interpolate oracle within 1e-9."""
    schema = TableSchema(
        name="g", level=Level.GLOBAL,
        columns=(ColumnSchema("v", Dtype.REAL),),
    )
    manifest = SchemaManifest(version="t", tables=(schema,))
    rng = random.Random(1618033)
    checked = 0
    for split_index in range(100):
        options = [f"class_{i}" for i in range(rng.randint(2, 4))]
        bundles = []
        per_option: dict[str, list[float]] = {o: [] for o in options}
        for case_index in range(rng.randint(6, 60)):
            option = rng.choice(options)
            value = round(rng.uniform(-100, 100), 6)
            per_option[option].append(value)
            table = FeatureTable(schema=schema, columns={"v": (value,)}, row_count=1)
            bundles.append(CaseBundle(
                case_id=f"s{split_index}_c{case_index:03d}",
                tables={"g": table}, ground_truth=option,
            ))
        q = rng.uniform(0.01, 0.49)
        ranges, _ = compute_empirical_ranges(bundles, ["g.v"], options, q)
        for option in options:
            samples = per_option[option]
            expected_present = len(samples) >= 3
            got = [r for r in ranges if r.option_label == option]
            assert len(got) == (1 if expected_present else 0)
            if expected_present:
                low = float(np.quantile(np.array(samples), q))
                high = float(np.quantile(np.array(samples), 1.0 - q))
                assert math.isclose(got[0].low, low, rel_tol=1e-9, abs_tol=1e-9)
                assert math.isclose(got[0].high, high, rel_tol=1e-9, abs_tol=1e-9)
                checked += 1
    assert checked > 100
    _report(8, f"{checked} (option, split) quantile ranges match the numpy oracle")
