import json
import math
import random

import pytest

from evidencesql.agents import Question
from evidencesql.errors import DanglingQueryId, OptionMismatch
from evidencesql.fusion import argmax_option, cnn_only_decision, fuse, fuse_sql_only
from evidencesql.knowledge import (
    FeatureFinding,
    FitCategory,
    Observation,
    ReferenceRange,
    build_hypothesis,
    score_observations,
)
from evidencesql.report import (
    TraceEntry,
    build_report,
    contributing_features,
    render_report_markdown,
)
from evidencesql.serialize import canonical_json
from evidencesql.sql.executor import execute
from evidencesql.sql.guard import ValidatedQuery, validate_pipeline


def hyp(confidences, options=None, findings=(), notes=()):
    options = options or tuple(label for label, _ in confidences)
    q = Question("case-x", "?", tuple(options))
    return build_hypothesis(q, list(findings), list(confidences), list(notes))


def test_fuse_alpha_one_is_cnn_exactly():
    cnn = {"A": 0.6, "B": 0.4}
    decision = fuse(cnn, hyp([("A", 0.2), ("B", 0.8)]), 1.0, ("A", "B"))
    assert decision.fused == {"A": 0.6, "B": 0.4}
    assert decision.label == "A"


def test_fuse_alpha_zero_is_hypothesis_exactly():
    cnn = {"A": 0.6, "B": 0.4}
    h = hyp([("A", 0.2), ("B", 0.8)])
    decision = fuse(cnn, h, 0.0, ("A", "B"))
    assert decision.fused == {"A": 0.2, "B": 0.8}
    assert decision.label == "B"


def test_fuse_worked_example():
    cnn = {"A": 0.6, "B": 0.4}
    decision = fuse(cnn, hyp([("A", 0.2), ("B", 0.8)]), 0.7, ("A", "B"))
    assert math.isclose(decision.fused["A"], 0.48, rel_tol=1e-12)
    assert math.isclose(decision.fused["B"], 0.52, rel_tol=1e-12)
    assert decision.label == "B"
    assert decision.review_flag is True
    assert decision.branch_labels == ("A", "B")


def test_fuse_agreement_clears_flag():
    cnn = {"A": 0.9, "B": 0.1}
    decision = fuse(cnn, hyp([("A", 0.8), ("B", 0.2)]), 0.7, ("A", "B"))
    assert decision.review_flag is False


def test_fuse_option_mismatch():
    cnn = {"A": 0.5, "C": 0.5}
    message = r"^classifier options \['A', 'C'\] do not match question options \['A', 'B'\]$"
    with pytest.raises(OptionMismatch, match=message):
        fuse(cnn, hyp([("A", 0.5), ("B", 0.5)]), 0.5, ("A", "B"))
    with pytest.raises(OptionMismatch, match=message):
        cnn_only_decision(cnn, ("A", "B"))


def test_fuse_rejects_hypothesis_options_unlike_the_question():
    cnn = {"A": 0.5, "B": 0.5}
    with pytest.raises(OptionMismatch,
                       match=r"hypothesis options \['A', 'C'\] do not match question"):
        fuse(cnn, hyp([("A", 0.5), ("C", 0.5)]), 0.5, ("A", "B"))


def test_fuse_sql_only():
    decision = fuse_sql_only(hyp([("A", 0.8), ("B", 0.2)]), ("A", "B"))
    assert decision.label == "A"
    assert decision.review_flag is False
    assert decision.branch_labels == ("A", "A")
    uniform = fuse_sql_only(hyp([("A", 0.5), ("B", 0.5)]), ("A", "B"))
    assert uniform.label == "A"  # canonical-order tie-break


def test_sql_only_equals_alpha_zero_endpoint():
    """Each ablation mode is the full rule at its endpoint, with the absent
    branch equal to the present one: the whole decision, flag and branch
    labels included, not only the fused probabilities."""
    h = hyp([("A", 0.3), ("B", 0.7)])
    assert (fuse_sql_only(h, ("A", "B")).to_json_dict()
            == fuse(h.confidences, h, 0.0, ("A", "B")).to_json_dict())
    cnn = {"A": 0.3, "B": 0.7}
    assert (cnn_only_decision(cnn, ("A", "B")).to_json_dict()
            == fuse(cnn, h, 1.0, ("A", "B")).to_json_dict())


def test_cnn_only_decision():
    decision = cnn_only_decision({"A": 0.3, "B": 0.7}, ("A", "B"))
    assert decision.label == "B"
    assert decision.alpha == 1.0


def test_argmax_canonical_tiebreak():
    assert argmax_option({"A": 0.5, "B": 0.5}, ("B", "A")) == "B"
    assert argmax_option({"A": 0.5, "B": 0.5}, ("A", "B")) == "A"


def _random_simplex(rng, labels):
    raw = [rng.uniform(0.01, 1.0) for _ in labels]
    total = sum(raw)
    return {label: v / total for label, v in zip(labels, raw)}


def test_fusion_properties_random():
    rng = random.Random(17)
    for _ in range(2000):
        n = rng.randint(2, 5)
        labels = tuple(f"o{i}" for i in range(n))
        cnn = _random_simplex(rng, labels)
        sql_probs = _random_simplex(rng, labels)
        h = hyp(list(sql_probs.items()), options=labels)
        alpha = rng.random()
        decision = fuse(cnn, h, alpha, labels)
        assert abs(sum(decision.fused.values()) - 1.0) <= 1e-9
        assert all(0.0 <= v <= 1.0 for v in decision.fused.values())
        expected_flag = argmax_option(cnn, labels) != argmax_option(h.confidences, labels)
        assert decision.review_flag == expected_flag
        assert decision.label == argmax_option(decision.fused, labels)


# -- report ----------------------------------------------------------------------


def _fit(category):
    return category


def _make_report_inputs(manifest, demo_bundle):
    question = Question("demo_case", "Which diagnosis?", ("A", "B"))
    vq = validate_pipeline("SELECT * FROM global_features", manifest, source_agent="global")
    result = execute(vq, demo_bundle)
    trace = [TraceEntry(0, vq, result=result)]
    finding = FeatureFinding(
        "global_features.neoplastic_ratio", 0.65, 0,
        {"A": _fit(FitCategory.EXCELLENT), "B": _fit(FitCategory.POOR)}, "r",
    )
    h = build_hypothesis(question, [finding], [("A", 0.8), ("B", 0.2)], ["a note"])
    decision = fuse({"A": 0.9, "B": 0.1}, h, 0.7, question.options)
    return question, decision, h, trace


def test_report_json_is_byte_deterministic(manifest, demo_bundle):
    question, decision, h, trace = _make_report_inputs(manifest, demo_bundle)
    a = canonical_json(build_report(question, decision, h, trace, "transcripts/x.json"))
    b = canonical_json(build_report(question, decision, h, trace, "transcripts/x.json"))
    assert a == b
    doc = json.loads(a)
    assert doc["diagnosis"]["label"] == "A"
    assert doc["sql_trace"][0]["canonical_text"] == "SELECT * FROM global_features"


def test_report_dangling_query_id(manifest, demo_bundle):
    question, decision, h, trace = _make_report_inputs(manifest, demo_bundle)
    bad_finding = FeatureFinding("x", 1.0, 99, {"A": _fit(FitCategory.GOOD)}, "r")
    bad_h = build_hypothesis(question, [bad_finding], [("A", 0.8), ("B", 0.2)], [])
    with pytest.raises(DanglingQueryId):
        build_report(question, decision, bad_h, trace)


def test_report_trace_reparses_and_replays(manifest, demo_bundle):
    from reference_serialize import quantize_tree
    from evidencesql.sql.parser import parse

    question, decision, h, trace = _make_report_inputs(manifest, demo_bundle)
    doc = build_report(question, decision, h, trace)
    for entry in doc["sql_trace"]:
        ast = parse(entry["canonical_text"])
        from evidencesql.sql.render import render

        assert render(ast) == entry["canonical_text"]
        replayed = execute(validate_pipeline(entry["canonical_text"], manifest), demo_bundle)
        assert quantize_tree([list(r) for r in replayed.rows]) == quantize_tree(entry["rows"])


def test_report_markdown_sections(manifest, demo_bundle):
    question, decision, h, trace = _make_report_inputs(manifest, demo_bundle)
    doc = build_report(question, decision, h, trace)
    md = render_report_markdown(doc)
    assert "# Diagnostic report: case demo_case" in md
    assert "## Diagnosis: A" in md
    assert "## Ranked options" in md
    assert "## Contributing features" in md
    assert "## SQL evidence trace" in md
    assert "SELECT * FROM global_features" in md
    assert "Generated narrative" not in md
    with_narrative = render_report_markdown(doc, narrative="All findings support A.")
    assert "## Generated narrative" in with_narrative


def test_report_markdown_lists_repairs_and_null_cells(manifest, demo_bundle):
    question, decision, h, trace = _make_report_inputs(manifest, demo_bundle)
    repaired = validate_pipeline("SELECT cell_id, mean_intensty FROM cells WHERE cell_id = 4",
                                 manifest, source_agent="local")
    trace.append(TraceEntry(1, repaired, result=execute(repaired, demo_bundle)))
    md = render_report_markdown(build_report(question, decision, h, trace)).splitlines()
    start = md.index("SELECT cell_id, mean_intensity FROM cells WHERE cell_id = 4")
    assert md[start + 1:start + 9] == [
        "```",
        "",
        "Repairs applied:",
        "- identifier_fix: 'mean_intensty' -> 'mean_intensity' (distance 1)",
        "",
        "| cell_id | mean_intensity |",
        "| --- | --- |",
        "| 4 | null |",
    ]


# The "SQL fences" repro: CommonMark lets a closing fence be indented up to
# three spaces, so this literal once closed the ```sql fence.
_FENCE_BREAKOUT = "a\n ```\n## Diagnosis: spoofed (confidence 1.000000)\nb"


def test_model_text_adds_no_heading_or_fence_to_the_markdown(manifest, demo_bundle):
    """Text drawn from markdown's block markers, put into string literals of
    validated queries (given to ``build_report`` directly, so no reply
    parsing shields them), one of which also names a result column and fills
    its cell, and into the narrative, leaves exactly the report's own ATX
    headings and fences: each query fenced as ``sql``, and the narrative as
    written or fenced as ``text``. Aliases are bare identifiers, so an
    unaliased column is the one column name model text can fill."""
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st

    from markdown_blocks import Fence, scan, split_lines

    question = Question("demo_case", "Which diagnosis?", ("A", "B"))
    h = build_hypothesis(question, [], [("A", 0.8), ("B", 0.2)], [])
    decision = fuse({"A": 0.9, "B": 0.1}, h, 0.7, question.options)

    def queries(literal):
        return [validate_pipeline(sql, manifest, source_agent="global") for sql in (
            f"SELECT COUNT(*) AS n FROM cells WHERE cell_type = '{literal}'",
            f"SELECT MAX('{literal}') FROM cells")]

    def markdown(queries, narrative):
        trace = [TraceEntry(i, query, result=execute(query, demo_bundle))
                 for i, query in enumerate(queries)]
        return render_report_markdown(build_report(question, decision, h, trace), narrative)

    text = st.text(alphabet="`~#|>-= \r\nab", max_size=40)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(literal=text, narrative=text)
    @example(literal=_FENCE_BREAKOUT, narrative="")
    @example(literal="", narrative="## Diagnosis: spoofed (confidence 1.000000)")
    def check(literal, narrative):
        validated = queries(literal)
        # the guard reads a query holding two ``` runs as a fenced reply
        assume(all(isinstance(query, ValidatedQuery) for query in validated))
        own = scan(markdown(queries("x"), "x" if narrative else ""))
        got = scan(markdown(validated, narrative))
        assert got.headings == own.headings
        assert got.fences[:2] == [Fence("sql", "\n".join(split_lines(query.canonical_text)))
                                  for query in validated]
        assert got.fences[2:] in ([], [Fence("text", "\n".join(split_lines(narrative.strip())))])

    check()


def test_contributing_features_require_scores(manifest, demo_bundle):
    question, decision, h, trace = _make_report_inputs(manifest, demo_bundle)
    unscored = FeatureFinding("y", None, 0, {}, "r", quality_note="observed value is null")
    h2 = build_hypothesis(question, list(h.findings) + [unscored],
                          [("A", 0.8), ("B", 0.2)], [])
    doc = build_report(question, decision, h2, trace)
    assert [row["feature_key"] for row in doc["contributing_features"]] == [
        "global_features.neoplastic_ratio",
    ]


def test_best_option_is_the_option_the_rationale_names_on_a_tie():
    """Both options fit excellently and B is ranked first: the report row and
    the rationale both name A, the earlier option in question order."""
    question = Question("case-x", "?", ("A", "B"))
    index = {("f", o): ReferenceRange("f", o, 0.0, 1.0, "empirical") for o in "AB"}
    findings, _ = score_observations([Observation("f", 0.5, 0)], index, question.options)
    assert findings[0].per_option_fits == {
        "A": FitCategory.EXCELLENT, "B": FitCategory.EXCELLENT}
    h = build_hypothesis(question, findings, [("A", 0.4), ("B", 0.6)], [])
    assert h.ranked_options[0][0] == "B"
    [row] = contributing_features(h)
    assert row["best_option"] == "A"
    assert "fits 'A' best" in h.findings[0].rationale
