import itertools
import json
import math
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from evidencesql.agents import Question
from evidencesql.backends import LlmBackendPort, ScriptedBackend, TemplateBackend
from evidencesql.errors import MissingLabel, NoEvidence, NonFiniteObservation
from evidencesql.feature_store import load_training_split
from evidencesql.knowledge import (
    FIT_WEIGHTS,
    FeatureFinding,
    FitCategory,
    FitScore,
    ReferenceRange,
    build_hypothesis,
    calibrate_confidence,
    compute_empirical_ranges,
    extract_observations,
    fetch_llm_ranges,
    hypothesis_from_json_dict,
    hypothesis_to_json_dict,
    interpolated_quantile,
    merge_ranges,
    score_fit,
    score_observations,
)
from evidencesql.serialize import canonical_json
from evidencesql.sql.executor import execute
from evidencesql.sql.guard import validate_pipeline

from datasets import OPTIONS, TUBULAR, PAPILLARY


def rng_range(low, high):
    return ReferenceRange("f", "A", low, high, "empirical")


def fit(category):
    return FitScore(category, FIT_WEIGHTS[category])


# -- score_fit -------------------------------------------------------------


def test_score_fit_bands():
    r = rng_range(0.3, 0.6)
    assert score_fit(0.45, r).category is FitCategory.EXCELLENT
    assert score_fit(0.3, r).category is FitCategory.EXCELLENT   # boundary inclusive
    assert score_fit(0.66, r).category is FitCategory.GOOD       # d/w = 0.2
    assert score_fit(0.75, r).category is FitCategory.FAIR       # d/w = 0.5
    assert score_fit(0.9, r).category is FitCategory.POOR        # d/w = 1.0
    assert score_fit(1.2, r).category is FitCategory.NO_FIT      # d/w = 2.0


def test_score_fit_weight_map_is_fixed():
    assert {c: s for c, s in FIT_WEIGHTS.items()} == {
        FitCategory.EXCELLENT: 1.0,
        FitCategory.GOOD: 0.75,
        FitCategory.FAIR: 0.5,
        FitCategory.POOR: 0.25,
        FitCategory.NO_FIT: 0.0,
    }
    assert len({w for w in FIT_WEIGHTS.values()}) == len(FIT_WEIGHTS)


def test_score_fit_zero_width_range():
    r = rng_range(0.5, 0.5)
    assert score_fit(0.5, r).category is FitCategory.EXCELLENT
    assert score_fit(0.5000001, r).category is FitCategory.NO_FIT


def test_score_fit_symmetry():
    rng = random.Random(7)
    r = rng_range(2.0, 5.0)
    for _ in range(500):
        x = rng.uniform(0.01, 10.0)
        below = score_fit(2.0 - x, r).category
        above = score_fit(5.0 + x, r).category
        assert below is above


def test_score_fit_rejects_null_and_nonfinite():
    r = rng_range(0, 1)
    with pytest.raises(NonFiniteObservation):
        score_fit(None, r)
    with pytest.raises(NonFiniteObservation):
        score_fit(float("nan"), r)


def test_reference_range_invariant():
    with pytest.raises(ValueError):
        ReferenceRange("f", "A", 2.0, 1.0, "empirical")


# -- quantiles and empirical ranges ---------------------------------------------


def test_interpolated_quantile_worked_example():
    samples = [0.2, 0.4, 0.6, 0.8, 1.0]
    assert math.isclose(interpolated_quantile(samples, 0.1), 0.28, rel_tol=1e-12)
    assert math.isclose(interpolated_quantile(samples, 0.9), 0.92, rel_tol=1e-12)


def test_interpolated_quantile_matches_numpy():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 200)
        samples = [rng.uniform(-50, 50) for _ in range(n)]
        q = rng.uniform(0.01, 0.99)
        ours = interpolated_quantile(samples, q)
        theirs = float(np.quantile(np.array(samples), q))
        assert math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-9)


def test_compute_empirical_ranges(manifest, training_split):
    training = load_training_split(manifest, training_split)
    keys = ["global_features.neoplastic_ratio", "global_features.gland_area_ratio"]
    ranges, notes = compute_empirical_ranges(training, keys, list(OPTIONS), q=0.1)
    assert len(ranges) == 4
    assert notes == []
    for r in ranges:
        assert r.low <= r.high
        assert r.source == "empirical"
    tubular_np = next(r for r in ranges
                      if r.option_label == TUBULAR and "neoplastic" in r.feature_key)
    assert 0.6 < tubular_np.low <= tubular_np.high < 0.7


def test_empirical_ranges_low_support(manifest, training_split):
    training = load_training_split(manifest, training_split)[:5]  # 5 tubular, 0 papillary
    ranges, notes = compute_empirical_ranges(
        training, ["global_features.neoplastic_ratio"], list(OPTIONS), q=0.1,
    )
    assert [r.option_label for r in ranges] == [TUBULAR]
    assert any(PAPILLARY in note for note in notes)


def test_empirical_ranges_validate_inputs(manifest, training_split):
    training = load_training_split(manifest, training_split)
    with pytest.raises(ValueError):
        compute_empirical_ranges(training, [], list(OPTIONS), q=0.0)
    unlabeled = training[0].__class__(
        case_id="nolabel", tables=training[0].tables, cnn_probs=None, ground_truth=None,
    )
    with pytest.raises(MissingLabel):
        compute_empirical_ranges([unlabeled], [], list(OPTIONS))


def test_empirical_range_uses_case_mean_for_local_columns(manifest, demo_bundle):
    bundles = []
    for i in range(3):
        bundles.append(demo_bundle.__class__(
            case_id=f"c{i}", tables=demo_bundle.tables,
            cnn_probs=None, ground_truth=TUBULAR,
        ))
    ranges, _ = compute_empirical_ranges(bundles, ["cells.area"], [TUBULAR], q=0.05)
    # all cases identical: the range collapses onto the case-level mean
    assert len(ranges) == 1
    assert math.isclose(ranges[0].low, 2400.0 / 6, rel_tol=1e-12)
    assert math.isclose(ranges[0].high, 2400.0 / 6, rel_tol=1e-12)


# -- backend-sourced ranges --------------------------------------------------------


def test_fetch_llm_ranges_parses_reply():
    backend = ScriptedBackend(['{"low": 0.3, "high": 0.6}'])
    ranges, notes = fetch_llm_ranges(["f"], ["A"], backend)
    assert len(ranges) == 1 and notes == []
    assert (ranges[0].low, ranges[0].high) == (0.3, 0.6)
    assert ranges[0].source == "llm_knowledge"


def test_fetch_llm_ranges_drops_inverted():
    backend = ScriptedBackend(['{"low": 0.9, "high": 0.1}'])
    ranges, notes = fetch_llm_ranges(["f"], ["A"], backend)
    assert ranges == []
    assert len(notes) == 1


def test_fetch_llm_ranges_template_declines():
    ranges, notes = fetch_llm_ranges(["f"], ["A", "B"], TemplateBackend())
    assert ranges == [] and notes == []


def test_fetch_llm_ranges_unparseable_noted():
    backend = ScriptedBackend(["cannot say", "cannot say"])
    ranges, notes = fetch_llm_ranges(["f"], ["A", "B"], backend)
    assert ranges == []
    assert len(notes) == 2


def test_fetch_llm_ranges_racing_misses_share_one_reply():
    """Concurrent misses on one memo may each ask the backend, but every
    caller reads the reply stored first."""

    class NumberedBackend(LlmBackendPort):
        def __init__(self):
            self.numbers = itertools.count(1)

        def complete(self, system_prompt, user_prompt, temperature, timeout):
            number = next(self.numbers)
            time.sleep(0.02)  # every caller misses before a reply is stored
            return json.dumps({"low": 0.0, "high": float(number)})

    backend = NumberedBackend()
    replies: dict = {}
    barrier = threading.Barrier(4)

    def fetch(_):
        barrier.wait(timeout=10)
        return fetch_llm_ranges(["f"], ["A", "B"], backend, replies=replies)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(fetch, range(4), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    assert next(backend.numbers) > 3  # the misses really raced
    assert all(result == results[0] for result in results)
    assert [r.high for r in results[0][0]] == [
        json.loads(reply)["high"] for reply in replies.values()
    ]


def test_merge_prefers_empirical():
    empirical = ReferenceRange("f", "A", 0.0, 1.0, "empirical")
    llm = ReferenceRange("f", "A", 5.0, 6.0, "llm_knowledge")
    index = merge_ranges([empirical], [llm])
    assert index[("f", "A")] is empirical


# -- calibration -------------------------------------------------------------------


def test_calibrate_worked_example():
    finding = FeatureFinding("f", 0.45, 0, {
        "A": fit(FitCategory.EXCELLENT), "B": fit(FitCategory.POOR),
    }, "r")
    confidences, notes = calibrate_confidence([finding], ["A", "B"])
    assert confidences == [("A", 0.8), ("B", 0.2)]
    assert notes == []


def test_calibrate_symmetric_excellent_is_uniform():
    findings = [
        FeatureFinding("f1", 1.0, 0, {"A": fit(FitCategory.EXCELLENT),
                                      "B": fit(FitCategory.EXCELLENT)}, "r"),
        FeatureFinding("f2", 2.0, 1, {"A": fit(FitCategory.EXCELLENT),
                                      "B": fit(FitCategory.EXCELLENT)}, "r"),
    ]
    confidences, _ = calibrate_confidence(findings, ["A", "B"])
    assert confidences == [("A", 0.5), ("B", 0.5)]


def test_calibrate_all_no_fit_uniform_with_note():
    findings = [FeatureFinding("f", 9.0, 0, {"A": fit(FitCategory.NO_FIT),
                                             "B": fit(FitCategory.NO_FIT)}, "r")]
    confidences, notes = calibrate_confidence(findings, ["A", "B"])
    assert confidences == [("A", 0.5), ("B", 0.5)]
    assert notes


def test_calibrate_no_evidence_raises():
    with pytest.raises(NoEvidence):
        calibrate_confidence([FeatureFinding("f", None, 0, {}, "r")], ["A", "B"])


def test_calibration_simplex_property():
    rng = random.Random(3)
    categories = list(FitCategory)
    for _ in range(2000):
        options = [f"o{i}" for i in range(rng.randint(2, 5))]
        findings = []
        for i in range(rng.randint(1, 6)):
            fits = {}
            for option in options:
                if rng.random() < 0.8:
                    fits[option] = fit(rng.choice(categories))
            findings.append(FeatureFinding(f"f{i}", 1.0, i, fits, "r"))
        try:
            confidences, _ = calibrate_confidence(findings, options)
        except NoEvidence:
            continue
        values = [c for _, c in confidences]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert abs(sum(values) - 1.0) <= 1e-9


def test_calibration_monotonicity():
    """Upgrading one finding's fit for an option never lowers its score."""
    rng = random.Random(4)
    ladder = [FitCategory.NO_FIT, FitCategory.POOR, FitCategory.FAIR,
              FitCategory.GOOD, FitCategory.EXCELLENT]
    for _ in range(500):
        options = ["A", "B", "C"]
        findings = []
        for i in range(rng.randint(1, 5)):
            fits = {o: fit(rng.choice(ladder)) for o in options}
            findings.append(FeatureFinding(f"f{i}", 1.0, i, fits, "r"))
        target = rng.randrange(len(findings))
        current = findings[target].per_option_fits["A"].category
        level = ladder.index(current)
        if level == len(ladder) - 1:
            continue
        upgraded_fits = dict(findings[target].per_option_fits)
        upgraded_fits["A"] = fit(ladder[level + 1])
        upgraded = list(findings)
        upgraded[target] = FeatureFinding("fX", 1.0, target, upgraded_fits, "r")

        before, _ = calibrate_confidence(findings, options)
        after, _ = calibrate_confidence(upgraded, options)
        before_raw = dict(before)
        after_raw = dict(after)
        q_before = Question("c", "?", tuple(options))
        rank_before = [
            label for label, _ in build_hypothesis(
                q_before, findings, before, []).ranked_options
        ]
        rank_after = [
            label for label, _ in build_hypothesis(
                q_before, upgraded, after, []).ranked_options
        ]
        assert rank_after.index("A") <= rank_before.index("A")
        del before_raw, after_raw


# -- hypothesis object ----------------------------------------------------------


def test_hypothesis_rank_and_tiebreak():
    q = Question("c", "?", ("A", "B"))
    h = build_hypothesis(q, [], [("A", 0.2), ("B", 0.8)], [])
    assert [label for label, _ in h.ranked_options] == ["B", "A"]
    tie = build_hypothesis(q, [], [("A", 0.5), ("B", 0.5)], [])
    assert [label for label, _ in tie.ranked_options] == ["A", "B"]


def test_hypothesis_serialization_roundtrip():
    q = Question("case-7", "?", ("A", "B"))
    finding = FeatureFinding("t.col", 0.123456789, 2, {
        "A": fit(FitCategory.GOOD),
    }, "rationale", quality_note="no reference range for option(s): B")
    h = build_hypothesis(q, [finding], [("A", 2 / 3), ("B", 1 / 3)], ["note"])
    blob = canonical_json(hypothesis_to_json_dict(h))
    again = hypothesis_from_json_dict(json.loads(blob))
    assert again == h
    assert canonical_json(hypothesis_to_json_dict(again)) == blob


def test_hypothesis_confidence_reproducible_from_findings():
    """Recomputing calibration from the serialized findings reproduces the
    serialized confidences exactly."""
    q = Question("c", "?", ("A", "B", "C"))
    rng = random.Random(5)
    categories = list(FitCategory)
    for _ in range(200):
        findings = []
        for i in range(rng.randint(1, 4)):
            fits = {o: fit(rng.choice(categories)) for o in q.options if rng.random() < 0.9}
            findings.append(FeatureFinding(f"f{i}", rng.uniform(0, 10), i, fits, "r"))
        try:
            confidences, notes = calibrate_confidence(findings, q.options)
        except NoEvidence:
            continue
        h = build_hypothesis(q, findings, confidences, notes)
        doc = json.loads(canonical_json(hypothesis_to_json_dict(h)))
        revived = hypothesis_from_json_dict(doc)
        confidences2, _ = calibrate_confidence(list(revived.findings), q.options)
        h2 = build_hypothesis(q, list(revived.findings), confidences2, notes)
        assert h2.ranked_options == h.ranked_options


# -- observation extraction -------------------------------------------------------


def test_extract_observations_from_executed_queries(manifest, demo_bundle):
    star = validate_pipeline("SELECT * FROM global_features", manifest)
    aliased = validate_pipeline(
        "SELECT AVG(area) AS mean_area, COUNT(*) FROM cells", manifest,
    )
    grouped = validate_pipeline(
        "SELECT cell_type, COUNT(*) AS n FROM cells GROUP BY cell_type", manifest,
    )
    executed = [
        (0, star, execute(star, demo_bundle)),
        (1, aliased, execute(aliased, demo_bundle)),
        (2, grouped, execute(grouped, demo_bundle)),
    ]
    observations = extract_observations(executed)
    keys = [o.feature_key for o in observations]
    assert "global_features.neoplastic_ratio" in keys
    assert "mean_area" in keys
    assert "COUNT(*)" in keys
    # grouped multi-row result contributes no scalar observation
    assert not any(o.query_id == 2 for o in observations)
    mean_area = next(o for o in observations if o.feature_key == "mean_area")
    assert math.isclose(mean_area.observed, 400.0, rel_tol=1e-12)


def test_score_observations_null_and_missing(manifest):
    from evidencesql.knowledge import Observation

    index = {("f", "A"): rng_range(0, 1)}
    findings, notes = score_observations(
        [Observation("f", None, 0), Observation("g", 0.5, 1), Observation("f", 0.5, 2)],
        index, ("A", "B"),
    )
    assert findings[0].per_option_fits == {}
    assert findings[0].quality_note == "observed value is null"
    assert findings[1].per_option_fits == {}
    assert "no reference range" in findings[1].quality_note
    assert set(findings[2].per_option_fits) == {"A"}
    assert "option(s): B" in findings[2].quality_note
    assert len(notes) == 3
