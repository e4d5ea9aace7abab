import itertools
import json
import math
import random
import threading
import time
from functools import partial

import numpy as np
import pytest

from evidencesql import knowledge, pipeline
from evidencesql.agents import Question
from evidencesql.backends import (
    TASK_RANGES,
    BackendConfig,
    LlmBackendPort,
    ReplyBook,
    TemplateBackend,
)
from evidencesql.errors import BackendError, MissingLabel, NoEvidence, NonFiniteObservation
from evidencesql.feature_store import CaseBundle, FeatureTable, load_training_split
from evidencesql.knowledge import (
    FIT_WEIGHTS,
    FeatureFinding,
    FitCategory,
    FitScore,
    Observation,
    ReferenceRange,
    build_hypothesis,
    calibrate_confidence,
    case_feature_value,
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
from evidencesql.pipeline import RunConfig, run_case, write_case_outputs
from evidencesql.report import contributing_features
from evidencesql.serialize import canonical_json
from evidencesql.sql.executor import execute
from evidencesql.sql.guard import validate_pipeline

from datasets import OPTIONS, TUBULAR, PAPILLARY
from scripted_backend import ScriptedBackend


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
    with pytest.raises(NonFiniteObservation):
        score_fit(10 ** 616, r)


BIG_ID = int("9" * 308)


def run_big_integer_case(manifest, tmp_path, replies, keys):
    """``run_case`` in sql_only mode, its files written, over a case whose
    ``cells.cell_id`` and ``global_features.total_cells`` hold 308-digit
    integers and whose other cells are null; every option has a range for
    each of ``keys``. Returns the result and the findings by key."""
    tables = {}
    for name, column, values in (("cells", "cell_id", (BIG_ID, int("8" * 308))),
                                 ("global_features", "total_cells", (BIG_ID,))):
        schema = manifest.table(name)
        columns = {c: (None,) * len(values) for c in schema.column_names}
        columns[column] = values
        tables[name] = FeatureTable(schema, columns, len(values))
    ranges = [ReferenceRange(key, option, 0.0, 10.0, "empirical")
              for key in keys for option in OPTIONS]
    result = run_case(manifest, CaseBundle("big_ids", tables),
                      Question("big_ids", "Which option?", OPTIONS),
                      RunConfig("unused", str(tmp_path), mode="sql_only"),
                      ScriptedBackend(replies), ranges)
    write_case_outputs(tmp_path, result)
    assert (tmp_path / "reports" / "big_ids.json").exists()
    assert (tmp_path / "reports" / "big_ids.md").exists()
    return result, {f["feature_key"]: f for f in result.report["hypothesis"]["findings"]}


def assert_product_of_big_ids_is_unscorable(manifest, tmp_path, factors):
    """A product of ``factors`` 308-digit cell ids is a null observation,
    noted as unscorable, and the case ends with its files written."""
    product = " * ".join(["cell_id"] * factors)
    result, findings = run_big_integer_case(manifest, tmp_path, [
        '```json\n{"target_features": [{"table": "cells", "column": "cell_id", '
        '"rationale": "r"}]}\n```',
        f"```sql\nSELECT MAX({product}) AS x FROM cells\n```\n"
        "```sql\nSELECT COUNT(*) AS n FROM cells\n```",
    ], ("x", "n"))
    assert findings["x"]["observed"] is None
    assert findings["x"]["quality_note"] == "observed value is null"
    assert findings["x"]["fits"] == {}
    assert set(findings["n"]["fits"]) == set(OPTIONS)
    assert "x: observed value is null" in result.report["data_quality_notes"]


def test_integer_observation_beyond_float_range_is_unscorable(manifest, tmp_path):
    """The square of a 308-digit cell id is beyond float range, so the
    executor returns null and the case ends with a report, not an
    ``OverflowError``."""
    assert_product_of_big_ids_is_unscorable(manifest, tmp_path, 2)


def test_observation_of_more_than_4300_digits_is_null(manifest, tmp_path):
    """An exact product of 15 308-digit cell ids would have more than 4,300
    digits, past what ``repr`` converts; it is null, and the report and
    markdown are written."""
    assert_product_of_big_ids_is_unscorable(manifest, tmp_path, 15)


def test_global_result_beyond_float_range_reaches_the_local_prompt_as_null(manifest, tmp_path):
    """A global query multiplying a 308-digit ``total_cells`` 15 times
    returns null, so the local agent's prompt is built around it and the
    case ends with a report."""
    product = " * ".join(["total_cells"] * 15)
    result, findings = run_big_integer_case(manifest, tmp_path, [
        '```json\n{"target_features": [{"table": "global_features", '
        '"column": "total_cells", "rationale": "r"}]}\n```\n'
        f"```sql\nSELECT {product} AS g FROM global_features\n```",
        "```sql\nSELECT COUNT(*) AS n FROM cells\n```",
    ], ("g", "n"))
    local_prompt = result.transcripts[1].attempts[0].user_prompt
    assert f"q0: SELECT {product} AS g FROM global_features\ng\n" in local_prompt
    assert findings["g"]["observed"] is None
    assert "g: observed value is null" in result.report["data_quality_notes"]
    assert set(findings["n"]["fits"]) == set(OPTIONS)


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


def test_interpolated_quantile_of_one_sample_and_of_none():
    assert interpolated_quantile([4.5], 0.1) == 4.5
    with pytest.raises(ValueError, match="empty sample set"):
        interpolated_quantile([], 0.5)


def test_case_feature_value_of_a_missing_or_all_null_column(demo_bundle):
    cells = demo_bundle.tables["cells"]
    nulls = cells.__class__(cells.schema, {**cells.columns, "area": (None,) * cells.row_count},
                            cells.row_count)
    bundle = demo_bundle.__class__("nulls", {**demo_bundle.tables, "cells": nulls})
    assert case_feature_value(demo_bundle, "cells", "no_such_column") is None
    assert case_feature_value(demo_bundle, "no_such_table", "area") is None
    assert case_feature_value(bundle, "cells", "area") is None
    assert case_feature_value(demo_bundle, "cells", "area") == 400.0


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


def test_empirical_ranges_note_an_alias_key(manifest, training_split):
    training = load_training_split(manifest, training_split)
    ranges, notes = compute_empirical_ranges(training, ["mean_area"], list(OPTIONS))
    assert ranges == []
    assert notes == ["feature 'mean_area' is not a stored column; no empirical range"]


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
    class CountingTemplate(TemplateBackend):
        def __init__(self):
            self.range_calls = 0

        def complete(self, system_prompt, user_prompt, temperature, timeout):
            self.range_calls += 1
            return super().complete(system_prompt, user_prompt, temperature, timeout)

    backend = CountingTemplate()
    ranges, notes = fetch_llm_ranges(["f", "g", "h"], ["A", "B"], backend)
    assert ranges == [] and notes == []
    assert backend.range_calls == 1  # the probe's DECLINE stops the fetch


def test_fetch_llm_ranges_unparseable_noted():
    backend = ScriptedBackend(["cannot say", "cannot say"])
    ranges, notes = fetch_llm_ranges(["f"], ["A", "B"], backend)
    assert ranges == []
    assert len(notes) == 2


def test_fetch_llm_ranges_racing_misses_share_one_reply():
    """Four cases in flight under one driver fetch the same ranges from a
    remote-kind backend, off the calling thread: the backend is asked once
    per prompt, and every case reads that reply."""

    class NumberedBackend(LlmBackendPort):
        name = "numbered"

        def __init__(self):
            self.numbers = itertools.count(1)
            self.threads = set()

        def complete(self, system_prompt, user_prompt, temperature, timeout):
            number = next(self.numbers)
            self.threads.add(threading.get_ident())
            time.sleep(0.02)  # every case asks before a reply is in
            return json.dumps({"low": 0.0, "high": float(number)})

    backend = NumberedBackend()
    fetch = partial(pipeline._answered, fetch_llm_ranges, ["f"], ["A", "B"])
    results = {}
    pipeline._drive(backend, BackendConfig(kind="remote"), 4,
                    [(f"case {i}", fetch) for i in range(4)], results.__setitem__)
    assert backend.threads and threading.get_ident() not in backend.threads
    assert next(backend.numbers) == 3  # one call per prompt: the probe and one more
    assert len(results) == 4
    assert all(result == results["case 0"] for result in results.values())
    assert sorted(r.high for r in results["case 0"][0]) == [1.0, 2.0]


def test_fetch_llm_ranges_later_decline_skips_only_that_pair():
    backend = ScriptedBackend(['{"low": 0, "high": 1}', "DECLINE"])
    ranges, notes = fetch_llm_ranges(["f", "g"], ["A"], backend)
    assert [(r.feature_key, r.low, r.high) for r in ranges] == [("f", 0.0, 1.0)]
    assert notes == ["backend declined range for 'g'/'A'"]


def _pair(user_prompt):
    feature, option = (line.split(": ", 1)[1] for line in user_prompt.split("\n"))
    return feature, option


# The two features the demo case observes that get no range from a file,
# so its range fetch asks six prompts, over three options.
F, G = "mean_area", "n_structures"
THREE_OPTIONS = ("A", "B", "C")


class SlowRangeBackend(LlmBackendPort):
    """Answers the agents at once with the template backend's replies, and
    each range prompt after ``delay`` seconds from a per-pair table,
    recording the pairs it saw and the most range calls it had in flight
    at once."""

    name = "slow"
    REPLIES = {
        (F, "A"): '{"low": 0, "high": 1}',
        (F, "B"): "DECLINE",
        (F, "C"): '{"low": 2, "high": 3}',
        (G, "A"): "cannot say",
        (G, "B"): '{"low": 4, "high": 5}',
        (G, "C"): '{"low": 7, "high": 6}',
    }

    def __init__(self, fail=(), delay=0.05):
        self.fail = set(fail)
        self.delay = delay
        self.seen: list[tuple[str, str]] = []
        self.in_flight = 0
        self.peak = 0
        self._template = TemplateBackend()
        self._lock = threading.Lock()

    def complete(self, system_prompt, user_prompt, temperature, timeout):
        if not system_prompt.startswith(f"Task: {TASK_RANGES}"):
            return self._template.complete(system_prompt, user_prompt, temperature, timeout)
        pair = _pair(user_prompt)
        with self._lock:
            self.seen.append(pair)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay)
            if pair in self.fail:
                raise BackendError(f"no reply for {pair}")
            return self.REPLIES[pair]
        finally:
            with self._lock:
                self.in_flight -= 1


def _run_demo_case(manifest, demo_bundle, backend):
    """``run_case``, as ``ask`` calls it, on the demo case under a
    three-option question, with a file range for every feature it observes
    but F and G; the report, and the seconds ``run_case`` took. A backend
    that waits is a remote one, so the run is remote-kind."""
    question = Question(demo_bundle.case_id, "Which option?", THREE_OPTIONS)
    config = RunConfig("unused", "unused", mode="sql_only", backend=BackendConfig(kind="remote"))
    offline = run_case(manifest, demo_bundle, question, config, TemplateBackend())
    observed = {f["feature_key"] for f in offline.report["hypothesis"]["findings"]}
    assert {F, G} <= observed
    file_ranges = [ReferenceRange(key, option, 0.0, 1.0, "empirical")
                   for key in sorted(observed - {F, G}) for option in THREE_OPTIONS]
    started = time.perf_counter()
    report = run_case(manifest, demo_bundle, question, config, backend, file_ranges).report
    return report, time.perf_counter() - started


def test_fetch_llm_ranges_fans_out_and_keeps_pair_order(manifest, demo_bundle):
    """Under ``run_case`` the probe is asked alone and the other five range
    prompts in one wave; the replies are read in (feature, option) order."""
    backend = SlowRangeBackend()
    report, elapsed = _run_demo_case(manifest, demo_bundle, backend)
    assert backend.peak > 1
    assert elapsed < 4 * 0.05  # the probe, then one wave; serial is 6 × 50 ms
    assert sorted(backend.seen) == sorted(SlowRangeBackend.REPLIES)
    assert {f["feature_key"]: sorted(f["fits"]) for f in report["hypothesis"]["findings"]
            if f["feature_key"] in (F, G)} == {F: ["A", "C"], G: ["B"]}
    assert report["data_quality_notes"][-3:] == [
        f"backend declined range for {F!r}/'B'",
        f"unusable range reply for {G!r}/'A'",
        f"range for {G!r}/'C' has low 7.0 > high 6.0; dropped",
    ]


def test_fetch_llm_ranges_memo_hits_start_no_thread(monkeypatch):
    """Called directly, the fetch asks its prompts in turn; through a reply
    book that holds every reply it reads the same ranges, asks nothing and
    starts no thread."""
    backend = SlowRangeBackend(delay=0.001)
    expected = fetch_llm_ranges([F, G], list(THREE_OPTIONS), backend)
    assert backend.peak == 1 and len(backend.seen) == 6

    def no_thread(self):
        raise AssertionError("a fully memoized fetch started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    book = ReplyBook("slow", {knowledge._range_prompt(*pair): reply
                              for pair, reply in SlowRangeBackend.REPLIES.items()})
    assert fetch_llm_ranges([F, G], list(THREE_OPTIONS), book) == expected


def test_fetch_llm_ranges_reports_the_first_fanned_out_error_in_pair_order(
        manifest, demo_bundle):
    """When two prompts of the wave fail, the whole wave is still asked, and
    the case notes the first failure in (feature, option) order."""
    backend = SlowRangeBackend(fail={(G, "B"), (F, "C")})
    report, _ = _run_demo_case(manifest, demo_bundle, backend)
    assert sorted(backend.seen) == sorted(SlowRangeBackend.REPLIES)  # the wave drained
    assert report["data_quality_notes"][-1] == (
        f"range generation unavailable: no reply for ({F!r}, 'C')")
    assert not any(f["fits"] for f in report["hypothesis"]["findings"]
                   if f["feature_key"] in (F, G))


def test_range_reply_beyond_float_range_is_unusable():
    class HugeReplyBackend(LlmBackendPort):
        def complete(self, system_prompt, user_prompt, temperature, timeout):
            return '{"low": 1' + "0" * 400 + ', "high": 2}'

    assert fetch_llm_ranges(["f"], ["A"], HugeReplyBackend()) == (
        [], ["unusable range reply for 'f'/'A'"],
    )


def test_range_reply_with_a_non_finite_bound_is_unusable():
    backend = ScriptedBackend(['{"low": 0.5, "high": 1e999}'])
    assert fetch_llm_ranges(["f"], ["A"], backend) == (
        [], ["unusable range reply for 'f'/'A'"],
    )


def test_fetch_llm_ranges_without_pairs_asks_nothing():
    backend = ScriptedBackend(['{"low": 0.3, "high": 0.6}'])
    assert fetch_llm_ranges([], ["A", "B"], backend) == ([], [])
    assert fetch_llm_ranges(["f"], [], backend) == ([], [])
    assert backend.calls == []


def test_merge_prefers_empirical():
    empirical = ReferenceRange("f", "A", 0.0, 1.0, "empirical")
    llm = ReferenceRange("f", "A", 5.0, 6.0, "llm_knowledge")
    index = merge_ranges([empirical, llm])
    assert index[("f", "A")] is empirical


def test_merge_later_range_wins_among_one_source():
    first_llm, later_llm = (ReferenceRange("f", "A", x, x, "llm_knowledge") for x in (1.0, 2.0))
    first_emp, later_emp = (ReferenceRange("g", "A", x, x, "empirical") for x in (1.0, 2.0))
    index = merge_ranges([first_emp, first_llm, later_emp, later_llm])
    assert index == {("f", "A"): later_llm, ("g", "A"): later_emp}


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


def test_hypothesis_refuses_confidences_missing_an_option():
    q = Question("c", "?", ("A", "B"))
    with pytest.raises(ValueError, match=r"confidences missing option\(s\): \['B'\]"):
        build_hypothesis(q, [], [("A", 1.0)], [])


def test_hypothesis_serialization_roundtrip():
    q = Question("case-7", "?", ("A", "B"))
    finding = FeatureFinding("t.col", 0.123456789, 2, {
        "A": fit(FitCategory.GOOD),
    }, "rationale", quality_note="no reference range for option(s): B")
    h = build_hypothesis(q, [finding], [("A", 2 / 3), ("B", 1 / 3)], ["note"])
    blob = canonical_json(hypothesis_to_json_dict(h))
    again = hypothesis_from_json_dict(json.loads(blob), q.options)
    assert again == h
    assert canonical_json(hypothesis_to_json_dict(again)) == blob


def test_hypothesis_round_trip_keeps_fits_in_option_order():
    """The JSON sorts fit keys; the reader keys them in question order
    again, so a tie still goes to the earliest option."""
    q = Question("c", "?", ("tubular", "papillary"))
    finding = FeatureFinding("t.col", 1.0, 0, {
        "tubular": fit(FitCategory.EXCELLENT), "papillary": fit(FitCategory.EXCELLENT),
    }, "rationale")
    h = build_hypothesis(q, [finding], [("tubular", 0.5), ("papillary", 0.5)], [])
    doc = json.loads(canonical_json(hypothesis_to_json_dict(h)))
    assert list(doc["findings"][0]["fits"]) == ["papillary", "tubular"]
    revived = hypothesis_from_json_dict(doc, q.options)
    assert [list(f.per_option_fits) for f in revived.findings] == [["tubular", "papillary"]]
    assert contributing_features(revived) == contributing_features(h)
    assert contributing_features(revived)[0]["best_option"] == "tubular"


def test_hypothesis_reader_refuses_a_fit_for_an_unknown_option():
    q = Question("c", "?", ("A", "B"))
    h = build_hypothesis(q, [FeatureFinding("t.col", 1.0, 0, {"A": fit(FitCategory.GOOD)}, "r")],
                         [("A", 0.5), ("B", 0.5)], [])
    doc = json.loads(canonical_json(hypothesis_to_json_dict(h)))
    with pytest.raises(ValueError, match=r"not in the question: \['A'\]"):
        hypothesis_from_json_dict(doc, ("B", "C"))


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
        revived = hypothesis_from_json_dict(doc, q.options)
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


def test_extract_observations_keys_plain_columns_and_skips_text(manifest, demo_bundle):
    query = validate_pipeline("SELECT cell_type, area FROM cells ORDER BY area LIMIT 1",
                              manifest)
    result = execute(query, demo_bundle)
    assert result.column_names == ("cell_type", "area")
    assert isinstance(result.rows[0][0], str)
    assert extract_observations([(3, query, result)]) == [
        Observation("cells.area", result.rows[0][1], 3)]


def test_score_observations_null_and_missing(manifest):
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
