"""Reference ranges, per-feature fit scoring, and calibrated confidence.

Ranges come from two sources: empirical quantile intervals computed over a
labeled training split (authoritative when present), and backend-generated
intervals for features queried dynamically. An observed value is scored
against each option's range on a five-band categorical scale, band weights
are averaged per option, and the normalized result is the SQL branch's
calibrated confidence, packaged with its findings into an auditable
hypothesis object.
"""

from __future__ import annotations

import enum
import json
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from evidencesql.agents import Question
from evidencesql.backends import (
    BackendConfig,
    DECLINE_RESPONSE,
    LlmBackendPort,
    TASK_RANGES,
)
from evidencesql.errors import MissingLabel, NoEvidence, NonFiniteObservation
from evidencesql.feature_store import CaseBundle, Level, SchemaManifest
from evidencesql.serialize import quantize_float
from evidencesql.sql.ast import ColumnRef, Star
from evidencesql.sql.executor import ResultTable
from evidencesql.sql.guard import ValidatedQuery
from evidencesql.values import Value

HYPOTHESIS_SCHEMA_VERSION = "1"
MIN_RANGE_SUPPORT = 3
DEFAULT_QUANTILE = 0.05
_ZERO_WIDTH_EPSILON = 1e-9


class FitCategory(enum.Enum):
    EXCELLENT = "excellent"
    GOOD = "good"
    FAIR = "fair"
    POOR = "poor"
    NO_FIT = "no_fit"


FIT_WEIGHTS: dict[FitCategory, float] = {
    FitCategory.EXCELLENT: 1.0,
    FitCategory.GOOD: 0.75,
    FitCategory.FAIR: 0.5,
    FitCategory.POOR: 0.25,
    FitCategory.NO_FIT: 0.0,
}

# Normalized distance thresholds for the bands below EXCELLENT.
_BAND_EDGES = ((0.25, FitCategory.GOOD), (0.75, FitCategory.FAIR), (1.5, FitCategory.POOR))


@dataclass(frozen=True)
class ReferenceRange:
    feature_key: str  # 'table.column' or a projection alias
    option_label: str
    low: float
    high: float
    source: str  # empirical | llm_knowledge
    unit: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError(f"range for {self.feature_key!r} has a non-finite bound")
        if self.low > self.high:
            raise ValueError(f"range for {self.feature_key!r} has low > high")


@dataclass(frozen=True)
class FitScore:
    category: FitCategory
    weight: float


@dataclass(frozen=True)
class FeatureFinding:
    feature_key: str
    observed: Value
    query_id: int
    per_option_fits: dict[str, FitScore]
    rationale: str
    quality_note: str | None = None


@dataclass(frozen=True)
class Hypothesis:
    schema_version: str
    case_id: str
    ranked_options: tuple[tuple[str, float], ...]
    findings: tuple[FeatureFinding, ...]
    data_quality_notes: tuple[str, ...]

    @property
    def confidences(self) -> dict[str, float]:
        return dict(self.ranked_options)


# -- empirical ranges ----------------------------------------------------------


def interpolated_quantile(samples: list[float], q: float) -> float:
    """Linear-interpolation quantile over sorted samples (the definition used
    by spreadsheet software and numpy's default)."""
    if not samples:
        raise ValueError("quantile of empty sample set")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + fraction * (ordered[upper] - ordered[lower])


def split_feature_key(feature_key: str) -> tuple[str, str] | None:
    """'table.column' form of a key, or None for derived-metric aliases."""
    if "." in feature_key:
        table, column = feature_key.split(".", 1)
        return table, column
    return None


def case_feature_value(bundle: CaseBundle, table: str, column: str) -> float | None:
    """Per-case scalar for a stored column: the value itself for one-row
    global tables, the case-level mean of non-null values otherwise."""
    feature_table = bundle.tables.get(table)
    if feature_table is None or column not in feature_table.columns:
        return None
    values = [
        float(v) for v in feature_table.columns[column]
        if v is not None and not isinstance(v, str)
    ]
    if not values:
        return None
    if feature_table.schema.level is Level.GLOBAL:
        return values[0]
    return math.fsum(values) / len(values)


def compute_empirical_ranges(
    training: list[CaseBundle],
    feature_keys: list[str],
    options: list[str],
    q: float = DEFAULT_QUANTILE,
) -> tuple[list[ReferenceRange], list[str]]:
    """Central quantile interval per (feature, option) over the labeled split.

    Options backed by fewer than ``MIN_RANGE_SUPPORT`` cases produce no range
    and a data-quality note instead.

    Raises:
        MissingLabel: a training bundle has no ground truth.
        ValueError: q outside (0, 0.5).
    """
    if not 0 < q < 0.5:
        raise ValueError(f"quantile q must lie in (0, 0.5), got {q}")
    for bundle in training:
        if bundle.ground_truth is None:
            raise MissingLabel(bundle.case_id)

    by_option: dict[str, list[CaseBundle]] = {o: [] for o in options}
    for bundle in training:
        if bundle.ground_truth in by_option:
            by_option[bundle.ground_truth].append(bundle)

    ranges: list[ReferenceRange] = []
    notes: list[str] = []
    for feature_key in feature_keys:
        parts = split_feature_key(feature_key)
        if parts is None:
            notes.append(f"feature {feature_key!r} is not a stored column; no empirical range")
            continue
        table, column = parts
        for option in options:
            samples = [
                v for v in (case_feature_value(b, table, column) for b in by_option[option])
                if v is not None
            ]
            if len(samples) < MIN_RANGE_SUPPORT:
                notes.append(
                    f"option {option!r} has {len(samples)} usable case(s) for "
                    f"{feature_key!r}; need {MIN_RANGE_SUPPORT} for an empirical range"
                )
                continue
            ranges.append(ReferenceRange(
                feature_key=feature_key,
                option_label=option,
                low=interpolated_quantile(samples, q),
                high=interpolated_quantile(samples, 1.0 - q),
                source="empirical",
            ))
    return ranges, notes


# -- backend-sourced ranges -------------------------------------------------------


def _range_prompt(feature_key: str, option: str) -> tuple[str, str]:
    system = "\n\n".join([
        f"Task: {TASK_RANGES}",
        "You provide typical numeric intervals for quantitative pathology "
        "features under a given diagnosis. Answer with one JSON object "
        'shaped as {"low": <number>, "high": <number>} and nothing else. '
        "Reply DECLINE if you cannot give a grounded interval.",
    ])
    user = f"Feature: {feature_key}\nDiagnosis option: {option}"
    return system, user


_JSON_OBJECT_RE = re.compile(r"\{.*?\}", re.DOTALL)
# Most threads one fetch starts for its memo misses. Eleven features by two
# options leave 21 prompts after the probe, which one wave covers; the cap
# keeps a wide question from starting one thread per pair.
_RANGE_FANOUT_CAP = 32


def fetch_llm_ranges(
    feature_keys: list[str],
    options: list[str],
    backend: LlmBackendPort,
    config: BackendConfig | None = None,
    replies: dict[tuple[str, str], str] | None = None,
) -> tuple[list[ReferenceRange], list[str]]:
    """Ask the backend for one [low, high] interval per (feature, option).

    The first (feature, option) prompt is a probe, resolved on the calling
    thread: a DECLINE there means the backend does not do range generation
    (the template backend never does), and the stage returns empty-handed
    without noise and without asking anything else. The remaining prompts
    the memo cannot answer are then sent together, one thread each up to
    ``_RANGE_FANOUT_CAP``, and the replies are read back in (feature,
    option) order, so ranges and notes keep that order. A later DECLINE
    skips only its own pair, with a note; unparseable or inverted intervals
    are dropped with a note.

    ``replies``, when given, memoizes raw replies by prompt pair across
    calls (``batch_eval`` keeps one per run): a hit skips the backend and is
    read exactly like a fresh reply, and a fully memoized fetch starts no
    thread. Only replies are stored, so a ``BackendError`` is never cached;
    when several fanned-out prompts fail, the first in (feature, option)
    order is raised once every prompt has finished. Of two racing misses the
    first stored reply wins, so every caller sharing the memo reads the same
    one.
    """
    config = config or BackendConfig()
    pairs = [(feature_key, option) for feature_key in feature_keys for option in options]
    if not pairs:
        return [], []
    memo = {} if replies is None else replies

    def ask(prompt: tuple[str, str]) -> str:
        system, user = prompt
        return backend.complete(system, user, config.temperature, config.timeout_seconds)

    probe = _range_prompt(*pairs[0])
    if probe not in memo:
        memo.setdefault(probe, ask(probe))
    if memo[probe].strip() == DECLINE_RESPONSE:
        return [], []
    prompts = [_range_prompt(*pair) for pair in pairs]
    misses = list(dict.fromkeys(p for p in prompts[1:] if p not in memo))
    if misses:
        with ThreadPoolExecutor(max_workers=min(len(misses), _RANGE_FANOUT_CAP)) as pool:
            futures = [pool.submit(ask, prompt) for prompt in misses]
        error = None
        for prompt, future in zip(misses, futures):
            if future.exception() is None:
                memo.setdefault(prompt, future.result())
            elif error is None:
                error = future.exception()
        if error is not None:
            raise error

    ranges: list[ReferenceRange] = []
    notes: list[str] = []
    for (feature_key, option), prompt in zip(pairs, prompts):
        reply = memo[prompt]
        if reply.strip() == DECLINE_RESPONSE:
            notes.append(f"backend declined range for {feature_key!r}/{option!r}")
            continue
        parsed = _parse_range_reply(reply)
        if parsed is None:
            notes.append(f"unusable range reply for {feature_key!r}/{option!r}")
            continue
        low, high = parsed
        if low > high:
            notes.append(
                f"range for {feature_key!r}/{option!r} has low {low} > high {high}; dropped"
            )
            continue
        ranges.append(ReferenceRange(
            feature_key=feature_key,
            option_label=option,
            low=low,
            high=high,
            source="llm_knowledge",
        ))
    return ranges, notes


def _parse_range_reply(reply: str) -> tuple[float, float] | None:
    match = _JSON_OBJECT_RE.search(reply)
    if match is None:
        return None
    try:
        doc = json.loads(match.group(0))
        low = float(doc["low"])
        high = float(doc["high"])
    except (ValueError, KeyError, TypeError):
        return None
    if not (math.isfinite(low) and math.isfinite(high)):
        return None
    return low, high


def merge_ranges(
    primary: list[ReferenceRange], secondary: list[ReferenceRange],
) -> dict[tuple[str, str], ReferenceRange]:
    """Index ranges by (feature, option); entries in ``primary`` win.

    Empirical ranges are passed as primary: the training split is treated as
    ground truth wherever it covers a feature.
    """
    index: dict[tuple[str, str], ReferenceRange] = {}
    for r in secondary:
        index[(r.feature_key, r.option_label)] = r
    for r in primary:
        index[(r.feature_key, r.option_label)] = r
    return index


# -- fit scoring -----------------------------------------------------------------


def score_fit(observed: float, reference: ReferenceRange) -> FitScore:
    """Band the normalized distance of ``observed`` from the range.

    Inside the interval scores EXCELLENT; otherwise the distance to the
    nearer bound, divided by the range width, selects GOOD (<= 0.25),
    FAIR (<= 0.75), POOR (<= 1.5) or NO_FIT.

    Raises:
        NonFiniteObservation: observed is null or non-finite.
    """
    if observed is None or isinstance(observed, str) or not math.isfinite(float(observed)):
        raise NonFiniteObservation(f"cannot score observation {observed!r}")
    x = float(observed)
    if reference.low <= x <= reference.high:
        category = FitCategory.EXCELLENT
    else:
        width = reference.high - reference.low
        if width == 0:
            width = _ZERO_WIDTH_EPSILON
        distance = reference.low - x if x < reference.low else x - reference.high
        normalized = distance / width
        category = FitCategory.NO_FIT
        for edge, band in _BAND_EDGES:
            if normalized <= edge:
                category = band
                break
    return FitScore(category, FIT_WEIGHTS[category])


# -- observations and findings ------------------------------------------------------


@dataclass(frozen=True)
class Observation:
    feature_key: str
    observed: Value
    query_id: int


def extract_observations(
    executed: list[tuple[int, ValidatedQuery, ResultTable]],
) -> list[Observation]:
    """Scalar observations from single-row results.

    Keys: ``table.column`` for plain column projections (and ``SELECT *``
    over one-row tables), the alias for aliased projections, the rendered
    expression otherwise. Multi-row results stay in the trace as evidence
    but yield no scalar observation; text values carry no range semantics
    and are skipped.
    """
    observations: list[Observation] = []
    for query_id, query, result in executed:
        if len(result.rows) != 1:
            continue
        row = result.rows[0]
        star = any(isinstance(p.expr, Star) for p in query.ast.projections)
        if star:
            keys = [f"{query.ast.from_table}.{name}" for name in result.column_names]
        else:
            keys = []
            for projection, name in zip(query.ast.projections, result.column_names):
                if projection.alias is not None:
                    keys.append(projection.alias)
                elif isinstance(projection.expr, ColumnRef):
                    keys.append(f"{query.ast.from_table}.{projection.expr.name}")
                else:
                    keys.append(name)
        for key, value in zip(keys, row):
            if isinstance(value, str):
                continue
            observations.append(Observation(key, value, query_id))
    return observations


def score_observations(
    observations: list[Observation],
    ranges_index: dict[tuple[str, str], ReferenceRange],
    options: tuple[str, ...] | list[str],
) -> tuple[list[FeatureFinding], list[str]]:
    """Build one finding per observation, scoring it against every option's
    range where one exists; gaps become quality notes, never guesses."""
    findings: list[FeatureFinding] = []
    notes: list[str] = []
    for obs in observations:
        fits: dict[str, FitScore] = {}
        quality_note = None
        if obs.observed is None:
            quality_note = "observed value is null"
        else:
            missing = []
            for option in options:
                reference = ranges_index.get((obs.feature_key, option))
                if reference is None:
                    missing.append(option)
                    continue
                fits[option] = score_fit(float(obs.observed), reference)
            if not fits:
                quality_note = "no reference range for this feature"
            elif missing:
                quality_note = "no reference range for option(s): " + ", ".join(missing)
        if quality_note is not None:
            notes.append(f"{obs.feature_key}: {quality_note}")
        rationale = _rationale(obs, fits)
        findings.append(FeatureFinding(
            feature_key=obs.feature_key,
            observed=obs.observed,
            query_id=obs.query_id,
            per_option_fits=fits,
            rationale=rationale,
            quality_note=quality_note,
        ))
    return findings, notes


def _rationale(obs: Observation, fits: dict[str, FitScore]) -> str:
    if not fits:
        return f"{obs.feature_key} = {obs.observed!r}; no scorable reference range"
    best = max(fits.items(), key=lambda kv: kv[1].weight)
    return (
        f"{obs.feature_key} = {obs.observed!r} fits {best[0]!r} best "
        f"({best[1].category.value})"
    )


# -- calibration -----------------------------------------------------------------------


def calibrate_confidence(
    findings: list[FeatureFinding], options: tuple[str, ...] | list[str],
) -> tuple[list[tuple[str, float]], list[str]]:
    """Average each option's fit weights across findings and normalize.

    Options never scored get raw weight 0. An all-zero profile collapses to
    the uniform distribution with a note.

    Raises:
        NoEvidence: no finding carries a fit for any option.
    """
    scored = [f for f in findings if f.per_option_fits]
    if not scored:
        raise NoEvidence("no finding carries a scored option")
    notes: list[str] = []
    raw: dict[str, float] = {}
    for option in options:
        weights = [
            f.per_option_fits[option].weight for f in scored if option in f.per_option_fits
        ]
        raw[option] = sum(weights) / len(weights) if weights else 0.0
    total = sum(raw.values())
    if total == 0.0:
        notes.append("all scored fits were no_fit; confidence set to uniform")
        return uniform_confidences(options), notes
    return [(o, raw[o] / total) for o in options], notes


def uniform_confidences(options: tuple[str, ...] | list[str]) -> list[tuple[str, float]]:
    share = 1.0 / len(options)
    return [(o, share) for o in options]


def _quantize_simplex(confidences: list[float]) -> list[float]:
    """Fix each confidence at 6 decimals while keeping the exact unit sum,
    distributing rounding residue by largest remainder (ties to the earlier,
    higher-ranked option)."""
    scaled = [c * 1_000_000 for c in confidences]
    units = [math.floor(s) for s in scaled]
    residual = 1_000_000 - sum(units)
    order = sorted(range(len(units)), key=lambda i: (-(scaled[i] - units[i]), i))
    for i in order[:max(0, residual)]:
        units[i] += 1
    return [u / 1_000_000 for u in units]


def build_hypothesis(
    question: Question,
    findings: list[FeatureFinding],
    confidences: list[tuple[str, float]],
    notes: list[str],
) -> Hypothesis:
    """Assemble the auditable hypothesis: options ranked by descending
    confidence with canonical-order tie-break, floats fixed at the
    serialization precision so the object equals its JSON round-trip."""
    by_label = dict(confidences)
    missing = [o for o in question.options if o not in by_label]
    if missing:
        raise ValueError(f"confidences missing option(s): {missing}")
    canonical_index = {o: i for i, o in enumerate(question.options)}
    ordered = sorted(
        question.options, key=lambda o: (-by_label[o], canonical_index[o]),
    )
    quantized = _quantize_simplex([by_label[o] for o in ordered])
    quantized_findings = tuple(
        replace(f, observed=(
            quantize_float(f.observed) if isinstance(f.observed, float) else f.observed
        ))
        for f in findings
    )
    return Hypothesis(
        schema_version=HYPOTHESIS_SCHEMA_VERSION,
        case_id=question.case_id,
        ranked_options=tuple(zip(ordered, quantized)),
        findings=quantized_findings,
        data_quality_notes=tuple(notes),
    )


# -- serialization ---------------------------------------------------------------------


def hypothesis_to_json_dict(hypothesis: Hypothesis) -> dict:
    findings = []
    for f in hypothesis.findings:
        doc: dict = {
            "feature_key": f.feature_key,
            "observed": f.observed,
            "query_id": f.query_id,
            "fits": {label: fit.category.value for label, fit in f.per_option_fits.items()},
            "rationale": f.rationale,
        }
        if f.quality_note is not None:
            doc["quality_note"] = f.quality_note
        findings.append(doc)
    return {
        "schema_version": hypothesis.schema_version,
        "case_id": hypothesis.case_id,
        "ranked_options": [
            {"label": label, "confidence": confidence}
            for label, confidence in hypothesis.ranked_options
        ],
        "findings": findings,
        "data_quality_notes": list(hypothesis.data_quality_notes),
    }


def hypothesis_from_json_dict(doc: dict) -> Hypothesis:
    findings = tuple(
        FeatureFinding(
            feature_key=f["feature_key"],
            observed=f["observed"],
            query_id=f["query_id"],
            per_option_fits={
                label: FitScore(FitCategory(cat), FIT_WEIGHTS[FitCategory(cat)])
                for label, cat in f["fits"].items()
            },
            rationale=f["rationale"],
            quality_note=f.get("quality_note"),
        )
        for f in doc["findings"]
    )
    return Hypothesis(
        schema_version=doc["schema_version"],
        case_id=doc["case_id"],
        ranked_options=tuple(
            (entry["label"], entry["confidence"]) for entry in doc["ranked_options"]
        ),
        findings=findings,
        data_quality_notes=tuple(doc["data_quality_notes"]),
    )


def ranges_to_json_list(ranges: list[ReferenceRange]) -> list[dict]:
    out = []
    for r in ranges:
        doc: dict = {
            "feature_key": r.feature_key,
            "option_label": r.option_label,
            "low": r.low,
            "high": r.high,
            "source": r.source,
        }
        if r.unit is not None:
            doc["unit"] = r.unit
        out.append(doc)
    return out


def ranges_from_json_list(docs: list[dict]) -> list[ReferenceRange]:
    return [
        ReferenceRange(
            feature_key=d["feature_key"],
            option_label=d["option_label"],
            low=float(d["low"]),
            high=float(d["high"]),
            source=d.get("source", "empirical"),
            unit=d.get("unit"),
        )
        for d in docs
    ]
