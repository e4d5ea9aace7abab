"""Seeded case generator for the benchmark, with the answers its checks need.

Everything derives from one ``random.Random(seed)`` stream, so a seed names a
fixed set of inputs. Reals are written with ``repr`` of values rounded to two
decimals, which round-trips exactly, so the means kept here are the exact
``math.fsum`` means of the values the engine ingests.

The benchmark generates in a child process (``generate_in_child``, which runs
this file), so the generator's NumPy and its working set never enter the
measured process.

Labels are decided by the global features: every case's discriminating
global values sit inside its own class's reference range and far outside the
other class's, so the SQL branch always ranks the true label first. A
classifier error (``cnn_error``) is a sidecar leaning 0.45/0.55 the wrong
way, which fusion at alpha 0.7 must override; every such case is flagged for
review because the two branches disagree.
"""

from __future__ import annotations

import json
import math
import random
import sqlite3
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

TUBULAR = "tubular_adenocarcinoma"
PAPILLARY = "papillary_adenocarcinoma"
OPTIONS = (TUBULAR, PAPILLARY)
QUESTION_TEXT = "Which diagnosis best fits the measured features?"

CELL_TYPES = ("neoplastic", "inflammatory", "connective", "dead", "epithelial")
OUT_OF_DOMAIN_TYPE = "mitotic"
REAL_COLUMNS = (
    "area", "perimeter", "eccentricity", "circularity",
    "mean_intensity", "glcm_contrast", "centroid_x", "centroid_y",
)
CELLS_HEADER = ("cell_id", "cell_type") + REAL_COLUMNS
NULL_SHARE = 0.01

# (mean, sd) per real column and cell type; clamped at zero.
_CELL_PARAMS = {
    "neoplastic": {"area": (420.0, 60.0), "perimeter": (78.0, 8.0),
                   "eccentricity": (0.72, 0.08), "circularity": (0.70, 0.08),
                   "mean_intensity": (96.0, 12.0), "glcm_contrast": (3.1, 0.6)},
    "inflammatory": {"area": (160.0, 25.0), "perimeter": (46.0, 5.0),
                     "eccentricity": (0.40, 0.07), "circularity": (0.88, 0.05),
                     "mean_intensity": (72.0, 10.0), "glcm_contrast": (1.8, 0.4)},
    "connective": {"area": (260.0, 50.0), "perimeter": (70.0, 9.0),
                   "eccentricity": (0.90, 0.04), "circularity": (0.52, 0.08),
                   "mean_intensity": (110.0, 14.0), "glcm_contrast": (2.2, 0.5)},
    "dead": {"area": (120.0, 30.0), "perimeter": (40.0, 6.0),
             "eccentricity": (0.55, 0.10), "circularity": (0.80, 0.07),
             "mean_intensity": (60.0, 15.0), "glcm_contrast": (4.0, 0.8)},
    "epithelial": {"area": (300.0, 40.0), "perimeter": (64.0, 6.0),
                   "eccentricity": (0.60, 0.08), "circularity": (0.76, 0.06),
                   "mean_intensity": (104.0, 11.0), "glcm_contrast": (2.6, 0.5)},
}
_TYPE_WEIGHTS = {
    TUBULAR: (0.55, 0.15, 0.12, 0.05, 0.13),
    PAPILLARY: (0.30, 0.20, 0.15, 0.05, 0.30),
}
CANVAS_PX = 4096.0

# Per-class centre of each discriminating global feature; the ranges file
# puts each class's interval at centre +/- 0.05 and the generator jitters
# observed values by at most 0.02, so the other class scores no_fit.
_DISCRIMINATING = {
    TUBULAR: {"neoplastic_ratio": 0.65, "gland_area_ratio": 0.40,
              "nuclear_pleomorphism_index": 0.30},
    PAPILLARY: {"neoplastic_ratio": 0.30, "gland_area_ratio": 0.72,
                "nuclear_pleomorphism_index": 0.66},
}
_RANGE_HALF_WIDTH = 0.05
_GLOBAL_JITTER = 0.02

# Intervals wide enough for every generated case, identical for both
# options, so these features never move the decision.
NEUTRAL_BOUNDS = {
    "global_features.total_cells": (0.0, 1.0e7),
    "global_features.mean_nuclear_area": (0.0, 1.0e4),
    "global_features.nn_mean_distance": (0.0, 1.0e4),
}


def neutral_range_reply(feature_key: str) -> tuple[float, float]:
    """Interval a latency backend answers for any backend-sourced range:
    wide and option-independent, so the known label stays correct."""
    return NEUTRAL_BOUNDS.get(feature_key, (-1.0e7, 1.0e7))


def ranges_doc() -> list[dict]:
    """Ranges file covering every ``global_features`` column for both options."""
    doc = []
    for label in OPTIONS:
        for column, centre in _DISCRIMINATING[label].items():
            doc.append({
                "feature_key": f"global_features.{column}", "option_label": label,
                "low": round(centre - _RANGE_HALF_WIDTH, 6),
                "high": round(centre + _RANGE_HALF_WIDTH, 6), "source": "empirical",
            })
        for key, (low, high) in NEUTRAL_BOUNDS.items():
            doc.append({"feature_key": key, "option_label": label,
                        "low": low, "high": high, "source": "empirical"})
    return doc


@dataclass
class CaseAnswers:
    """What the checks compare the engine's outputs against."""

    case_id: str
    n_cells: int
    label: str
    cnn_error: bool
    domain_violation: bool
    type_counts: dict[str, int] = field(default_factory=dict)
    # (cell_type, column) -> fsum mean of the non-null values, None if all null
    type_means: dict[tuple[str, str], float | None] = field(default_factory=dict)


@dataclass
class GeneratedCase:
    answers: CaseAnswers
    cell_types: list[str]
    real_columns: list[list[float | None]]  # one list per REAL_COLUMNS entry

    @property
    def cell_rows(self) -> list[tuple]:
        """Typed rows in file order."""
        ids = range(1, len(self.cell_types) + 1)
        return list(zip(ids, self.cell_types, *self.real_columns))


def _mean(values: list[float]) -> float | None:
    return math.fsum(values) / len(values) if values else None


def generate_case(rng: random.Random, case_id: str, n_cells: int, label: str,
                  cnn_error: bool = False, domain_violation: bool = False) -> GeneratedCase:
    """Draw one case. ``n_cells`` must be at least len(CELL_TYPES) so every
    type appears: the first five cells take one type each."""
    import numpy as np  # only the generator's own process loads NumPy

    draws = np.random.default_rng(rng.getrandbits(64))
    type_index = np.concatenate([
        np.arange(len(CELL_TYPES)),
        draws.choice(len(CELL_TYPES), size=n_cells - len(CELL_TYPES), p=_TYPE_WEIGHTS[label]),
    ])
    if domain_violation:
        type_index[rng.randrange(len(CELL_TYPES), n_cells)] = len(CELL_TYPES)
    names = CELL_TYPES + (OUT_OF_DOMAIN_TYPE,)
    types = [names[i] for i in type_index.tolist()]

    # An out-of-domain cell draws dead-cell morphology.
    params = np.array([[_CELL_PARAMS[t][c] for c in REAL_COLUMNS[:6]]
                       for t in CELL_TYPES + ("dead",)])
    drawn = draws.normal(params[type_index, :, 0], params[type_index, :, 1])
    position = draws.random((n_cells, 2)) * CANVAS_PX
    matrix = np.round(np.concatenate([np.maximum(0.0, drawn), position], axis=1), 2)
    nulls = draws.random(matrix.shape) < NULL_SHARE

    answers = CaseAnswers(case_id, n_cells, label, cnn_error, domain_violation)
    codes, counts = np.unique(type_index, return_counts=True)
    answers.type_counts = dict(sorted((names[c], n) for c, n in zip(codes.tolist(), counts.tolist())))
    for j, column in enumerate(REAL_COLUMNS):
        present = ~nulls[:, j]
        for code in codes.tolist():
            answers.type_means[(names[code], column)] = _mean(
                matrix[present & (type_index == code), j].tolist())

    columns = matrix.T.tolist()
    for row, col in zip(*np.nonzero(nulls)):
        columns[col][row] = None
    return GeneratedCase(answers, types, columns)


def _text(values: list) -> list[str]:
    return ["" if v is None else repr(v) for v in values]


def write_case(root: Path, case: GeneratedCase, rng: random.Random) -> Path:
    """Lay the case out as ``<root>/<case_id>/{cells,structures,global_features}.csv``
    plus ``sidecar.json``."""
    a = case.answers
    case_dir = root / a.case_id
    case_dir.mkdir(parents=True, exist_ok=True)
    ids = map(str, range(1, a.n_cells + 1))
    lines = [",".join(CELLS_HEADER)]
    lines += map(",".join, zip(ids, case.cell_types, *map(_text, case.real_columns)))
    (case_dir / "cells.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    structures = ["structure_id,structure_type,cell_count,area,lumen_ratio"]
    for s in range(max(2, a.n_cells // 50)):
        kind = "gland_like" if s % 3 else "cluster"
        structures.append(
            f"{s + 1},{kind},{rng.randrange(5, 80)},"
            f"{round(rng.uniform(800.0, 6000.0), 1)!r},{round(rng.uniform(0.0, 0.6), 3)!r}"
        )
    (case_dir / "structures.csv").write_text("\n".join(structures) + "\n", encoding="utf-8")

    centres = _DISCRIMINATING[a.label]

    def jittered(column: str) -> float:
        return round(centres[column] + rng.uniform(-_GLOBAL_JITTER, _GLOBAL_JITTER), 6)

    (case_dir / "global_features.csv").write_text(
        "total_cells,neoplastic_ratio,mean_nuclear_area,"
        "nuclear_pleomorphism_index,gland_area_ratio,nn_mean_distance\n"
        f"{a.n_cells},{jittered('neoplastic_ratio')!r},"
        f"{round(rng.uniform(250.0, 450.0), 1)!r},{jittered('nuclear_pleomorphism_index')!r},"
        f"{jittered('gland_area_ratio')!r},{round(rng.uniform(8.0, 30.0), 1)!r}\n",
        encoding="utf-8",
    )
    other = PAPILLARY if a.label == TUBULAR else TUBULAR
    cnn = {a.label: 0.45, other: 0.55} if a.cnn_error else {a.label: 0.85, other: 0.15}
    (case_dir / "sidecar.json").write_text(
        json.dumps({"cnn_probs": cnn, "ground_truth": a.label}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return case_dir


def write_run_inputs(root: Path) -> tuple[Path, Path]:
    """The shared questions file and ranges file; returns their paths."""
    questions = root / "questions.json"
    doc = [{"case_id": "*", "prompt_text": QUESTION_TEXT, "options": list(OPTIONS)}]
    questions.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    ranges = root / "ranges.json"
    ranges.write_text(json.dumps(ranges_doc(), indent=2) + "\n", encoding="utf-8")
    return questions, ranges


def log_spaced_sizes(low: int, high: int, count: int) -> list[int]:
    """``count`` sizes from ``low`` to ``high`` inclusive, evenly spaced in log."""
    ratio = (high / low) ** (1.0 / (count - 1))
    return [round(low * ratio ** k) for k in range(count)]


def write_reference_db(path: Path, cell_rows: list[tuple]) -> None:
    """SQLite file holding the generated ``cells`` rows in file order."""
    columns = ", ".join(
        f"{name} {'INTEGER' if name == 'cell_id' else 'TEXT' if name == 'cell_type' else 'REAL'}"
        for name in CELLS_HEADER
    )
    db = sqlite3.connect(path)
    try:
        db.execute(f"CREATE TABLE cells ({columns})")
        db.executemany(f"INSERT INTO cells VALUES ({', '.join('?' * len(CELLS_HEADER))})", cell_rows)
        db.commit()
    finally:
        db.close()


def build_dataset(root: Path, rng: random.Random, sizes: list[int],
                  cnn_error_share: float = 0.0, violation_share: float = 0.0,
                  reference: Path | None = None) -> list[CaseAnswers]:
    """Write one case per entry of ``sizes`` under ``root``; labels alternate,
    and the seeded shares of classifier errors and domain violations are
    rounded to whole cases (at least one each when the share is positive).
    With ``reference``, the cells of the (single) case also go into a SQLite
    file there."""
    n = len(sizes)
    picks = rng.sample(range(n), n)
    n_violations = max(1, round(violation_share * n)) if violation_share else 0
    n_errors = max(1, round(cnn_error_share * n)) if cnn_error_share else 0
    violating = set(picks[:n_violations])
    erring = set(picks[n_violations:n_violations + n_errors])
    answers = []
    for i, size in enumerate(sizes):
        label = OPTIONS[i % 2]
        case = generate_case(rng, f"case_{i:03d}", size, label,
                             cnn_error=i in erring, domain_violation=i in violating)
        write_case(root, case, rng)
        if reference is not None:
            write_reference_db(reference, case.cell_rows)
        answers.append(case.answers)
    return answers


def _answers_json(a: CaseAnswers) -> dict:
    doc = asdict(a)
    doc["type_means"] = [[t, c, mean] for (t, c), mean in a.type_means.items()]
    return doc


def _answers_from_json(doc: dict) -> CaseAnswers:
    doc["type_means"] = {(t, c): mean for t, c, mean in doc["type_means"]}
    return CaseAnswers(**doc)


def generate_in_child(root: Path, seed: int, sizes: list[int], shuffle: bool = False,
                      cnn_error_share: float = 0.0, violation_share: float = 0.0,
                      reference: Path | None = None) -> list[CaseAnswers]:
    """``build_dataset`` from ``random.Random(seed)`` in a child process,
    after shuffling ``sizes`` with the same stream when ``shuffle`` is set.
    The child has ended when this returns the cases' answers."""
    spec = {"root": str(root), "seed": seed, "sizes": list(sizes), "shuffle": shuffle,
            "cnn_error_share": cnn_error_share, "violation_share": violation_share,
            "reference": None if reference is None else str(reference)}
    subprocess.run([sys.executable, __file__, json.dumps(spec)],
                   stdout=subprocess.DEVNULL, check=True, timeout=150)
    doc = json.loads((root / "answers.json").read_text(encoding="utf-8"))
    return [_answers_from_json(a) for a in doc]


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    root, rng, sizes = Path(spec["root"]), random.Random(spec["seed"]), spec["sizes"]
    if spec["shuffle"]:
        rng.shuffle(sizes)
    reference = None if spec["reference"] is None else Path(spec["reference"])
    answers = build_dataset(root, rng, sizes, spec["cnn_error_share"],
                            spec["violation_share"], reference)
    (root / "answers.json").write_text(
        json.dumps([_answers_json(a) for a in answers]) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
