import csv
import io
import json
import random
from pathlib import Path

import pytest

from evidencesql.errors import (
    CardinalityError,
    CaseLoadError,
    DomainViolation,
    ManifestError,
    ManifestParseError,
    SidecarError,
    TypeMismatch,
)
from evidencesql.feature_store import (
    Level,
    canonical_manifest,
    ingest_case,
    ingest_case_dir,
    load_manifest,
    load_training_split,
    manifest_from_dict,
    manifest_to_dict,
)
from evidencesql.values import Dtype, render_value

from datasets import build_training_split


def test_canonical_manifest_shape(manifest):
    assert [t.name for t in manifest.tables] == ["cells", "structures", "global_features"]
    assert {t.level for t in manifest.tables} == {
        Level.LOCAL_CELLULAR, Level.LOCAL_ARCHITECTURE, Level.GLOBAL,
    }
    cells = manifest.table("cells")
    assert cells.column("cell_type").categorical_domain == (
        "neoplastic", "inflammatory", "connective", "dead", "epithelial",
    )
    assert cells.column("cell_id").is_key


def test_manifest_file_roundtrip(manifest, manifest_path, tmp_path):
    assert load_manifest(manifest_path) == manifest
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(manifest_to_dict(manifest)), encoding="utf-8")
    assert load_manifest(copy) == manifest


def test_manifest_duplicate_table_rejected(manifest):
    doc = manifest_to_dict(manifest)
    doc["tables"].append(doc["tables"][0])
    with pytest.raises(ManifestError, match="duplicate table"):
        manifest_from_dict(doc)


def test_manifest_duplicate_column_rejected(manifest):
    doc = manifest_to_dict(manifest)
    doc["tables"][0]["columns"].append(doc["tables"][0]["columns"][0])
    with pytest.raises(ManifestError, match="duplicate column"):
        manifest_from_dict(doc)


def test_manifest_domain_on_real_column_rejected(manifest):
    doc = manifest_to_dict(manifest)
    for column in doc["tables"][0]["columns"]:
        if column["name"] == "area":
            column["categorical_domain"] = ["small", "large"]
    with pytest.raises(ManifestError, match="categorical_domain"):
        manifest_from_dict(doc)


def test_malformed_manifest_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ManifestParseError):
        load_manifest(bad)
    bad.write_text('{"version": "1"}', encoding="utf-8")
    with pytest.raises(ManifestParseError):
        load_manifest(bad)
    bad.write_bytes(b'{"version": "\xff"}')
    with pytest.raises(ManifestParseError):
        load_manifest(bad)


def test_demo_ingestion_row_counts(demo_bundle):
    counts = {name: t.row_count for name, t in demo_bundle.tables.items()}
    assert counts == {"cells": 6, "structures": 2, "global_features": 1}
    assert demo_bundle.case_id == "demo_case"
    assert demo_bundle.ground_truth == "tubular_adenocarcinoma"
    assert demo_bundle.cnn_probs is not None
    assert abs(sum(demo_bundle.cnn_probs.values()) - 1.0) <= 1e-6


def test_null_and_typed_values(demo_bundle):
    cells = demo_bundle.tables["cells"]
    assert cells.columns["mean_intensity"][3] is None
    assert isinstance(cells.columns["cell_id"][0], int)
    assert isinstance(cells.columns["area"][0], float)


def _copy_case(src: Path, dst: Path) -> None:
    dst.mkdir(parents=True, exist_ok=True)
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())


def test_domain_violation(demo_case_dir, manifest, tmp_path):
    case = tmp_path / "bad_domain"
    _copy_case(demo_case_dir, case)
    text = (case / "cells.csv").read_text(encoding="utf-8")
    (case / "cells.csv").write_text(text.replace("epithelial", "unknownX"), encoding="utf-8")
    with pytest.raises(DomainViolation, match="unknownX"):
        ingest_case_dir(manifest, case)


def test_global_cardinality(demo_case_dir, manifest, tmp_path):
    case = tmp_path / "two_global_rows"
    _copy_case(demo_case_dir, case)
    path = case / "global_features.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.append(lines[1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CardinalityError):
        ingest_case_dir(manifest, case)


def test_type_mismatch(demo_case_dir, manifest, tmp_path):
    case = tmp_path / "bad_type"
    _copy_case(demo_case_dir, case)
    text = (case / "cells.csv").read_text(encoding="utf-8")
    (case / "cells.csv").write_text(text.replace("430.0", "not_a_number"), encoding="utf-8")
    with pytest.raises(TypeMismatch):
        ingest_case_dir(manifest, case)


def test_null_key_rejected(demo_case_dir, manifest, tmp_path):
    case = tmp_path / "null_key"
    _copy_case(demo_case_dir, case)
    text = (case / "cells.csv").read_text(encoding="utf-8")
    (case / "cells.csv").write_text(
        text.replace("6,epithelial", ",epithelial"), encoding="utf-8",
    )
    with pytest.raises(TypeMismatch, match="key column"):
        ingest_case_dir(manifest, case)


def test_header_must_match(demo_case_dir, manifest, tmp_path):
    case = tmp_path / "bad_header"
    _copy_case(demo_case_dir, case)
    text = (case / "cells.csv").read_text(encoding="utf-8")
    (case / "cells.csv").write_text(text.replace("cell_id,", "id,"), encoding="utf-8")
    with pytest.raises(TypeMismatch, match="header"):
        ingest_case_dir(manifest, case)


def test_bad_sidecar_probs(demo_case_dir, manifest, tmp_path):
    case = tmp_path / "bad_sidecar"
    _copy_case(demo_case_dir, case)
    (case / "sidecar.json").write_text(
        '{"cnn_probs": {"a": 0.5, "b": 0.6}}', encoding="utf-8",
    )
    with pytest.raises(SidecarError, match="sum"):
        ingest_case_dir(manifest, case)


def test_ingest_case_explicit_files(manifest, demo_case_dir):
    files = {t.name: demo_case_dir / f"{t.name}.csv" for t in manifest.tables}
    bundle = ingest_case(manifest, files, sidecar=demo_case_dir / "sidecar.json",
                         case_id="explicit")
    assert bundle.case_id == "explicit"
    assert bundle.tables["cells"].row_count == 6


def test_missing_table_file(manifest, demo_case_dir):
    files = {t.name: demo_case_dir / f"{t.name}.csv" for t in manifest.tables}
    del files["structures"]
    with pytest.raises(TypeMismatch, match="structures"):
        ingest_case(manifest, files)


def test_ingestion_is_pure(manifest, demo_case_dir):
    a = ingest_case_dir(manifest, demo_case_dir)
    b = ingest_case_dir(manifest, demo_case_dir)
    assert a == b


def test_training_split_order_and_count(manifest, training_split):
    bundles = load_training_split(manifest, training_split)
    assert len(bundles) == 12
    assert [b.case_id for b in bundles] == sorted(b.case_id for b in bundles)
    assert all(b.ground_truth is not None for b in bundles)


def test_training_split_empty_dir(manifest, tmp_path):
    assert load_training_split(manifest, tmp_path) == []


def test_training_split_corrupt_case_names_culprit(manifest, tmp_path):
    split = build_training_split(tmp_path)
    victim = split / "train_05" / "cells.csv"
    victim.write_text(victim.read_text(encoding="utf-8").replace("neoplastic", "bogus_type"),
                      encoding="utf-8")
    with pytest.raises(CaseLoadError) as exc_info:
        load_training_split(manifest, split)
    assert exc_info.value.case_id == "train_05"
    assert isinstance(exc_info.value.cause, DomainViolation)


def _table_to_csv(table) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.schema.column_names)
    for i in range(table.row_count):
        writer.writerow([render_value(table.columns[c][i]) for c in table.schema.column_names])
    return buffer.getvalue()


def test_csv_roundtrip_property(tmp_path):
    """Ingest, re-serialize, re-ingest: values survive dtype coercion exactly."""
    from generators import random_schema, random_table
    from evidencesql.feature_store import SchemaManifest

    rng = random.Random(20260810)
    for trial in range(25):
        schema = random_schema(rng)
        table = random_table(rng, schema, max_rows=40)
        text = _table_to_csv(table)
        case = tmp_path / f"rt_{trial}"
        case.mkdir()
        (case / "t.csv").write_text(text, encoding="utf-8")
        manifest_one = SchemaManifest(version="t", tables=(schema,))
        bundle = ingest_case(manifest_one, {"t": case / "t.csv"}, case_id="rt")
        assert bundle.tables["t"] == table
        assert _table_to_csv(bundle.tables["t"]) == text
