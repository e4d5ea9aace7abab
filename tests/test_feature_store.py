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
    FeatureTable,
    Level,
    SchemaManifest,
    canonical_manifest,
    ingest_case,
    ingest_case_dir,
    load_manifest,
    load_training_split,
    manifest_from_dict,
    manifest_to_dict,
)
from evidencesql.values import Dtype, coerce, render_value

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


# -- ingest error precedence ---------------------------------------------
#
# The first bad cell in row-major order is reported, a row's width is checked
# before its cells, and a bad cell comes before the global-table row count.

def _cell_row(i, **edits):
    fields = {"cell_id": str(i), "cell_type": "neoplastic", "area": "430.0",
              "perimeter": "75.2", "eccentricity": "0.81", "circularity": "0.62",
              "mean_intensity": "132.5", "glcm_contrast": "3.1", "centroid_x": "14.2",
              "centroid_y": "22.9"}
    fields.update(edits)
    return [v for v in fields.values() if v is not None]


def _global_row(**edits):
    fields = {"total_cells": "6", "neoplastic_ratio": "0.65", "mean_nuclear_area": "400.0",
              "nuclear_pleomorphism_index": "0.3", "gland_area_ratio": "0.45",
              "nn_mean_distance": "27.5"}
    fields.update(edits)
    return list(fields.values())


def _cells(n, **bad_rows):
    return [_cell_row(i, **bad_rows.get(f"r{i}", {})) for i in range(n)]


_DOMAIN = "['neoplastic', 'inflammatory', 'connective', 'dead', 'epithelial']"

PRECEDENCE = [
    ("late-real-before-later-domain", "cells",
     _cells(5, r1={"centroid_y": "abc"}, r3={"cell_type": "bogus"}),
     (TypeMismatch, "cells.centroid_y row 1: 'abc' is not a real number",
      "cells", "centroid_y", 1)),
    ("bad-cell-before-later-short-row", "cells",
     _cells(5, r1={"area": "x"}, r4={"centroid_y": None}),
     (TypeMismatch, "cells.area row 1: 'x' is not a real number", "cells", "area", 1)),
    ("short-row-before-later-bad-cell", "cells",
     _cells(5, r1={"centroid_y": None}, r4={"area": "x"}),
     (TypeMismatch, "row 1 has 9 fields, expected 10", "cells", None, 1)),
    ("width-before-cells-of-same-row", "cells",
     _cells(3, r2={"cell_id": "", "centroid_y": None}),
     (TypeMismatch, "row 2 has 9 fields, expected 10", "cells", None, 2)),
    ("long-row", "cells", [_cell_row(0) + ["1.0"]],
     (TypeMismatch, "row 0 has 11 fields, expected 10", "cells", None, 0)),
    ("null-key", "cells", _cells(4, r2={"cell_id": ""}),
     (TypeMismatch, "cells.cell_id row 2: key column may not be null", "cells", "cell_id", 2)),
    ("null-key-before-later-column-same-row", "cells",
     _cells(3, r1={"cell_id": "", "area": "x"}),
     (TypeMismatch, "cells.cell_id row 1: key column may not be null", "cells", "cell_id", 1)),
    ("domain-before-later-null-key", "cells",
     _cells(3, r0={"cell_type": "bogus"}, r1={"cell_id": ""}),
     (DomainViolation, f"cells.cell_type row 0: 'bogus' outside domain {_DOMAIN}",
      "cells", "cell_type", 0)),
    ("domain-before-later-column-same-row", "cells",
     _cells(2, r1={"cell_type": "bogus", "area": "x"}),
     (DomainViolation, f"cells.cell_type row 1: 'bogus' outside domain {_DOMAIN}",
      "cells", "cell_type", 1)),
    ("inf-real", "cells", _cells(3, r1={"area": "inf"}),
     (TypeMismatch, "cells.area row 1: 'inf' is not finite", "cells", "area", 1)),
    ("nan-real", "cells", _cells(3, r2={"perimeter": "nan"}),
     (TypeMismatch, "cells.perimeter row 2: 'nan' is not finite", "cells", "perimeter", 2)),
    ("whitespace-real", "cells", _cells(2, r0={"eccentricity": "  "}),
     (TypeMismatch, "cells.eccentricity row 0: '  ' is not a real number",
      "cells", "eccentricity", 0)),
    ("whitespace-key", "cells", _cells(2, r1={"cell_id": " "}),
     (TypeMismatch, "cells.cell_id row 1: ' ' is not an integer", "cells", "cell_id", 1)),
    ("global-bad-cell-before-cardinality", "global_features",
     [_global_row(), _global_row(neoplastic_ratio="abc")],
     (TypeMismatch, "global_features.neoplastic_ratio row 1: 'abc' is not a real number",
      "global_features", "neoplastic_ratio", 1)),
    ("global-cardinality", "global_features", [_global_row(), _global_row()],
     (CardinalityError, "global table 'global_features' has 2 rows, expected exactly 1",
      None, None, None)),
]


@pytest.mark.parametrize("table, rows, expected", [row[1:] for row in PRECEDENCE],
                         ids=[row[0] for row in PRECEDENCE])
def test_ingest_error_precedence(manifest, tmp_path, table, rows, expected):
    schema = manifest.table(table)
    path = tmp_path / f"{table}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([schema.column_names, *rows])
    manifest_one = SchemaManifest(version="t", tables=(schema,))
    assert _outcome(lambda: ingest_case(manifest_one, {table: path})) == expected


def _outcome(load):
    """What ``load`` returns, or the type, message and location of the
    ingest error it raises."""
    try:
        return load()
    except (TypeMismatch, DomainViolation, CardinalityError) as exc:
        return (type(exc), str(exc), getattr(exc, "table", None),
                getattr(exc, "column", None), getattr(exc, "row", None))


# -- differential: column-at-a-time ingest vs a row-major reference -------

def _reference_table(schema, rows):
    """The ingest rule applied cell by cell, in row-major order, through
    ``coerce``."""
    columns = {c.name: [] for c in schema.columns}
    for i, raw in enumerate(rows):
        if len(raw) != len(schema.columns):
            raise TypeMismatch(f"row {i} has {len(raw)} fields, expected {len(schema.columns)}",
                               table=schema.name, row=i)
        for col, text in zip(schema.columns, raw):
            where = dict(table=schema.name, column=col.name, row=i)
            try:
                value = coerce(text, col.dtype)
            except TypeMismatch as exc:
                raise TypeMismatch(f"{schema.name}.{col.name} row {i}: {exc}", **where) from None
            if value is None and col.is_key:
                raise TypeMismatch(f"{schema.name}.{col.name} row {i}: key column may not be null",
                                   **where)
            if (value is not None and col.categorical_domain is not None
                    and value not in col.categorical_domain):
                raise DomainViolation(f"{schema.name}.{col.name} row {i}: {value!r} outside domain "
                                      f"{list(col.categorical_domain)}", **where)
            columns[col.name].append(value)
    if schema.level is Level.GLOBAL and len(rows) != 1:
        raise CardinalityError(
            f"global table {schema.name!r} has {len(rows)} rows, expected exactly 1")
    return FeatureTable(schema=schema, columns={k: tuple(v) for k, v in columns.items()},
                        row_count=len(rows))


_FAULTS = ("abc", "inf", "-inf", "nan", "NaN", "", "  ", "zeta", "epsilon",
           "1_0", "+5", " 5 ", "1e999", "DROP", "EXTRA")


def test_column_ingest_matches_row_major_reference(tmp_path):
    from dataclasses import replace

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from generators import random_schema, random_table

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rng=st.randoms(use_true_random=False), keyed=st.booleans(),
           level=st.sampled_from(list(Level)), max_rows=st.integers(0, 12),
           faults=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 5),
                                     st.sampled_from(_FAULTS)), max_size=3))
    def check(rng, keyed, level, max_rows, faults):
        schema = replace(random_schema(rng), level=level)
        if keyed:
            columns = (replace(schema.columns[0], name="c0_id"), *schema.columns[1:])
            schema = replace(schema, columns=columns)
        table = random_table(rng, schema, max_rows=max_rows)
        rows = [[render_value(table.columns[c][i]) for c in schema.column_names]
                for i in range(table.row_count)]
        for row_idx, col_idx, fault in faults:
            if not rows:
                break
            row = rows[row_idx % len(rows)]
            if fault == "EXTRA":
                row.append("1")
            elif row and fault == "DROP":
                del row[col_idx % len(row)]
            elif row:
                row[col_idx % len(row)] = fault
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([schema.column_names, *rows])
        manifest_one = SchemaManifest(version="t", tables=(schema,))
        got = _outcome(lambda: ingest_case(manifest_one, {"t": path}).tables["t"])
        assert got == _outcome(lambda: _reference_table(schema, rows))

    check()
