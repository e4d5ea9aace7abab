import csv
import gc
import io
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from evidencesql import feature_store
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
    ColumnSchema,
    FeatureTable,
    Level,
    SchemaManifest,
    TableSchema,
    canonical_manifest,
    ingest_case,
    ingest_case_dir,
    load_manifest,
    load_training_split,
    manifest_from_dict,
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


def test_manifest_file_roundtrip(manifest, manifest_path):
    assert load_manifest(manifest_path) == manifest


@pytest.fixture
def manifest_doc(manifest_path):
    """A fresh copy of the packaged manifest document, for a test to edit."""
    return json.loads(manifest_path.read_text(encoding="utf-8"))


def test_manifest_duplicate_table_rejected(manifest_doc):
    manifest_doc["tables"].append(manifest_doc["tables"][0])
    with pytest.raises(ManifestError, match="duplicate table"):
        manifest_from_dict(manifest_doc)


def test_manifest_duplicate_column_rejected(manifest_doc):
    manifest_doc["tables"][0]["columns"].append(manifest_doc["tables"][0]["columns"][0])
    with pytest.raises(ManifestError, match="duplicate column"):
        manifest_from_dict(manifest_doc)


def test_manifest_domain_on_real_column_rejected(manifest_doc):
    for column in manifest_doc["tables"][0]["columns"]:
        if column["name"] == "area":
            column["categorical_domain"] = ["small", "large"]
    with pytest.raises(ManifestError, match="categorical_domain"):
        manifest_from_dict(manifest_doc)


def _column(doc, table, name):
    return next(c for c in doc["tables"][table]["columns"] if c["name"] == name)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["tables"][0].update(name=["cells"]),
    lambda doc: _column(doc, 0, "area").update(name=3),
    lambda doc: _column(doc, 0, "cell_type").update(categorical_domain="neoplastic"),
    lambda doc: _column(doc, 0, "cell_type").update(categorical_domain=["neoplastic", 1]),
    lambda doc: _column(doc, 0, "cell_type").update(categorical_domain={"neoplastic": 1}),
    lambda doc: _column(doc, 0, "area").update(unit=5),
    lambda doc: _column(doc, 0, "area").update(unit=["um^2"]),
], ids=["table-name-list", "column-name-int", "domain-string", "domain-non-string-item",
        "domain-object", "unit-int", "unit-list"])
def test_manifest_field_types_checked(manifest_doc, edit):
    edit(manifest_doc)
    with pytest.raises(ManifestParseError, match="malformed manifest: TypeError"):
        manifest_from_dict(manifest_doc)


def test_manifest_null_unit_accepted(manifest_doc):
    _column(manifest_doc, 0, "area")["unit"] = None
    assert manifest_from_dict(manifest_doc).table("cells").column("area").unit is None


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


def test_rejected_ingest_leaves_no_garbage_cycle(demo_case_dir, manifest, tmp_path):
    """A rejected table's rows are freed once its error is dropped, with
    the cyclic collector off. A plain try/except catches the error, since
    ``pytest.raises`` keeps its traceback."""
    case = tmp_path / "one_bad_cell_type"
    _copy_case(demo_case_dir, case)
    text = (case / "cells.csv").read_text(encoding="utf-8")
    (case / "cells.csv").write_text(text.replace("epithelial", "unknownX", 1), encoding="utf-8")
    gc.collect()
    gc.disable()
    try:
        try:
            ingest_case_dir(manifest, case)
        except DomainViolation:
            pass
        else:
            pytest.fail("an out-of-domain cell_type was ingested")
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_sidecar_prob_beyond_float_range(demo_case_dir, manifest, tmp_path):
    case = tmp_path / "huge_sidecar"
    _copy_case(demo_case_dir, case)
    (case / "sidecar.json").write_text(
        '{"cnn_probs": {"a": 1' + "0" * 400 + ', "b": 0.5}}', encoding="utf-8",
    )
    with pytest.raises(SidecarError, match=r"cnn_probs\['a'\] outside \[0, 1\]"):
        ingest_case_dir(manifest, case)


@pytest.mark.parametrize("sidecar, message", [
    ('{"cnn_probs": [0.5, 0.5]}', "cnn_probs must be a non-empty object"),
    ('{"cnn_probs": {"a": "0.5", "b": 0.5}}', r"cnn_probs\['a'\] is not a number"),
    ('{"cnn_probs": {"a": true, "b": 0.0}}', r"cnn_probs\['a'\] is not a number"),
    ('{"cnn_probs": {"a": 1.5, "b": -0.5}}', r"cnn_probs\['a'\] = 1.5 outside \[0, 1\]"),
    ('{"cnn_probs": {"a": NaN, "b": 0.5}}', r"cnn_probs\['a'\] = nan outside \[0, 1\]"),
    ('{"cnn_probs": {"a": 0.5, "b": -0.0001, "c": 0.5001}}',
     r"cnn_probs\['b'\] = -0.0001 outside \[0, 1\]"),
    ('{"ground_truth": 3}', "ground_truth must be a string label"),
], ids=["probs-list", "prob-string", "prob-bool", "prob-above-one", "prob-nan",
        "prob-below-zero", "label-number"])
def test_sidecar_shape_errors(demo_case_dir, manifest, tmp_path, sidecar, message):
    case = tmp_path / "sidecar_shape"
    _copy_case(demo_case_dir, case)
    (case / "sidecar.json").write_text(sidecar, encoding="utf-8")
    with pytest.raises(SidecarError, match=message):
        ingest_case_dir(manifest, case)


def test_empty_table_file_is_type_mismatch(demo_case_dir, manifest, tmp_path):
    case = tmp_path / "empty_table"
    _copy_case(demo_case_dir, case)
    (case / "structures.csv").write_text("", encoding="utf-8")
    with pytest.raises(TypeMismatch, match="is empty; header row required") as caught:
        ingest_case_dir(manifest, case)
    assert caught.value.table == "structures"


HUGE_INT = "1" + "0" * 400


def test_coerce_integer_beyond_float_range():
    with pytest.raises(TypeMismatch, match="401-character integer is beyond float range"):
        coerce(HUGE_INT, Dtype.INTEGER)
    with pytest.raises(TypeMismatch, match="beyond float range"):
        coerce("9" * 309, Dtype.INTEGER)
    # long texts whose value float() still holds are accepted
    assert coerce("0" * 400 + "7", Dtype.INTEGER) == 7
    assert coerce("-" + "9" * 308, Dtype.INTEGER) == -int("9" * 308)
    assert coerce("9" * 308, Dtype.INTEGER) == int("9" * 308)


def test_integer_beyond_float_range_rejected_at_ingest(demo_case_dir, manifest, tmp_path):
    case = tmp_path / "huge_int"
    _copy_case(demo_case_dir, case)
    path = case / "cells.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("\n3,neoplastic", f"\n{HUGE_INT},neoplastic"), encoding="utf-8")
    assert _outcome(lambda: ingest_case_dir(manifest, case)) == (
        TypeMismatch, "cells.cell_id row 2: 401-character integer is beyond float range",
        "cells", "cell_id", 2)
    path.write_text(text.replace("\n3,neoplastic", f"\n{'0' * 400}3,neoplastic"),
                    encoding="utf-8")
    assert ingest_case_dir(manifest, case).tables["cells"].columns["cell_id"][:3] == (1, 2, 3)


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


def test_undeclared_table_file_is_manifest_error(manifest, demo_case_dir):
    files = {t.name: demo_case_dir / f"{t.name}.csv" for t in manifest.tables}
    files["extra"] = demo_case_dir / "cells.csv"
    with pytest.raises(ManifestError, match=r"\['extra'\] not declared in manifest"):
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
    ("huge-int-before-later-domain", "cells",
     _cells(4, r1={"cell_id": HUGE_INT}, r2={"cell_type": "bogus"}),
     (TypeMismatch, "cells.cell_id row 1: 401-character integer is beyond float range",
      "cells", "cell_id", 1)),
    ("whitespace-key", "cells", _cells(2, r1={"cell_id": " "}),
     (TypeMismatch, "cells.cell_id row 1: ' ' is not an integer", "cells", "cell_id", 1)),
    ("global-bad-cell-before-cardinality", "global_features",
     [_global_row(), _global_row(neoplastic_ratio="abc")],
     (TypeMismatch, "global_features.neoplastic_ratio row 1: 'abc' is not a real number",
      "global_features", "neoplastic_ratio", 1)),
    ("global-cardinality", "global_features", [_global_row(), _global_row()],
     (CardinalityError, "global table 'global_features' has 2 rows, expected exactly 1",
      None, None, None)),
    ("bad-cell-in-chunk-1-before-short-row-in-chunk-2", "cells",
     _cells(10, r3={"area": "x"}, r7={"centroid_y": None}),
     (TypeMismatch, "cells.area row 3: 'x' is not a real number", "cells", "area", 3)),
    ("global-empty-body", "global_features", [],
     (CardinalityError, "global table 'global_features' has 0 rows, expected exactly 1",
      None, None, None)),
]

# Chunk sizes the ingest tests also run under: each splits the tables above,
# and the generated ones below, across chunks.
CHUNK_SIZES = (1, 2, 5)


def _chunked_outcomes(monkeypatch, load):
    """``_outcome(load)`` with the default chunk size, then with each of
    ``CHUNK_SIZES``."""
    outcomes = [_outcome(load)]
    for rows in CHUNK_SIZES:
        with monkeypatch.context() as patched:
            patched.setattr(feature_store, "_CHUNK_ROWS", rows)
            outcomes.append(_outcome(load))
    return outcomes


def _write_table(path, schema, rows, quoting=csv.QUOTE_MINIMAL):
    """``rows`` under ``schema``'s header, as CSV; a lone surrogate in a
    field is written as the byte it escapes, so a row can hold invalid
    UTF-8."""
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        csv.writer(fh, quoting=quoting).writerows([schema.column_names, *rows])


@pytest.mark.parametrize("table, rows, expected", [row[1:] for row in PRECEDENCE],
                         ids=[row[0] for row in PRECEDENCE])
def test_ingest_error_precedence(manifest, tmp_path, monkeypatch, table, rows, expected):
    schema = manifest.table(table)
    path = tmp_path / f"{table}.csv"
    _write_table(path, schema, rows)
    manifest_one = SchemaManifest(version="t", tables=(schema,))
    assert _chunked_outcomes(monkeypatch, lambda: ingest_case(manifest_one, {table: path})) == [
        expected] * (1 + len(CHUNK_SIZES))


def test_read_error_in_a_late_chunk_beats_a_bad_cell_in_the_first(manifest, tmp_path,
                                                                   monkeypatch):
    """A file is read to its end after a bad cell, unconverted, so invalid
    UTF-8 in its last row is still the error, under every chunk size: the
    row lies past the first default chunk and past the two 8 KiB blocks
    the decoder reads for it, so the chunk holding the bad cell is converted
    before the bad byte is decoded."""
    schema = manifest.table("cells")
    path = tmp_path / "cells.csv"
    rows = _cells(400, r0={"area": "x"}, r399={"cell_type": "\udcff"})
    _write_table(path, schema, rows)
    assert path.stat().st_size > 2 * 8192
    manifest_one = SchemaManifest(version="t", tables=(schema,))
    causes = []

    def load():
        try:
            return ingest_case(manifest_one, {"cells": path})
        except TypeMismatch as exc:
            causes.append(type(exc.__cause__))
            raise

    for outcome in _chunked_outcomes(monkeypatch, load):
        kind, message, *where = outcome
        assert kind is TypeMismatch and where == ["cells", None, None]
        assert message.startswith(
            f"cannot read table file {path}: 'utf-8' codec can't decode byte 0xff"), message
    assert causes == [UnicodeDecodeError] * (1 + len(CHUNK_SIZES))


@pytest.mark.parametrize("rows", [0, 10, 2 * feature_store._CHUNK_ROWS],
                         ids=["empty-body", "ten-rows", "two-default-chunks"])
def test_chunked_ingest_of_whole_chunks_matches_row_major_reference(manifest, tmp_path,
                                                                    monkeypatch, rows):
    """A table with no body, or whose last chunk is exactly full under
    every chunk size, ingests as the row-major reference reads it."""
    schema = manifest.table("cells")
    raw = [_cell_row(i, area=f"{400 + i}.5", cell_type=("dead", "")[i % 2]) for i in range(rows)]
    path = tmp_path / "cells.csv"
    _write_table(path, schema, raw)
    manifest_one = SchemaManifest(version="t", tables=(schema,))
    expected = _outcome(lambda: _reference_table(schema, raw))
    assert expected.row_count == rows
    assert _chunked_outcomes(
        monkeypatch, lambda: ingest_case(manifest_one, {"cells": path}).tables["cells"]) == [
        expected] * (1 + len(CHUNK_SIZES))


# Both ways a chunk is split: straight from its text, or, once a quote
# shows up, by ``csv.reader``.
_SPLITTERS = pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL],
                                     ids=["quote-free", "csv-reader"])


@_SPLITTERS
def test_categorical_cells_are_the_manifest_domain_strings(manifest, tmp_path, monkeypatch,
                                                            quoting):
    """Every categorical cell of an ingested table is the manifest's own
    domain string, not an equal copy, and an empty categorical text is
    null, under every chunk size."""
    schema = manifest.table("cells")
    domain = schema.column("cell_type").categorical_domain
    texts = [("", *domain)[i % (len(domain) + 1)] for i in range(23)]
    path = tmp_path / "cells.csv"
    _write_table(path, schema, [_cell_row(i, cell_type=t) for i, t in enumerate(texts)], quoting)
    manifest_one = SchemaManifest(version="t", tables=(schema,))
    for rows in (feature_store._CHUNK_ROWS, *CHUNK_SIZES):
        monkeypatch.setattr(feature_store, "_CHUNK_ROWS", rows)
        cells = ingest_case(manifest_one, {"cells": path}).tables["cells"].columns["cell_type"]
        assert cells == tuple(t or None for t in texts)
        assert all(cell is None or cell is domain[domain.index(cell)] for cell in cells)


@_SPLITTERS
def test_empty_text_is_null_even_where_the_domain_lists_it(tmp_path, quoting):
    schema = TableSchema("t", Level.LOCAL_CELLULAR, (
        ColumnSchema("kind", Dtype.TEXT, categorical_domain=("a", "", "b")),))
    path = tmp_path / "t.csv"
    _write_table(path, schema, [["a"], [""], ["b"]], quoting)
    table = ingest_case(SchemaManifest(version="t", tables=(schema,)), {"t": path}).tables["t"]
    assert table.columns["kind"] == ("a", None, "b")


@_SPLITTERS
@pytest.mark.parametrize("text", ["bogus", "Dead", " dead", "dead ", "neoplastic\u200b"])
def test_out_of_domain_text_is_the_same_domain_violation(manifest, tmp_path, monkeypatch,
                                                          quoting, text):
    """A text outside the domain, however close to an entry, is the
    ``DomainViolation`` naming its table, column and row, whichever way its
    chunk is split, under every chunk size; an empty cell before it is
    no fault."""
    schema = manifest.table("cells")
    path = tmp_path / "cells.csv"
    _write_table(path, schema, _cells(7, r2={"cell_type": ""}, r4={"cell_type": text}), quoting)
    manifest_one = SchemaManifest(version="t", tables=(schema,))
    expected = (DomainViolation, f"cells.cell_type row 4: {text!r} outside domain {_DOMAIN}",
                "cells", "cell_type", 4)
    assert _chunked_outcomes(monkeypatch, lambda: ingest_case(manifest_one, {"cells": path})) == [
        expected] * (1 + len(CHUNK_SIZES))


def test_ingest_holds_one_chunk_of_raw_fields_at_a_time(tmp_path):
    """On a 2,000-row table, the peak ``tracemalloc`` sees during
    ``ingest_case``, less what the bundle keeps, stays below what the
    bundle keeps: the whole file's raw fields are never alive at once."""
    manifest = canonical_manifest()
    schema = manifest.table("cells")
    domain = schema.column("cell_type").categorical_domain
    rng = random.Random(20261020)
    rows = [[str(i + 1), rng.choice(domain),
             *(repr(round(rng.uniform(0.0, 500.0), 4)) for _ in schema.columns[2:])]
            for i in range(2000)]
    path = tmp_path / "cells.csv"
    _write_table(path, schema, rows)
    manifest_one = SchemaManifest(version="t", tables=(schema,))
    ingest_case(manifest_one, {"cells": path})  # imports and caches warmed
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        bundle = ingest_case(manifest_one, {"cells": path})
        kept, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert bundle.tables["cells"].row_count == 2000
    assert peak - kept < kept, (peak, kept)


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
           "1_0", "+5", " 5 ", "1e999", HUGE_INT, "DROP", "EXTRA")


def test_column_ingest_matches_row_major_reference(tmp_path, monkeypatch):
    """Over generated tables with faults drawn into their cells, the ingest
    gives what the row-major reference gives, under every chunk size. One
    example in four holds a row whose key is null, and at least one in ten
    reports that null key as its error."""
    from dataclasses import replace

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from generators import random_schema, random_table, random_value

    null_keys = []  # per example: whether a null key was the error

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), keyed=st.booleans(),
           level=st.sampled_from(list(Level)), max_rows=st.integers(0, 12),
           faults=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 5),
                                     st.sampled_from(_FAULTS)), max_size=3))
    def check(seed, keyed, level, max_rows, faults):
        rng = random.Random(seed)  # cheaper per draw than a hypothesis random
        null_key = rng.random() < 0.25
        schema = replace(random_schema(rng), level=level)
        if keyed or null_key:
            columns = (replace(schema.columns[0], name="c0_id"), *schema.columns[1:])
            schema = replace(schema, columns=columns)
        table = random_table(rng, schema, max_rows=max_rows)
        rows = [[render_value(table.columns[c][i]) for c in schema.column_names]
                for i in range(table.row_count)]
        if null_key:
            rows.insert(rng.randint(0, len(rows)),
                        ["", *(render_value(random_value(rng, c)) for c in schema.columns[1:])])
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
        _write_table(path, schema, rows)
        manifest_one = SchemaManifest(version="t", tables=(schema,))
        got = _chunked_outcomes(monkeypatch,
                                lambda: ingest_case(manifest_one, {"t": path}).tables["t"])
        assert got == [_outcome(lambda: _reference_table(schema, rows))] * (1 + len(CHUNK_SIZES))
        null_keys.append(isinstance(got[0], tuple)
                         and got[0][1].endswith("key column may not be null"))

    check()
    assert sum(null_keys) >= len(null_keys) // 10, (sum(null_keys), len(null_keys))


# -- differential: the quote-free splitter vs a whole-file csv.reader ------

def _csv_reference(schema, path):
    """The table a whole-file ``csv.reader`` and ``_reference_table`` make
    of ``path``, with the ingest's header and read-error messages."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise TypeMismatch(f"{path} is empty; header row required", table=schema.name)
            if tuple(header) != schema.column_names:
                raise TypeMismatch(f"header {header!r} does not match schema columns "
                                   f"{list(schema.column_names)!r}", table=schema.name)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TypeMismatch(f"cannot read table file {path}: {exc}", table=schema.name) from exc
    return _reference_table(schema, rows)


# csv.field_size_limit() while the splitter differential runs, so that a
# field longer than the limit stays short.
_FIELD_LIMIT = 24
_SPLIT_FIELDS = ("1", "42", "-3", "2.5", "1e3", "", "x", "alpha", "beta", "inf",
                 '"1"', '""', "9" * (_FIELD_LIMIT + 1), "1" * _FIELD_LIMIT)
_SPLIT_NOISE = (",", '"', '""', '"a,b"', "\r", "\n", "\r\n", "\0", "\ufeff", "\n\n")


def test_quote_free_splitter_matches_csv_reader(tmp_path, monkeypatch):
    """Over texts with commas, quotes, carriage returns, line feeds, NUL, a
    BOM, blank lines, one-column tables, fields longer than
    ``csv.field_size_limit()`` and with and without a final newline, the
    ingest gives what a whole-file ``csv.reader`` gives, under every chunk
    size: the same table, or the same error type, message, table, column
    and row."""
    from dataclasses import replace

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from(list(Level)))
    def check(seed, level):
        rng = random.Random(seed)  # cheaper per draw than a hypothesis random
        width = rng.choice((1, 1, 2, 3))
        schema = TableSchema("t", level, tuple(
            ColumnSchema(f"c{j}", rng.choice(list(Dtype))) for j in range(width)))
        if rng.random() < 0.3:
            schema = replace(schema, columns=(replace(schema.columns[0], name="c0_id"),
                                              *schema.columns[1:]))
        n_rows = rng.randint(250, 262) if rng.random() < 0.05 else rng.randint(0, 12)
        lines = [",".join(rng.choice(_SPLIT_FIELDS) for _ in range(
            width + (rng.random() < 0.1) * rng.choice((-1, 1)))) for _ in range(n_rows)]
        body = "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")
        for _ in range(rng.choice((0, 0, 1, 2))):
            at = rng.randint(0, len(body))
            body = body[:at] + rng.choice(_SPLIT_NOISE) + body[at:]
        header = ",".join(schema.column_names) + "\n"
        if rng.random() < 0.05:
            header = "\ufeff" + header
        path = tmp_path / "t.csv"
        path.write_text(header + body, encoding="utf-8", newline="")
        manifest_one = SchemaManifest(version="t", tables=(schema,))
        expected = _outcome(lambda: _csv_reference(schema, path))
        got = _chunked_outcomes(monkeypatch,
                                lambda: ingest_case(manifest_one, {"t": path}).tables["t"])
        assert got == [expected] * (1 + len(CHUNK_SIZES)), (header + body)[:400]

    limit = csv.field_size_limit(_FIELD_LIMIT)
    try:
        check()
    finally:
        csv.field_size_limit(limit)
