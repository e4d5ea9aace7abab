"""Immutable multi-scale feature tables and their typed schema manifest.

A case directory holds one CSV per manifest table plus an optional
``sidecar.json`` carrying externally computed classifier probabilities and/or
a ground-truth label. Everything loaded here is frozen; there is no write
path once a bundle exists.

A table is converted a column at a time, with ``values.coerce``'s builtins
and empty-is-null rule, and each dtype's checks run over whole columns. A
column that fails one is scanned again through ``coerce`` up to its first
bad cell, so a bad file reports the cell that comes first in row-major
order, with its table, column and row.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from evidencesql.errors import (
    CardinalityError,
    CaseLoadError,
    DomainViolation,
    ManifestError,
    ManifestParseError,
    SidecarError,
    TypeMismatch,
)
from evidencesql.values import Dtype, Value, coerce

SIDECAR_FILENAME = "sidecar.json"
CNN_PROB_SUM_TOLERANCE = 1e-6


class Level(enum.Enum):
    LOCAL_CELLULAR = "local_cellular"
    LOCAL_ARCHITECTURE = "local_architecture"
    GLOBAL = "global"


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    dtype: Dtype
    unit: str | None = None
    categorical_domain: tuple[str, ...] | None = None

    @property
    def is_key(self) -> bool:
        return self.name.endswith("_id")


@dataclass(frozen=True)
class TableSchema:
    name: str
    level: Level
    columns: tuple[ColumnSchema, ...]

    def column(self, name: str) -> ColumnSchema | None:
        for col in self.columns:
            if col.name == name:
                return col
        return None

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)


@dataclass(frozen=True)
class SchemaManifest:
    version: str
    tables: tuple[TableSchema, ...]

    def table(self, name: str) -> TableSchema | None:
        for t in self.tables:
            if t.name == name:
                return t
        return None

    def tables_at(self, level: Level) -> tuple[TableSchema, ...]:
        return tuple(t for t in self.tables if t.level == level)


@dataclass(frozen=True)
class FeatureTable:
    schema: TableSchema
    columns: dict[str, tuple[Value, ...]]
    row_count: int


@dataclass(frozen=True)
class CaseBundle:
    case_id: str
    tables: dict[str, FeatureTable]
    cnn_probs: dict[str, float] | None = None
    ground_truth: str | None = None


def _check_manifest(manifest: SchemaManifest) -> SchemaManifest:
    names = [t.name for t in manifest.tables]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise ManifestError(f"duplicate table name(s): {', '.join(dup)}")
    for table in manifest.tables:
        col_names = [c.name for c in table.columns]
        if len(set(col_names)) != len(col_names):
            raise ManifestError(f"duplicate column name(s) in table {table.name!r}")
        for col in table.columns:
            if col.categorical_domain is not None and col.dtype is not Dtype.TEXT:
                raise ManifestError(
                    f"categorical_domain on non-text column {table.name}.{col.name}"
                )
            if col.categorical_domain is not None and not col.categorical_domain:
                raise ManifestError(
                    f"empty categorical_domain on {table.name}.{col.name}"
                )
    return manifest


def manifest_from_dict(doc: dict) -> SchemaManifest:
    """Build and validate a manifest from its JSON object form."""
    try:
        tables = []
        for tdoc in doc["tables"]:
            columns = tuple(
                ColumnSchema(
                    name=cdoc["name"],
                    dtype=Dtype(cdoc["dtype"]),
                    unit=cdoc.get("unit"),
                    categorical_domain=(
                        tuple(cdoc["categorical_domain"])
                        if cdoc.get("categorical_domain") is not None
                        else None
                    ),
                )
                for cdoc in tdoc["columns"]
            )
            tables.append(TableSchema(name=tdoc["name"], level=Level(tdoc["level"]), columns=columns))
        manifest = SchemaManifest(version=str(doc["version"]), tables=tuple(tables))
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestParseError(f"malformed manifest: {exc}") from exc
    return _check_manifest(manifest)


def manifest_to_dict(manifest: SchemaManifest) -> dict:
    return {
        "version": manifest.version,
        "tables": [
            {
                "name": t.name,
                "level": t.level.value,
                "columns": [
                    {
                        "name": c.name,
                        "dtype": c.dtype.value,
                        **({"unit": c.unit} if c.unit is not None else {}),
                        **(
                            {"categorical_domain": list(c.categorical_domain)}
                            if c.categorical_domain is not None
                            else {}
                        ),
                    }
                    for c in t.columns
                ],
            }
            for t in manifest.tables
        ],
    }


def load_manifest(path: str | Path) -> SchemaManifest:
    """Load and validate a schema manifest from a JSON file.

    Raises:
        ManifestParseError: the file is not readable JSON of the expected shape.
        ManifestError: the manifest violates a structural invariant.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestParseError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestParseError("manifest root must be a JSON object")
    return manifest_from_dict(doc)


def canonical_manifest() -> SchemaManifest:
    """The packaged default schema covering cellular, architectural and
    whole-patch feature families."""
    text = resources.files("evidencesql.fixtures").joinpath("manifest.json").read_text("utf-8")
    return manifest_from_dict(json.loads(text))


def _convert_columns(schema: TableSchema, raw_rows: list[list[str]]) -> dict[str, tuple]:
    """The table's columns, converted one column at a time.

    Raises for the table's first bad row or cell in row-major order: the
    earliest row, then the leftmost column, and a row of the wrong width
    before any cell at or after it.
    """
    width = len(schema.columns)
    fault = None  # (row, error) of the earliest fault found so far
    if set(map(len, raw_rows)) - {width}:
        row = next(i for i, raw in enumerate(raw_rows) if len(raw) != width)
        fault = (row, TypeMismatch(f"row {row} has {len(raw_rows[row])} fields, expected {width}",
                                   table=schema.name, row=row))
        raw_rows = raw_rows[:row]
    columns = {}
    for col, texts in zip(schema.columns, list(zip(*raw_rows)) or [()] * width):
        has_null = "" in texts
        try:
            if col.dtype is Dtype.TEXT:
                values = tuple([t or None for t in texts]) if has_null else texts
            else:
                convert = int if col.dtype is Dtype.INTEGER else float
                values = (tuple([convert(t) if t else None for t in texts]) if has_null
                          else tuple(map(convert, texts)))
        except ValueError:
            ok = False
        else:
            # filter(None, ...) skips nulls and zeros, which are finite
            ok = (not (has_null and col.is_key)
                  and (col.dtype is not Dtype.REAL or all(map(math.isfinite, filter(None, values))))
                  and (col.categorical_domain is None
                       or set(values) <= {None, *col.categorical_domain}))
        if ok:
            columns[col.name] = values
        else:
            # only rows before the earliest fault so far can win; a tie keeps
            # the column to the left
            fault = _first_bad_cell(schema, col, texts[:fault[0] if fault else None]) or fault
    if fault:
        raise fault[1]
    return columns


def _first_bad_cell(schema: TableSchema, col: ColumnSchema,
                    texts: tuple[str, ...]) -> tuple[int, TypeMismatch | DomainViolation] | None:
    """The row of the first cell in ``texts`` that breaks a rule, and the
    error naming it, converting each cell through ``coerce``."""
    for row, text in enumerate(texts):
        where = dict(table=schema.name, column=col.name, row=row)
        try:
            value = coerce(text, col.dtype)
        except TypeMismatch as exc:
            return row, TypeMismatch(f"{schema.name}.{col.name} row {row}: {exc}", **where)
        if value is None and col.is_key:
            return row, TypeMismatch(
                f"{schema.name}.{col.name} row {row}: key column may not be null", **where)
        if (value is not None and col.categorical_domain is not None
                and value not in col.categorical_domain):
            return row, DomainViolation(
                f"{schema.name}.{col.name} row {row}: {value!r} outside domain "
                f"{list(col.categorical_domain)}", **where)
    return None


def _load_table(schema: TableSchema, path: Path) -> FeatureTable:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise TypeMismatch(f"{path} is empty; header row required", table=schema.name) from None
            if tuple(header) != schema.column_names:
                raise TypeMismatch(
                    f"header {header!r} does not match schema columns "
                    f"{list(schema.column_names)!r}",
                    table=schema.name,
                )
            raw_rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TypeMismatch(f"cannot read table file {path}: {exc}", table=schema.name) from exc

    columns = _convert_columns(schema, raw_rows)
    table = FeatureTable(schema=schema, columns=columns, row_count=len(raw_rows))
    if schema.level is Level.GLOBAL and table.row_count != 1:
        raise CardinalityError(
            f"global table {schema.name!r} has {table.row_count} rows, expected exactly 1"
        )
    return table


def _load_sidecar(path: Path) -> tuple[dict[str, float] | None, str | None]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SidecarError(f"cannot read sidecar {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SidecarError("sidecar root must be a JSON object")

    cnn_probs = None
    if doc.get("cnn_probs") is not None:
        raw = doc["cnn_probs"]
        if not isinstance(raw, dict) or not raw:
            raise SidecarError("cnn_probs must be a non-empty object of label: probability")
        cnn_probs = {}
        for label, prob in raw.items():
            if not isinstance(prob, (int, float)) or isinstance(prob, bool):
                raise SidecarError(f"cnn_probs[{label!r}] is not a number")
            prob = float(prob)
            if not math.isfinite(prob) or not 0.0 <= prob <= 1.0:
                raise SidecarError(f"cnn_probs[{label!r}] = {prob} outside [0, 1]")
            cnn_probs[str(label)] = prob
        total = sum(cnn_probs.values())
        if abs(total - 1.0) > CNN_PROB_SUM_TOLERANCE:
            raise SidecarError(f"cnn_probs sum to {total}, expected 1 within {CNN_PROB_SUM_TOLERANCE}")

    ground_truth = doc.get("ground_truth")
    if ground_truth is not None and not isinstance(ground_truth, str):
        raise SidecarError("ground_truth must be a string label")
    return cnn_probs, ground_truth


def ingest_case(
    manifest: SchemaManifest,
    table_files: dict[str, str | Path],
    sidecar: str | Path | None = None,
    case_id: str = "",
) -> CaseBundle:
    """Load one case's tables (and optional sidecar) into an immutable bundle.

    Every manifest table must have a file; values are dtype-checked, keys
    non-null, categoricals within domain, and global tables single-row.
    """
    tables: dict[str, FeatureTable] = {}
    for schema in manifest.tables:
        if schema.name not in table_files:
            raise TypeMismatch(f"no file provided for table {schema.name!r}", table=schema.name)
        tables[schema.name] = _load_table(schema, Path(table_files[schema.name]))
    extra = set(table_files) - {t.name for t in manifest.tables}
    if extra:
        raise ManifestError(f"table file(s) {sorted(extra)} not declared in manifest")

    cnn_probs, ground_truth = (None, None)
    if sidecar is not None:
        cnn_probs, ground_truth = _load_sidecar(Path(sidecar))
    return CaseBundle(case_id=case_id, tables=tables, cnn_probs=cnn_probs, ground_truth=ground_truth)


def ingest_case_dir(manifest: SchemaManifest, case_dir: str | Path) -> CaseBundle:
    """Ingest a case laid out as ``<dir>/<table>.csv`` plus optional sidecar.

    The case id is the directory name.
    """
    case_dir = Path(case_dir)
    table_files = {t.name: case_dir / f"{t.name}.csv" for t in manifest.tables}
    sidecar = case_dir / SIDECAR_FILENAME
    return ingest_case(
        manifest,
        table_files,
        sidecar=sidecar if sidecar.exists() else None,
        case_id=case_dir.name,
    )


def load_training_split(manifest: SchemaManifest, root: str | Path) -> list[CaseBundle]:
    """Load every case subdirectory under ``root``, sorted by case id.

    Raises:
        CaseLoadError: a case failed to ingest; names the offending case id.
    """
    root = Path(root)
    bundles = []
    for case_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        try:
            bundles.append(ingest_case_dir(manifest, case_dir))
        except Exception as exc:
            raise CaseLoadError(case_dir.name, exc) from exc
    return bundles
