"""Immutable multi-scale feature tables and their typed schema manifest.

A case directory holds one CSV per manifest table plus an optional
``sidecar.json`` carrying externally computed classifier probabilities and/or
a ground-truth label. Everything loaded here is frozen; there is no write
path once a bundle exists.

A table is read and converted one chunk of ``_CHUNK_ROWS`` rows at a time,
so only that chunk's raw fields are alive beside the columns built so far.
After the header, which ``csv.reader`` reads, each chunk of lines that is
plainly quote-free (``_split_chunk``: no quote, carriage return, NUL or
blank line, no line longer than ``csv.field_size_limit()``, and the
header's comma count on every line) is split straight into its columns
from its text. The first chunk that is not hands itself and the rest of the
file to ``csv.reader``, which reads the remaining chunks. Both give the
fields ``csv.reader`` reads, so every error message and row number is the
same whichever path a chunk takes.

Each chunk is converted a column at a time, with ``values.coerce``'s
builtins and empty-is-null rule, and each dtype's checks run over the
chunk's whole columns; the chunks' columns are joined at the end. A
categorical column is mapped through its domain, so each of its cells is
the manifest's own string for its category. A column
that fails one is scanned again through ``coerce`` up to its first bad
cell, so a bad file reports the cell that comes first in row-major order,
with its table, column and row.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice, repeat
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
from evidencesql.serialize import json_field, malformed, read_json_file
from evidencesql.values import FLOAT_SAFE_LENGTH, Dtype, Value, coerce, fits_float

SIDECAR_FILENAME = "sidecar.json"
CNN_PROB_SUM_TOLERANCE = 1e-6
# Rows read and converted at a time: a table's raw fields are held one chunk
# at a time, not whole, while its columns are built.
_CHUNK_ROWS = 256


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


def _check_manifest(manifest: SchemaManifest, source: str) -> SchemaManifest:
    """``manifest`` if it keeps every structural invariant; else a
    ``ManifestError`` naming ``source``."""
    names = [t.name for t in manifest.tables]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise ManifestError(f"{source}: duplicate table name(s): {', '.join(dup)}")
    for table in manifest.tables:
        col_names = [c.name for c in table.columns]
        if len(set(col_names)) != len(col_names):
            raise ManifestError(f"{source}: duplicate column name(s) in table {table.name!r}")
        for col in table.columns:
            if col.categorical_domain is not None and col.dtype is not Dtype.TEXT:
                raise ManifestError(
                    f"{source}: categorical_domain on non-text column {table.name}.{col.name}"
                )
            if col.categorical_domain is not None and not col.categorical_domain:
                raise ManifestError(
                    f"{source}: empty categorical_domain on {table.name}.{col.name}"
                )
    return manifest


def _domain(value) -> tuple[str, ...] | None:
    if value is None:
        return None
    return tuple(json_field(v, "categorical_domain entry")
                 for v in json_field(value, "categorical_domain", list))


def manifest_from_dict(doc: object, source: str = "manifest") -> SchemaManifest:
    """Build and validate a manifest from its JSON object form; a document
    of the wrong shape or field type is a ``ManifestParseError``, and one
    that breaks a structural invariant a ``ManifestError``, naming
    ``source``."""
    if not isinstance(doc, dict):
        raise ManifestParseError(f"{source} must hold a JSON object")
    try:
        tables = []
        for tdoc in doc["tables"]:
            columns = tuple(
                ColumnSchema(
                    name=json_field(cdoc["name"], "column name"),
                    dtype=Dtype(cdoc["dtype"]),
                    unit=json_field(cdoc.get("unit"), "unit", nullable=True),
                    categorical_domain=_domain(cdoc.get("categorical_domain")),
                )
                for cdoc in tdoc["columns"]
            )
            tables.append(TableSchema(name=json_field(tdoc["name"], "table name"),
                                      level=Level(tdoc["level"]), columns=columns))
        manifest = SchemaManifest(version=str(doc["version"]), tables=tuple(tables))
    except (KeyError, TypeError, ValueError) as exc:
        raise malformed(source, exc, ManifestParseError) from exc
    return _check_manifest(manifest, source)


def load_manifest(path: str | Path) -> SchemaManifest:
    """Load and validate a schema manifest from a JSON file.

    Raises:
        ManifestParseError: the file is not readable JSON of the expected shape.
        ManifestError: the manifest violates a structural invariant.
    """
    doc = read_json_file(path, "manifest", ManifestParseError)
    return manifest_from_dict(doc, f"manifest {path}")


def canonical_manifest() -> SchemaManifest:
    """The packaged default schema covering cellular, architectural and
    whole-patch feature families."""
    text = resources.files("evidencesql.fixtures").joinpath("manifest.json").read_text("utf-8")
    return manifest_from_dict(json.loads(text))


def _split_chunk(lines: list[str], width: int) -> list[list[str]] | None:
    """The raw columns of a chunk of lines that is plainly quote-free, split
    straight from its text, or None for any other chunk.

    Plainly quote-free means no ``"``, carriage return or NUL, no blank
    line, no line longer than ``csv.field_size_limit()``, and ``width - 1``
    commas on every line: then each line is one record, and its fields are
    exactly what ``csv.reader`` reads.
    """
    text = "".join(lines)
    if ('"' in text or "\r" in text or "\0" in text or "\n" in lines
            or max(map(len, lines)) > csv.field_size_limit()
            or set(map(str.count, lines, repeat(","))) != {width - 1}):
        return None
    flat = text.removesuffix("\n").replace("\n", ",").split(",")
    return [flat[j::width] for j in range(width)]


def _csv_chunks(reader, width: int):
    """Each chunk of up to ``_CHUNK_ROWS`` rows ``reader`` reads, as its
    raw columns up to its first row of the wrong width, its row count, and
    that row's index in the chunk and field count, or None."""
    while rows := list(islice(reader, _CHUNK_ROWS)):
        bad = next(((i, len(raw)) for i, raw in enumerate(rows) if len(raw) != width), None)
        kept = rows if bad is None else rows[:bad[0]]
        yield list(zip(*kept)) or [()] * width, len(rows), bad
        del rows, kept  # freed before the next chunk is read, which reuses its memory


def _raw_chunks(fh, width: int):
    """``_csv_chunks`` of the rest of ``fh``: each plainly quote-free chunk
    of lines split by ``_split_chunk``; from the first other chunk on,
    ``csv.reader`` reads that chunk and the rest of the file."""
    while lines := list(islice(fh, _CHUNK_ROWS)):
        columns = _split_chunk(lines, width)
        if columns is None:  # the lines are dropped once the reader is past them
            reader, lines = csv.reader(chain(lines, fh)), None
            yield from _csv_chunks(reader, width)
            return
        yield columns, len(lines), None
        del lines, columns


def _convert_columns(schema: TableSchema, raw_columns: list, first: int,
                     bad: tuple[int, int] | None
                     ) -> tuple[dict[str, tuple], TypeMismatch | DomainViolation | None]:
    """The columns of the rows numbered from ``first``, converted one
    column at a time, and the error for their first bad row or cell in
    row-major order, or None.

    ``bad`` is the index and field count of the first row of the wrong
    width, whose error comes before any cell at or after it; the raw
    columns end before that row. The error names the earliest row, then the
    leftmost column. With an error, the columns are incomplete.
    """
    fault = None  # (row, error) of the earliest fault found so far
    if bad:
        i, fields = bad
        fault = (first + i, TypeMismatch(
            f"row {first + i} has {fields} fields, expected {len(schema.columns)}",
            table=schema.name, row=first + i))
    columns = {}
    for col, texts in zip(schema.columns, raw_columns):
        has_null = "" in texts
        try:
            if col.categorical_domain is not None:
                # one pass checks membership, nulls each empty text and
                # shares one string per category; "" is set last, so it is
                # null even where the domain lists it
                interned = {entry: entry for entry in col.categorical_domain} | {"": None}
                values = tuple(map(interned.__getitem__, texts))
            elif col.dtype is Dtype.TEXT:
                values = tuple([t or None for t in texts]) if has_null else tuple(texts)
            else:
                convert = int if col.dtype is Dtype.INTEGER else float
                values = (tuple([convert(t) if t else None for t in texts]) if has_null
                          else tuple(map(convert, texts)))
        except (ValueError, KeyError):
            ok = False
        else:
            # filter(None, ...) skips nulls and zeros, which are finite; only a
            # long text can hold an integer beyond float range
            ok = (not (has_null and col.is_key)
                  and (col.dtype is not Dtype.REAL or all(map(math.isfinite, filter(None, values))))
                  and (col.dtype is not Dtype.INTEGER
                       or max(map(len, texts), default=0) <= FLOAT_SAFE_LENGTH
                       or all(map(fits_float, filter(None, values)))))
        if ok:
            columns[col.name] = values
        else:
            # only rows before the earliest fault so far can win; a tie keeps
            # the column to the left
            fault = _first_bad_cell(
                schema, col, texts[:fault[0] - first if fault else None], first) or fault
    return columns, fault and fault[1]


def _first_bad_cell(schema: TableSchema, col: ColumnSchema, texts: tuple[str, ...],
                    first: int) -> tuple[int, TypeMismatch | DomainViolation] | None:
    """The row of the first cell in ``texts``, the rows numbered from
    ``first``, that breaks a rule, and the error naming it, converting
    each cell through ``coerce``."""
    for row, text in enumerate(texts, first):
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
    chunks, fault, row_count = [], None, 0
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
            # after a fault the rest is read but not converted, so an error
            # reading the file still wins wherever it lies
            for raw, rows, bad in _raw_chunks(fh, len(schema.columns)):
                if fault is None:
                    columns, fault = _convert_columns(schema, raw, row_count, bad)
                    chunks.append(columns)
                row_count += rows
                del raw  # freed before the next chunk is read, which reuses its memory
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TypeMismatch(f"cannot read table file {path}: {exc}", table=schema.name) from exc
    if fault:
        try:
            raise fault
        finally:  # kept, the error would keep itself and the rows through its traceback
            fault = None

    columns = chunks[0] if len(chunks) == 1 else {
        name: tuple(chain.from_iterable(chunk[name] for chunk in chunks))
        for name in schema.column_names}
    table = FeatureTable(schema=schema, columns=columns, row_count=row_count)
    if schema.level is Level.GLOBAL and table.row_count != 1:
        raise CardinalityError(
            f"global table {schema.name!r} has {table.row_count} rows, expected exactly 1"
        )
    return table


def _load_sidecar(path: Path) -> tuple[dict[str, float] | None, str | None]:
    doc = read_json_file(path, "sidecar", SidecarError)
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
            try:
                prob = float(prob)
            except OverflowError as exc:
                raise SidecarError(f"cnn_probs[{label!r}] outside [0, 1]: {exc}") from exc
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

    The case id is the directory's name, taken after making the path absolute
    so that ``.`` names the current directory; a symlink keeps its own name.
    """
    case_dir = Path(case_dir)
    table_files = {t.name: case_dir / f"{t.name}.csv" for t in manifest.tables}
    sidecar = case_dir / SIDECAR_FILENAME
    return ingest_case(
        manifest,
        table_files,
        sidecar=sidecar if sidecar.exists() else None,
        case_id=os.path.basename(os.path.abspath(case_dir)),
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
