"""Exception taxonomy shared across the package.

Guard rejections are deliberately NOT exceptions: a bad model-emitted query
is an expected outcome, returned as a value so callers can regenerate.
Everything here signals a genuinely broken input or a violated contract.

Each class names the CLI stage it is reported under as its ``stage``:
``config`` (exit 2) for unusable run inputs, ``ingest``, ``execute`` or
``calibrate`` for a failure in that part of a run, and ``pipeline`` for
everything else in the package (exit 1). A subclass inherits its parent's
stage.
"""

from __future__ import annotations


class EvidenceSqlError(Exception):
    """Base class for all package errors."""

    stage = "pipeline"


# -- feature store ------------------------------------------------------


class ManifestParseError(EvidenceSqlError):
    """Manifest file is not well-formed JSON or misses required keys."""

    stage = "config"


class ManifestError(EvidenceSqlError):
    """Manifest violates a structural invariant (duplicate names, bad domains)."""

    stage = "config"


class _CellError(EvidenceSqlError):
    """An ingest error that names where it happened: table, column, row."""

    stage = "ingest"

    def __init__(self, message: str, table: str | None = None,
                 column: str | None = None, row: int | None = None):
        super().__init__(message)
        self.table = table
        self.column = column
        self.row = row


class TypeMismatch(_CellError):
    """A table value does not conform to its declared dtype."""


class DomainViolation(_CellError):
    """A categorical value lies outside the declared domain."""


class CardinalityError(EvidenceSqlError):
    """A table has the wrong row count (global tables hold exactly one row)."""

    stage = "ingest"


class SidecarError(EvidenceSqlError):
    """Sidecar JSON is malformed or its probabilities are invalid."""

    stage = "ingest"


class CaseLoadError(EvidenceSqlError):
    """A case in a training split failed to load; carries the case id."""

    stage = "calibrate"

    def __init__(self, case_id: str, cause: Exception):
        super().__init__(f"case {case_id!r}: {cause}")
        self.case_id = case_id
        self.cause = cause


class MissingLabel(EvidenceSqlError):
    """A training case lacks the ground-truth label required for calibration."""

    stage = "calibrate"

    def __init__(self, case_id: str):
        super().__init__(f"training case {case_id!r} has no ground_truth label")
        self.case_id = case_id


# -- SQL frontend --------------------------------------------------------


class SqlSyntaxError(EvidenceSqlError):
    """Input text does not match the query grammar.

    ``position`` is the byte offset of the first offending token and
    ``expected`` the set of token descriptions that would have been legal.
    """

    def __init__(self, message: str, position: int, expected: frozenset[str] = frozenset(),
                 token: str = ""):
        super().__init__(f"{message} at offset {position}")
        self.message = message
        self.position = position
        self.expected = expected
        self.token = token


class UnsupportedFeature(EvidenceSqlError):
    """Recognizable SQL that falls outside the supported subset."""

    def __init__(self, feature: str, position: int):
        super().__init__(f"unsupported SQL feature {feature} at offset {position}")
        self.feature = feature
        self.position = position


# -- execution -----------------------------------------------------------


class TableNotInBundle(EvidenceSqlError):
    """The query's FROM table is absent from the case bundle."""

    stage = "execute"

    def __init__(self, table: str, case_id: str):
        super().__init__(f"table {table!r} not present in case {case_id!r}")
        self.table = table
        self.case_id = case_id


class ArithmeticDomain(EvidenceSqlError):
    """A math function left its domain (square root of a negative value).

    ``row_index`` is the 0-based source row being evaluated, or None when the
    offending value came from an aggregate rather than a single row.
    """

    stage = "execute"

    def __init__(self, message: str, row_index: int | None):
        super().__init__(message)
        self.row_index = row_index


# -- agents / backends ----------------------------------------------------


class BackendError(EvidenceSqlError):
    """The text-generation backend failed (transport, timeout, bad status)."""


class EmptyGeneration(EvidenceSqlError):
    """The backend produced no usable plan or SQL after all retries."""


# -- knowledge validation --------------------------------------------------


class NonFiniteObservation(EvidenceSqlError):
    """Observed value is null, non-finite or beyond float range; no fit can be
    scored."""


class NoEvidence(EvidenceSqlError):
    """No finding carries a scored option; caller should fall back to uniform."""


# -- fusion / report --------------------------------------------------------


class OptionMismatch(EvidenceSqlError):
    """Classifier and hypothesis cover different option sets."""


class DanglingQueryId(EvidenceSqlError):
    """A finding references a query id absent from the execution trace."""


class ConfigError(EvidenceSqlError):
    """Run configuration is unusable (bad mode, malformed input file,
    missing required inputs)."""

    stage = "config"
