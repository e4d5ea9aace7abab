"""Typed cell values and dtype coercion shared by the store and the engine.

A cell value is a plain Python object: ``int``, ``float``, ``str`` or ``None``
for null. Finite-ness is enforced at every boundary — a ``float`` value inside
a loaded table or query result is never NaN or infinite.
"""

from __future__ import annotations

import enum
import math

from evidencesql.errors import TypeMismatch

Value = int | float | str | None


class Dtype(enum.Enum):
    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"


# An integer text this long or shorter is below 1e308, so float() holds it;
# the engine converts integers to float in arithmetic and scoring.
FLOAT_SAFE_LENGTH = 308


# The least integer that float() rejects: it lies halfway between the largest
# float and 2**1024, and the tie rounds to 2**1024, which overflows.
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


def fits_float(value: int) -> bool:
    """Whether ``float(value)`` succeeds."""
    return -_FLOAT_LIMIT < value < _FLOAT_LIMIT


def coerce(text: str, dtype: Dtype) -> Value:
    """Convert a raw CSV field to a typed value. Empty string means null.
    ``feature_store`` converts whole columns with the same builtins, and
    calls this on the cells of a column that breaks a rule to name the
    first bad one.

    Raises:
        TypeMismatch: the field cannot be represented under ``dtype``
            (including non-finite reals and integers beyond float range).
    """
    if text == "":
        return None
    if dtype is Dtype.TEXT:
        return text
    if dtype is Dtype.INTEGER:
        try:
            value = int(text)
        except ValueError:
            raise TypeMismatch(f"{text!r} is not an integer") from None
        if len(text) > FLOAT_SAFE_LENGTH and not fits_float(value):
            raise TypeMismatch(f"{len(text)}-character integer is beyond float range")
        return value
    try:
        value = float(text)
    except ValueError:
        raise TypeMismatch(f"{text!r} is not a real number") from None
    if not math.isfinite(value):
        raise TypeMismatch(f"{text!r} is not finite")
    return value


def render_value(value: Value) -> str:
    """Canonical text form used for CSV round-trips and result display."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
